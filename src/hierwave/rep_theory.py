"""SU(2) irreducible-representation algebra.

Irreps are labeled by spin j (stored as 2j, an exact integer), tensor
products are decomposed by folding the pairwise coupling series with
exact integer multiplicities, and Clebsch-Gordan coefficients are
evaluated from Racah's formula as an exact integer closed-form sum
(Condon-Shortley phase convention throughout). The coefficients are
cached: one sum is evaluated per +-m pair, the partner taking the
(-1)^(j1+j2-J) phase, and a query is validated on its first call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import sqrt


class EmptyProductError(ValueError):
    """decompose_product called with no factors."""


class InvalidQueryError(ValueError):
    """Clebsch-Gordan query violating |m| <= j or j/m parity."""


def format_j(twice_j: int) -> str:
    """Render 2j as "1/2", "1", "3/2", ..."""
    return str(twice_j // 2) if twice_j % 2 == 0 else f"{twice_j}/2"


def parse_j(text: str) -> int:
    """Parse a spin like "1/2", "1.5" or "2" into its doubled integer value."""
    message = f"not a valid non-negative (half-)integer spin: {text!r}"
    try:
        twice = 2 * Fraction(text.strip())
    except ZeroDivisionError:  # "1/0"
        raise ValueError(message) from None
    if twice.denominator != 1 or twice < 0:
        raise ValueError(message)
    return int(twice)


@dataclass(frozen=True, order=True)
class IrrepLabel:
    twice_j: int

    def __post_init__(self) -> None:
        if self.twice_j < 0:
            raise ValueError(f"twice_j must be >= 0, got {self.twice_j}")

    @property
    def dim(self) -> int:
        return self.twice_j + 1

    def __str__(self) -> str:
        return format_j(self.twice_j)


@dataclass(frozen=True)
class IrrepSum:
    """Multiset of irreps with integer multiplicities, ordered by descending j."""

    entries: tuple[tuple[IrrepLabel, int], ...]

    @classmethod
    def from_counts(cls, counts: dict[IrrepLabel, int]) -> "IrrepSum":
        for label, mult in counts.items():
            if mult < 1:
                raise ValueError(f"multiplicity of {label} must be >= 1, got {mult}")
        ordered = tuple(sorted(counts.items(), key=lambda kv: -kv[0].twice_j))
        return cls(ordered)

    def multiplicity(self, label: IrrepLabel) -> int:
        for lab, mult in self.entries:
            if lab == label:
                return mult
        return 0

    @property
    def total_dim(self) -> int:
        return sum(mult * lab.dim for lab, mult in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __str__(self) -> str:
        return " + ".join(f"{mult}x[{lab}]" for lab, mult in self.entries)


def couple_pair(j1: IrrepLabel, j2: IrrepLabel) -> IrrepSum:
    """Coupling series of two irreps: J = |j1-j2| ... j1+j2, each once."""
    return decompose_product([j1, j2])


def decompose_product(factors: list[IrrepLabel] | tuple[IrrepLabel, ...]) -> IrrepSum:
    """Decompose a tensor product of irreps into irreducible blocks with
    multiplicities, by left-folding the pairwise series over 2j integers."""
    if not factors:
        raise EmptyProductError("cannot decompose an empty tensor product")
    counts = {factors[0].twice_j: 1}
    for factor in factors[1:]:
        tf = factor.twice_j
        nxt: dict[int, int] = {}
        for tj, mult in counts.items():
            for tJ in range(abs(tj - tf), tj + tf + 1, 2):
                nxt[tJ] = nxt.get(tJ, 0) + mult
        counts = nxt
    result = IrrepSum.from_counts({IrrepLabel(tj): mult for tj, mult in counts.items()})
    expected = 1
    for f in factors:
        expected *= f.dim
    assert result.total_dim == expected, "dimension bookkeeping error"
    return result


@dataclass(frozen=True)
class CGQuery:
    """Coupling query <j1 m1 j2 m2 | J M>, all entries as doubled integers."""

    twice_j1: int
    twice_m1: int
    twice_j2: int
    twice_m2: int
    twice_J: int
    twice_M: int

    def __post_init__(self) -> None:
        # exact ints only: an equal float or bool would share a validated cache key
        for name in self.__dataclass_fields__:  # not vars(self): that builds a dict per instance
            value = getattr(self, name)
            if type(value) is not int:
                raise InvalidQueryError(f"{name} must be an int, got {value!r}")


_FACT = [1]  # _FACT[n] == n!, extended on demand


def _factorials(n: int) -> list[int]:
    """The factorial table, long enough to index n."""
    for i in range(len(_FACT), n + 1):
        _FACT.append(_FACT[-1] * i)
    return _FACT


@lru_cache(maxsize=None)
def _cg_value(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> float:
    # validate before anything else: lru_cache stores no exception, so an
    # invalid query raises on every call, naming the m it was given
    for tj, tm, name in ((tj1, tm1, "j1/m1"), (tj2, tm2, "j2/m2"), (tJ, tM, "J/M")):
        if tj < 0:
            raise InvalidQueryError(f"{name}: negative spin 2j={tj}")
        if abs(tm) > tj:
            raise InvalidQueryError(f"{name}: |m| > j (2j={tj}, 2m={tm})")
        if (tm - tj) % 2 != 0:
            raise InvalidQueryError(f"{name}: parity mismatch (2j={tj}, 2m={tm})")

    if tM != tm1 + tm2:
        return 0.0
    if not abs(tj1 - tj2) <= tJ <= tj1 + tj2:
        return 0.0
    if (tj1 + tj2 + tJ) % 2 != 0:
        return 0.0

    # evaluate one of each +-m pair, the one with M > 0, or M = 0 and m1 >= 0:
    # <j1 -m1 j2 -m2 | J -M> = (-1)^(j1+j2-J) <j1 m1 j2 m2 | J M>, the same
    # rational square, so the same double; a zero keeps its + sign
    if tM < 0 or (tM == 0 and tm1 < 0):
        v = _cg_value(tj1, -tm1, tj2, -tm2, tJ, -tM)
        return -v if v and (tj1 + tj2 - tJ) % 4 else v

    # Racah sum over k of (-1)^k / (k! (a-k)! (b-k)! (c-k)! (d+k)! (e+k)!), times
    # the common denominator D so that every term is an exact integer; the
    # range is never empty for a query that passed the checks above.
    a = (tj1 + tj2 - tJ) // 2
    b = (tj1 - tm1) // 2
    c = (tj2 + tm2) // 2
    d = (tJ - tj2 + tm1) // 2
    e = (tJ - tj1 - tm2) // 2
    k_min = max(0, -d, -e)
    k_max = min(a, b, c)
    f = _factorials((tj1 + tj2 + tJ) // 2 + 1)
    D = f[k_max] * f[a - k_min] * f[b - k_min] * f[c - k_min] * f[d + k_max] * f[e + k_max]
    S = 0
    for k in range(k_min, k_max + 1):
        term = D // (f[k] * f[a - k] * f[b - k] * f[c - k] * f[d + k] * f[e + k])
        S += -term if k % 2 else term
    if S == 0:
        return 0.0

    # (2J+1) * triangle coefficient * the six m factorials * S^2 / D^2, as one
    # int ratio: int / int true division rounds correctly, like float(Fraction)
    num = (
        (tJ + 1)
        * f[a] * f[(tj1 - tj2 + tJ) // 2] * f[(tj2 - tj1 + tJ) // 2]
        * f[(tJ + tM) // 2] * f[(tJ - tM) // 2]
        * f[b] * f[(tj1 + tm1) // 2]
        * f[(tj2 - tm2) // 2] * f[c]
        * S * S
    )
    den = f[(tj1 + tj2 + tJ) // 2 + 1] * D * D
    value = sqrt(num / den)
    return value if S > 0 else -value


def clebsch_gordan(q: CGQuery) -> float:
    """Clebsch-Gordan coefficient <j1 m1 j2 m2 | J M>, Condon-Shortley phases.

    Returns 0 when M != m1+m2 or J lies outside the coupling series.
    Exact integer sum; the float result is within ~1 ulp at any spin unless its square underflows.
    Values are cached: one sum is evaluated per +-m pair (the other member is
    the (-1)^(j1+j2-J) phase times it), and a query is validated on its first
    call; an invalid one raises InvalidQueryError on every call.
    """
    return _cg_value(q.twice_j1, q.twice_m1, q.twice_j2, q.twice_m2, q.twice_J, q.twice_M)
