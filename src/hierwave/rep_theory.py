"""SU(2) irreducible-representation algebra.

Irreps are labeled by spin j (stored as 2j, an exact integer), tensor
products are decomposed by counting weights in one exact big-integer
product of the factors' weight polynomials, and Clebsch-Gordan
coefficients are evaluated from the binomial form of Racah's sum, every
term an exact product of three binomials (Condon-Shortley phase convention
throughout); no factorial table is kept between calls. The coefficients
are cached in one bounded dict with one entry per +-m pair, the partner
taking the (-1)^(j1+j2-J) phase; a query is checked where it is built, each
(2j, 2m) pair by the rule and wording of a state's SpinWeight.
"""

from __future__ import annotations

from math import comb, prod, sqrt

from ._value import _exact, _shown, _Value


class EmptyProductError(ValueError):
    """decompose_product called with no factors."""


class InvalidQueryError(ValueError):
    """A CGQuery pair (2j, 2m) that is not an SU(2) weight."""


class SpinRangeError(ValueError):
    """A spin above MAX_TWICE_J, or spin text too long to parse as one."""


class ProductSizeError(ValueError):
    """A tensor product whose weight integer would exceed MAX_PRODUCT_BYTES."""


# The largest 2j taken from outside (j = 5000): parse_j, a state's spin labels
# and decompose_product's factors are held to it.  The integer that
# decompose_product multiplies has (sum of 2j + 1) * w bytes, so an unbounded
# spin costs unbounded memory; at the bound, two factors take about 40 ms.
MAX_TWICE_J = 10_000

# The most characters parse_j reads, and the largest decimal exponent it takes
# in size: Fraction builds 10**exponent, so "1e10000000" would spend seconds
# there, and no spin up to MAX_TWICE_J needs either to be larger.
MAX_SPIN_TEXT = 100

# The most bytes decompose_product's weight integer may take, (sum of 2j + 1) * w.
# Its cost grows about as the 1.6th power of this size: two spins at
# MAX_TWICE_J take 80 KB, 1,000 spin-1/2 factors 126 KB and 0.07 s, while
# 4,000 of them would take 2 MB and about 5 s.
MAX_PRODUCT_BYTES = 512 * 1024

# The most entries clebsch_gordan's cache holds: it is cleared whole when it
# reaches this size.  An entry (key tuple, float and dict slot) takes about
# 170 B of resident memory, so a full cache holds about 21 MB (Python 3.11);
# the benchmark's three coupling tables fill 23,007.
MAX_CG_CACHE = 1 << 17

_cg_cache: dict[tuple[int, int, int, int, int, int], float] = {}  # canonical query -> value


def format_j(twice_j: int) -> str:
    """Render 2j as "1/2", "1", "3/2", ..."""
    return str(twice_j // 2) if twice_j % 2 == 0 else f"{twice_j}/2"


def check_spin_range(twice_j: int) -> None:
    """Raise SpinRangeError if 2j is above MAX_TWICE_J."""
    if twice_j > MAX_TWICE_J:
        raise SpinRangeError(f"twice_j must be <= {MAX_TWICE_J}, got {_shown(twice_j)}")


def _check_weight(twice_j, twice_m, error: type[ValueError], prefix: str) -> None:
    """Raise error, its message opening with prefix, unless (2j, 2m) is an SU(2)
    weight: exact ints, as a float or bool would pass as an equal label, with
    2j >= 0, |m| <= j, and m and j of one parity."""
    try:
        _exact(twice_j, int, "twice_j", "an int", error)
        _exact(twice_m, int, "twice_m", "an int", error)
    except error as exc:  # the prefixed name is built only for the message
        raise error(prefix + str(exc)) from None
    if twice_j < 0:
        raise error(f"{prefix}twice_j must be >= 0, got {_shown(twice_j)}")
    if abs(twice_m) > twice_j:
        raise error(f"{prefix}|m| > j for (2j, 2m) = ({_shown(twice_j)}, {_shown(twice_m)})")
    if (twice_m - twice_j) % 2:
        raise error(f"{prefix}m and j parity mismatch: (2j, 2m) = ({_shown(twice_j)}, {_shown(twice_m)})")


def parse_j(text: str) -> int:
    """Parse a spin like "1/2", "1.5" or "2" into its doubled integer value.

    Text longer than MAX_SPIN_TEXT characters, or with a decimal exponent
    above MAX_SPIN_TEXT in size, raises SpinRangeError before it is parsed.
    """
    from fractions import Fraction  # here, so that importing hierwave loads no fractions or decimal

    stripped = text.strip()
    if len(stripped) > MAX_SPIN_TEXT:
        raise SpinRangeError(f"spin text must be at most {MAX_SPIN_TEXT} characters, got {len(stripped)}")
    # the digits after an "e", as Fraction would read them; anything else it rejects itself
    exponent = stripped.lower().partition("e")[2].lstrip("+-").replace("_", "")
    if exponent.isdecimal() and int(exponent) > MAX_SPIN_TEXT:
        raise SpinRangeError(f"spin exponent must be at most {MAX_SPIN_TEXT} in size, got {stripped!r}")
    message = f"not a valid non-negative (half-)integer spin: {text!r}"
    try:
        twice = 2 * Fraction(stripped)
    except ZeroDivisionError:  # "1/0"
        raise ValueError(message) from None
    if twice.denominator != 1 or twice < 0:
        raise ValueError(message)
    check_spin_range(twice.numerator)
    return twice.numerator


class IrrepLabel(_Value):
    __slots__ = ("twice_j",)

    def __init__(self, twice_j: int) -> None:
        # exact ints only: a float would make dim and the weight count non-integral
        if _exact(twice_j, int, "twice_j", "an int") < 0:
            raise ValueError(f"twice_j must be >= 0, got {_shown(twice_j)}")
        object.__setattr__(self, "twice_j", twice_j)

    @property
    def dim(self) -> int:
        return self.twice_j + 1

    def __str__(self) -> str:
        return format_j(self.twice_j)


class IrrepSum(_Value):
    """Multiset of irreps with integer multiplicities, ordered by descending j."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[IrrepLabel, int], ...]) -> None:
        object.__setattr__(self, "entries", entries)

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


def decompose_product(factors: list[IrrepLabel] | tuple[IrrepLabel, ...]) -> IrrepSum:
    """Decompose a tensor product of irreps into irreducible blocks with
    multiplicities, by counting weights in one big-integer product.

    The weights 2m = -2j, -2j+2, ..., 2j of spin j have the generating
    function 1 + X + ... + X^(2j) = (X^(2j+1) - 1) / (X - 1), so the count
    N(M) of product-basis vectors of total weight M is one coefficient of
    the product of these repunits, and mult(J) = N(M=J) - N(M=J+1).  No
    count exceeds the product dimension, so with X = 2^(8w) and
    w = dim.bit_length() // 8 + 1 bytes per digit the coefficients never
    carry and the product is one exact integer (Kronecker substitution).
    Factors of equal dimension share one power.  Cost: one big-integer
    power per distinct dimension, the result having (sum of 2j + 1) * w
    bytes, then one digit read per J in the upper half; no Python-level
    work per (entry, J) pair.  A factor above MAX_TWICE_J raises
    SpinRangeError, and a product above MAX_PRODUCT_BYTES ProductSizeError,
    before any multiplication of weights.
    """
    if not factors:
        raise EmptyProductError("cannot decompose an empty tensor product")
    groups: dict[int, int] = {}  # dimension -> number of factors
    top = 0  # sum of 2j: the highest total weight 2M
    for factor in factors:
        check_spin_range(factor.twice_j)
        d = factor.twice_j + 1
        groups[d] = groups.get(d, 0) + 1
        top += d - 1
    dim = prod(d ** k for d, k in groups.items())  # one power per group: cheap for any factor count
    w = dim.bit_length() // 8 + 1
    size = (top + 1) * w
    if size > MAX_PRODUCT_BYTES:
        raise ProductSizeError(f"the weight product of {len(factors)} factors would take "
                               f"{size} bytes, above the bound of {MAX_PRODUCT_BYTES}")
    bits = 8 * w
    weights = _weight_product(groups, bits)
    # digit i of the upper half is N(M) at 2M = top % 2 + 2i; walk it from the
    # top down, so the entries come out by descending j, and since the counts
    # fall from M = 0 up, each mult is >= 0
    half = top // 2
    raw = (weights >> bits * (top - half)).to_bytes((half + 1) * w, "little")
    entries = []
    above = 0  # N(M+1); none above the top weight
    for i in range(half, -1, -1):
        n = int.from_bytes(raw[i * w:(i + 1) * w], "little")
        if n != above:
            entries.append((IrrepLabel(top % 2 + 2 * i), n - above))
        above = n
    result = IrrepSum(tuple(entries))
    assert result.total_dim == dim, "dimension bookkeeping error"
    return result


def _weight_product(groups: dict[int, int], bits: int) -> int:
    """The product of the repunits (X^d - 1) / (X - 1), each to the power of its
    count, at X = 2^bits: the weight polynomial of the tensor product."""
    digit_mask = (1 << bits) - 1  # X - 1
    weights = 1
    for d, k in groups.items():
        weights *= (((1 << bits * d) - 1) // digit_mask) ** k
    return weights


class CGQuery(_Value):
    """Coupling query <j1 m1 j2 m2 | J M>, all entries as doubled integers;
    each (2j, 2m) pair must be a weight, as a SpinWeight's is, or
    InvalidQueryError names the pair."""

    __slots__ = ("twice_j1", "twice_m1", "twice_j2", "twice_m2", "twice_J", "twice_M")

    def __init__(self, twice_j1: int, twice_m1: int, twice_j2: int, twice_m2: int,
                 twice_J: int, twice_M: int) -> None:
        _check_weight(twice_j1, twice_m1, InvalidQueryError, "j1/m1: ")
        _check_weight(twice_j2, twice_m2, InvalidQueryError, "j2/m2: ")
        _check_weight(twice_J, twice_M, InvalidQueryError, "J/M: ")
        for name, value in zip(self.__slots__, (twice_j1, twice_m1, twice_j2, twice_m2, twice_J, twice_M)):
            object.__setattr__(self, name, value)


def _cg_value(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> float:
    """<j1 m1 j2 m2 | J M> for a valid query with M > 0, or M = 0 and m1 >= 0."""
    if tM != tm1 + tm2 or not abs(tj1 - tj2) <= tJ <= tj1 + tj2:
        return 0.0

    # Racah's sum in binomial form: with a = j1+j2-J, b = j1-m1, c = j2+m2,
    # p = j1-j2+J and q = J+j2-j1, S = sum over k of (-1)^k C(a,k) C(p,b-k) C(q,c-k),
    # every term an exact integer; the range is never empty for a valid query
    a = (tj1 + tj2 - tJ) // 2
    b = (tj1 - tm1) // 2
    c = (tj2 + tm2) // 2
    p = (tj1 - tj2 + tJ) // 2
    q = (tJ + tj2 - tj1) // 2
    S = 0
    for k in range(max(0, b - p, c - q), min(a, b, c) + 1):
        term = comb(a, k) * comb(p, b - k) * comb(q, c - k)
        S += -term if k % 2 else term
    if S == 0:
        return 0.0

    # CG^2 = (2J+1) C(2j1,a) C(2J,q) S^2 / ((n+1) C(n,p) C(2j1,b) C(2j2,c) C(2J,J+M)),
    # n = j1+j2+J, as one int ratio: int / int true division rounds correctly,
    # like float(Fraction), so the same rational always gives the same double
    n = a + p + q
    num = (tJ + 1) * comb(tj1, a) * comb(tJ, q) * S * S
    den = (n + 1) * comb(n, p) * comb(tj1, b) * comb(tj2, c) * comb(tJ, (tJ + tM) // 2)
    value = sqrt(num / den)
    return value if S > 0 else -value


def clebsch_gordan(q: CGQuery) -> float:
    """Clebsch-Gordan coefficient <j1 m1 j2 m2 | J M>, Condon-Shortley phases.

    Returns 0 when M != m1+m2 or J lies outside the coupling series.
    Racah's sum in binomial form, three binomials per term, in exact integers;
    the square is one correctly rounded int ratio, so the float result is
    within ~1 ulp at any spin unless its square underflows.  A cold query at
    2j1 = 2j2 = 2000 takes about 15-35 ms (2-core Xeon, Python 3.11).
    Values are cached in _cg_cache, one entry per +-m pair under the member
    with M > 0, or M = 0 and m1 >= 0; the other member is the (-1)^(j1+j2-J)
    phase times it, and a zero keeps its + sign.  The cache is cleared whole
    when it reaches MAX_CG_CACHE entries.  It raises nothing itself: CGQuery
    refuses an invalid query where it is built.
    """
    tj1, tm1, tj2, tm2, tJ, tM = q.twice_j1, q.twice_m1, q.twice_j2, q.twice_m2, q.twice_J, q.twice_M
    # <j1 -m1 j2 -m2 | J -M> = (-1)^(j1+j2-J) <j1 m1 j2 m2 | J M>, the same
    # rational square, so the same double
    flip = tM < 0 or (tM == 0 and tm1 < 0)
    key = (tj1, -tm1, tj2, -tm2, tJ, -tM) if flip else (tj1, tm1, tj2, tm2, tJ, tM)
    value = _cg_cache.get(key)
    if value is None:
        if len(_cg_cache) >= MAX_CG_CACHE:
            _cg_cache.clear()
        value = _cg_cache[key] = _cg_value(*key)
    return -value if flip and value and (tj1 + tj2 - tJ) % 4 else value
