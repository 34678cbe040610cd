"""Description-length proxy for evolution-operator time series.

True Kolmogorov complexity is uncomputable, so series are judged by a
fully pinned-down compressor instead: values are quantized to integer
symbols, the symbols pass through move-to-front over a first-appearance
dictionary, run-length coding, and Elias-gamma integer codes.  A series
whose compressed size stays close to (or above) its raw size behaves
like an irreducible record ("SeriesLike"); one that collapses is well
captured by a short generative rule ("RuleLike").

Bit-stream layout (all integers Elias-gamma coded; the code of n is
2*n.bit_length() - 1 bits long, so description_length sums the code
lengths without building the stream, each run's pair of lengths inline;
a run of one symbol, the common run of a noisy series, adds only its
value's code and the 1 bit of gamma(1)):
    gamma(K)                        number of distinct symbols
    K * gamma(zigzag(symbol) + 1)   dictionary, first-appearance order
    gamma(n)                        series length
    runs of gamma(mtf_value + 1), gamma(run_length) until n symbols out

The dictionary order makes the body invariant under symbol relabeling:
a permutation only changes the dictionary header.

No move-to-front list is kept, and the symbols are read in one pass.  The
move-to-front position of a symbol equals its recency rank, the number
of distinct symbols seen since its last occurrence (Elias, IEEE Trans.
IT 33(1), 1987; Bentley, Sleator, Tarjan & Wei, CACM 29(4), 1986).  The
coder keeps the symbols' last-occurrence times in one sorted list and
finds each rank by bisection: O(log K) per symbol plus a C memmove of
the list, instead of an O(K) scan of the move-to-front list.  Because
the dictionary lists symbols in order of first appearance, a symbol
appearing for the first time sits just behind every symbol seen so far:
its position is the count of distinct symbols seen so far.  So the
dictionary needs no pass of its own, and `classify` codes the quantized
values as they stream, holding O(K) memory, not O(n).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Sequence
from enum import Enum
from itertools import repeat
from operator import truediv

from ._value import _numbers, _shown, _Value

DEFAULT_THRESHOLD = 0.5


class Verdict(Enum):
    RULE_LIKE = "RuleLike"
    SERIES_LIKE = "SeriesLike"


class MatrixElementSeries(_Value):
    """A non-empty series of values and the step that quantizes them.  Each
    value is a number (_value._numbers: an exact int or float, so not a str,
    a bool or a Decimal), stored as a float; the step keeps its own rule, so
    that an exact Fraction stays exact."""

    __slots__ = ("values", "quantization")

    def __init__(self, values: tuple[float, ...], quantization: float) -> None:
        values = _numbers(values, values, float, "values", "numbers within the float range")
        if not values:
            raise ValueError("series must be non-empty")
        if quantization.__class__ is bool:  # True is not a step; its own rule keeps a Fraction exact
            raise ValueError(f"quantization must be a number, got {_shown(quantization)}")
        try:
            positive = 0 < quantization < math.inf
        except TypeError:  # not a number
            positive = False
        if not positive:
            raise ValueError(f"quantization must be positive and finite, got {_shown(quantization)}")
        try:  # the division _symbols does: a float must divide by it, and as a float it is neither inf nor 0.0
            1.0 / quantization
        except TypeError:  # a number that orders with floats but does not divide one, such as a Decimal
            raise ValueError(f"quantization must be a number, got {_shown(quantization)}") from None
        except (OverflowError, ZeroDivisionError):  # an int or Fraction too large, or a Fraction too small
            raise ValueError(f"quantization must lie within the float range, got {_shown(quantization)}") from None
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "quantization", quantization)


ComplexityReport = namedtuple("ComplexityReport", ("raw_bits", "compressed_bits", "ratio", "verdict", "threshold"))


def _symbols(series: MatrixElementSeries) -> Iterable[int]:
    """floor(value / quantization) for each value, as a stream."""
    return map(math.floor, map(truediv, series.values, repeat(series.quantization)))


def symbolize(series: MatrixElementSeries) -> list[int]:
    """Map each value to floor(value / quantization); a value whose quotient
    is not finite raises ValueError naming its 1-based position."""
    try:
        return list(_symbols(series))
    except (OverflowError, ValueError):
        q = series.quantization
        i, v = next((i, v) for i, v in enumerate(series.values, 1) if not math.isfinite(v / q))
        raise ValueError(f"value {i} is {v!r}: {v!r} / {q!r} is not finite") from None


def _zigzag(s: int) -> int:
    return 2 * s if s >= 0 else -2 * s - 1


def _gamma_len(n: int) -> int:
    """Length of the Elias-gamma code of n >= 1."""
    return 2 * n.bit_length() - 1


def _header_bits(order: list[int]) -> int:
    return _gamma_len(len(order)) + sum(_gamma_len(_zigzag(s) + 1) for s in order)


def _coded(symbols: Iterable[int]) -> tuple[int, int, int]:
    """(n, K, compressed bits) of the symbols, read in one pass.

    The move-to-front position of a symbol is its recency rank: the number
    of distinct symbols seen since its last occurrence.  `times` holds the
    last-occurrence times of the symbols seen so far in sorted order, so
    that rank is `top` minus the bisection index of the symbol's own time:
    O(log K) to find, plus a C memmove of `times` to move the symbol to the
    end.  A symbol not yet seen sits behind all that were, at the count of
    symbols seen so far.  A repeated symbol is already at position 0 and
    leaves the order unchanged, so it skips the update.  `last` keeps its
    keys in first-appearance order, the dictionary's order.  A run's code
    lengths are summed as it closes, and the length code of a run of one
    symbol, gamma(1), is 1 bit and needs no `bit_length` call.
    """
    last: dict[int, int] = {}
    times: list[int] = []
    gamma2: list[int] = []  # gamma2[pos] = 2 * bit_length(pos + 1), one entry per position reached
    top = -1  # the index in `times` of MTF position 0
    prev = None  # equal to no symbol
    bits = 0
    # the first symbol always sits at MTF position 0, so the first run
    # starts there
    run_val, run_len = 0, 0
    for t, s in enumerate(symbols):
        if s == prev:
            pos = 0
        else:
            try:
                i = bisect_left(times, last[s])
            except KeyError:  # a first appearance
                top += 1
                pos = top
                gamma2.append(2 * (pos + 1).bit_length())
            else:
                del times[i]
                pos = top - i
            times.append(t)
            last[s] = t
            prev = s
        if pos == run_val:
            run_len += 1
        else:
            # gamma(run_val + 1) + gamma(run_len), summed inline, is
            # gamma2[run_val] + 2 * run_len.bit_length() - 2, so a run of one
            # symbol adds gamma2[run_val] alone (`run_len >= 1` adds 0 more)
            bits += gamma2[run_val]
            if run_len > 1:
                bits += 2 * run_len.bit_length() - 2
            run_val, run_len = pos, 1
    if not last:
        raise ValueError("cannot encode an empty symbol sequence")
    n = t + 1
    bits += gamma2[run_val] + 2 * run_len.bit_length() - 2
    return n, len(last), bits + _header_bits(list(last)) + _gamma_len(n)


def description_length(symbols: Sequence[int]) -> int:
    """Compressed size in bits under the pinned-down coder, counted code by
    code in one pass without building the stream."""
    return _coded(symbols)[2]


def _raw_bits(n: int, k: int) -> int:
    return n * max(1, (k - 1).bit_length())


def raw_bits(symbols: Sequence[int]) -> int:
    """Uncompressed size: count * ceil(log2(alphabet size)), at least one bit
    per symbol."""
    if not symbols:
        raise ValueError("empty symbol sequence")
    return _raw_bits(len(symbols), len(set(symbols)))


def classify(series: MatrixElementSeries, threshold: float = DEFAULT_THRESHOLD) -> ComplexityReport:
    """Compare compressed vs raw size; SeriesLike iff the ratio reaches the
    threshold, RuleLike otherwise.  The quantized values are coded as they
    stream, so no symbol list is held."""
    try:
        inside = 0.0 < threshold < 1.0
    except TypeError:  # not comparable with floats
        raise ValueError(f"threshold must be a number, got {_shown(threshold)}") from None
    if not inside:
        raise ValueError("threshold must lie in (0, 1)")
    try:
        n, k, compressed = _coded(_symbols(series))
    except (OverflowError, ValueError):  # a quotient that is not finite
        symbolize(series)  # raises the message naming its position
        raise
    raw = _raw_bits(n, k)
    ratio = compressed / raw
    verdict = Verdict.SERIES_LIKE if ratio >= threshold else Verdict.RULE_LIKE
    return ComplexityReport(raw, compressed, ratio, verdict, threshold)
