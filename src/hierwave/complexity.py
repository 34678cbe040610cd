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
lengths without building the stream, each run's pair of lengths inline):
    gamma(K)                        number of distinct symbols
    K * gamma(zigzag(symbol) + 1)   dictionary, first-appearance order
    gamma(n)                        series length
    runs of gamma(mtf_value + 1), gamma(run_length) until n symbols out

The dictionary order makes the body invariant under symbol relabeling:
a permutation only changes the dictionary header.

No move-to-front list is kept.  The move-to-front position of a symbol
equals its recency rank, the number of distinct symbols seen since its
last occurrence (Elias, IEEE Trans. IT 33(1), 1987; Bentley, Sleator,
Tarjan & Wei, CACM 29(4), 1986).  The coder keeps the symbols'
last-occurrence times in one sorted list and finds each rank by
bisection: O(log K) per symbol plus a C memmove of the list, instead of
an O(K) scan of the move-to-front list.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Sequence
from enum import Enum
from itertools import repeat
from operator import truediv

from ._value import _shown, _Value

DEFAULT_THRESHOLD = 0.5


class Verdict(Enum):
    RULE_LIKE = "RuleLike"
    SERIES_LIKE = "SeriesLike"


class MatrixElementSeries(_Value):
    """A non-empty series of values and the step that quantizes them."""

    __slots__ = ("values", "quantization")

    def __init__(self, values: tuple[float, ...], quantization: float) -> None:
        try:
            values = tuple(map(float, values))
        except (TypeError, OverflowError):  # not an iterable, an item that is not a number, or an int too large
            raise ValueError(f"values must be numbers within the float range, got {_shown(values)}") from None
        if not values:
            raise ValueError("series must be non-empty")
        if quantization.__class__ is bool:  # as in SimConfig: True is not a step
            raise ValueError(f"quantization must be a number, got {_shown(quantization)}")
        try:
            positive = 0 < quantization < math.inf
        except TypeError:  # not a number
            positive = False
        if not positive:
            raise ValueError(f"quantization must be positive and finite, got {_shown(quantization)}")
        try:  # symbolize divides floats by it, so as a float it must be neither infinite nor 0.0
            1 / float(quantization)
        except (OverflowError, ZeroDivisionError):  # an int or Fraction too large, or a Fraction too small
            raise ValueError(f"quantization must lie within the float range, got {_shown(quantization)}") from None
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "quantization", quantization)


ComplexityReport = namedtuple("ComplexityReport", ("raw_bits", "compressed_bits", "ratio", "verdict", "threshold"))


def symbolize(series: MatrixElementSeries) -> list[int]:
    """Map each value to floor(value / quantization); a value whose quotient
    is not finite raises ValueError naming its 1-based position."""
    q = series.quantization
    try:
        return list(map(math.floor, map(truediv, series.values, repeat(q))))
    except (OverflowError, ValueError):
        i, v = next((i, v) for i, v in enumerate(series.values, 1) if not math.isfinite(v / q))
        raise ValueError(f"value {i} is {v!r}: {v!r} / {q!r} is not finite") from None


def _zigzag(s: int) -> int:
    return 2 * s if s >= 0 else -2 * s - 1


def _gamma_len(n: int) -> int:
    """Length of the Elias-gamma code of n >= 1."""
    return 2 * n.bit_length() - 1


def _first_appearance(symbols: Sequence[int]) -> list[int]:
    return list(dict.fromkeys(symbols))


def _header_bits(order: list[int]) -> int:
    return _gamma_len(len(order)) + sum(_gamma_len(_zigzag(s) + 1) for s in order)


def description_length(symbols: Sequence[int]) -> int:
    """Compressed size in bits under the pinned-down coder, counted code by
    code without building the stream.

    The move-to-front position of a symbol is its recency rank: the number
    of distinct symbols seen since its last occurrence.  `times` holds every
    symbol's last-occurrence time in sorted order, so that rank is K - 1
    minus the bisection index of the symbol's own time: O(log K) to find,
    plus a C memmove of `times` to move the symbol to the end.  Virtual
    times -1, -2, ..., -K for the dictionary order reproduce the initial
    move-to-front list.  A repeated symbol is already at position 0 and
    leaves the order unchanged, so it skips the update.
    """
    if not symbols:
        raise ValueError("cannot encode an empty symbol sequence")
    order = _first_appearance(symbols)
    k = len(order)
    bits = _header_bits(order) + _gamma_len(len(symbols))
    last = {s: -1 - i for i, s in enumerate(order)}
    times = list(range(-k, 0))
    top = k - 1  # the index in `times` of MTF position 0
    prev = order[0]
    # the first symbol always sits at MTF position 0, so the first run
    # starts there
    run_val, run_len = 0, 0
    for t, s in enumerate(symbols):
        if s == prev:
            pos = 0
        else:
            i = bisect_left(times, last[s])
            del times[i]
            times.append(t)
            last[s] = t
            prev = s
            pos = top - i
        if pos == run_val:
            run_len += 1
        else:
            # gamma(run_val + 1) + gamma(run_len), summed inline
            bits += 2 * ((run_val + 1).bit_length() + run_len.bit_length()) - 2
            run_val, run_len = pos, 1
    return bits + _gamma_len(run_val + 1) + _gamma_len(run_len)


def raw_bits(symbols: Sequence[int]) -> int:
    """Uncompressed size: count * ceil(log2(alphabet size)), at least one bit
    per symbol."""
    if not symbols:
        raise ValueError("empty symbol sequence")
    k = len(set(symbols))
    return len(symbols) * max(1, (k - 1).bit_length())


def classify(series: MatrixElementSeries, threshold: float = DEFAULT_THRESHOLD) -> ComplexityReport:
    """Compare compressed vs raw size; SeriesLike iff the ratio reaches the
    threshold, RuleLike otherwise."""
    try:
        inside = 0.0 < threshold < 1.0
    except TypeError:  # not comparable with floats
        raise ValueError(f"threshold must be a number, got {_shown(threshold)}") from None
    if not inside:
        raise ValueError("threshold must lie in (0, 1)")
    symbols = symbolize(series)
    compressed = description_length(symbols)
    raw = raw_bits(symbols)
    ratio = compressed / raw
    verdict = Verdict.SERIES_LIKE if ratio >= threshold else Verdict.RULE_LIKE
    return ComplexityReport(raw, compressed, ratio, verdict, threshold)
