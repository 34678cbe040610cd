"""Description-length proxy for evolution-operator time series.

True Kolmogorov complexity is uncomputable, so series are judged by a
fully pinned-down compressor instead: values are quantized to integer
symbols, the symbols pass through move-to-front over a first-appearance
dictionary, run-length coding, and Elias-gamma integer codes.  A series
whose compressed size stays close to (or above) its raw size behaves
like an irreducible record ("SeriesLike"); one that collapses is well
captured by a short generative rule ("RuleLike").

Bit-stream layout (all integers Elias-gamma coded):
    gamma(K)                        number of distinct symbols
    K * gamma(zigzag(symbol) + 1)   dictionary, first-appearance order
    gamma(n)                        series length
    runs of gamma(mtf_value + 1), gamma(run_length) until n symbols out

The dictionary order makes the body invariant under symbol relabeling:
a permutation only changes the dictionary header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

DEFAULT_THRESHOLD = 0.5


class Verdict(Enum):
    RULE_LIKE = "RuleLike"
    SERIES_LIKE = "SeriesLike"


@dataclass(frozen=True)
class MatrixElementSeries:
    values: tuple[float, ...]
    quantization: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise ValueError("series must be non-empty")
        if self.quantization <= 0:
            raise ValueError("quantization must be positive")


@dataclass(frozen=True)
class ComplexityReport:
    raw_bits: int
    compressed_bits: int
    ratio: float
    verdict: Verdict
    threshold: float


def symbolize(series: MatrixElementSeries) -> list[int]:
    """Map each value to floor(value / quantization)."""
    q = series.quantization
    return [math.floor(v / q) for v in series.values]


def _zigzag(s: int) -> int:
    return 2 * s if s >= 0 else -2 * s - 1


def _unzigzag(z: int) -> int:
    return z // 2 if z % 2 == 0 else -(z + 1) // 2


def _gamma_bits(n: int) -> list[int]:
    assert n >= 1
    b = bin(n)[2:]
    return [0] * (len(b) - 1) + [int(c) for c in b]


def _read_gamma(bits: Sequence[int], pos: int) -> tuple[int, int]:
    zeros = 0
    while pos < len(bits) and bits[pos] == 0:
        zeros += 1
        pos += 1
    end = pos + zeros + 1
    if end > len(bits):
        raise ValueError("truncated gamma code")
    n = int("".join(str(b) for b in bits[pos:end]), 2)
    return n, end


def _first_appearance(symbols: Sequence[int]) -> list[int]:
    seen: dict[int, None] = {}
    for s in symbols:
        seen.setdefault(s)
    return list(seen)


def dictionary_header_bits(symbols: Sequence[int]) -> int:
    """Size of the gamma-coded dictionary part of the stream."""
    order = _first_appearance(symbols)
    bits = len(_gamma_bits(len(order)))
    for s in order:
        bits += len(_gamma_bits(_zigzag(s) + 1))
    return bits


def encode_symbols(symbols: Sequence[int]) -> list[int]:
    """Compress to a bit list: dictionary header, length, MTF+RLE body."""
    if not symbols:
        raise ValueError("cannot encode an empty symbol sequence")
    order = _first_appearance(symbols)
    index = {s: i for i, s in enumerate(order)}
    bits = _gamma_bits(len(order))
    for s in order:
        bits.extend(_gamma_bits(_zigzag(s) + 1))
    bits.extend(_gamma_bits(len(symbols)))

    mtf = list(range(len(order)))
    stream: list[int] = []
    for s in symbols:
        i = index[s]
        pos = mtf.index(i)
        stream.append(pos)
        del mtf[pos]
        mtf.insert(0, i)

    run_val = stream[0]
    run_len = 1
    for v in stream[1:]:
        if v == run_val:
            run_len += 1
        else:
            bits.extend(_gamma_bits(run_val + 1))
            bits.extend(_gamma_bits(run_len))
            run_val, run_len = v, 1
    bits.extend(_gamma_bits(run_val + 1))
    bits.extend(_gamma_bits(run_len))
    return bits


def decode_symbols(bits: Sequence[int]) -> list[int]:
    """Inverse of encode_symbols."""
    pos = 0
    k, pos = _read_gamma(bits, pos)
    order = []
    for _ in range(k):
        z, pos = _read_gamma(bits, pos)
        order.append(_unzigzag(z - 1))
    n, pos = _read_gamma(bits, pos)

    mtf = list(range(k))
    out: list[int] = []
    while len(out) < n:
        val, pos = _read_gamma(bits, pos)
        length, pos = _read_gamma(bits, pos)
        mtf_pos = val - 1
        # replay the move-to-front step per element: a repeated non-zero
        # position keeps re-reading the list after each move
        for _ in range(length):
            i = mtf[mtf_pos]
            del mtf[mtf_pos]
            mtf.insert(0, i)
            out.append(order[i])
    if len(out) != n:
        raise ValueError("run-length payload overshoots declared length")
    return out


def description_length(symbols: Sequence[int]) -> int:
    """Compressed size in bits under the pinned-down coder."""
    return len(encode_symbols(symbols))


def raw_bits(symbols: Sequence[int]) -> int:
    """Uncompressed size: count * ceil(log2(alphabet size)), at least one bit
    per symbol."""
    if not symbols:
        raise ValueError("empty symbol sequence")
    k = len(set(symbols))
    per_symbol = max(1, math.ceil(math.log2(k))) if k > 1 else 1
    return len(symbols) * per_symbol


def classify(series: MatrixElementSeries, threshold: float = DEFAULT_THRESHOLD) -> ComplexityReport:
    """Compare compressed vs raw size; SeriesLike iff the ratio reaches the
    threshold, RuleLike otherwise."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    symbols = symbolize(series)
    compressed = description_length(symbols)
    raw = raw_bits(symbols)
    ratio = compressed / raw
    verdict = Verdict.SERIES_LIKE if ratio >= threshold else Verdict.RULE_LIKE
    return ComplexityReport(
        raw_bits=raw,
        compressed_bits=compressed,
        ratio=ratio,
        verdict=verdict,
        threshold=threshold,
    )
