"""Reference computations the benchmark checks the program against.

They share no code with hierwave: irrep content comes from counting
weights of the product basis, and description lengths from the bit layout
documented in ``hierwave/complexity.py`` (Elias gamma of n has
2 * n.bit_length() - 1 bits), counted without building a bit stream.
"""

from __future__ import annotations


def weight_counts(twice_js):
    """Number of product-basis vectors per total weight 2M, as a dict."""
    counts = {0: 1}
    for tj in twice_js:
        nxt: dict[int, int] = {}
        for tm, c in counts.items():
            for w in range(-tj, tj + 1, 2):
                nxt[tm + w] = nxt.get(tm + w, 0) + c
        counts = nxt
    return counts


def irrep_content(twice_js) -> dict[int, int]:
    """Multiplicity per 2J of a tensor product: N(M=J) - N(M=J+1)."""
    counts = weight_counts(twice_js)
    top = sum(twice_js)
    out = {}
    for tJ in range(top % 2, top + 1, 2):
        mult = counts.get(tJ, 0) - counts.get(tJ + 2, 0)
        if mult:
            out[tJ] = mult
    return out


def product_contains(twice_js, target_twice_j: int) -> bool:
    if (sum(twice_js) - target_twice_j) % 2:
        return False
    return irrep_content(twice_js).get(target_twice_j, 0) > 0


def _gamma_len(n: int) -> int:
    return 2 * n.bit_length() - 1


def _zigzag(s: int) -> int:
    return 2 * s if s >= 0 else -2 * s - 1


def description_bits(symbols) -> int:
    """Length of gamma(K), the dictionary, gamma(n) and the MTF run-length
    body, summed code by code."""
    order = list(dict.fromkeys(symbols))
    bits = _gamma_len(len(order)) + _gamma_len(len(symbols))
    bits += sum(_gamma_len(_zigzag(s) + 1) for s in order)
    index = {s: i for i, s in enumerate(order)}
    mtf = list(range(len(order)))
    run_val, run_len = -1, 0
    for s in symbols:
        i = index[s]
        pos = mtf.index(i)
        if pos:
            del mtf[pos]
            mtf.insert(0, i)
        if pos == run_val:
            run_len += 1
        else:
            if run_len:
                bits += _gamma_len(run_val + 1) + _gamma_len(run_len)
            run_val, run_len = pos, 1
    return bits + _gamma_len(run_val + 1) + _gamma_len(run_len)


def raw_bits(symbols) -> int:
    """n * ceil(log2 K), at least one bit per symbol."""
    k = len(set(symbols))
    return len(symbols) * max(1, (k - 1).bit_length())
