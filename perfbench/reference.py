"""A fixed pure-Python loop that does not touch hierwave.

Its time is the machine's speed at the moment; run.py scales each
repetition's timings by it (see README, "Timings at reference speed").
"""

from time import perf_counter

REFERENCE_LOOPS = 300_000


def reference_s() -> float:
    start = perf_counter()
    acc, table = 0.0, {}
    for i in range(REFERENCE_LOOPS):
        pair = (i, i * 0.5)
        acc += pair[1] * 1.0000001 - (i % 7)
        table[i & 255] = pair
    return perf_counter() - start
