import math
import random
import tracemalloc

import pytest

from hierwave.complexity import (
    ComplexityReport,
    MatrixElementSeries,
    Verdict,
    classify,
    description_length,
    raw_bits,
    symbolize,
)

from helpers import (
    _read_gamma,
    decode_symbols,
    dictionary_header_bits,
    encode_symbols,
    reference_description_length,
    reference_series_values,
    reference_symbolize,
    scan_description_length,
)


def series(values, q):
    return MatrixElementSeries(values=tuple(values), quantization=q)


class TestSeriesType:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MatrixElementSeries(values=(), quantization=0.1)

    def test_quantization_positive(self):
        with pytest.raises(ValueError) as exc:
            MatrixElementSeries(values=(1.0,), quantization=0.0)
        assert str(exc.value) == "quantization must be positive and finite, got 0.0"


class TestSymbolize:
    def test_constant(self):
        assert symbolize(series([0.7] * 5, 0.25)) == [2] * 5

    def test_floor_arithmetic(self):
        assert symbolize(series([0.0, 0.26, 0.49], 0.25)) == [0, 1, 1]

    def test_linear_ramp_distinct_consecutive(self):
        vals = [float(i) for i in range(100)]
        syms = symbolize(series(vals, 1.0))
        assert len(set(syms)) == 100
        assert all(b - a == 1 for a, b in zip(syms, syms[1:]))

    def test_negative_values(self):
        assert symbolize(series([-0.1, -0.26], 0.25)) == [-1, -2]


class TestCoder:
    def test_round_trip(self):
        rng = random.Random(1)
        cases = [
            [0],
            [7] * 100,
            [0, 1] * 50,
            list(range(-25, 25)),
            [rng.randrange(-50, 50) for _ in range(600)],
        ]
        for seq in cases:
            assert decode_symbols(encode_symbols(seq)) == seq

    def test_deterministic(self):
        seq = [random.Random(4).randrange(100) for _ in range(1000)]
        assert encode_symbols(seq) == encode_symbols(list(seq))
        assert description_length(seq) == description_length(seq)

    def test_all_identical_compresses_hard(self):
        seq = [3] * 1000
        assert description_length(seq) / raw_bits(seq) < 0.05

    def test_alternating_compresses(self):
        seq = [0, 1] * 500
        assert description_length(seq) / raw_bits(seq) < 0.2

    def test_random_barely_compresses(self):
        rng = random.Random(42)
        seq = [rng.randrange(256) for _ in range(4096)]
        assert description_length(seq) / raw_bits(seq) > 0.9

    def test_raw_bits_per_symbol_is_ceil_log2_alphabet(self):
        for k in range(1, 4097):
            expected = max(1, math.ceil(math.log2(k))) if k > 1 else 1
            assert raw_bits(list(range(k))) == k * expected

    def test_sizes_positive(self):
        for seq in ([0], [1, 2, 3], [-5] * 10):
            assert description_length(seq) > 0
            assert raw_bits(seq) > 0

    def test_permutation_changes_only_header(self):
        rng = random.Random(8)
        seq = [rng.randrange(20) for _ in range(500)]
        mapping = list(range(20))
        rng.shuffle(mapping)
        permuted = [mapping[s] + 100 for s in seq]
        a, b = description_length(seq), description_length(permuted)
        bound = max(dictionary_header_bits(seq), dictionary_header_bits(permuted))
        assert abs(a - b) <= bound
        # body identical: difference is exactly the header delta
        assert a - dictionary_header_bits(seq) == b - dictionary_header_bits(permuted)

    def test_counted_length_matches_reference_coder(self):
        rng = random.Random(2024)
        for trial in range(600):
            k = rng.choice([1, 2, 3, 17, 64, 300])
            lo = rng.randrange(-400, 100)
            alphabet = [lo + rng.randrange(3 * k) for _ in range(k)]
            n = rng.randrange(1, 400)
            if trial % 3 == 0:
                # long runs of repeated symbols
                seq = []
                while len(seq) < n:
                    seq += [rng.choice(alphabet)] * rng.randrange(1, 60)
            else:
                seq = [rng.choice(alphabet) for _ in range(n)]
            assert description_length(seq) == len(encode_symbols(seq)), seq

    def test_header_matches_reference_coder(self):
        rng = random.Random(77)
        for _ in range(200):
            seq = [rng.randrange(-300, 300) for _ in range(rng.randrange(1, 200))]
            bits = encode_symbols(seq)
            k, pos = _read_gamma(bits, 0)
            for _ in range(k):
                _, pos = _read_gamma(bits, pos)
            assert dictionary_header_bits(seq) == pos

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            description_length([])

    def test_raw_bits_of_no_symbols_is_refused(self):
        with pytest.raises(ValueError, match="^empty symbol sequence$"):
            raw_bits([])

    def test_constant_never_beats_random(self):
        rng = random.Random(42)
        rand_seq = [rng.randrange(64) for _ in range(2048)]
        const_seq = [5] * 2048
        r_const = description_length(const_seq) / raw_bits(const_seq)
        r_rand = description_length(rand_seq) / raw_bits(rand_seq)
        assert r_const <= r_rand


def assert_matches_references(seq):
    bits = description_length(seq)
    assert bits == scan_description_length(seq), seq
    assert bits == len(encode_symbols(seq)), seq


class TestRecencyRank:
    """description_length against the list-scan counter and the bit coder."""

    @pytest.mark.parametrize("k", [2, 50, 720])
    def test_cyclic_worst_case(self, k):
        # after the first pass every symbol sits at position K - 1
        for reps in (1, 2, 3, 5):
            assert_matches_references(list(range(k)) * reps)
            assert_matches_references([3 * s - k for s in range(k)] * reps)

    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_single_symbol(self, n):
        assert_matches_references([0] * n)
        assert_matches_references([-7] * n)

    @pytest.mark.parametrize("k", [2, 3, 50, 720])
    def test_return_after_every_other_symbol(self, k):
        others = list(range(1, k))
        assert_matches_references([0] + others + [0])
        assert_matches_references([0] + others + [0] + others[::-1] + [0, 0])
        assert_matches_references(others + [0] + others + [0] * 3)

    def test_new_symbols_interleaved_with_repeats(self):
        seq = []
        for j in range(400):
            seq.append(j)
            seq.append(seq[j // 2])
            if j % 7 == 0:
                seq += [j] * 3
        assert_matches_references(seq)
        assert_matches_references([s if i % 2 else -s for i, s in enumerate(seq)])

    def test_short_random_sequences(self):
        rng = random.Random(5150)
        for _ in range(2000):
            alphabet = [rng.randrange(-20, 20) for _ in range(rng.randrange(1, 12))]
            seq = [rng.choice(alphabet) for _ in range(rng.randrange(1, 30))]
            assert_matches_references(seq)

    def test_gaussian_series(self):
        rng = random.Random(720)
        seq = symbolize(series([rng.gauss(0.0, 1.0) for _ in range(20000)], 0.01))
        assert len(set(seq)) > 500
        assert_matches_references(seq)


class TestClassify:
    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_threshold_domain(self, threshold):
        with pytest.raises(ValueError) as exc:
            classify(series([1.0, 2.0], 0.5), threshold=threshold)
        assert str(exc.value) == "threshold must lie in (0, 1)"

    def test_ratio_at_the_threshold_is_series_like(self):
        s = series([math.cos(2 * math.pi * k / 256) for k in range(1024)], 0.05)
        ratio = classify(s).ratio
        assert 0.0 < ratio < 1.0
        assert classify(s, threshold=ratio).verdict == Verdict.SERIES_LIKE

    def test_cosine_rule_like(self):
        vals = [math.cos(2 * math.pi * 2 * k / 4096) for k in range(4096)]
        report = classify(series(vals, 0.05))
        assert report.verdict == Verdict.RULE_LIKE

    def test_random_walk_series_like(self):
        rng = random.Random(42)
        vals, x = [], 0.0
        for _ in range(4096):
            x += rng.gauss(0.0, 1.0)
            vals.append(x)
        report = classify(series(vals, 0.1))
        assert report.verdict == Verdict.SERIES_LIKE

    def test_tiny_threshold_makes_everything_series_like(self):
        vals = [1.0] * 512
        report = classify(series(vals, 0.01), threshold=0.001)
        assert report.verdict == Verdict.SERIES_LIKE

    def test_streamed_series_holds_no_symbol_list(self):
        # an alphabet of 500 symbols at both lengths: only the series' length differs
        rng = random.Random(9)
        peaks = []
        for n in (10_000, 100_000):
            s = series([rng.uniform(0.0, 5.0) for _ in range(n)], 0.01)
            tracemalloc.start()
            try:
                report = classify(s)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.raw_bits == n * 9
        # a list of 100,000 symbols alone would take 800 kB
        assert peaks[1] < peaks[0] + 50_000, peaks

    def test_report_consistency(self):
        report = classify(series([1.0, 1.0, 2.0, 2.0], 0.5))
        assert report.ratio == report.compressed_bits / report.raw_bits
        assert isinstance(report, ComplexityReport)


def _coder_case(rng: random.Random, trial: int) -> list[int]:
    """A seeded symbol sequence; the shape cycles with the trial number."""
    shape = trial % 6
    n = rng.randrange(1, 300)
    if shape == 0:  # one long constant run, or a few
        return [rng.randrange(-5, 5)] * n + [rng.randrange(-5, 5)] * rng.randrange(0, 3 * n)
    if shape == 1:  # alternation of two or three symbols, sometimes with stutters
        cycle = rng.sample(range(-9, 9), rng.choice([2, 3]))
        return [cycle[i % len(cycle)] for i in range(n) for _ in range(rng.choice([1, 1, 1, 2]))]
    if shape == 2:  # runs of random symbols from an alphabet of up to 60
        alphabet = [rng.randrange(-100, 100) for _ in range(rng.randrange(1, 60))]
        seq = []
        while len(seq) < n:
            seq += [rng.choice(alphabet)] * rng.randrange(1, 40)
        return seq
    if shape == 3:  # symbols beyond +-2**63
        alphabet = [rng.choice([-1, 1]) * (2**63 + rng.randrange(2**70)) for _ in range(rng.randrange(1, 20))]
        return [rng.choice(alphabet) for _ in range(n)]
    if shape == 4:  # a quantized random walk
        x, seq = 0.0, []
        for _ in range(n):
            x += rng.gauss(0.0, 1.0)
            seq.append(math.floor(x / 0.5))
        return seq
    # uniform over an alphabet of 1 to n symbols
    k = rng.randrange(1, n + 1)
    return [rng.randrange(k) for _ in range(n)]


class TestInlineCodeLengths:
    """description_length, which sums each run's two gamma lengths inline,
    against the coder it replaced, the list-scan counter and the bit coder."""

    def test_seeded_sequences_match_every_reference(self):
        rng = random.Random(20)
        for trial in range(2400):
            seq = _coder_case(rng, trial)
            assert description_length(seq) == reference_description_length(seq), (trial, seq)
            assert_matches_references(seq)

    @pytest.mark.parametrize("k", [1, 2, 7, 255, 256, 1000, 2000])
    def test_alphabet_sizes(self, k):
        rng = random.Random(k)
        for seq in (list(range(k)), list(range(k)) * 2, [rng.randrange(k) for _ in range(2 * k)],
                    [s for s in range(k) for _ in range(3)]):
            assert description_length(seq) == reference_description_length(seq)
            assert_matches_references(seq)

    def test_long_runs_and_alternation(self):
        for seq in ([4] * 100_000, [0, 1] * 30_000, ([5] * 70_000) + [6] + [5] * 1000,
                    [0] * 65_535 + [1] * 65_536 + [0]):
            assert description_length(seq) == reference_description_length(seq)
            assert description_length(seq) == scan_description_length(seq)

    def test_symbols_beyond_64_bits(self):
        big = [2**63, -(2**63) - 1, 2**200, -(2**200), 0, 2**64 - 1]
        for seq in (big, big * 3, [b for b in big for _ in range(5)], big[::-1] + big):
            assert description_length(seq) == reference_description_length(seq)
            assert_matches_references(seq)


class TestSymbolizeMapping:
    """symbolize maps floor over truediv in C; the list and every message
    equal those of the comprehension it replaced."""

    def test_values_match_reference(self):
        rng = random.Random(31)
        for _ in range(300):
            q = rng.choice([1e-300, 1e-9, 0.01, 0.5, 3.0, 1e300])
            values = [rng.choice([rng.gauss(0.0, 1.0), rng.uniform(-1e6, 1e6), -0.0, 0.0])
                      for _ in range(rng.randrange(1, 50))]
            assert symbolize(series(values, q)) == reference_symbolize(values, q)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1e308])
    @pytest.mark.parametrize("at", [0, 500, 1000], ids=["first", "middle", "last"])
    def test_first_non_finite_quotient_is_named(self, bad, at):
        q = 1e-10 if bad == 1e308 else 0.25  # 1e308 / 1e-10 overflows to inf
        values = [0.125 * (i % 9) - 0.5 for i in range(1001)]
        values[at] = bad
        if at < 1000:
            values[-1] = math.inf  # a later bad value is not the one named
        with pytest.raises(ValueError) as ref:
            reference_symbolize(values, q)
        with pytest.raises(ValueError) as got:
            symbolize(series(values, q))
        assert str(got.value) == str(ref.value) == f"value {at + 1} is {bad!r}: {bad!r} / {q!r} is not finite"


class TestSeriesConversion:
    """MatrixElementSeries converts its numbers with float(): the same values,
    or the same error text, as the generator it replaced, which took any
    value float() takes."""

    @pytest.mark.parametrize("values", [
        (1, 2, 3),
        (2**1023,),
    ])
    def test_same_values(self, values):
        got = MatrixElementSeries(values=values, quantization=0.5).values
        ref = reference_series_values(values, 0.5)
        assert got == ref and all(type(v) is float for v in got)

    @pytest.mark.parametrize("values", [
        (1.0, None),
        (1.0, [2.0]),
        (),
    ])
    def test_same_errors(self, values):
        # the reference's ValueError is kept; its TypeError or OverflowError becomes a ValueError naming values
        with pytest.raises(Exception) as ref:
            reference_series_values(values, 0.5)
        with pytest.raises(ValueError) as got:
            MatrixElementSeries(values=values, quantization=0.5)
        if isinstance(ref.value, ValueError):
            assert type(got.value) is type(ref.value) and str(got.value) == str(ref.value)
        else:
            assert str(got.value) == f"values must be numbers within the float range, got {values!r}"

    @pytest.mark.parametrize("values, rule", [
        ((True, False, 2), "be numbers within the float range"),
        (("1.5", " -2 ", "1e3", "inf"), "be numbers within the float range"),
        ([0.1, 7, "3"], "be numbers within the float range"),
        (("1.5", "abc"), "be numbers within the float range"),
        ((10**400,), "lie within the float range"),
    ])
    def test_refused_by_the_shared_number_rule(self, values, rule):
        # a bool and number text are not numbers (_value._numbers), and an int past
        # the float range gets the range message every number field shares
        with pytest.raises(ValueError) as got:
            MatrixElementSeries(values=values, quantization=0.5)
        assert str(got.value) == f"values must {rule}, got {values!r}"
