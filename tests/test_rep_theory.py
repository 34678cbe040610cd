import fractions
import itertools
import math
import os
import random
import re
import subprocess
import sys
import time

import pytest

from hierwave import rep_theory
from hierwave.rep_theory import (
    CGQuery,
    EmptyProductError,
    InvalidQueryError,
    IrrepLabel,
    IrrepSum,
    MAX_PRODUCT_BYTES,
    MAX_TWICE_J,
    ProductSizeError,
    SpinRangeError,
    clebsch_gordan,
    decompose_product,
    format_j,
    parse_j,
)

from helpers import (
    cg_oracle_table,
    couple_pair,
    fold_decompose_product,
    fraction_cg_value,
    from_counts,
    irrep_multiplicities_by_weights,
    reference_cg_value,
    weight_multiplicities,
)


def J(text):
    return IrrepLabel(parse_j(text))


class TestLabels:
    def test_dim(self):
        assert J("1/2").dim == 2
        assert J("2").dim == 5

    def test_parse_format_round_trip(self):
        for text in ("0", "1/2", "1", "3/2", "7/2", "10"):
            assert format_j(parse_j(text)) == text
        assert parse_j("0.5") == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            IrrepLabel(-1)

    @pytest.mark.parametrize("twice_j", [1.5, True, "2", 2.0])
    def test_non_int_rejected(self, twice_j):
        with pytest.raises(ValueError, match=rf"^twice_j must be an int, got {re.escape(repr(twice_j))}$"):
            IrrepLabel(twice_j)


class TestParseJ:
    def test_import_loads_no_fractions(self):
        # parse_j imports Fraction itself, so the package import stays lighter
        src = os.path.dirname(os.path.dirname(rep_theory.__file__))
        code = "import sys, hierwave, hierwave.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout == "[]\n"

    def test_values(self):
        assert [parse_j(t) for t in ("1/2", "1.5", "+1/2", "-0", "0.50", "1e0", " 7/2\t")] == [1, 3, 1, 0, 1, 2, 7]

    @pytest.mark.parametrize("text, message", [
        ("1/0", "not a valid non-negative (half-)integer spin: '1/0'"),
        ("-1/2", "not a valid non-negative (half-)integer spin: '-1/2'"),
        ("1/3", "not a valid non-negative (half-)integer spin: '1/3'"),
        (" abc ", "Invalid literal for Fraction: 'abc'"),
        ("", "Invalid literal for Fraction: ''"),
    ])
    def test_error_text(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_j(text)

    def test_spin_range(self):
        assert parse_j(str(MAX_TWICE_J // 2)) == MAX_TWICE_J
        for text in (f"{MAX_TWICE_J + 1}/2", "1000000000", "1e100"):
            with pytest.raises(SpinRangeError, match=rf"^twice_j must be <= {MAX_TWICE_J}, got \d+$"):
                parse_j(text)

    @pytest.mark.parametrize("text, message", [
        ("1e4300", "spin exponent must be at most 100 in size, got '1e4300'"),
        ("1e100000", "spin exponent must be at most 100 in size, got '1e100000'"),
        (" 1e10000000 ", "spin exponent must be at most 100 in size, got '1e10000000'"),
        ("1E-10000000", "spin exponent must be at most 100 in size, got '1E-10000000'"),
        ("1e+1_000_000", "spin exponent must be at most 100 in size, got '1e+1_000_000'"),
        ("1" * 10**5, "spin text must be at most 100 characters, got 100000"),
    ])
    def test_oversized_text_rejected_before_fraction(self, text, message, monkeypatch):
        # each of these once failed inside Fraction or in formatting the error
        # (CPython's int string-conversion limit), or spent seconds building 10**exponent
        def fail(*args):
            raise AssertionError("Fraction was called")

        monkeypatch.setattr(fractions, "Fraction", fail)
        start = time.perf_counter()
        with pytest.raises(SpinRangeError, match=f"^{re.escape(message)}$"):
            parse_j(text)
        assert time.perf_counter() - start < 0.1

    def test_text_bounds_admit_spins_at_their_limits(self):
        assert parse_j("5e3") == parse_j("5000e0") == parse_j("0.05e5") == MAX_TWICE_J
        assert parse_j("50e-2") == parse_j(" 0." + "0" * 94 + "5e94 ") == 1
        assert parse_j(f"{'0' * 99}1") == 2
        assert parse_j("0e100") == parse_j("0e-100") == 0

    def test_huge_int_error_text_stays_short(self):
        # str() of a 5,001-digit int would fail at CPython's default 4,300-digit limit
        with pytest.raises(SpinRangeError, match=rf"^twice_j must be <= {MAX_TWICE_J}, got an int of 16610 bits$"):
            decompose_product([IrrepLabel(10**5000)])


class TestCouplePair:
    def test_half_half(self):
        s = couple_pair(J("1/2"), J("1/2"))
        assert s.multiplicity(J("1")) == 1
        assert s.multiplicity(J("0")) == 1
        assert s.total_dim == 4

    def test_trivial_factor(self):
        for j in ("0", "1/2", "3"):
            s = couple_pair(J(j), J("0"))
            assert s == from_counts({J(j): 1})

    def test_one_with_half(self):
        s = couple_pair(J("1"), J("1/2"))
        assert s.multiplicity(J("3/2")) == 1
        assert s.multiplicity(J("1/2")) == 1
        assert s.total_dim == 3 * 2

    def test_symmetric(self):
        rng = random.Random(5)
        for _ in range(30):
            a, b = IrrepLabel(rng.randint(0, 6)), IrrepLabel(rng.randint(0, 6))
            assert couple_pair(a, b) == couple_pair(b, a)


class TestDecomposeProduct:
    def test_single_factor(self):
        assert decompose_product([J("1/2")]) == from_counts({J("1/2"): 1})

    def test_two_halves(self):
        s = decompose_product([J("1/2"), J("1/2")])
        assert dict(s.entries) == {J("1"): 1, J("0"): 1}

    def test_three_halves_weight_oracle(self):
        # brute force: weights (3/2:1, 1/2:3, -1/2:3, -3/2:1) => one 3/2, two 1/2
        counts = weight_multiplicities([1, 1, 1])
        assert counts[3] == 1 and counts[1] == 3
        s = decompose_product([J("1/2")] * 3)
        assert dict(s.entries) == {J("3/2"): 1, J("1/2"): 2}

    def test_empty_product(self):
        with pytest.raises(EmptyProductError):
            decompose_product([])

    def test_dimension_and_weight_identities_randomized(self):
        rng = random.Random(42)
        for _ in range(60):
            tjs = [rng.randint(0, 4) for _ in range(rng.randint(1, 6))]
            s = decompose_product([IrrepLabel(tj) for tj in tjs])
            expected_dim = math.prod(tj + 1 for tj in tjs)
            assert s.total_dim == expected_dim
            oracle = irrep_multiplicities_by_weights(tjs)
            assert {lab.twice_j: mult for lab, mult in s.entries} == oracle

    def test_long_product_against_weight_counting(self):
        rng = random.Random(250)
        tjs = [rng.choice((1, 2, 3)) for _ in range(250)]
        s = decompose_product([IrrepLabel(tj) for tj in tjs])
        assert s.total_dim == math.prod(tj + 1 for tj in tjs)
        assert {lab.twice_j: mult for lab, mult in s.entries} == irrep_multiplicities_by_weights(tjs)


def _assert_decomposition(twice_js):
    factors = [IrrepLabel(tj) for tj in twice_js]
    got = decompose_product(factors)
    by_weights = from_counts(
        {IrrepLabel(tj): mult for tj, mult in irrep_multiplicities_by_weights(twice_js).items()})
    for oracle in (fold_decompose_product(factors), by_weights):
        assert got == oracle, twice_js
        assert str(got) == str(oracle), twice_js


class TestWeightCountingDecomposition:
    """decompose_product against the pairwise fold and plain weight counting."""

    def test_every_single_spin(self):
        for tj in range(61):
            _assert_decomposition([tj])

    def test_spin_zero_factors(self):
        for tjs in ([0], [0, 0], [0, 1], [3, 0], [0, 2, 0, 1], [0] * 5 + [4] * 3, [1, 0] * 20):
            _assert_decomposition(tjs)

    def test_multi_byte_digits(self):
        # 2^300 states, so each digit is 38 bytes; the middle weight counts exceed 2^64
        tjs = [1] * 300
        _assert_decomposition(tjs)
        assert decompose_product([IrrepLabel(1)] * 300).multiplicity(IrrepLabel(0)) == (
            math.comb(300, 150) // 151)  # the Catalan number C_150
        assert math.comb(300, 150) > 2**64

    def test_long_mixed_list(self):
        rng = random.Random(250)
        _assert_decomposition([rng.choice((1, 2, 3)) for _ in range(250)])

    def test_large_spins(self):
        rng = random.Random(400)
        for tjs in ([400, 400], [400, 399], [0, 400], [400, 1, 400], [137, 400, 254]):
            _assert_decomposition(tjs)
        for _ in range(6):
            _assert_decomposition([rng.randint(0, 400) for _ in range(rng.randint(2, 3))])

    def test_random_short_lists(self):
        rng = random.Random(2000)
        for _ in range(2000):
            _assert_decomposition([rng.randint(0, 8) for _ in range(rng.randint(1, 6))])

    def test_spin_range(self):
        # the coupling series at the bound: 2J = 1, 3, ..., 2 * MAX_TWICE_J - 1, each once
        top = [IrrepLabel(MAX_TWICE_J), IrrepLabel(MAX_TWICE_J - 1)]
        assert decompose_product(top) == fold_decompose_product(top) == IrrepSum(
            tuple((IrrepLabel(tj), 1) for tj in range(2 * MAX_TWICE_J - 1, 0, -2)))
        # the integer product would need gigabytes; the factor is refused first
        for tjs in ([MAX_TWICE_J + 1], [1, 2 * 10**9]):
            with pytest.raises(SpinRangeError, match=rf"^twice_j must be <= {MAX_TWICE_J}, got {tjs[-1]}$"):
                decompose_product([IrrepLabel(tj) for tj in tjs])


class TestProductSizeBound:
    def test_admits_the_sizes_in_use(self):
        # 1,000 spin-1/2 factors: 126 KB of weight integer; the singlet count is the Catalan number C_500
        assert decompose_product([IrrepLabel(1)] * 1000).multiplicity(IrrepLabel(0)) == (
            math.comb(1000, 500) // 501)
        assert 1001 * (1000 // 8 + 1) < MAX_PRODUCT_BYTES

    def test_rejected_before_any_weight_multiplication(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the weight product was started")

        monkeypatch.setattr(rep_theory, "_weight_product", fail)
        # 4,000 spin-1/2 factors: (4000 + 1) * (4001 // 8 + 1) bytes, about 5 s to multiply
        with pytest.raises(ProductSizeError, match=(
                rf"^the weight product of 4000 factors would take 2004501 bytes, "
                rf"above the bound of {MAX_PRODUCT_BYTES}$")):
            decompose_product([IrrepLabel(1)] * 4000)
        with pytest.raises(ProductSizeError):
            decompose_product([IrrepLabel(MAX_TWICE_J)] * 30)


class TestContains:
    def test_present(self):
        s = decompose_product([J("1/2"), J("1/2")])
        assert s.multiplicity(J("1")) == 1

    def test_absent(self):
        s = decompose_product([J("1/2"), J("1/2")])
        assert s.multiplicity(J("3/2")) == 0

    def test_multiplicity_two(self):
        s = decompose_product([J("1/2")] * 3)
        assert s.multiplicity(J("1/2")) == 2


class TestClebschGordan:
    def test_stretch_state(self):
        assert clebsch_gordan(CGQuery(1, 1, 1, 1, 2, 2)) == pytest.approx(1.0)

    def test_singlet_sign(self):
        val = clebsch_gordan(CGQuery(1, 1, 1, -1, 0, 0))
        assert val == pytest.approx(1 / math.sqrt(2), abs=1e-14)
        assert clebsch_gordan(CGQuery(1, -1, 1, 1, 0, 0)) == pytest.approx(
            -1 / math.sqrt(2), abs=1e-14
        )

    def test_weight_selection_rule(self):
        assert clebsch_gordan(CGQuery(2, 2, 2, 2, 2, 2)) == 0.0
        assert clebsch_gordan(CGQuery(1, 1, 1, 1, 2, 0)) == 0.0

    def test_triangle_rule(self):
        assert clebsch_gordan(CGQuery(1, 1, 1, 1, 6, 2)) == 0.0

    def test_invalid_query(self):
        with pytest.raises(InvalidQueryError):
            clebsch_gordan(CGQuery(1, 3, 1, -1, 2, 2))
        with pytest.raises(InvalidQueryError):
            clebsch_gordan(CGQuery(2, 1, 1, 1, 2, 2))

    @pytest.mark.parametrize("tj1", [0, 1, 2, 3])
    @pytest.mark.parametrize("tj2", [0, 1, 2, 3])
    def test_against_ladder_oracle(self, tj1, tj2):
        table = cg_oracle_table(tj1, tj2)
        for (tm1, tm2, tJ, tM), expected in table.items():
            got = clebsch_gordan(CGQuery(tj1, tm1, tj2, tm2, tJ, tM))
            assert got == pytest.approx(expected, abs=1e-10)

    def test_orthogonality(self):
        for tj1 in range(4):
            for tj2 in range(4):
                pairs = [
                    (tJ, tM)
                    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
                    for tM in range(-tJ, tJ + 1, 2)
                ]
                for Ja, Ma in pairs:
                    for Jb, Mb in pairs:
                        total = 0.0
                        for tm1 in range(-tj1, tj1 + 1, 2):
                            for tm2 in range(-tj2, tj2 + 1, 2):
                                total += clebsch_gordan(
                                    CGQuery(tj1, tm1, tj2, tm2, Ja, Ma)
                                ) * clebsch_gordan(CGQuery(tj1, tm1, tj2, tm2, Jb, Mb))
                        expected = 1.0 if (Ja, Ma) == (Jb, Mb) else 0.0
                        assert abs(total - expected) < 1e-10

    def test_large_spins_stable(self):
        # exact factorial arithmetic keeps big-j values finite and sane
        val = clebsch_gordan(CGQuery(40, 0, 40, 0, 0, 0))
        assert abs(val) == pytest.approx(1 / math.sqrt(41), abs=1e-12)

    def test_high_spin_against_sympy_exact(self):
        from sympy import Rational
        from sympy.physics.wigner import clebsch_gordan as exact_cg

        rng = random.Random(7)
        for tj1 in (100, 200):
            for _ in range(25):
                tj2 = rng.choice((1, 2, 3, 7, 24, 50, 100, tj1))
                tm1 = rng.randrange(-tj1, tj1 + 1, 2)
                tm2 = rng.randrange(-tj2, tj2 + 1, 2)
                tM = tm1 + tm2
                tJ = rng.randrange(max(abs(tj1 - tj2), abs(tM)), tj1 + tj2 + 1, 2)
                half = [Rational(t, 2) for t in (tj1, tj2, tJ, tm1, tm2, tM)]
                expected = float(exact_cg(*half).evalf(40))
                got = clebsch_gordan(CGQuery(tj1, tm1, tj2, tm2, tJ, tM))
                assert abs(got - expected) <= 1e-15, (tj1, tm1, tj2, tm2, tJ, tM)


class TestIntegerRacahSum:
    """The integer sum returns the very double of the Fraction reference."""

    @pytest.mark.parametrize("tj1, tj2", [(10, 12), (7, 7)])
    def test_every_table_entry_bit_identical(self, tj1, tj2):
        zeros = 0
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    for tM in range(-tJ, tJ + 1, 2):
                        q = (tj1, tm1, tj2, tm2, tJ, tM)
                        got = clebsch_gordan(CGQuery(*q))
                        assert got == fraction_cg_value(*q), q
                        zeros += got == 0.0
        assert zeros > 0

    def test_random_queries_bit_identical(self):
        rng = random.Random(2024)
        zeros = nonzeros = 0
        for i in range(2400):
            tj1, tj2 = rng.randint(0, 200), rng.randint(0, 200)
            if i % 4 == 0:  # integer spins at m = 0: the Racah sum vanishes when j1 + j2 + J is odd
                tj1, tj2 = tj1 & ~1, tj2 & ~1
                tm1 = tm2 = 0
            else:
                tm1 = rng.randrange(-tj1, tj1 + 1, 2)
                tm2 = rng.randrange(-tj2, tj2 + 1, 2)
            tM = tm1 + tm2
            tJ = rng.randrange(max(abs(tj1 - tj2), abs(tM)), tj1 + tj2 + 1, 2)
            if i % 8 == 1:  # weight selection rule: M != m1 + m2
                tM = rng.randrange(-tJ, tJ + 1, 2)
            q = (tj1, tm1, tj2, tm2, tJ, tM)
            got = clebsch_gordan(CGQuery(*q))
            assert got == fraction_cg_value(*q), q
            zeros += got == 0.0
            nonzeros += got != 0.0
        assert zeros > 300 and nonzeros > 1500


class TestBinomialRacahSum:
    """The binomial form returns the very double of the factorial form it replaced."""

    def test_every_small_query_bit_identical(self):
        checked = 0
        for tj1 in range(13):
            for tj2 in range(13):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        tM = tm1 + tm2
                        for tJ in range(max(abs(tj1 - tj2), abs(tM)), tj1 + tj2 + 1, 2):
                            q = (tj1, tm1, tj2, tm2, tJ, tM)
                            assert clebsch_gordan(CGQuery(*q)).hex() == reference_cg_value(*q).hex(), q
                            checked += 1
        assert checked == 45045

    def test_random_queries_bit_identical(self):
        rng = random.Random(1402)
        for _ in range(2000):
            tj1, tj2 = rng.randint(0, 200), rng.randint(0, 200)
            tm1 = rng.randrange(-tj1, tj1 + 1, 2)
            tm2 = rng.randrange(-tj2, tj2 + 1, 2)
            tM = tm1 + tm2
            tJ = rng.randrange(max(abs(tj1 - tj2), abs(tM)), tj1 + tj2 + 1, 2)
            q = (tj1, tm1, tj2, tm2, tJ, tM)
            assert clebsch_gordan(CGQuery(*q)).hex() == reference_cg_value(*q).hex(), q

    def test_closed_forms_at_2j_1000(self):
        # <j m j -m | 0 0> = (-1)^(j-m) / sqrt(2j+1) and the stretched <j j j j | 2j 2j> = 1
        tj = 1000
        for tm in range(-tj, tj + 1, 2):
            expected = math.sqrt(1 / (tj + 1)) * (-1) ** ((tj - tm) // 2)
            assert clebsch_gordan(CGQuery(tj, tm, tj, -tm, 0, 0)) == expected, tm
        assert clebsch_gordan(CGQuery(tj, tj, tj, tj, 2 * tj, 2 * tj)) == 1.0


def _canonical(q):
    """The member of q's +-m pair that keys the cache: M > 0, or M = 0 and m1 >= 0."""
    tj1, tm1, tj2, tm2, tJ, tM = q
    return q if tM > 0 or (tM == 0 and tm1 >= 0) else (tj1, -tm1, tj2, -tm2, tJ, -tM)


def _valid_table(tj1, tj2):
    """The (tj1, tj2) coupling table's queries with M = m1 + m2 and |M| <= J."""
    return [
        (tj1, tm1, tj2, tm2, tJ, tm1 + tm2)
        for tm1 in range(-tj1, tj1 + 1, 2)
        for tm2 in range(-tj2, tj2 + 1, 2)
        for tJ in range(max(abs(tj1 - tj2), abs(tm1 + tm2)), tj1 + tj2 + 1, 2)
    ]


def _table(tj1, tj2):
    """Every query of the (tj1, tj2) coupling table, M != m1 + m2 included."""
    return [
        (tj1, tm1, tj2, tm2, tJ, tM)
        for tm1 in range(-tj1, tj1 + 1, 2)
        for tm2 in range(-tj2, tj2 + 1, 2)
        for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
        for tM in range(-tJ, tJ + 1, 2)
    ]


class TestCachedEntryPoint:
    """One cache entry per +-m pair, the partner taking the (-1)^(j1+j2-J)
    phase; exact-int queries, validated on each miss; a bounded cache."""

    @pytest.mark.parametrize("tj1, tj2", [(10, 12), (7, 7)])
    def test_every_zero_is_positive(self, tj1, tj2):
        zeros = 0
        for q in _table(tj1, tj2):
            v = clebsch_gordan(CGQuery(*q))
            if v == 0.0:
                assert math.copysign(1.0, v) == 1.0, q  # == cannot see -0.0
                zeros += 1
        assert zeros > 0

    @pytest.mark.parametrize("tj1, tj2", [(26, 30), (30, 26)])
    def test_partner_is_phase_times_value(self, tj1, tj2):
        checked = 0
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                tM = tm1 + tm2
                for tJ in range(max(abs(tj1 - tj2), abs(tM)), tj1 + tj2 + 1, 2):
                    v = clebsch_gordan(CGQuery(tj1, tm1, tj2, tm2, tJ, tM))
                    partner = clebsch_gordan(CGQuery(tj1, -tm1, tj2, -tm2, tJ, -tM))
                    phase = -1 if (tj1 + tj2 - tJ) // 2 % 2 else 1
                    assert partner == phase * v, (tj1, tm1, tj2, tm2, tJ, tM)
                    checked += phase == -1 and v != 0.0
        assert checked > 1000

    def test_invalid_negative_M_query_names_the_given_m_every_call(self):
        rep_theory._cg_cache.clear()
        message = re.escape("j1/m1: |m| > j for (2j, 2m) = (1, -3)")
        for _ in range(2):
            with pytest.raises(InvalidQueryError, match=message):
                clebsch_gordan(CGQuery(1, -3, 1, 1, 2, -2))

    def test_cache_holds_one_entry_per_pm_pair(self):
        rep_theory._cg_cache.clear()
        table = _table(10, 12)
        for q in table:
            clebsch_gordan(CGQuery(*q))
        canonical = {_canonical(q) for q in table}
        assert len(canonical) < len(table)
        assert set(rep_theory._cg_cache) == canonical

    def test_cache_stays_within_its_bound_and_values_survive_a_clear(self, monkeypatch):
        monkeypatch.setattr(rep_theory, "MAX_CG_CACHE", 1_000)
        rep_theory._cg_cache.clear()
        queries = [q for tj1 in range(1, 9) for tj2 in range(1, 9) for q in _valid_table(tj1, tj2)][:5_000]
        assert len(queries) == len(set(queries)) == 5_000
        clears, size = 0, 0
        for q in queries + queries[:1_000]:  # the second pass misses again after the clears
            got = clebsch_gordan(CGQuery(*q))
            clears += len(rep_theory._cg_cache) < size
            size = len(rep_theory._cg_cache)
            assert size <= 1_000
            assert got.hex() == reference_cg_value(*q).hex(), q
        assert clears >= 2

    def test_invalid_query_raises_after_its_table_was_cached_and_cleared(self, monkeypatch):
        monkeypatch.setattr(rep_theory, "MAX_CG_CACHE", 100)
        rep_theory._cg_cache.clear()
        invalid = (1, -3, 1, 1, 2, -2)
        message = re.escape("j1/m1: |m| > j for (2j, 2m) = (1, -3)")
        for q in _table(1, 1):
            clebsch_gordan(CGQuery(*q))
        with pytest.raises(InvalidQueryError, match=message):
            clebsch_gordan(CGQuery(*invalid))
        for q in _valid_table(6, 8):  # past the bound: the cache is cleared
            clebsch_gordan(CGQuery(*q))
        assert (1, 1, 1, 1, 2, 2) not in rep_theory._cg_cache
        with pytest.raises(InvalidQueryError, match=message):
            clebsch_gordan(CGQuery(*invalid))
        assert _canonical(invalid) not in rep_theory._cg_cache

    def test_table_values_do_not_depend_on_which_member_comes_first(self):
        table = _valid_table(26, 30)
        random.Random(2417).shuffle(table)
        negative = [q for q in table if q != _canonical(q)]
        positive = [q for q in table if q == _canonical(q)]
        assert negative and positive
        runs = []
        for order in (negative + positive, positive + negative):
            rep_theory._cg_cache.clear()
            runs.append({q: clebsch_gordan(CGQuery(*q)).hex() for q in order})
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("fields, pair", [
        ((1.0, 1, 1, 1, 2, 2), "j1/m1"),
        ((True, True, 1, 1, 2, 2), "j1/m1"),
        ((1.5, 1.5, 1, 1, 2, 2), "j1/m1"),
        ((1, 1, 1, 1, "2", 2), "J/M"),
    ])
    def test_non_int_query_rejected(self, fields, pair):
        with pytest.raises(InvalidQueryError, match=f"^{pair}: twice_j must be an int, got "):
            CGQuery(*fields)

    def test_query_shows_a_huge_m_by_its_size(self):
        with pytest.raises(InvalidQueryError) as caught:
            CGQuery(1, 10**5000, 1, 1, 2, 2)
        assert str(caught.value) == "j1/m1: |m| > j for (2j, 2m) = (1, an int of 16610 bits)"

    def test_every_invalid_query_is_refused_where_it_is_built(self):
        # the rule of SpinWeight, per pair; no clebsch_gordan call is needed to refuse one
        refused = 0
        for q in itertools.product(range(-2, 3), repeat=6):
            pairs = (q[0:2], q[2:4], q[4:6])
            if all(tj >= 0 and abs(tm) <= tj and (tj - tm) % 2 == 0 for tj, tm in pairs):
                CGQuery(*q)
                continue
            with pytest.raises(InvalidQueryError):
                CGQuery(*q)
            refused += 1
        assert refused == 5**6 - 6**3
