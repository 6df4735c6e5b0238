"""Exact-side tests: frozen table rows, identities, and properties.

Expected values fall in three groups: rows copied from the published
tables (frozen verbatim), values derived here by an independent route
(brute force or a second formula, computed before being frozen), and
trivial boundary cases.
"""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from bellnum import exact

# Published triangle of M[n,k], rows 1..7.
TABLE_M = [
    [0],
    [-1, 1],
    [-1, 0, 1],
    [-28, 44, -20, 4],
    [124, -330, 285, -90, 11],
    [-4176, 9254, -7515, 2945, -549, 41],
    [87408, -220990, 210483, -98455, 24507, -3115, 162],
]

# Published triangle of M[n,k] n^k, rows 2..6 (with row sums (B_n-1) n!).
TABLE_MW = [
    [-2, 4],
    [-3, 0, 27],
    [-112, 704, -1280, 1024],
    [620, -8250, 35625, -56250, 34375],
    [-25056, 333144, -1623240, 3816720, -4269024, 1912896],
]

# Published triangle of A[n,k] = C(n,k) B_{n-k}, rows 1..7.
TABLE_A = [
    [1, 1],
    [2, 2, 1],
    [5, 6, 3, 1],
    [15, 20, 12, 4, 1],
    [52, 75, 50, 20, 5, 1],
    [203, 312, 225, 100, 30, 6, 1],
    [877, 1421, 1092, 525, 175, 42, 7, 1],
]

BETA_LIST = [0, 1, 1, 4, 11, 41, 162, 715, 3425, 17722, 98253, 580317]  # beta_1..beta_12

PN_AT_N = [0, 6, 30, 3120, 135120, 11980080, 1231806240]  # P_n(n), n=1..7
PN_NORM = [0, 3, 5, 130, 1126, 16639, 244406, 4107921, 74991344, 1486313664]  # /n!, n=1..10

# The seven-row column of unsigned first-kind Stirling numbers as
# displayed in the 1712 table (k = 1..7, total 5040).
SEKI_ROW7 = [720, 1764, 1624, 735, 175, 21, 1]


class TestStirling:
    def test_single_row(self):
        assert exact.stirling_signed_rows(1).rows == ((1,),)

    def test_row7_unsigned_matches_historical_table(self):
        row = exact.stirling_unsigned_rows(7).row(7)
        assert list(row) == SEKI_ROW7
        assert sum(row) == 5040 == factorial(7)

    def test_unsigned_row_totals_are_factorials(self, stirling26):
        # the column totals of the 1712 table: sum_k |s[n,k]| = n!
        for n in range(1, 27):
            assert sum(stirling26.row(n)) == factorial(n)

    def test_rows_expand_falling_factorial(self):
        # independent oracle: multiply out z (z-1) ... (z-n+1)
        s = exact.stirling_signed_rows(8)
        for n in range(1, 9):
            coeffs = [0, 1]  # polynomial z
            for j in range(1, n):
                # multiply by (z - j)
                new = [0] * (len(coeffs) + 1)
                for i, c in enumerate(coeffs):
                    new[i + 1] += c
                    new[i] -= j * c
                coeffs = new
            assert coeffs[1 : n + 1] == list(s.row(n))
            assert s.entry(n, n) == 1

    def test_bad_n(self):
        for rows in (exact.stirling_signed_rows, exact.stirling_unsigned_rows):
            with pytest.raises(ValueError, match="N must be >= 1"):
                rows(0)

    def test_unsigned_rows_equal_abs_of_signed_rows(self):
        # each sign runs its own recurrence, so each is held to the other
        assert exact.stirling_unsigned_rows(300).rows == tuple(
            tuple(map(abs, r)) for r in exact.stirling_signed_rows(300).rows)


class TestStirlingMonotoneStep:
    def test_full_triangle(self, stirling26):
        for n in range(1, 26):
            for k in range(1, n + 1):
                assert stirling26.entry(n + 1, k) >= n * stirling26.entry(n, k)


class TestTriangleTable:
    def test_out_of_triangle_is_error(self):
        t = exact.matsunaga_rows(5)
        with pytest.raises(IndexError):
            t.row(0)
        with pytest.raises(IndexError):
            t.row(6)
        with pytest.raises(IndexError):
            t.entry(3, 0)
        with pytest.raises(IndexError):
            t.entry(3, 4)

    def test_row_shape_validated(self):
        with pytest.raises(ValueError):
            exact.TriangleTable("bad", 1, 1, ((1, 2),))

    def test_items_row_major(self):
        t = exact.arima_rows(2)
        assert list(t.items()) == [(1, 0, 1), (1, 1, 1), (2, 0, 2), (2, 1, 2), (2, 2, 1)]


class TestBellNumbers:
    def test_first_values(self):
        assert exact.bell_numbers(0) == [1]
        assert exact.bell_numbers(8) == [1, 1, 2, 5, 15, 52, 203, 877, 4140]

    def test_b_table_against_direct_binomials(self, bells):
        # oracle: b[n,k] = C(n-1,k-1) B_{n-k} computed directly
        t = exact.b_table_rows(20)
        for n, k, v in t.items():
            assert v == comb(n - 1, k - 1) * bells[n - k]

    def test_b_table_first_column_restarts_row_sums(self):
        t = exact.b_table_rows(12)
        for n in range(2, 13):
            assert t.entry(n, 1) == sum(t.row(n - 1))

    def test_row_sum_is_bell(self, bells):
        t = exact.b_table_rows(15)
        for n in range(1, 16):
            assert sum(t.row(n)) == bells[n]


class TestBeta:
    def test_initial_conditions(self):
        assert exact.beta_numbers(1) == [1, 0]

    def test_published_list(self):
        assert exact.beta_numbers(12)[1:] == BETA_LIST

    def test_splitting_identity(self, bells, betas):
        for n in range(31):
            assert bells[n] == betas[n + 1] + betas[n]

    def test_beta_from_bells_examples(self, bells):
        assert exact.beta_from_bells(0, []) == 1
        # B_3 - B_2 + B_1 - B_0 + 1 = 5 - 2 + 1 - 1 + 1
        assert exact.beta_from_bells(4, bells) == 4
        assert exact.beta_from_bells(6, bells) == 41

    def test_beta_from_bells_needs_enough_values(self):
        with pytest.raises(ValueError):
            exact.beta_from_bells(5, [1, 1, 2])

    @given(st.integers(min_value=0, max_value=30))
    def test_beta_from_bells_property(self, n):
        bells = exact.bell_numbers(max(n - 1, 0))
        assert exact.beta_from_bells(n, bells) == exact.beta_numbers(n)[n]


class TestMatsunagaTriangle:
    def test_published_rows(self):
        t = exact.matsunaga_rows(7)
        for n, row in enumerate(TABLE_M, start=1):
            assert list(t.row(n)) == row

    def test_row_sums_zero(self, matsunaga25):
        for n in range(1, 26):
            assert sum(matsunaga25.row(n)) == 0

    def test_diagonal_is_beta(self, matsunaga25, betas):
        for n in range(1, 26):
            assert matsunaga25.entry(n, n) == betas[n]

    def test_sum_form_examples(self):
        assert exact.matsunaga_via_sum(2, 2) == 1
        assert exact.matsunaga_via_sum(5, 5) == 11
        assert exact.matsunaga_via_sum(6, 3) == -7515

    def test_sum_form_full_triangle(self):
        m = exact.matsunaga_rows(80)
        for n in range(1, 81):
            for k in range(1, n + 1):
                assert exact.matsunaga_via_sum(n, k) == m.entry(n, k)

    def test_sum_form_rejects_outside(self):
        with pytest.raises(IndexError):
            exact.matsunaga_via_sum(3, 4)

    def test_sum_form_row_equals_the_recurrence_row(self):
        m = exact.matsunaga_rows(120)
        for n in range(1, 121):
            assert exact._sum_form_row(n) == list(m.row(n))

    # three sorted draws 1 <= first <= last <= n <= 120; first and last are the k
    @given(st.lists(st.integers(min_value=1, max_value=120), min_size=3, max_size=3).map(sorted))
    @example([1, 1, 1])
    @example([1, 120, 120])
    @example([1, 1, 120])
    @example([120, 120, 120])
    @example([2, 119, 120])
    @settings(max_examples=80, deadline=None)
    def test_sum_form_band_is_a_slice_of_the_row(self, band):
        first, last, n = band
        for k in (first, last):
            assert exact._sum_form_row(n, k) == [exact._sum_form_row(n)[k - 1]]


class TestHornerProcedure:
    def test_worked_small_cases(self):
        t = exact.bell_matsunaga(5)
        assert t.partial_values[-1] == 1224
        assert t.inner_sum == 5 * 1224
        assert t.result == 52
        t4 = exact.bell_matsunaga(4)
        assert t4.partial_values == (-4, 28, 84)
        assert t4.result == 15
        assert exact.bell_matsunaga(2).result == 2
        assert exact.bell_matsunaga(3).partial_values[-1] == 8
        assert exact.bell_matsunaga(3).result == 5

    def test_cross_procedure_equality(self, bells):
        # the pipeline's original range ended at 8; check well past it
        for n in range(2, 26):
            assert exact.bell_matsunaga(n).result == bells[n]

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            exact.bell_matsunaga(1)
        with pytest.raises(ValueError):
            exact.bell_matsunaga(0)

    def test_trace_equals_the_per_step_scan(self):
        # reference: the bit lengths scanned step by step; every field must match
        for n in range(2, 161):
            row = exact.matsunaga_rows(n).row(n)
            bits = max(v.bit_length() for v in row)
            acc = row[n - 1]
            partials = []
            for k in range(n - 1, 0, -1):
                acc = row[k - 1] + n * acc
                partials.append(acc)
                bits = max(bits, acc.bit_length())
            inner = n * acc
            assert exact.bell_matsunaga(n) == exact.HornerTrace(
                n, tuple(partials), inner, max(bits, inner.bit_length()),
                inner // factorial(n) + 1)

    @given(st.integers(min_value=2, max_value=40))
    @settings(max_examples=25, deadline=None)
    def test_trace_invariants(self, n):
        t = exact.bell_matsunaga(n)
        assert t.inner_sum == (t.result - 1) * factorial(n)
        assert t.max_bits >= t.inner_sum.bit_length()
        assert len(t.partial_values) == n - 1


class TestArimaBenchProcedure:
    @pytest.mark.parametrize("n", [2, 50, 200, 400])
    def test_bits_equal_the_cell_by_cell_scan(self, n):
        # the procedure reports B_n's bit length without the scan: no cell is longer
        table = exact.b_table_rows(n)
        total = sum(table.row(n))
        bits = max(v.bit_length() for _, _, v in table.items())
        assert bits <= total.bit_length()
        assert exact.bench_arima_procedure(n) == (total, total.bit_length())


class TestWeightedTriangle:
    def test_published_rows(self):
        t = exact.weighted_matsunaga_rows(6)
        for n, row in enumerate(TABLE_MW, start=2):
            assert list(t.row(n)) == row

    def test_row_sums(self, bells):
        t = exact.weighted_matsunaga_rows(25)
        for n in range(2, 26):
            assert sum(t.row(n)) == (bells[n] - 1) * factorial(n)

    def test_requires_two(self):
        with pytest.raises(ValueError):
            exact.weighted_matsunaga_rows(1)


class TestAbsFormula:
    def test_spot_values(self):
        assert exact.abs_matsunaga_row(4)[0] == 28
        assert exact.abs_matsunaga_row(5)[2] == 285
        # direct evaluation 6 (0 - 1/2 + 1/3) = -1: the one sign exception
        assert exact.abs_matsunaga_row(3)[0] == -1

    def test_exception_is_exactly_3_1(self):
        m = exact.matsunaga_rows(120)
        for n in range(1, 121):
            formula = exact.abs_matsunaga_row(n)
            for k in range(1, n + 1):
                truth = abs(m.entry(n, k))
                if (n, k) == (3, 1):
                    assert formula[k - 1] == -truth == -1
                else:
                    assert formula[k - 1] == truth


class TestGeneratingPolynomial:
    def test_examples(self, betas):
        assert exact.pnv_eval(4, 1) == 96
        assert Fraction(96, 24) == betas[4] - betas[3] + betas[2]
        assert exact.pnv_closed(4, 4) / 24 == 130
        assert exact.pnv_eval(5, 0) == 0

    def test_eval_equals_the_per_term_sum(self):
        # reference: fresh powers p^k q^(n-k) summed term by term
        for n in range(1, 81):
            row = exact.matsunaga_rows(n).row(n)
            for v in (0, 1, -3, n, Fraction(-1, 2), Fraction(7, 3), Fraction(5, 11)):
                p, q = Fraction(v).numerator, Fraction(v).denominator
                per_term = sum(abs(c) * p**k * q ** (n - k) for k, c in enumerate(row, start=1))
                assert exact.pnv_eval(n, v) == Fraction(per_term, q**n)

    def test_closed_rejects_small_n(self):
        for n in (1, 2, 3):
            with pytest.raises(ValueError):
                exact.pnv_closed(n, 1)

    def test_closed_equals_direct_on_grid(self):
        for n in range(4, 21):
            for v in (Fraction(1), Fraction(n), Fraction(-1, 2), Fraction(7, 3)):
                assert exact.pnv_closed(n, v) == exact.pnv_eval(n, v)

    @given(
        st.integers(min_value=4, max_value=40),
        st.one_of(st.integers(min_value=-60, max_value=60),
                  st.fractions(min_value=-4, max_value=4, max_denominator=12)),
    )
    @settings(max_examples=100, deadline=None)
    def test_closed_equals_direct_property(self, n, v):
        assert exact.pnv_closed(n, v) == exact.pnv_eval(n, v)

    def test_pn_at_n_lists(self):
        vals, norm = exact.pn_at_n(40)
        assert vals[1:8] == PN_AT_N
        assert norm[1:11] == PN_NORM
        for n in range(1, 41):
            assert vals[n] == exact.pnv_eval(n, n)

    def test_pn_at_n_row2_from_weights(self):
        # row 2 of the M table is (-1, 1); weights 2^k give 2 + 4
        assert exact.pnv_eval(2, 2) == 6

    def test_scaled_closed_form_also_holds_at_two(self):
        # the nv-scaled identity P_n(nv)/n! = sum_j C(vn+n-j-1, n-j)
        # (-1)^j beta_{n-j} is stated away from n = 3 only; the n = 2
        # case is not exemplified anywhere, so verify it numerically,
        # with the closed form's integer routine as the right-hand side
        n = 2
        for v in (Fraction(1), Fraction(2), Fraction(-1, 3), Fraction(7, 2)):
            w = v * n
            rhs = Fraction(exact._pnv_scaled(n, w.numerator, w.denominator), w.denominator**n)
            assert exact.pnv_eval(n, w) == rhs
        # and n = 3 really is broken: v = 1 gives P_3(3) = 30 but the
        # formula gives a different value
        assert exact.pnv_eval(3, 3) == 30
        assert exact._pnv_scaled(3, 3, 1) != 30


class TestShapes:
    def test_coefficient_examples(self):
        # one singleton + two pairs of a 5-set: 5!/(1! 2!^2 1! 2!) = 15
        shape = exact.PartitionShape(((1, 1), (2, 2)))
        assert exact.bell_polynomial_coefficient(shape) == 15
        assert exact.bell_polynomial_coefficient(exact.PartitionShape(((3, 1),))) == 1

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            exact.PartitionShape(((0, 2),))
        with pytest.raises(ValueError):
            exact.PartitionShape(((2, 1), (2, 1)))

    def test_sums_over_shapes(self, bells):
        assert exact.bell_via_shapes(6) == 203
        for n in range(9):
            assert exact.bell_via_shapes(n) == bells[n]

    def test_negative_n_is_refused(self):
        with pytest.raises(ValueError):
            exact.bell_via_shapes(-1)

    def test_shape_n_and_singletons(self):
        shape = exact.PartitionShape(((1, 2), (2, 1), (3, 1)))
        # 7! / ((1!^2 2!) (2!^1 1!) (3!^1 1!)) partitions of a 7-set have this shape
        assert exact.bell_polynomial_coefficient(shape) == 210

    @pytest.mark.parametrize("n", range(1, 11))
    def test_walker_yields_the_oracles_shapes(self, n):
        # the oracle finds its shapes by enumerating set partitions
        from bellnum import partitions

        assert set(exact._shapes(n)) == {s.counts for s in partitions.collect_stats(n).by_shape}

    def test_walker_yields_each_partition_of_n_once(self):
        # p(n) by the coin-change recurrence over part sizes 1..40
        p = [1] + [0] * 40
        for size in range(1, 41):
            for n in range(size, 41):
                p[n] += p[n - size]
        for n in range(41):
            shapes = list(exact._shapes(n))
            assert len(set(shapes)) == len(shapes) == p[n], n
        assert p[40] == 37338


class TestPoissonMoments:
    def test_mean_two_first_values(self):
        assert exact.poisson_moments(2, 4) == [1, 2, 6, 22, 94]

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_array_equals_binomial_recurrence_to_200(self, a):
        m = [1]
        for n in range(200):
            m.append(a * sum(comb(n, j) * m[j] for j in range(n + 1)))
        assert exact.poisson_moments(a, 200) == m


class TestArima:
    def test_published_rows(self, bells):
        t = exact.arima_rows(7)
        for n, row in enumerate(TABLE_A, start=1):
            assert list(t.row(n)) == row
            assert sum(row) == bells[n + 1]

    def test_diagonal_ones(self):
        t = exact.arima_rows(12)
        for n in range(1, 13):
            assert t.entry(n, n) == 1

    def test_row7_sum(self):
        assert sum(exact.arima_rows(7).row(7)) == 4140

    def test_pascal_rows_equal_the_binomial_products(self, bells):
        t = exact.arima_rows(200)
        for n in range(1, 201):
            assert t.row(n) == tuple(comb(n, k) * bells[n - k] for k in range(n + 1))


class TestBellInverse:
    def test_problem_value(self):
        assert exact.solve_bell_inverse(678570) == 11

    def test_trivial_and_missing(self):
        assert exact.solve_bell_inverse(1) == 0
        assert exact.solve_bell_inverse(678571) is None
        assert exact.solve_bell_inverse(2) == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            exact.solve_bell_inverse(0)


class TestPrefixes:
    """The growing prefixes against independent routes, and their reuse."""

    @pytest.fixture(autouse=True)
    def fresh(self):
        exact._reset()
        yield
        exact._reset()

    def test_prefixes_equal_independent_routes_to_300(self):
        bells = exact.bell_numbers(300)
        assert bells[1:] == [sum(r) for r in exact.b_table_rows(300).rows]
        assert exact.beta_numbers(300) == exact._beta_binomial(300)

    def test_extension_equals_fresh_build(self):
        grown = []
        for small, large in ((50, 200), (7, 60)):
            exact._reset()
            exact.bell_numbers(small)
            exact.beta_numbers(small)
            for a in (1, 2, 3):
                exact.poisson_moments(a, small)
            exact.matsunaga_rows(small)
            exact.pn_at_n(small)
            grown.append((exact.bell_numbers(large), exact.beta_numbers(large),
                          [exact.poisson_moments(a, large) for a in (1, 2, 3)],
                          exact.matsunaga_rows(large), exact.pn_at_n(large)))
            exact._reset()
            fresh = (exact.bell_numbers(large), exact.beta_numbers(large),
                     [exact.poisson_moments(a, large) for a in (1, 2, 3)],
                     exact.matsunaga_rows(large), exact.pn_at_n(large))
            assert grown[-1] == fresh

    def test_shorter_request_is_a_prefix(self):
        assert exact.bell_numbers(200)[:51] == exact.bell_numbers(50)
        assert exact.matsunaga_rows(60).rows[:20] == exact.matsunaga_rows(20).rows

    def test_mutating_results_leaves_prefix_intact(self):
        for fn in (exact.bell_numbers, exact.beta_numbers,
                   lambda n: exact.poisson_moments(3, n),
                   lambda n: exact.pn_at_n(n)[0], lambda n: exact.pn_at_n(n)[1]):
            first = fn(20)
            expected = list(first)
            first[5] = -1
            first.append(0)
            assert fn(20) == expected
        rows = exact.matsunaga_rows(10).rows
        assert isinstance(rows, tuple) and all(isinstance(r, tuple) for r in rows)
        assert list(exact.matsunaga_rows(10).row(7)) == TABLE_M[6]

    def test_nothing_computed_at_import(self):
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(exact.__file__).parents[1])
        code = ("import sys; sys.path.insert(0, %r); import bellnum.cli; "
                "from bellnum.exact import _PREFIX as p; "
                "print(p.betas, p.matsunaga, p.poisson, p.pn_at_n)" % src)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out == "[1] [(0,)] {} ([0], [0])\n"


# the guards below n = 1 of the single-row routes
@pytest.mark.parametrize("fn, args, message", [
    pytest.param(exact.abs_matsunaga_row, (0,), "n must be >= 1", id="abs_matsunaga_row(0)"),
    pytest.param(exact.pnv_eval, (0, 1), "n must be >= 1", id="pnv_eval(0, 1)"),
    pytest.param(exact.pn_at_n, (0,), "N must be >= 1", id="pn_at_n(0)"),
])
def test_rejects_n_below_one(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)
