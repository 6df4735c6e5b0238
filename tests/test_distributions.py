"""Distribution tests: exact two-route moments, variant identities,
and the lattice Gaussian deviation machinery."""

import math
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from bellnum import distributions as dist
from bellnum import exact
from bellnum.asymptotic import EULER_GAMMA


class TestPMFBasics:
    def test_point_mass_has_zero_variance(self):
        pmf = dist.pmf_from_weights(3, [7])
        assert dist.moments_exact(pmf) == (3, 0)

    def test_uniform_moments(self):
        pmf = dist.pmf_from_weights(0, [1, 1, 1, 1])
        assert dist.moments_exact(pmf) == (Fraction(3, 2), Fraction(5, 4))

    def test_published_row5_mean(self):
        pmf = dist.pmf_from_weights(1, [124, 330, 285, 90, 11])
        mean, _ = dist.moments_exact(pmf)
        assert mean == Fraction(1027, 420)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            dist.pmf_from_weights(0, [0, 0])
        with pytest.raises(ValueError):
            dist.pmf_from_weights(0, [1, -1])

    def test_probabilities_sum_to_one(self):
        pmf = dist.row_pmf("matsunaga", 9)
        assert sum(Fraction(w, pmf.total) for w in pmf.weights) == 1

    def test_out_of_support(self):
        pmf = dist.pmf_from_weights(1, [1, 2])
        assert 0 not in pmf.support()
        assert dict(zip(pmf.support(), pmf.weights)) == {1: 1, 2: 2}
        assert pmf.total == 3


class TestMatsunagaFamily:
    def test_two_route_moments(self):
        for n in range(4, 26):
            pmf = dist.row_pmf("matsunaga", n)
            assert dist.matsunaga_closed_moments(n) == dist.moments_exact(pmf)

    def test_row5_mean_both_routes(self):
        mean, _ = dist.matsunaga_closed_moments(5)
        assert mean == Fraction(1027, 420)

    def test_total_row4(self):
        assert dist.row_pmf("matsunaga", 4).total == 96

    def test_closed_form_rejected_below_four(self):
        with pytest.raises(ValueError):
            dist.matsunaga_closed_moments(3)

    def test_mean_expansion_residual(self):
        mean, _ = dist.matsunaga_closed_moments(100)
        target = math.log(100) + EULER_GAMMA + 1 / 200
        assert abs(float(mean) - target) < 0.01

    def test_asym_moments_close_to_exact(self):
        mean, var = dist.matsunaga_closed_moments(150)
        mu, s2 = dist.matsunaga_asym_moments(150)
        assert abs(float(mean) - mu) < 1e-4
        assert abs(float(var) - s2) < 1e-3


class TestWeightedFamily:
    def test_total_is_pn_at_n(self):
        assert dist.row_pmf("weighted-matsunaga", 5).total == 135120

    def test_row6_weight(self):
        pmf = dist.row_pmf("weighted-matsunaga", 6)
        assert pmf.weights[2] == 1623240  # |M[6,3]| 6^3

    def test_two_route_mean(self):
        for n in range(4, 26):
            pmf = dist.row_pmf("weighted-matsunaga", n)
            assert dist.weighted_matsunaga_closed_mean(n) == dist.moments_exact(pmf)[0]

    def test_mean_expansion_residual(self):
        mean = dist.weighted_matsunaga_closed_mean(100)
        mu, _ = dist.weighted_matsunaga_asym_moments(100)
        assert abs(float(mean) - mu) < 0.02

    def test_variance_expansion_residual_decays(self):
        resid = []
        for n in (25, 50, 100):
            _, var = dist.moments_exact(dist.row_pmf("weighted-matsunaga", n))
            _, s2 = dist.weighted_matsunaga_asym_moments(n)
            resid.append(abs(float(var) - s2))
        assert resid[2] < resid[0]

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            dist.row_pmf("weighted-matsunaga", 3)


class TestArimaFamily:
    def test_published_row(self):
        pmf = dist.row_pmf("arima", 5)
        assert pmf.weights == (52, 75, 50, 20, 5, 1)
        assert pmf.total == 203

    def test_total_row7(self):
        assert dist.row_pmf("arima", 7).total == 4140

    def test_pmf_is_the_triangle_row(self, bells):
        rows = exact.arima_rows(120)
        for n in range(1, 121):
            pmf = dist.row_pmf("arima", n)
            assert pmf.weights == rows.row(n)
            assert pmf.total == bells[n + 1]

    def test_two_route_moments(self):
        for n in range(1, 26):
            assert dist.arima_exact_moments(n) == dist.moments_exact(dist.row_pmf("arima", n))

    def test_mean_row7(self):
        mean, _ = dist.arima_exact_moments(7)
        assert mean == Fraction(7 * 877, 4140)

    def test_reversed_mean_mirrors(self):
        n = 9
        m, v = dist.moments_exact(dist.row_pmf("arima", n))
        mr, vr = dist.moments_exact(dist.row_pmf("arima-reversed", n))
        assert mr == n - m
        assert vr == v


class TestBalancedFamily:
    def test_small_weights(self):
        assert dist.row_pmf("a033306", 2).weights == (2, 2, 2)
        assert dist.row_pmf("a033306", 2).total == 6

    def test_two_route_moments(self):
        for n in range(1, 26):
            assert dist.a033306_exact_moments(n) == dist.moments_exact(dist.row_pmf("a033306", n))

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_mean_is_half_n(self, n):
        mean, _ = dist.moments_exact(dist.row_pmf("a033306", n))
        assert mean == Fraction(n, 2)

    def test_variance_expansion_residual(self):
        # calibrated: residual is ~5e-3 at n=41 and shrinks with n,
        # far inside the claimed (log n)^2 / n order
        resids = []
        for n in (20, 41, 80):
            _, var = dist.a033306_exact_moments(n)
            resids.append(abs(float(var) - dist.a033306_asym_variance(n)))
        assert resids[1] < 0.01
        assert resids[1] < math.log(41) ** 2 / 41
        assert resids[2] < resids[0]


class TestStirlingCycleMoments:
    def test_exact_harmonic_moments(self, stirling26):
        # the plain cycle-count distribution |s[n,k]|/n! has mean H_n
        # and variance H_n - H_n^[2], exactly
        def harmonic(n, m):
            return sum(Fraction(1, j**m) for j in range(1, n + 1))

        for n in (2, 5, 11, 20):
            pmf = dist.pmf_from_weights(1, stirling26.row(n), name=f"cycles[{n}]")
            mean, var = dist.moments_exact(pmf)
            assert mean == harmonic(n, 1)
            assert var == harmonic(n, 1) - harmonic(n, 2)


class TestWeightedTailMass:
    def test_mass_outside_central_range_is_negligible(self):
        # the n^k-weighted family is concentrated at mu n with spread
        # sigma sqrt(n): beyond four standard deviations the exact mass
        # is below 1e-4 at every tested n (the proof-level window
        # exponents only bite at much larger n, so only smallness is
        # asserted here)
        mu = math.log(2)
        s2 = math.log(2) - 0.5
        for n in (30, 60, 120):
            pmf = dist.row_pmf("weighted-matsunaga", n)
            half_width = 4 * math.sqrt(s2 * n)
            outside = sum(
                (w for k, w in zip(pmf.support(), pmf.weights)
                 if abs(k - mu * n) > half_width),
                0,
            )
            assert Fraction(outside, pmf.total) < Fraction(1, 10_000)


class TestVariantTriangles:
    def test_product_closed_identity_220883(self, stirling26):
        for n in range(2, 21):
            t = dist.row_pmf("a220883", n)
            closed = [stirling26.entry(n, k + 1) * (n + 1) ** k for k in range(n)]
            assert list(t.weights) == closed

    def test_product_closed_identity_260887(self, stirling26):
        for n in range(2, 21):
            t = dist.row_pmf("a260887", n)
            closed = [
                n**k * sum((-1) ** (k - j) * stirling26.entry(n + 1, j + 1) for j in range(k + 1))
                for k in range(n)
            ]
            assert list(t.weights) == closed

    def test_220883_row3_by_hand(self):
        # (1 + 4z)(2 + 4z) = 2 + 12z + 16z^2
        assert dist.row_pmf("a220883", 3).weights == (2, 12, 16)

    def test_220884_row3_by_hand(self):
        # (2 + 2z)(3 + z) = 6 + 8z + 2z^2
        assert dist.row_pmf("a220884", 3).weights == (6, 8, 2)

    def test_a056856_top_entry(self):
        assert dist.row_pmf("a056856", 5).weights[-1] == 625

    def test_a056856_is_the_unsigned_stirling_row(self, stirling26):
        for n in range(2, 27):
            weights = dist.row_pmf("a056856", n).weights
            assert weights == tuple(v * n ** k for k, v in enumerate(stirling26.row(n)))

    def test_a124323_first_column(self, betas):
        assert dist.row_pmf("a124323", 6).weights[0] == 41
        for n in (4, 9, 15):
            assert dist.row_pmf("a124323", n).weights[0] == betas[n]

    def test_a086659_drops_unit_mass(self):
        for n in (4, 7, 11):
            full = dist.row_pmf("a124323", n)
            trimmed = dist.row_pmf("a086659", n)
            assert full.weights[-1] == 1
            assert trimmed.weights == full.weights[:-1]

    def test_poisson_binomial_triangles(self):
        for which, a in (("a078937", 2), ("a078938", 3), ("a078939", 4)):
            n = 8
            m = exact.poisson_moments(a, n)
            t = dist.row_pmf(which, n)
            assert list(t.weights) == [math.comb(n, k) * m[n - k] for k in range(n + 1)]

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            dist.row_pmf("a000000", 10)


# Rows n = first..first+2 of every family as (weights, total), typed from
# the per-family builders that the row table replaced.  Row first - 1 is
# refused; Matsunaga's row 1 is [0] (M[1,1] = beta_1 = 0), so it starts at 2.
FAMILY_ROWS = [
    ("matsunaga", 2, 1, [((1, 1), 2), ((1, 0, 1), 2), ((28, 44, 20, 4), 96)]),
    ("weighted-matsunaga", 4, 1, [
        ((112, 704, 1280, 1024), 3120),
        ((620, 8250, 35625, 56250, 34375), 135120),
        ((25056, 333144, 1623240, 3816720, 4269024, 1912896), 11980080)]),
    ("arima", 1, 0, [((1, 1), 2), ((2, 2, 1), 5), ((5, 6, 3, 1), 15)]),
    ("arima-reversed", 1, 0, [((1, 1), 2), ((1, 2, 2), 5), ((1, 3, 6, 5), 15)]),
    ("a033306", 1, 0, [((1, 1), 2), ((2, 2, 2), 6), ((5, 6, 6, 5), 22)]),
    ("a056856", 2, 1, [((1, 2), 3), ((2, 9, 9), 20), ((6, 44, 96, 64), 210)]),
    ("a220883", 2, 0, [((1, 3), 4), ((2, 12, 16), 30), ((6, 55, 150, 125), 336)]),
    ("a260887", 2, 0, [((2, 2), 4), ((6, 15, 9), 30), ((24, 104, 144, 64), 336)]),
    ("a220884", 2, 0, [((2, 1), 3), ((6, 8, 2), 16), ((24, 58, 37, 6), 125)]),
    ("a124323", 2, 0, [((1, 0, 1), 2), ((1, 3, 0, 1), 5), ((4, 4, 6, 0, 1), 15)]),
]


def test_family_rows_cover_every_family():
    assert sorted(f for f, *_ in FAMILY_ROWS) == sorted(dist.FAMILIES)


@pytest.mark.parametrize("family, first, k_min, rows", FAMILY_ROWS, ids=[r[0] for r in FAMILY_ROWS])
def test_family_rows(family, first, k_min, rows):
    build = dist.FAMILIES[family].build
    with pytest.raises(ValueError) as refused:
        build(first - 1)
    assert str(refused.value) == f"n must be >= {first}"
    for n, expected in enumerate(rows, first):
        pmf = build(n)
        assert (pmf.k_min, pmf.weights, pmf.total) == (k_min, *expected), n


def _family_pmfs(top=40):
    """Every FAMILIES member for n <= top that the family defines."""
    for name, fam in sorted(dist.FAMILIES.items()):
        for n in range(1, top + 1):
            try:
                yield name, n, fam.build(n)
            except ValueError:
                continue


def closed_moments_reference(n):
    """The |M[n,k]| mean and variance as alternating beta/harmonic sums,
    reduced as one Fraction per term."""
    beta = exact.beta_numbers(n)
    H1 = list(accumulate((Fraction(1, i) for i in range(1, n + 1)), initial=Fraction(0)))
    H2 = list(accumulate((Fraction(1, i * i) for i in range(1, n + 1)), initial=Fraction(0)))
    den = num1 = num2 = Fraction(0)
    for j in range(n - 1):
        term = (-1) ** j * beta[n - j]
        den += term
        num1 += term * H1[n - j]
        num2 += term * (H1[n - j] ** 2 - H2[n - j])
    mean = num1 / den
    return mean, num2 / den - mean * mean + mean


def weighted_closed_mean_reference(n):
    """The n^k-weighted mean as a beta/harmonic sum, reduced as one
    Fraction per term."""
    beta = exact.beta_numbers(n)
    Hn1 = H = sum(Fraction(1, j) for j in range(1, n))
    num = den = Fraction(0)
    for j in range(n - 1, -1, -1):
        H += Fraction(1, 2 * n - j - 1)  # H_{2n-j-1}
        b = math.comb(2 * n - 1 - j, n - j) * (-1) ** j * beta[n - j]
        den += b
        num += b * (H - Hn1)
    return n * num / den


class TestIntegerRoutes:
    """The integer moment sums, closed forms and float probabilities
    against the Fraction routes they replace."""

    def test_moments_equal_per_point_fraction_sums(self):
        seen = set()
        for name, n, pmf in _family_pmfs():
            m1 = m2 = Fraction(0)
            for k, w in zip(pmf.support(), pmf.weights):
                m1 += k * Fraction(w, pmf.total)
                m2 += k * k * Fraction(w, pmf.total)
            assert dist.moments_exact(pmf) == (m1, m2 - m1 * m1), (name, n)
            seen.add(name)
        assert seen == set(dist.FAMILIES)

    def test_int_division_equals_fraction_float(self):
        for name, n, pmf in _family_pmfs():
            for w in pmf.weights:
                assert w / pmf.total == float(Fraction(w, pmf.total)), (name, n, w)

    def test_closed_forms_equal_per_term_fraction_sums(self):
        for n in range(4, 201):
            assert dist.matsunaga_closed_moments(n) == closed_moments_reference(n), n
            assert dist.weighted_matsunaga_closed_mean(n) == weighted_closed_mean_reference(n), n


class TestLLTReports:
    def test_point_mass_rejected(self):
        fam = dist.FAMILIES["arima"]
        pmf = dist.pmf_from_weights(0, [5])
        with pytest.raises(ValueError):
            dist.llt_report(pmf, fam, 1)

    def test_report_fields(self):
        fam = dist.FAMILIES["arima"]
        rep = dist.llt_report(fam.build(7), fam, 7)
        assert rep.mean_exact == Fraction(6139, 4140)
        assert rep.rate_tag == "(log n)^-1/2"
        assert rep.sup_deviation >= 0
        assert rep.centering == "exact"

    def test_weighted_ladder_strictly_decreases(self):
        fam = dist.FAMILIES["weighted-matsunaga"]
        sups = [dist.llt_report(fam.build(n), fam, n).sup_deviation for n in (20, 40, 80)]
        assert sups[0] > sups[1] > sups[2]

    def test_asym_centering_mode(self):
        fam = dist.FAMILIES["a220884"]
        rep = dist.llt_report(fam.build(30), fam, 30, centering="asym")
        assert rep.centering == "asym"
        assert rep.mu_asym == 15.0
        assert rep.sigma2_asym == 5.0

    def test_unknown_centering(self):
        fam = dist.FAMILIES["arima"]
        with pytest.raises(ValueError):
            dist.llt_report(fam.build(6), fam, 6, centering="nearly")

    def test_matsunaga_endpoint_decay(self):
        fam = dist.FAMILIES["matsunaga"]
        sups = [dist.llt_report(fam.build(n), fam, n).sup_deviation for n in (20, 180)]
        assert sups[1] < sups[0]


class TestUniformity:
    def test_diagonal_ratio_is_one(self):
        # M[n,n] = beta_n and s[n,n] = 1, so the ratio at k = n is exactly 1
        m = exact.matsunaga_rows(5)
        s = exact.stirling_signed_rows(5)
        beta5 = exact.beta_numbers(5)[5]
        assert Fraction(m.entry(5, 5), beta5 * s.entry(5, 5)) == 1
        assert dist.bnk_ratio_uniformity(5) > 0

    def test_coarse_band_at_ten(self):
        assert dist.bnk_ratio_uniformity(10) < 0.5

    def test_monotone_trend(self):
        # the full 5-step ladder, matching the published uniformity plot
        devs = [dist.bnk_ratio_uniformity(n) for n in range(10, 101, 5)]
        assert all(a > b for a, b in zip(devs, devs[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            dist.bnk_ratio_uniformity(3)


class TestDecayExponent:
    def test_recovers_power_law(self):
        ns = [10, 20, 40, 80]
        values = [3.0 * n**-0.5 for n in ns]
        assert dist.decay_exponent(ns, values) == pytest.approx(-0.5, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            dist.decay_exponent([5], [1.0])
