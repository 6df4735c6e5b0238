"""Floating-side tests.

Every approximation is measured against an exact oracle (the integer
sequences or a residual plugged back into the defining equation); the
tolerances asserted here were fixed from those oracle runs.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bellnum import asymptotic as asy
from bellnum import exact


def rel_value_error(log_approx: float, exact_value: int) -> float:
    return abs(math.exp(log_approx - math.log(exact_value)) - 1.0)


class TestLambertW:
    def test_unit_point(self):
        assert asy.lambert_w(math.e) == pytest.approx(1.0, abs=1e-14)

    def test_small_argument_limit(self):
        assert asy.lambert_w(1e-12) == pytest.approx(1e-12, rel=1e-9)

    def test_large_argument_residual(self):
        x = 1e6
        w = asy.lambert_w(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * x

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            asy.lambert_w(0.0)
        with pytest.raises(ValueError):
            asy.lambert_w(-1.0)

    def test_infinity_does_not_converge(self):
        with pytest.raises(ArithmeticError, match="did not converge"):
            asy.lambert_w(math.inf)

    @given(st.floats(min_value=1e-6, max_value=1e9))
    @settings(max_examples=200)
    def test_residual_contract(self, x):
        w = asy.lambert_w(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * x

    def test_documented_series_for_large_x(self):
        # log x - log log x + (log log x)/log x, error order (log x)^-2 (log log x)^2
        x = 1e8
        l1, l2 = math.log(x), math.log(math.log(x))
        series = l1 - l2 + l2 / l1
        assert abs(asy.lambert_w(x) - series) <= 5 * (l2 / l1) ** 2


class TestSpecialFunctions:
    def test_digamma_at_one(self):
        assert asy.digamma(1.0) == pytest.approx(-asy.EULER_GAMMA, abs=1e-13)

    def test_digamma_vs_harmonic(self):
        for n in (1, 5, 17, 120):
            hn = float(sum(Fraction(1, j) for j in range(1, n + 1)))
            assert asy.digamma(n + 1.0) == pytest.approx(hn - asy.EULER_GAMMA, abs=1e-12)

    def test_trigamma_identities(self):
        assert asy.trigamma(1.0) == pytest.approx(math.pi**2 / 6, abs=1e-12)
        for n in (3, 9, 40):
            h2 = float(sum(Fraction(1, j**2) for j in range(1, n + 1)))
            assert asy.trigamma(n + 1.0) == pytest.approx(math.pi**2 / 6 - h2, abs=1e-12)

    def test_domain(self):
        for fn in (asy.digamma, asy.trigamma):
            with pytest.raises(ValueError):
                fn(0.0)


class TestBetaApprox:
    def test_moderate_n_within_five_percent(self, betas):
        assert rel_value_error(asy.beta_asym(12).log_value, betas[12]) < 0.05

    def test_error_decays(self, betas):
        errs = [abs(asy.beta_asym(n).log_value - math.log(betas[n]))
                for n in (20, 50, 100, 200)]
        assert errs == sorted(errs, reverse=True)

    def test_correction_term_helps(self, betas):
        n = 100
        w = asy.lambert_w(float(n))
        leading = (w + 1 / w - 1) * n - w - 1 - 0.5 * math.log(w + 1)
        exact_log = math.log(betas[n])
        assert abs(asy.beta_asym(n).log_value - exact_log) < abs(leading - exact_log)

    def test_error_order_tag(self):
        assert asy.beta_asym(10).error_order == "O(n^-2 (log n)^2)"


class TestBellApprox:
    def test_problem_value_within_five_percent(self, bells):
        assert rel_value_error(asy.bell_asym(11).log_value, 678570) < 0.05
        assert bells[11] == 678570

    def test_error_decays(self, bells):
        e30 = abs(asy.bell_asym(30).log_value - math.log(bells[30]))
        e100 = abs(asy.bell_asym(100).log_value - math.log(bells[100]))
        assert e100 < e30

    def test_smoke_at_two(self):
        assert math.isfinite(asy.bell_asym(2).log_value)


class TestTildeBell:
    def test_exact_first_values(self):
        assert exact.poisson_moments(2, 4) == [1, 2, 6, 22, 94]

    def test_exact_matches_truncated_poisson_moment_sum(self):
        # oracle: sum_j j^n e^-2 2^j / j! with a long truncation
        for n in (3, 6, 9):
            s = sum(j**n * math.exp(-2) * 2.0**j / math.factorial(j) for j in range(80))
            assert s == pytest.approx(exact.poisson_moments(2, n)[n], rel=1e-9)

    def test_log_error_within_two_percent_at_sixty(self):
        t = exact.poisson_moments(2, 60)
        a = asy.tilde_bell_asym(60)
        le = math.log(t[60])
        assert abs(a.log_value - le) / le < 0.02

    def test_error_decays(self):
        t = exact.poisson_moments(2, 200)
        errs = [abs(asy.tilde_bell_asym(n).log_value - math.log(t[n]))
                for n in (50, 100, 200)]
        assert errs == sorted(errs, reverse=True)


class TestStirlingApprox:
    def test_regime_dispatch(self):
        assert asy.stirling_regime(100, 2) == "small_k"
        assert asy.stirling_regime(100, 50) == "central"
        assert asy.stirling_regime(100, 99) == "large_k"

    def test_top_entry_is_exact(self):
        for n in (5, 30, 100):
            a = asy.stirling_asym(n, n)
            assert a.regime == "large_k"
            assert a.log_value == pytest.approx(0.0, abs=1e-12)

    def test_regime_representative_points(self, stirling26):
        # calibrated: k=2 (small), n//2 (central), n-1 (large) all meet 5%
        for n in (30, 60, 100):
            s = exact.stirling_unsigned_rows(n)
            for k in (2, n // 2, n - 1):
                a = asy.stirling_asym(n, k)
                assert rel_value_error(a.log_value, s.entry(n, k)) < 0.05, (n, k)

    def test_central_forty_twenty(self):
        s = exact.stirling_unsigned_rows(40)
        a = asy.stirling_asym(40, 20)
        assert a.regime == "central"
        assert rel_value_error(a.log_value, s.entry(40, 20)) < 0.05
        assert a.saddle is not None and abs(a.saddle.residual) <= 1e-12

    def test_small_regime_midpoint_accuracy_is_bounded(self):
        # the small-k formula's midpoint error is real but bounded: at
        # k near log n it stays under 10% for n >= 30 (measured 6-9.4%)
        for n in (30, 60, 100):
            s = exact.stirling_unsigned_rows(n)
            k = round(math.log(n))
            a = asy.stirling_asym(n, k)
            assert a.regime == "small_k"
            assert rel_value_error(a.log_value, s.entry(n, k)) < 0.10

    def test_first_column_exact(self):
        # k=1 reduces the small-k formula to (n-1)!, exactly
        s = exact.stirling_unsigned_rows(50)
        a = asy.stirling_asym(50, 1)
        assert rel_value_error(a.log_value, s.entry(50, 1)) < 1e-9


class TestSaddleSolvers:
    def test_mw2_saddle(self):
        sp = asy.solve_mw2_saddle(40, 20)
        V = 20 + sp.root**2 * (asy.trigamma(40 + sp.root) - asy.trigamma(sp.root))
        assert V > 0
        assert abs(sp.residual) <= 1e-12

    def test_iteration_counts_reported(self):
        assert asy.solve_mw2_saddle(40, 20).iterations >= 1

    @pytest.mark.parametrize("f, message", [
        (lambda x: 0.0, "cannot bracket root from above"),
        (lambda x: 2.0, "cannot bracket root from below"),
        (lambda x: 0.0 if x < 2.0 else 2.0, "no convergence after 64 iterations"),
    ])
    def test_solver_fails_loudly(self, f, message):
        with pytest.raises(ArithmeticError, match=message):
            asy._solve_increasing(f, lambda x: 0.0, 1.0, 1.0, "probe")

    def test_bracket_grows_upward(self):
        sp = asy._solve_increasing(lambda x: x**3, lambda x: 3 * x**2, 1000.0, 1.0, "cube")
        assert sp.root == pytest.approx(10.0, rel=1e-12)
        assert abs(sp.residual) <= 1e-12


class TestPhi:
    def test_spot_values(self):
        assert asy.phi(1.0) == pytest.approx(2 * math.log(2) - 1, abs=1e-12)
        assert asy.tau_of_rho(1.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_interior_maximum_samples(self):
        assert asy.phi(0.5) < asy.phi(1.0)
        assert asy.phi(2.0) < asy.phi(1.0)

    def test_grid_argmax(self):
        grid = [i / 100 for i in range(1, 501)]
        values = [asy.phi(r) for r in grid]
        best = max(range(len(grid)), key=values.__getitem__)
        assert grid[best] == 1.00
        assert values[best] == pytest.approx(2 * math.log(2) - 1, abs=1e-12)

    def test_inverse_roundtrip(self):
        for rho in (0.05, 0.3, 1.0, 2.0, 4.5):
            assert asy.rho_of_tau(asy.tau_of_rho(rho)) == pytest.approx(rho, abs=1e-10)

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=100)
    def test_inverse_roundtrip_property(self, tau):
        assert asy.tau_of_rho(asy.rho_of_tau(tau)) == pytest.approx(tau, abs=1e-10)

    def test_domains(self):
        with pytest.raises(ValueError):
            asy.phi(0.0)
        with pytest.raises(ValueError):
            asy.rho_of_tau(1.0)
        with pytest.raises(ValueError, match="rho must be > 0"):
            asy.tau_of_rho(0.0)


class TestBetaRatio:
    def test_zero_offset(self):
        assert asy.beta_ratio_asym(10, 0) == 1.0

    def test_accuracy(self, betas):
        exact_ratio = betas[99] / betas[100]
        assert abs(asy.beta_ratio_asym(100, 1) / exact_ratio - 1) < 0.10

    def test_improves_with_n(self, betas):
        d50 = abs(asy.beta_ratio_asym(50, 2) / (betas[48] / betas[50]) - 1)
        d200 = abs(asy.beta_ratio_asym(200, 2) / (betas[198] / betas[200]) - 1)
        assert d200 < d50


# the domain guards of the approximations, each refused with its own message
@pytest.mark.parametrize("fn, args, message", [
    pytest.param(asy.beta_asym, (1,), "n must be >= 2", id="beta_asym(1)"),
    pytest.param(asy.solve_mw2_saddle, (5, 0), "need 1 <= k <= n", id="solve_mw2_saddle(5, 0)"),
    pytest.param(asy.solve_mw2_saddle, (5, 5), "k = n is degenerate", id="solve_mw2_saddle(5, 5)"),
    pytest.param(asy.stirling_regime, (5, 6), "need 1 <= k <= n", id="stirling_regime(5, 6)"),
    pytest.param(asy.beta_ratio_asym, (5, 5), "need n > l >= 0", id="beta_ratio_asym(5, 5)"),
])
def test_rejects_outside_domain(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)
