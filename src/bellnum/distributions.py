"""Discrete distributions built from the exact triangles, their exact
and asymptotic moments, and local-limit-theorem deviation reports.

Every distribution is row n of one entry of one table, ``_ROWS``: the
paper's triangles (Matsunaga's M, its n^k-weighted form, Arima's) and
the OEIS variant triangles, each built by ``row_pmf``.

A family's probabilities are exact rationals (weights over an exact
total); floats appear only at the very end, when a probability or a
moment is compared against a Gaussian.  The sup deviation of a family
is evaluated on integer support points only: between lattice points the
point probability is zero, so the standardized sup is attained at (or
arbitrarily near) the lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import comb
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .exact import (
    _stirling_rows,
    abs_matsunaga_row,
    bell_numbers,
    beta_numbers,
    matsunaga_rows,
    poisson_moments,
    stirling_signed_rows,
)
from .asymptotic import EULER_GAMMA, lambert_w

__all__ = [
    "DiscretePMF",
    "LLTReport",
    "LLTFamily",
    "FAMILIES",
    "pmf_from_weights",
    "moments_exact",
    "row_pmf",
    "matsunaga_closed_moments",
    "matsunaga_asym_moments",
    "weighted_matsunaga_closed_mean",
    "weighted_matsunaga_asym_moments",
    "arima_exact_moments",
    "arima_asym_moments",
    "a033306_exact_moments",
    "a033306_asym_variance",
    "llt_report",
    "bnk_ratio_uniformity",
    "decay_exponent",
]


class DiscretePMF(NamedTuple):
    """Nonnegative integer weights over ``k = k_min .. k_min+len-1``
    with their exact total; probabilities are exact rationals."""

    name: str
    k_min: int
    weights: tuple[int, ...]
    total: int

    def support(self) -> range:
        return range(self.k_min, self.k_min + len(self.weights))


class LLTReport(NamedTuple):
    """Standardized lattice deviation of one family member from the
    Gaussian, with the exact and the asymptotic (mean, variance); the
    caller holds n, the family and the centering."""

    mean_exact: Fraction
    var_exact: Fraction
    mu_asym: float
    sigma2_asym: float
    sup_deviation: float


# a dataclass because perfbench's tracer rebinds its fields with dataclasses.replace
@dataclass(frozen=True)
class LLTFamily:
    build: Callable[[int], DiscretePMF]
    mu_asym: Callable[[int], float]
    sigma2_asym: Callable[[int], float]
    rate_tag: str


def pmf_from_weights(k_min: int, weights: Sequence[int], name: str = "pmf") -> DiscretePMF:
    ws = tuple(weights)
    if not all(isinstance(w, int) and w >= 0 for w in ws):
        raise ValueError(f"{name}: weights must be non-negative integers")
    total = sum(ws)
    if total == 0:
        raise ValueError(f"{name}: all weights zero")
    return DiscretePMF(name=name, k_min=k_min, weights=ws, total=total)


def moments_exact(pmf: DiscretePMF) -> tuple[Fraction, Fraction]:
    """Exact rational (mean, variance), from the integer sums
    ``S1 = sum k w`` and ``S2 = sum k^2 w``: the variance is
    ``(S2 T - S1^2) / T^2`` over the total T."""
    s1 = s2 = 0
    for k, w in zip(pmf.support(), pmf.weights):
        kw = k * w
        s1 += kw
        s2 += k * kw
    t = pmf.total
    return Fraction(s1, t), Fraction(s2 * t - s1 * s1, t * t)


def _binomial_row(n: int, terms: Sequence[int]) -> list[int]:
    """``C(n,k) terms[n-k]`` for k = 0..n, C(n,k) by a running product."""
    row = []
    c = 1
    for k in range(n + 1):
        row.append(c * terms[n - k])
        c = c * (n - k) // (k + 1)
    return row


# --------------------------------------------------------- family moments


def matsunaga_closed_moments(n: int) -> tuple[Fraction, Fraction]:
    """Closed-form mean and variance of the |M[n,k]| distribution via
    alternating beta/harmonic sums; valid from n = 4.

    The sums run in integers over one denominator: with L = lcm(1..n),
    ``L H_i`` and ``L^2 H_i^(2)`` are integer running sums."""
    if n < 4:
        raise ValueError("closed moments require n >= 4")
    beta = beta_numbers(n)
    L = math.lcm(*range(1, n + 1))
    h1, h2 = L, L * L  # L H_1, L^2 H_1^(2)
    den = num1 = num2 = 0
    for i in range(2, n + 1):
        q = L // i
        h1 += q
        h2 += q * q
        term = (-1) ** (n - i) * beta[i]
        den += term
        num1 += term * h1
        num2 += term * (h1 * h1 - h2)
    # mean = num1 / (L den); var = num2 / (L^2 den) - mean^2 + mean
    mean = Fraction(num1, L * den)
    var = Fraction(num2 * den - num1 * num1 + num1 * L * den, (L * den) ** 2)
    return mean, var


def matsunaga_asym_moments(n: int) -> tuple[float, float]:
    """Expansions ``log n + gamma + 1/(2n) + (12W-1)/(12n^2)`` and
    ``log n + gamma - pi^2/6 + 3/(2n) + (12W-7)/(12n^2)``."""
    w = lambert_w(float(n))
    ln = math.log(n)
    mu = ln + EULER_GAMMA + 0.5 / n + (12.0 * w - 1.0) / (12.0 * n * n)
    s2 = ln + EULER_GAMMA - math.pi**2 / 6.0 + 1.5 / n + (12.0 * w - 7.0) / (12.0 * n * n)
    return mu, s2


def weighted_matsunaga_closed_mean(n: int) -> Fraction:
    """Closed-form mean of the n^k-weighted family:
    ``sum_k k |M[n,k]| n^k = n n! sum_j C(2n-1-j, n-j) (-1)^j beta_{n-j}
    (H_{2n-j-1} - H_{n-1})`` divided by the total ``P_n(n)``."""
    if n < 4:
        raise ValueError("closed mean requires n >= 4")
    beta = beta_numbers(n)
    L = math.lcm(*range(n, 2 * n))
    h = num = den = 0
    c = 1
    for j in range(n - 1, -1, -1):
        h += L // (2 * n - j - 1)  # the running sum L (H_{2n-j-1} - H_{n-1})
        c = c * (2 * n - 1 - j) // (n - j)  # C(2n-1-j, n-j) from its value at j + 1
        b = c * (-1) ** j * beta[n - j]
        den += b
        num += b * h
    return Fraction(n * num, L * den)


def weighted_matsunaga_asym_moments(n: int) -> tuple[float, float]:
    """``mu n + 1/4 - (4W(n)-1)/(16n)`` and ``sigma^2 n - 1/8 - 1/(12n)``
    with (mu, sigma^2) = (log 2, log 2 - 1/2)."""
    w = lambert_w(float(n))
    mu = math.log(2.0) * n + 0.25 - (4.0 * w - 1.0) / (16.0 * n)
    s2 = (math.log(2.0) - 0.5) * n - 0.125 - 1.0 / (12.0 * n)
    return mu, s2


def arima_exact_moments(n: int) -> tuple[Fraction, Fraction]:
    """Exact ``mu_n = n B_n / B_{n+1}`` and
    ``sigma_n^2 = (n(n-1) B_{n-1} + n B_n)/B_{n+1} - mu_n^2``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    b = bell_numbers(n + 1)
    mu = Fraction(n * b[n], b[n + 1])
    s2 = Fraction(n * (n - 1) * b[n - 1] + n * b[n], b[n + 1]) - mu * mu
    return mu, s2


def arima_asym_moments(n: int) -> tuple[float, float]:
    """``w (1 - w^2/(2n(w+1)^2))`` and ``w (1 - w(3w+2)/(2n(w+1)^2))``."""
    w = lambert_w(float(n))
    mu = w * (1.0 - w * w / (2.0 * n * (w + 1.0) ** 2))
    s2 = w * (1.0 - w * (3.0 * w + 2.0) / (2.0 * n * (w + 1.0) ** 2))
    return mu, s2


def a033306_exact_moments(n: int) -> tuple[Fraction, Fraction]:
    """Mean is identically n/2; variance is
    ``n/4 + n(n-1) T_{n-1} / (4 T_n)`` with T the Poisson(2) moments."""
    if n < 1:
        raise ValueError("n must be >= 1")
    t = poisson_moments(2, n)
    mean = Fraction(n, 2)
    var = Fraction(n, 4) + Fraction(n * (n - 1) * t[n - 1], 4 * t[n])
    return mean, var


def a033306_asym_variance(n: int) -> float:
    """``(w~+1)/4 n - w~(w~^2+2w~+2)/(8(w~+1)^2)`` with w~ = W(n/2)."""
    w = lambert_w(n / 2.0)
    return (w + 1.0) / 4.0 * n - w * (w * w + 2.0 * w + 2.0) / (8.0 * (w + 1.0) ** 2)


# ------------------------------------------------------------------ rows


def _poly_product(factors: Sequence[tuple[int, int]]) -> list[int]:
    """Coefficients of ``prod (a + b z)`` over exact integers."""
    coeffs = [1]
    for a, b in factors:
        coeffs = [a * c + b * d for c, d in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def _a033306_row(n: int) -> list[int]:
    """``C(n,k) B_k B_{n-k}`` for k = 0..n."""
    b = bell_numbers(n)
    return [w * bk for w, bk in zip(_binomial_row(n, b), b)]


# Every row behind a distribution, keyed by the lower-case family name or
# OEIS id: (first n of the distribution, k of the row's first entry,
# row n).  The first n is the distribution's domain; each formula also
# holds from the sequence's first OEIS index on, where `oeis` streams it.
# The Matsunaga rows come from the sum form alone (``abs_matsunaga_row``
# differs from |M| in one sign only); the n^k-weighted rows start at 4,
# which excludes the (3,1) sign exception.  The Arima row C(n,k) B_{n-k}
# totals B_{n+1}; read backwards it is C(n,k) B_k, since C(n,k) = C(n,n-k).
# The product forms are expanded by exact polynomial multiplication, the
# EGF-derived ones use their binomial closed forms.  The singleton-marker
# row A086659 removes the k = n unit mass in closed form (which is what
# subtracting the pure-exponential term does); it reads beta itself, not
# the A124323 row that verify compares it with.
_ROWS: dict[str, tuple[int, int, Callable[[int], list[int]]]] = {
    "matsunaga": (2, 1, lambda n: [abs(v) for v in abs_matsunaga_row(n)]),
    "weighted-matsunaga": (4, 1, lambda n: [abs(v) * n**k for k, v in
                                           enumerate(abs_matsunaga_row(n), 1)]),
    "arima": (1, 0, lambda n: _binomial_row(n, bell_numbers(n))),
    "arima-reversed": (1, 0, lambda n: _binomial_row(n, bell_numbers(n))[::-1]),
    "a033306": (1, 0, _a033306_row),
    "a056856": (2, 1, lambda n: list(map(mul, next(islice(_stirling_rows(1), n - 1, None)),
                                         accumulate(repeat(n, n - 1), mul, initial=1)))),
    "a220883": (2, 0, lambda n: _poly_product([(j, n + 1) for j in range(1, n)])),
    "a260887": (2, 0, lambda n: _poly_product([(j, n) for j in range(2, n + 1)])),
    "a220884": (2, 0, lambda n: _poly_product([(j, n + 1 - j) for j in range(2, n + 1)])),
    "a078937": (2, 0, lambda n: _binomial_row(n, poisson_moments(2, n))),
    "a078938": (2, 0, lambda n: _binomial_row(n, poisson_moments(3, n))),
    "a078939": (2, 0, lambda n: _binomial_row(n, poisson_moments(4, n))),
    "a124323": (2, 0, lambda n: _binomial_row(n, beta_numbers(n))),
    "a086659": (4, 0, lambda n: [comb(n, k) * b for k, b in zip(range(n), beta_numbers(n)[::-1])]),
}


def row_pmf(which: str, n: int) -> DiscretePMF:
    """Row n of the ``_ROWS`` entry ``which`` as a distribution over
    k = k_min.. (k = 1.. for the Matsunaga rows and A056856)."""
    if which not in _ROWS:
        raise ValueError(f"unknown row {which!r}")
    first, k_min, row = _ROWS[which]
    if n < first:
        raise ValueError(f"n must be >= {first}")
    return pmf_from_weights(k_min, row(n), name=f"{which}[{n}]")


# ------------------------------------------------------------------ LLT


def llt_report(pmf: DiscretePMF, family: LLTFamily, n: int,
               centering: str = "exact") -> LLTReport:
    """Standardized sup deviation of the family member from the Gaussian.

    ``sup_k sigma |P(X = k) - phi((k - mu)/sigma)|`` over all integer
    support points, with (mu, sigma) taken either from the exact moments
    or from the family's asymptotic formulas (``centering``).
    """
    mean, var = moments_exact(pmf)
    if var <= 0:
        raise ValueError(f"{pmf.name}: degenerate distribution (variance {var})")
    mu_a = family.mu_asym(n)
    s2_a = family.sigma2_asym(n)
    if centering == "exact":
        mu, s2 = float(mean), float(var)
    elif centering == "asym":
        mu, s2 = mu_a, s2_a
        if s2 <= 0:
            raise ValueError(f"{pmf.name}: nonpositive asymptotic variance {s2}")
    else:
        raise ValueError(f"unknown centering {centering!r}")
    sigma = math.sqrt(s2)
    sup = 0.0
    inv_sqrt2pi = 1.0 / math.sqrt(2.0 * math.pi)
    for k, w in zip(pmf.support(), pmf.weights):
        x = (k - mu) / sigma
        gauss = inv_sqrt2pi * math.exp(-0.5 * x * x)
        p = w / pmf.total  # int division is correctly rounded, like Fraction's float
        dev = abs(sigma * p - gauss)
        if dev > sup:
            sup = dev
    return LLTReport(mean, var, mu_a, s2_a, sup)


def bnk_ratio_uniformity(n: int) -> float:
    """``max_k |M[n,k] / (beta_n s[n,k]) - 1|`` in exact rationals,
    converted to float at the end."""
    if n < 4:
        raise ValueError("n must be >= 4")
    mrow = matsunaga_rows(n).row(n)
    srow = stirling_signed_rows(n).row(n)
    bn = beta_numbers(n)[n]
    worst = Fraction(0)
    for mv, sv in zip(mrow, srow):
        dev = abs(Fraction(mv, bn * sv) - 1)
        if dev > worst:
            worst = dev
    return float(worst)


def decay_exponent(ns: Sequence[int], values: Sequence[float]) -> float:
    """Least-squares slope of log(value) against log(n): the empirical
    decay exponent of a ladder (recorded, never asserted)."""
    if len(ns) != len(values) or len(set(ns)) < 2:
        raise ValueError("need two or more distinct ladder points")
    xs = [math.log(n) for n in ns]
    ys = [math.log(v) for v in values]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


_LOG2 = math.log(2.0)


FAMILIES: dict[str, LLTFamily] = {
    "matsunaga": LLTFamily(
        build=lambda n: row_pmf("matsunaga", n),
        mu_asym=lambda n: matsunaga_asym_moments(n)[0],
        sigma2_asym=lambda n: matsunaga_asym_moments(n)[1],
        rate_tag="(log n)^-1/2",
    ),
    "weighted-matsunaga": LLTFamily(
        build=lambda n: row_pmf("weighted-matsunaga", n),
        mu_asym=lambda n: weighted_matsunaga_asym_moments(n)[0],
        sigma2_asym=lambda n: weighted_matsunaga_asym_moments(n)[1],
        rate_tag="n^-1/2",
    ),
    "arima": LLTFamily(
        build=lambda n: row_pmf("arima", n),
        mu_asym=lambda n: arima_asym_moments(n)[0],
        sigma2_asym=lambda n: arima_asym_moments(n)[1],
        rate_tag="(log n)^-1/2",
    ),
    "arima-reversed": LLTFamily(
        build=lambda n: row_pmf("arima-reversed", n),
        mu_asym=lambda n: n - arima_asym_moments(n)[0],
        sigma2_asym=lambda n: arima_asym_moments(n)[1],
        rate_tag="(log n)^-1/2",
    ),
    "a033306": LLTFamily(
        build=lambda n: row_pmf("a033306", n),
        mu_asym=lambda n: n / 2.0,
        sigma2_asym=a033306_asym_variance,
        rate_tag="log(n)/n",
    ),
    "a056856": LLTFamily(
        build=lambda n: row_pmf("a056856", n),
        mu_asym=lambda n: _LOG2 * n,
        sigma2_asym=lambda n: (_LOG2 - 0.5) * n,
        rate_tag="n^-1/2",
    ),
    "a220883": LLTFamily(
        build=lambda n: row_pmf("a220883", n),
        mu_asym=lambda n: _LOG2 * n,
        sigma2_asym=lambda n: (_LOG2 - 0.5) * n,
        rate_tag="n^-1/2",
    ),
    "a260887": LLTFamily(
        build=lambda n: row_pmf("a260887", n),
        mu_asym=lambda n: _LOG2 * n,
        sigma2_asym=lambda n: (_LOG2 - 0.5) * n,
        rate_tag="n^-1/2",
    ),
    "a220884": LLTFamily(
        build=lambda n: row_pmf("a220884", n),
        mu_asym=lambda n: n / 2.0,
        sigma2_asym=lambda n: n / 6.0,
        rate_tag="n^-1/2",
    ),
    "a124323": LLTFamily(
        build=lambda n: row_pmf("a124323", n),
        mu_asym=lambda n: math.log(n),
        sigma2_asym=lambda n: math.log(n),
        rate_tag="(log n)^-1/2",
    ),
}
