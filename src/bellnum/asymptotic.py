"""Floating-point side: special functions, saddle points, approximations.

All the factorial-scale approximations return their natural logarithm
(``ApproxValue.log_value``) because the quantities themselves overflow
doubles quickly; comparisons against exact integers go through
:func:`log_int`, which is exact to the last bits of the double.

Every saddle point is found numerically (Newton with a bisection
safeguard) and returned with its residual, so the defining equation is
checkable by the caller; no series inversion is used for solving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import poisson_moments

__all__ = [
    "EULER_GAMMA",
    "ApproxValue",
    "SaddlePoint",
    "log_int",
    "lambert_w",
    "lambert_w_shift",
    "log_gamma",
    "digamma",
    "trigamma",
    "harmonic",
    "HARMONIC_EXACT_CAP",
    "beta_asym",
    "bell_asym",
    "bell_times_factorial_log_asym",
    "tilde_bell_exact",
    "tilde_bell_asym",
    "stirling_regime",
    "stirling_asym",
    "stirling_overlap_check",
    "phi",
    "tau_of_rho",
    "rho_of_tau",
    "beta_ratio_asym",
    "beta_saddle_expansion",
    "solve_beta_saddle",
    "solve_bell_saddle",
    "solve_arima_saddle",
    "solve_mw2_saddle",
]

EULER_GAMMA = 0.5772156649015328606

HARMONIC_EXACT_CAP = 10_000


@dataclass(frozen=True)
class ApproxValue:
    """A floating approximation together with its claimed error order.

    Exactly one of ``value`` / ``log_value`` is set; ``log_value`` is
    used whenever the quantity outgrows double range.  ``saddle`` and
    ``regime`` carry diagnostics for the saddle-point-backed formulas.
    """

    error_order: str
    value: float | None = None
    log_value: float | None = None
    regime: str | None = None
    saddle: "SaddlePoint | None" = None


@dataclass(frozen=True)
class SaddlePoint:
    root: float
    residual: float  # relative: (f(root) - target) / target
    iterations: int


def log_int(x: int) -> float:
    """log of a positive integer of any size (exact to double precision)."""
    if x <= 0:
        raise ValueError("log_int needs a positive integer")
    return math.log(x)


def lambert_w(x: float, tol: float = 1e-12) -> float:
    """Principal branch of W(x) for x > 0, via Halley iteration.

    Initial guess is the usual log x - log log x for large x and the
    Taylor start near 0; the returned value satisfies
    ``|W e^W - x| <= tol * x``.
    """
    if x <= 0:
        raise ValueError("lambert_w requires x > 0")
    if x > math.e:
        l1 = math.log(x)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1
    elif x < 0.25:
        w = x * (1.0 - x + 1.5 * x * x)
    else:
        w = 0.5
    for _ in range(64):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        w -= f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        if abs(w * math.exp(w) - x) <= tol * x:
            return w
    raise ArithmeticError(f"lambert_w did not converge for x={x!r}")


def lambert_w_shift(n: float, t: float) -> float:
    """First-order expansion ``W(n-t) ~ W(n) - W(n) t / (n (W(n)+1))``.

    Uses W'(x) = W(x) / (x (W(x)+1)); the omitted terms are O(n^-2 t^2).
    """
    if n - t <= 0:
        raise ValueError("requires n - t > 0")
    w = lambert_w(n)
    return w - w * t / (n * (w + 1.0))


def log_gamma(x: float) -> float:
    if x <= 0:
        raise ValueError("log_gamma requires x > 0")
    return math.lgamma(x)


def digamma(x: float) -> float:
    """psi(x) for x > 0: upward recurrence to x >= 10, then the
    asymptotic (Bernoulli) series; absolute error well below 1e-12."""
    if x <= 0:
        raise ValueError("digamma requires x > 0")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = inv2 * (
        1.0 / 12.0
        - inv2 * (
            1.0 / 120.0
            - inv2 * (
                1.0 / 252.0
                - inv2 * (1.0 / 240.0 - inv2 * (1.0 / 132.0 - inv2 * 691.0 / 32760.0))
            )
        )
    )
    return acc + math.log(x) - 0.5 * inv - tail


def trigamma(x: float) -> float:
    """psi'(x) for x > 0, same shift-then-series scheme as digamma."""
    if x <= 0:
        raise ValueError("trigamma requires x > 0")
    acc = 0.0
    while x < 10.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = 1.0 + 0.5 * inv + inv2 * (
        1.0 / 6.0
        - inv2 * (
            1.0 / 30.0
            - inv2 * (1.0 / 42.0 - inv2 * (1.0 / 30.0 - inv2 * 5.0 / 66.0))
        )
    )
    return acc + inv * series


def harmonic(n: int, m: int = 1) -> Fraction | float:
    """Generalized harmonic number ``H_n^[m] = sum_{j<=n} j^-m``.

    Exact rational up to n = 10^4 (divide-and-conquer summation, one
    final reduction); floating beyond, via digamma/trigamma for
    m = 1, 2 and a plain float sum otherwise.
    """
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    if n == 0:
        return Fraction(0)
    if n <= HARMONIC_EXACT_CAP:

        def rec(a: int, b: int) -> tuple[int, int]:
            if a == b:
                return 1, a**m
            mid = (a + b) // 2
            n1, d1 = rec(a, mid)
            n2, d2 = rec(mid + 1, b)
            return n1 * d2 + n2 * d1, d1 * d2

        num, den = rec(1, n)
        return Fraction(num, den)
    if m == 1:
        return digamma(n + 1.0) + EULER_GAMMA
    if m == 2:
        return math.pi**2 / 6.0 - trigamma(n + 1.0)
    return float(sum(j ** (-m) for j in range(1, n + 1)))


def beta_asym(n: int) -> ApproxValue:
    """Saddle-point approximation to the singleton-free count beta_n,
    with its first-order correction factor; log scale."""
    if n < 2:
        raise ValueError("n must be >= 2")
    w = lambert_w(float(n))
    log_main = (w + 1.0 / w - 1.0) * n - w - 1.0 - 0.5 * math.log(w + 1.0)
    corr = 1.0 - (26.0 * w**4 + 67.0 * w**3 + 46.0 * w**2) / (24.0 * n * (w + 1.0) ** 3)
    return ApproxValue(log_value=log_main + math.log(corr), error_order="O(n^-2 (log n)^2)")


def bell_asym(n: int) -> ApproxValue:
    """Saddle-point approximation to B_n with correction factor; log scale."""
    if n < 2:
        raise ValueError("n must be >= 2")
    w = lambert_w(float(n))
    log_main = (w + 1.0 / w - 1.0) * n - 1.0 - 0.5 * math.log(w + 1.0)
    corr = 1.0 - w**2 * (2.0 * w**2 + 7.0 * w + 10.0) / (24.0 * n * (w + 1.0) ** 3)
    return ApproxValue(log_value=log_main + math.log(corr), error_order="O(n^-2 (log n)^2)")


def bell_times_factorial_log_asym(n: int) -> float:
    """Leading growth of ``log(B_n n!)``: ``2n log n - n log log n - n``.

    This is the scale the Stirling-pipeline's intermediate sums reach
    before the division by n! collapses them.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    return 2.0 * n * math.log(n) - n * math.log(math.log(n)) - n


def tilde_bell_exact(N: int) -> list[int]:
    """Moments 0..N of a Poisson(2) variable (the doubled-EGF Bell
    analogue entering the balanced convolution's variance formula)."""
    return poisson_moments(2, N)


def tilde_bell_asym(n: int) -> ApproxValue:
    """Saddle-point approximation of the Poisson(2) moment sequence
    at index n; log scale, with correction factor."""
    if n < 2:
        raise ValueError("n must be >= 2")
    w = lambert_w(n / 2.0)
    log_main = (w - 1.0 + math.log(2.0) + 1.0 / w) * n - 2.0 - 0.5 * math.log(w + 1.0)
    corr = 1.0 - w**2 * (2.0 * w**2 + 7.0 * w + 10.0) / (24.0 * (w + 1.0) ** 3 * n)
    return ApproxValue(log_value=log_main + math.log(corr), error_order="O(n^-2 (log n)^2)")


def _solve_increasing(f, df, target: float, x0: float, name: str,
                      tol: float = 1e-12, max_iter: int = 64) -> SaddlePoint:
    """Newton with a bisection safeguard for an increasing function f.

    Fails loudly (ArithmeticError) instead of returning a bad root.
    """
    # establish a bracket around the root
    lo, hi = x0, x0
    flo, fhi = f(lo), f(hi)
    grow = 0
    while flo > target:
        lo /= 2.0
        flo = f(lo)
        grow += 1
        if grow > 200:
            raise ArithmeticError(f"{name}: cannot bracket root from below")
    grow = 0
    while fhi < target:
        hi *= 2.0
        fhi = f(hi)
        grow += 1
        if grow > 200:
            raise ArithmeticError(f"{name}: cannot bracket root from above")
    x = min(max(x0, lo), hi)
    for it in range(1, max_iter + 1):
        fx = f(x)
        if abs(fx - target) <= tol * abs(target):
            return SaddlePoint(root=x, residual=(fx - target) / target, iterations=it)
        if fx < target:
            lo = x
        else:
            hi = x
        d = df(x)
        x_new = x - (fx - target) / d if d > 0 else math.nan
        x = x_new if lo < x_new < hi else 0.5 * (lo + hi)
    raise ArithmeticError(f"{name}: no convergence after {max_iter} iterations")


def solve_beta_saddle(n: int) -> SaddlePoint:
    """Root of ``r (e^r - 1) = n`` (saddle of the singleton-free EGF)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _solve_increasing(
        lambda r: r * math.expm1(r),
        lambda r: math.expm1(r) + r * math.exp(r),
        float(n),
        lambert_w(float(n)),
        "beta saddle",
    )


def beta_saddle_expansion(n: int) -> float:
    """Two-term expansion of the beta-saddle root around W(n):
    ``w + w^2/(n(w+1)) - w^3(w^2-2)/(2n^2(w+1)^3)``.

    Not used for solving (Newton is); kept as a convergence sanity
    diagnostic against :func:`solve_beta_saddle`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    w = lambert_w(float(n))
    return w + w * w / (n * (w + 1.0)) - w**3 * (w * w - 2.0) / (2.0 * n * n * (w + 1.0) ** 3)


def solve_bell_saddle(n: int) -> SaddlePoint:
    """Root of ``r e^r = n``; coincides with W(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _solve_increasing(
        lambda r: r * math.exp(r),
        lambda r: math.exp(r) * (r + 1.0),
        float(n),
        lambert_w(float(n)),
        "bell saddle",
    )


def solve_arima_saddle(n: int, v: float) -> SaddlePoint:
    """Root of ``r e^r + v r = n`` for real v in [0, 1.5].

    v = 0 degenerates to the Bell saddle r = W(n); v near 1 is the
    deformation used for the binomial-weighted family.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= v <= 1.5:
        raise ValueError("v must lie in [0, 1.5]")
    return _solve_increasing(
        lambda r: r * math.exp(r) + v * r,
        lambda r: math.exp(r) * (r + 1.0) + v,
        float(n),
        lambert_w(float(n)),
        "arima saddle",
    )


def solve_mw2_saddle(n: int, k: int) -> SaddlePoint:
    """Root of ``r (psi(n+r) - psi(r)) = k``, the saddle behind the
    central-regime approximation of unsigned Stirling numbers."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if k == n:
        raise ValueError("k = n is degenerate for this saddle")
    tau = k / n
    x0 = n * rho_of_tau(tau) if 0.0 < tau < 1.0 else float(k)
    return _solve_increasing(
        lambda r: r * (digamma(n + r) - digamma(r)),
        lambda r: (digamma(n + r) - digamma(r)) + r * (trigamma(n + r) - trigamma(r)),
        float(k),
        x0,
        "stirling central saddle",
    )


def stirling_regime(n: int, k: int) -> str:
    """Dispatch for the three unsigned-Stirling approximations.

    The cutoffs (k <= 2 log n; n - k <= n^0.4) are implementation
    choices inside the stated asymptotic ranges O(log n) and o(sqrt n).
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if k <= 2.0 * math.log(n):
        return "small_k"
    if n - k <= n**0.4:
        return "large_k"
    return "central"


def _log_stirling_small(n: int, k: int) -> float:
    ln = math.log(n)
    return (math.lgamma(n + 1.0) + (k - 1) * math.log(ln) - math.log(n)
            - math.lgamma(1.0 + (k - 1) / ln) - math.lgamma(float(k)))


def _log_stirling_large(n: int, k: int) -> float:
    ell = n - k
    return 2.0 * ell * math.log(n) - math.lgamma(ell + 1.0) - ell * math.log(2.0)


def _log_stirling_central(n: int, k: int) -> tuple[float, SaddlePoint]:
    sp = solve_mw2_saddle(n, k)
    r = sp.root
    V = k + r * r * (trigamma(n + r) - trigamma(r))
    if V <= 0.0:
        raise ArithmeticError(f"nonpositive variance factor V={V} at (n={n}, k={k})")
    logv = (-k * math.log(r) + math.lgamma(n + r) - math.lgamma(r)
            - 0.5 * math.log(2.0 * math.pi * V))
    return logv, sp


def stirling_asym(n: int, k: int) -> ApproxValue:
    """log |s(n,k)| by the regime-appropriate approximation.

    small_k:  n! (log n)^(k-1) / (n Gamma(1+(k-1)/log n) (k-1)!)
    central:  r^-k Gamma(n+r) / (sqrt(2 pi V) Gamma(r)) at the saddle
    large_k:  n^(2l) / (l! 2^l) with l = n - k (exact at l = 0)
    """
    regime = stirling_regime(n, k)
    if regime == "small_k":
        return ApproxValue(log_value=_log_stirling_small(n, k),
                           error_order="O(k (log n)^-2)", regime=regime)
    if regime == "large_k":
        return ApproxValue(log_value=_log_stirling_large(n, k),
                           error_order="O((l+1)^2 n^-1)", regime=regime)
    logv, sp = _log_stirling_central(n, k)
    return ApproxValue(log_value=logv, error_order="O(V^-1)", regime=regime, saddle=sp)


def stirling_overlap_check(n: int) -> list[tuple[int, str, float]]:
    """Relative gap between adjacent Stirling approximations at the
    dispatch boundaries: (k, boundary name, |ratio - 1|).

    A soft diagnostic: the small/central boundary agrees well, while
    the central/large one can gap by tens of percent at moderate n,
    which is why it is reported rather than asserted.
    """
    if n < 8:
        raise ValueError("overlap check needs n >= 8")
    out = []
    k_sc = int(2.0 * math.log(n))
    for k in (k_sc, k_sc + 1):
        gap = math.exp(_log_stirling_small(n, k) - _log_stirling_central(n, k)[0]) - 1.0
        out.append((k, "small/central", abs(gap)))
    k_cl = n - int(n**0.4)
    for k in (k_cl, k_cl + 1):
        gap = math.exp(_log_stirling_large(n, k) - _log_stirling_central(n, k)[0]) - 1.0
        out.append((k, "central/large", abs(gap)))
    return out


def phi(rho: float) -> float:
    """``rho (1 - log rho) log(1 + 1/rho) + log(1 + rho) - 1``; maximal
    at rho = 1 with value 2 log 2 - 1."""
    if rho <= 0:
        raise ValueError("rho must be > 0")
    return rho * (1.0 - math.log(rho)) * math.log1p(1.0 / rho) + math.log1p(rho) - 1.0


def tau_of_rho(rho: float) -> float:
    if rho <= 0:
        raise ValueError("rho must be > 0")
    return rho * math.log1p(1.0 / rho)


def rho_of_tau(tau: float) -> float:
    """Inverse of tau_of_rho on (0, 1), by bisection (tau_of_rho is
    increasing with limits 0 and 1)."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    lo, hi = 1e-300, 1.0
    while tau_of_rho(hi) < tau:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tau_of_rho(mid) < tau:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return 0.5 * (lo + hi)


def beta_ratio_asym(n: int, l: int) -> float:
    """Leading approximation ``(W(n)/n)^l`` to the backward ratio
    beta_{n-l} / beta_n (error order O(n^-1 l^2 log n))."""
    if not 0 <= l < n:
        raise ValueError("need n > l >= 0")
    if l == 0:
        return 1.0
    return (lambert_w(float(n)) / n) ** l
