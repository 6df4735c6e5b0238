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
from typing import NamedTuple

from .exact import poisson_moments

__all__ = [
    "EULER_GAMMA",
    "ApproxValue",
    "SaddlePoint",
    "log_int",
    "lambert_w",
    "digamma",
    "trigamma",
    "beta_asym",
    "bell_asym",
    "tilde_bell_exact",
    "tilde_bell_asym",
    "stirling_regime",
    "stirling_asym",
    "phi",
    "tau_of_rho",
    "rho_of_tau",
    "beta_ratio_asym",
    "solve_mw2_saddle",
]

EULER_GAMMA = 0.5772156649015328606
_TOL = 1e-12  # relative residual at which lambert_w and the saddle solver stop
_MAX_ITER = 64  # their iteration limit


class ApproxValue(NamedTuple):
    """A floating approximation together with its claimed error order.

    ``log_value`` is the natural logarithm of the approximation, since
    the quantities outgrow double range.  ``saddle`` and ``regime``
    carry diagnostics for the saddle-point-backed formulas.
    """

    error_order: str
    log_value: float
    regime: str | None = None
    saddle: "SaddlePoint | None" = None


class SaddlePoint(NamedTuple):
    root: float
    residual: float  # relative: (f(root) - target) / target
    iterations: int


def log_int(x: int) -> float:
    """log of a positive integer of any size (exact to double precision)."""
    if x <= 0:
        raise ValueError("log_int needs a positive integer")
    return math.log(x)


def lambert_w(x: float) -> float:
    """Principal branch of W(x) for x > 0, via Halley iteration.

    Initial guess is the usual log x - log log x for large x and the
    Taylor start near 0; the returned value satisfies
    ``|W e^W - x| <= _TOL * x``.
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
    for _ in range(_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        w -= f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        if abs(w * math.exp(w) - x) <= _TOL * x:
            return w
    raise ArithmeticError(f"lambert_w did not converge for x={x!r}")


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


def _solve_increasing(f, df, target: float, x0: float, name: str) -> SaddlePoint:
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
    for it in range(1, _MAX_ITER + 1):
        fx = f(x)
        if abs(fx - target) <= _TOL * abs(target):
            return SaddlePoint(root=x, residual=(fx - target) / target, iterations=it)
        if fx < target:
            lo = x
        else:
            hi = x
        d = df(x)
        x_new = x - (fx - target) / d if d > 0 else math.nan
        x = x_new if lo < x_new < hi else 0.5 * (lo + hi)
    raise ArithmeticError(f"{name}: no convergence after {_MAX_ITER} iterations")


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


def stirling_asym(n: int, k: int) -> ApproxValue:
    """log |s(n,k)| by the regime-appropriate approximation.

    small_k:  n! (log n)^(k-1) / (n Gamma(1+(k-1)/log n) (k-1)!)
    central:  r^-k Gamma(n+r) / (sqrt(2 pi V) Gamma(r)) at the saddle
    large_k:  n^(2l) / (l! 2^l) with l = n - k (exact at l = 0)
    """
    regime = stirling_regime(n, k)
    if regime == "small_k":
        ln = math.log(n)
        logv = (math.lgamma(n + 1.0) + (k - 1) * math.log(ln) - math.log(n)
                - math.lgamma(1.0 + (k - 1) / ln) - math.lgamma(float(k)))
        return ApproxValue(log_value=logv, error_order="O(k (log n)^-2)", regime=regime)
    if regime == "large_k":
        ell = n - k
        logv = 2.0 * ell * math.log(n) - math.lgamma(ell + 1.0) - ell * math.log(2.0)
        return ApproxValue(log_value=logv, error_order="O((l+1)^2 n^-1)", regime=regime)
    sp = solve_mw2_saddle(n, k)
    r = sp.root
    V = k + r * r * (trigamma(n + r) - trigamma(r))
    if V <= 0.0:
        raise ArithmeticError(f"nonpositive variance factor V={V} at (n={n}, k={k})")
    logv = (-k * math.log(r) + math.lgamma(n + r) - math.lgamma(r)
            - 0.5 * math.log(2.0 * math.pi * V))
    return ApproxValue(log_value=logv, error_order="O(V^-1)", regime=regime, saddle=sp)


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
