"""Regularized incomplete gamma functions and chi-squared quantiles.

Self-contained numerics (power series plus a modified-Lentz continued
fraction), so no statistical tables or external libraries are needed.
P(a, x) is the lower regularized incomplete gamma function; Q = 1 - P.
The split at x = a + 1 keeps both expansions in their fast-converging
regions.  A loop that has not converged after _MAX_ITER steps raises
ArithmeticError instead of returning an unconverged value.
"""

from __future__ import annotations

import math

_MAX_ITER = 1000
_EPS = 1e-16
_TINY = 1e-300


def _gamma_p_series(a: float, x: float) -> float:
    """Series for P(a, x), reliable for x < a + 1."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:
        raise ArithmeticError(f"gamma series for P({a}, {x}) did not converge in {_MAX_ITER} terms")
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_cont_fraction(a: float, x: float) -> float:
    """Continued fraction for Q(a, x) (modified Lentz), for x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise ArithmeticError(f"continued fraction for Q({a}, {x}) did not converge in {_MAX_ITER} terms")
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def regularized_gamma_p(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x) = gamma(a, x) / Gamma(a)."""
    if a <= 0:
        raise ValueError(f"shape a must be positive, got {a}")
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == 0:
        return 0.0
    if x < a + 1.0:
        return min(1.0, _gamma_p_series(a, x))
    return max(0.0, 1.0 - _gamma_q_cont_fraction(a, x))


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if a <= 0:
        raise ValueError(f"shape a must be positive, got {a}")
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return max(0.0, 1.0 - _gamma_p_series(a, x))
    return min(1.0, _gamma_q_cont_fraction(a, x))


def chi2_survival(x: float, df: int) -> float:
    """Pr{chi-squared with df degrees of freedom >= x}."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if x <= 0:
        return 1.0
    return regularized_gamma_q(df / 2.0, x / 2.0)


def chi2_upper_quantile(alpha: float, df: int, rel_tol: float = 1e-10) -> float:
    """x with Pr{chi2_df >= x} = alpha, by bisection on the survival function."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    lo, hi = 0.0, max(float(df), 1.0)
    while chi2_survival(hi, df) > alpha:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("quantile bracket expansion failed")
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if chi2_survival(mid, df) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * max(hi, 1.0):
            break
    else:
        raise ArithmeticError(f"chi-squared quantile bisection did not converge in {_MAX_ITER} steps")
    return 0.5 * (lo + hi)
