"""Chi-squared survival and upper quantiles for even degrees of freedom.

The only consumer is Fisher's combination, -2 sum log P_i over n p-values,
whose reference law is chi-squared with df = 2n: the degrees of freedom
are always even.  For even df the survival function is the closed-form
Poisson tail

    Pr{chi2_df >= x} = Pr{Poisson(x/2) < df/2} = sum_{k < df/2} e^{-x/2} (x/2)^k / k!

(Press et al., Numerical Recipes, section 6.2), so no incomplete-gamma
series or continued fraction is needed, and odd df is refused.  Each term
is formed in log space and summed with math.fsum, so the sum does not
underflow where e^{-x/2} alone does (x/2 > 745, which the upper critical
values pass from about df = 1400 on).  Quantiles come from a bisection
that raises ArithmeticError if it has not converged after _MAX_ITER steps.
"""

from __future__ import annotations

import math

_MAX_ITER = 1000
_REL_TOL = 1e-10  # bisection stops once the bracket is this small relative to max(hi, 1)


def chi2_survival(x: float, df: int) -> float:
    """Pr{chi-squared with df degrees of freedom >= x}, for even df."""
    if df < 2 or df % 2:
        raise ValueError(f"degrees of freedom must be a positive even integer, got {df}")
    if math.isnan(x):
        raise ValueError("x must be a number, got nan")
    if x <= 0:
        return 1.0
    if x == math.inf:
        return 0.0  # the log-space terms below would be inf - inf = nan
    half = x / 2.0
    log_half = math.log(half)
    return min(1.0, math.fsum(math.exp(k * log_half - half - math.lgamma(k + 1)) for k in range(df // 2)))


def chi2_upper_quantile(alpha: float, df: int) -> float:
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
        if hi - lo <= _REL_TOL * max(hi, 1.0):
            break
    else:
        raise ArithmeticError(f"chi-squared quantile bisection did not converge in {_MAX_ITER} steps")
    return 0.5 * (lo + hi)
