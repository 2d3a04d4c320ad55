"""Even-df chi-squared survival and quantiles against independent oracles."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import mdpvalues.special as special
from mdpvalues.special import chi2_survival, chi2_upper_quantile

# float.hex(chi2_upper_quantile(alpha, df)) by alpha, then df, computed with
# the incomplete-gamma series and continued fraction that special.py used
# before the closed form: the closed form must reproduce them bit for bit.
PINNED_CRITICALS = json.loads((Path(__file__).parent / "chi2_criticals.json").read_text())


def chi2_sf_even_df(x: float, df: int) -> float:
    """Closed form for even df: exp(-x/2) * sum_{i<df/2} (x/2)^i / i!."""
    assert df % 2 == 0
    m = x / 2.0
    term = math.exp(-m)
    total = term
    for i in range(1, df // 2):
        term *= m / i
        total += term
    return min(total, 1.0)


def chi2_sf_by_quadrature(x: float, df: int, steps: int = 200_000) -> float:
    """Survival function by Simpson integration of the density over [0, x]."""

    def pdf(t: float) -> float:
        if t <= 0:
            return 0.0
        return math.exp((df / 2 - 1) * math.log(t) - t / 2 - math.lgamma(df / 2) - (df / 2) * math.log(2))

    h = x / steps
    total = pdf(0.0) + pdf(x)
    for i in range(1, steps):
        total += pdf(i * h) * (4 if i % 2 else 2)
    return 1.0 - total * h / 3.0


class TestChiSquared:
    def test_survival_matches_even_df_closed_form(self):
        for df in (2, 4, 10, 40):
            for x in (0.5, 3.0, df * 0.8, df * 1.0, df * 1.7):
                assert chi2_survival(x, df) == pytest.approx(chi2_sf_even_df(x, df), rel=1e-10)

    def test_two_df_quantile_is_analytic(self):
        for alpha in (0.2, 0.1, 0.05, 0.01):
            assert chi2_upper_quantile(alpha, 2) == pytest.approx(-2 * math.log(alpha), rel=1e-9)

    def test_four_df_quantile_cross_checked_by_quadrature(self):
        crit = chi2_upper_quantile(0.05, 4)
        assert crit == pytest.approx(9.4877, abs=5e-4)
        assert chi2_sf_by_quadrature(crit, 4) == pytest.approx(0.05, abs=1e-7)

    def test_quantile_inverts_survival(self):
        for df in (2, 6, 40):
            for alpha in (0.3, 0.1, 0.01):
                x = chi2_upper_quantile(alpha, df)
                assert chi2_survival(x, df) == pytest.approx(alpha, rel=1e-9)

    def test_pinned_critical_values_are_bit_identical(self):
        for alpha, row in PINNED_CRITICALS.items():
            for df, pinned in row.items():
                assert float.hex(chi2_upper_quantile(float(Fraction(alpha)), int(df))) == pinned, (alpha, df)

    @pytest.mark.parametrize("df", [400, 2000, 20000])
    def test_large_df_survival_cross_checked_by_quadrature(self, df):
        # from df = 2000 the critical value's e^{-x/2} underflows, so a sum
        # started there, as in chi2_sf_even_df, finds the wrong quantile
        crit = chi2_upper_quantile(0.05, df)
        by_quadrature = chi2_sf_by_quadrature(crit, df)
        assert by_quadrature == pytest.approx(0.05, abs=1e-9)
        assert chi2_survival(crit, df) == pytest.approx(by_quadrature, abs=1e-9)

    def test_odd_df_refused(self):
        for df in (1, 3, 41):
            with pytest.raises(ValueError, match="even"):
                chi2_survival(2.0, df)
        with pytest.raises(ValueError):
            chi2_upper_quantile(0.05, 5)

    def test_survival_at_infinity_and_nan(self):
        assert chi2_survival(math.inf, 4) == 0.0
        assert chi2_survival(1e300, 4) == 0.0
        with pytest.raises(ValueError, match="nan"):
            chi2_survival(math.nan, 4)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            chi2_upper_quantile(0.0, 4)
        with pytest.raises(ValueError):
            chi2_upper_quantile(1.0, 4)


class TestNonConvergenceRaises:
    """With one iteration allowed, the bisection cannot converge; it must say so."""

    @pytest.fixture(autouse=True)
    def one_iteration(self, monkeypatch):
        monkeypatch.setattr(special, "_MAX_ITER", 1)

    def test_quantile_bisection(self):
        with pytest.raises(ArithmeticError, match="bisection"):
            chi2_upper_quantile(0.05, 4)


@given(
    df=st.sampled_from([2, 4, 8, 20, 40, 60]),
    x=st.floats(min_value=0.01, max_value=150.0, allow_nan=False),
)
def test_survival_always_agrees_with_closed_form(df, x):
    assert chi2_survival(x, df) == pytest.approx(chi2_sf_even_df(x, df), abs=1e-10)
