"""Exact p-value constructions for finite discrete models.

Natural, mid, randomized, minimally discrete (MD) and minimally randomized
(MR) p-values with exact rational arithmetic; verification of their
stochastic- and convex-order relations; and downstream multiple-testing
and meta-analysis tooling with a seeded simulation harness.

Importing the package loads the exact layers only: ``rational``, ``model``,
``ranking`` and ``testing``.  The claim engine (``orders``) and the
simulation harness (``downstream``, which loads ``special``) load on first
use of one of their names below, e.g. ``mdpvalues.simulate`` or
``from mdpvalues import verify_all_claims``; each name is then bound here.
"""

from .model import (
    CapacityError,
    DEFAULT_ENUMERATION_CAP,
    DiscreteModel,
    ModelError,
    SupportPoint,
    UsageError,
    bernoulli_product_model,
    binomial_model,
    load_model,
    make_model,
    save_model,
)
from .ranking import (
    Ranking,
    RankingError,
    Statistic,
    build_agreeing_ranking,
    likelihood_ratio_statistic,
    make_statistic,
    ranking_from_order,
    verify_agreement,
)
from .testing import (
    MD,
    PValueFamily,
    T_BASED,
    TestFunction,
    TestingError,
    pvalue_family,
    size_alpha_test,
)
from .rational import decimal_string, format_rational, parse_rational

__version__ = "0.1.0"

# Public names of the engine modules, each read from its module on first use.
_LAZY = {
    **dict.fromkeys(("OrderReport", "OrdersError", "verify_all_claims"), "orders"),
    **dict.fromkeys((
        "ConfigError",
        "FisherResult",
        "GeometricMeanResult",
        "SimulationConfig",
        "SimulationReport",
        "bh_threshold",
        "bonferroni",
        "config_from_dict",
        "fisher_test",
        "geometric_mean_combination",
        "simulate",
    ), "downstream"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
