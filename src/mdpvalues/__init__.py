"""Exact p-value constructions for finite discrete models.

Natural, mid, randomized, minimally discrete (MD) and minimally randomized
(MR) p-values with exact rational arithmetic; verification of their
stochastic- and convex-order relations; and downstream multiple-testing
and meta-analysis tooling with a seeded simulation harness.
"""

from .model import (
    CapacityError,
    DEFAULT_ENUMERATION_CAP,
    DiscreteModel,
    ModelError,
    SupportPoint,
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
from .orders import (
    OrderReport,
    OrdersError,
    verify_all_claims,
)
from .downstream import (
    ConfigError,
    FisherResult,
    GeometricMeanResult,
    SimulationConfig,
    SimulationReport,
    bh_threshold,
    bonferroni,
    config_from_dict,
    fisher_test,
    geometric_mean_combination,
    simulate,
)
from .rational import decimal_string, format_rational, parse_rational

__version__ = "0.1.0"
