"""Builtin model registry and canonical constructions for the CLI.

"example1" is the five-coin model (null 1/2, alternative 4/5) whose
reference table pins the first eight ranks; "binomial:n,t0,t1" builds a
binomial count model.  Anything else is treated as a model-spec JSON path.
"""

from __future__ import annotations

import re
from pathlib import Path

from .model import DiscreteModel, ModelError, bernoulli_product_model, binomial_model, load_model
from .ranking import Ranking, Statistic, likelihood_ratio_statistic, ranking_from_order
from .rational import INTEGER

EXAMPLE1 = "example1"

# Rank order of the first eight support points in the reference table for
# example1; the remaining labels are appended class by class in label order.
TABLE1_HEAD = ("11111", "01111", "10111", "11011", "11101", "11110", "00111", "10011")


def example1_model() -> DiscreteModel:
    return bernoulli_product_model(5, ["1/2", "4/5"])


def resolve_model(spec: str) -> tuple[DiscreteModel, str]:
    """Resolve a builtin name, "binomial:n,t0,t1[,...]" spec, or JSON path."""
    if spec == EXAMPLE1:
        return example1_model(), EXAMPLE1
    if spec.startswith("binomial:"):
        parts = [p.strip() for p in spec.split(":", 1)[1].split(",")]
        if len(parts) < 3:
            raise ModelError(f"binomial spec needs n and two thetas, got {spec!r}")
        if not re.fullmatch(INTEGER, parts[0]):
            raise ModelError(f"binomial spec needs an integer n, got {parts[0]!r}")
        return binomial_model(int(parts[0]), parts[1:]), spec
    path = Path(spec)
    if not path.is_file():
        raise ModelError(f"model {spec!r} is neither builtin nor an existing file")
    return load_model(path), spec


def default_statistic(model: DiscreteModel, alt: str | None = None) -> Statistic:
    """Likelihood ratio of an alternative (default: the second parameter) against the model's null."""
    names = model.parameter_names
    if alt is None:
        if len(names) < 2:
            raise ModelError("model registers a single parameter; pass an alternative")
        alt = names[1]
    return likelihood_ratio_statistic(model, model.null, alt)


def table1_priority(model: DiscreteModel) -> list[str]:
    head = list(TABLE1_HEAD)
    seen = set(head)
    rest = sorted(
        (pt.label for pt in model.support if pt.label not in seen),
        key=lambda label: (-label.count("1"), label),
    )
    return head + rest


def table1_ranking(model: DiscreteModel) -> Ranking:
    """The reference ranking for example1: the table's head, then class by class in label order."""
    return ranking_from_order(model, table1_priority(model))
