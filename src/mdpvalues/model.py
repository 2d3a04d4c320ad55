"""Finite discrete probability models with exact rational pmfs.

A model is a finite support plus one probability mass function per named
parameter value.  All probabilities are ``Fraction``s and every validity
check is an exact rational identity (no tolerances).  The first registered
parameter is the null hypothesis by convention; its pmf must be strictly
positive on every support point, which keeps rankings and randomization
fractions well defined downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .rational import format_rational, parse_rational

DEFAULT_ENUMERATION_CAP = 1 << 20


class ModelError(ValueError):
    """Invalid model construction, parameter, or point lookup."""


class CapacityError(ModelError):
    """Support enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class SupportPoint:
    """One atom of the support."""

    index: int
    label: str


@dataclass(frozen=True)
class DiscreteModel:
    support: tuple[SupportPoint, ...]
    parameters: dict[str, Fraction]
    pmf: dict[str, tuple[Fraction, ...]]
    _by_label: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.support:
            raise ModelError("empty support")
        if not self.parameters:
            raise ModelError("a model needs at least one parameter")
        for i, point in enumerate(self.support):
            if point.index != i:
                raise ModelError(f"support ids must be contiguous from 0, got {point.index} at {i}")
        by_label = {}
        for point in self.support:
            if point.label in by_label:
                raise ModelError(f"duplicate support label {point.label!r}")
            by_label[point.label] = point.index
        object.__setattr__(self, "_by_label", by_label)
        if set(self.pmf) != set(self.parameters):
            raise ModelError("pmf rows and parameters must use the same names")
        n = len(self.support)
        for name, row in self.pmf.items():
            if len(row) != n:
                raise ModelError(f"pmf row for {name!r} has {len(row)} entries, support has {n}")
            if any(p < 0 for p in row):
                raise ModelError(f"negative probability under {name!r}")
            total = sum(row)
            if total != 1:
                raise ModelError(f"pmf for {name!r} sums to {total}, not 1")
        null_row = self.pmf[self.null]
        if any(p == 0 for p in null_row):
            raise ModelError("null pmf must be strictly positive on every support point")

    @property
    def null(self) -> str:
        """Name of the null-hypothesis parameter (first registered)."""
        return next(iter(self.parameters))

    @property
    def size(self) -> int:
        return len(self.support)

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(self.parameters)

    def point(self, ref: SupportPoint | str | int) -> SupportPoint:
        if isinstance(ref, SupportPoint):
            if ref.index >= len(self.support) or self.support[ref.index] is not ref:
                # accept equal-valued points from round trips
                if ref.index >= len(self.support) or self.support[ref.index].label != ref.label:
                    raise ModelError(f"point {ref.label!r} does not belong to this model")
            return self.support[ref.index]
        if isinstance(ref, int):
            if not 0 <= ref < len(self.support):
                raise ModelError(f"point index {ref} out of range")
            return self.support[ref]
        try:
            return self.support[self._by_label[ref]]
        except KeyError:
            raise ModelError(f"unknown support label {ref!r}") from None

    def probs(self, theta: str) -> tuple[Fraction, ...]:
        try:
            return self.pmf[theta]
        except KeyError:
            raise ModelError(f"unknown parameter {theta!r}") from None

    def prob(self, theta: str, ref: SupportPoint | str | int) -> Fraction:
        """Exact pmf value p_theta(x)."""
        return self.probs(theta)[self.point(ref).index]

    def event_prob(self, theta: str, predicate: Callable[[SupportPoint], bool]) -> Fraction:
        """Exact probability of the event {x : predicate(x)} under theta."""
        row = self.probs(theta)
        return sum((row[pt.index] for pt in self.support if predicate(pt)), Fraction(0))


def make_model(
    labels: Iterable[str],
    parameters: Mapping[str, object],
    pmf: Mapping[str, Sequence[object]],
) -> DiscreteModel:
    """Build and validate a model from plain labels and rational-like values."""
    support = tuple(SupportPoint(i, str(lbl)) for i, lbl in enumerate(labels))
    params = {str(name): parse_rational(v) for name, v in parameters.items()}
    table = {str(name): tuple(parse_rational(p) for p in row) for name, row in pmf.items()}
    return DiscreteModel(support, params, table)


def _check_theta(theta: Fraction) -> None:
    if not 0 < theta < 1:
        raise ModelError(f"invalid parameter {theta}: must lie strictly between 0 and 1")


def _param_names(thetas: Sequence[Fraction], names: Sequence[str] | None) -> list[str]:
    if names is None:
        return [f"theta{i}" for i in range(len(thetas))]
    if len(names) != len(thetas) or len(set(names)) != len(names):
        raise ModelError("parameter names must be unique and match the number of values")
    return list(names)


def bernoulli_product_model(
    n: int,
    thetas: Sequence[object],
    names: Sequence[str] | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> DiscreteModel:
    """Model of n iid Bernoulli(theta) coordinates; support is all 2^n 0/1 vectors.

    Labels are the bit strings, e.g. "01101"; pmf(theta, x) is exactly
    theta^(#ones) * (1-theta)^(n-#ones).
    """
    if n < 1:
        raise ModelError("n must be a positive integer")
    if 2**n > cap:
        raise CapacityError(f"2^{n} support points exceed the enumeration cap {cap}")
    values = [parse_rational(t) for t in thetas]
    for theta in values:
        _check_theta(theta)
    labels = ["".join(bits) for bits in product("01", repeat=n)]
    ones = [label.count("1") for label in labels]
    pmf = {}
    for name, theta in zip(_param_names(values, names), values):
        pmf[name] = [theta**k * (1 - theta) ** (n - k) for k in ones]
    return make_model(labels, dict(zip(pmf.keys(), values)), pmf)


def binomial_model(
    n: int,
    thetas: Sequence[object],
    names: Sequence[str] | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> DiscreteModel:
    """Binomial(n, theta) count model on labels "0".."n"."""
    if n < 1:
        raise ModelError("n must be a positive integer")
    if n + 1 > cap:
        raise CapacityError(f"{n + 1} support points exceed the enumeration cap {cap}")
    values = [parse_rational(t) for t in thetas]
    for theta in values:
        _check_theta(theta)
    labels = [str(k) for k in range(n + 1)]
    pmf = {}
    for name, theta in zip(_param_names(values, names), values):
        pmf[name] = [comb(n, k) * theta**k * (1 - theta) ** (n - k) for k in range(n + 1)]
    return make_model(labels, dict(zip(pmf.keys(), values)), pmf)


def model_to_dict(model: DiscreteModel) -> dict:
    """Wire form: rationals as "num/den" strings, never floats."""
    return {
        "parameters": {name: format_rational(v) for name, v in model.parameters.items()},
        "support": [pt.label for pt in model.support],
        "pmf": {name: [format_rational(p) for p in row] for name, row in model.pmf.items()},
    }


def model_from_dict(data: Mapping) -> DiscreteModel:
    try:
        return make_model(data["support"], data["parameters"], data["pmf"])
    except KeyError as exc:
        raise ModelError(f"model spec is missing field {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ModelError(str(exc)) from None


def save_model(model: DiscreteModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> DiscreteModel:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid model file {path}: {exc}") from None
    return model_from_dict(data)
