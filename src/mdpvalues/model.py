"""Finite discrete probability models with exact rational pmfs.

A model is a finite support plus one probability mass function per named
parameter value, stored once on its integer lattice: a denominator
D_theta > 0 and one integer numerator per support point, so
p_theta(x) == numerators[x] / D_theta.  Every validity check is an exact
integer identity (no tolerances), and the claim engine sums numerators
with no gcd per addition.  ``Fraction``s appear only at the edges.  The
first registered parameter is the null hypothesis by convention; its pmf
must be strictly positive on every support point, which keeps rankings
and randomization fractions well defined downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, product
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .rational import common_denominator, format_ratios, format_rational, parse_rational, ratio_row

DEFAULT_ENUMERATION_CAP = 1 << 20


class UsageError(ValueError):
    """Invalid input or use: the base of every layer's error, and exit status 2 from ``mdpv``."""


class ModelError(UsageError):
    """Invalid model construction, parameter, or point lookup."""


class CapacityError(ModelError):
    """Support enumeration would exceed the configured cap."""


def refuse_string(value: object, expected: str, error: type[UsageError] = ModelError) -> None:
    """Refuse a str where ``expected`` ("labels must be a list ...") asks for a list: it reads as its characters."""
    if isinstance(value, str):
        raise error(f"{expected}, not the string {value!r}")


@dataclass(frozen=True)
class SupportPoint:
    """One atom of the support."""

    index: int
    label: str


@dataclass(frozen=True)
class DiscreteModel:
    support: tuple[SupportPoint, ...]
    parameters: dict[str, Fraction]
    rows: dict[str, tuple[int, tuple[int, ...]]]
    _by_label: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.support:
            raise ModelError("empty support")
        if not self.parameters:
            raise ModelError("a model needs at least one parameter")
        for i, point in enumerate(self.support):
            if type(point.index) is not int or point.index != i:  # the exact type: a bool is no id
                raise ModelError(f"support ids must be contiguous from 0, got {point.index} at {i}")
        by_label = {}
        for point in self.support:
            if point.label in by_label:
                raise ModelError(f"duplicate support label {point.label!r}")
            by_label[point.label] = point.index
        object.__setattr__(self, "_by_label", by_label)
        for name, value in self.parameters.items():
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise ModelError(f"parameter {name!r} must be an int or a Fraction, got {value!r}")
        if set(self.rows) != set(self.parameters):
            raise ModelError("pmf rows and parameters must use the same names")
        n = len(self.support)
        for name, (den, numerators) in self.rows.items():
            if len(numerators) != n:
                raise ModelError(f"pmf row for {name!r} has {len(numerators)} entries, support has {n}")
            if not (type(den) is int and den > 0 and set(map(type, numerators)) == {int}):
                raise ModelError(f"pmf row for {name!r} needs int numerators over a positive int, got {den!r}")
            if min(numerators) < 0:
                raise ModelError(f"negative probability under {name!r}")
            if (total := sum(numerators)) != den:
                raise ModelError(f"pmf for {name!r} sums to {Fraction(total, den)}, not 1")
        if 0 in self.rows[self.null][1]:
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
            # an index in [0, N) whose point has the same label, so equal-valued points from round trips pass
            if isinstance(ref.index, int) and self.point(ref.index).label == ref.label:
                return self.support[ref.index]
            raise ModelError(f"point {ref.label!r} does not belong to this model")
        if isinstance(ref, bool):
            raise ModelError(f"point ref {ref!r} is a bool, not an index")
        if isinstance(ref, int):
            if not 0 <= ref < len(self.support):
                raise ModelError(f"point index {ref} out of range")
            return self.support[ref]
        try:
            return self.support[self._by_label[ref]]
        except KeyError:
            raise ModelError(f"unknown support label {ref!r}") from None

    def int_row(self, theta: str) -> tuple[int, tuple[int, ...]]:
        """The stored row: (D_theta, numerators) with p_theta(x) == numerators[x] / D_theta."""
        try:
            return self.rows[theta]
        except KeyError:
            raise ModelError(f"unknown parameter {theta!r}") from None

    def probs(self, theta: str) -> tuple[Fraction, ...]:
        """The row as ``Fraction``s, derived anew from ``int_row`` on each call."""
        den, numerators = self.int_row(theta)
        return tuple(Fraction(p, den) for p in numerators)

    def event_prob(self, theta: str, predicate: Callable[[SupportPoint], bool]) -> Fraction:
        """Exact probability of the event {x : predicate(x)} under theta."""
        den, numerators = self.int_row(theta)
        return Fraction(sum(numerators[pt.index] for pt in self.support if predicate(pt)), den)


def make_model(
    labels: Iterable[str],
    parameters: Mapping[str, object],
    pmf: Mapping[str, Sequence[object]],
) -> DiscreteModel:
    """Build and validate a model from plain labels and rational-like values, each row over its least common denominator."""
    refuse_string(labels, "labels must be a list of support labels")
    for name, row in pmf.items():
        refuse_string(row, f"pmf row for {name!r} must be a list of probabilities")
    support = tuple(SupportPoint(i, str(lbl)) for i, lbl in enumerate(labels))
    try:
        params = {str(name): parse_rational(v) for name, v in parameters.items()}
        rows = {str(name): common_denominator(ratio_row(row)) for name, row in pmf.items()}
    except ValueError as exc:
        raise ModelError(str(exc)) from None
    return DiscreteModel(support, params, rows)


def _power_model(labels: list[str], thetas: Sequence[object], weights: list[int], ones: Sequence[int]) -> DiscreteModel:
    """Rows weights[k] * p^k * (q-p)^(n-k) over q^n at a point with k = ones[x], one per theta = p/q.

    weights[0] == 1 and (q-p)^n is prime to q, so q^n is the lcm of the
    reduced denominators, the D_theta ``make_model`` derives from them.
    """
    refuse_string(thetas, "thetas must be a list of parameter values")
    try:
        values = [parse_rational(t) for t in thetas]
    except ValueError as exc:
        raise ModelError(f"invalid parameter: {exc}") from None
    n, rows = len(weights) - 1, {}
    for i, theta in enumerate(values):
        if not 0 < theta < 1:
            raise ModelError(f"invalid parameter {theta}: must lie strictly between 0 and 1")
        p, q = theta.numerator, theta.denominator
        terms = [w * p**k * (q - p) ** (n - k) for k, w in enumerate(weights)]
        rows[f"theta{i}"] = (q**n, tuple(map(terms.__getitem__, ones)))
    support = tuple(SupportPoint(i, label) for i, label in enumerate(labels))
    return DiscreteModel(support, dict(zip(rows, values)), rows)


def bernoulli_product_model(
    n: int,
    thetas: Sequence[object],
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
    labels = ["".join(bits) for bits in product("01", repeat=n)]
    return _power_model(labels, thetas, [1] * (n + 1), [label.count("1") for label in labels])


def binomial_model(
    n: int,
    thetas: Sequence[object],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> DiscreteModel:
    """Binomial(n, theta) count model on labels "0".."n"."""
    if n < 1:
        raise ModelError("n must be a positive integer")
    if n + 1 > cap:
        raise CapacityError(f"{n + 1} support points exceed the enumeration cap {cap}")
    binomials = list(accumulate(range(n), lambda c, k: c * (n - k) // (k + 1), initial=1))  # comb(n, k)
    return _power_model([str(k) for k in range(n + 1)], thetas, binomials, range(n + 1))


def model_to_dict(model: DiscreteModel) -> dict:
    """Wire form: rationals as "num/den" strings, never floats."""
    return {
        "parameters": {name: format_rational(v) for name, v in model.parameters.items()},
        "support": [pt.label for pt in model.support],
        "pmf": {name: format_ratios(numerators, den) for name, (den, numerators) in model.rows.items()},
    }


def model_from_dict(data: object) -> DiscreteModel:
    """Build a model from its wire form (see ``model_to_dict``); a malformed spec raises ModelError."""
    if not isinstance(data, Mapping):
        raise ModelError("model spec must be a JSON object")
    try:
        support, parameters, pmf = data["support"], data["parameters"], data["pmf"]
    except KeyError as exc:
        raise ModelError(f"model spec is missing field {exc.args[0]!r}") from None
    if not (isinstance(parameters, Mapping) and isinstance(pmf, Mapping)
            and all(isinstance(seq, (list, tuple)) for seq in (support, *pmf.values()))):
        raise ModelError("model spec needs 'parameters' and 'pmf' as objects, 'support' and each pmf row as arrays")
    if not all(isinstance(label, str) for label in support):
        raise ModelError("model spec needs every support label as a string")
    return make_model(support, parameters, pmf)


def save_model(model: DiscreteModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> DiscreteModel:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelError(f"invalid model file {path}: {exc}") from None
    return model_from_dict(data)
