"""Test statistics and one-to-one rankings of the support.

A ranking agrees with a statistic when a strictly larger statistic value
always receives a strictly smaller rank; within a tie class the order is
free and is fixed here by an explicit tie-break policy (lexicographic on
labels, a user-supplied priority list, or a seeded shuffle).  Smaller rank
means more evidence against the null.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .model import DiscreteModel, SupportPoint
from .rational import parse_rational


class RankingError(ValueError):
    """Invalid statistic or ranking configuration."""


@dataclass(frozen=True)
class Statistic:
    """Exact statistic as its tie-class table: distinct ``keys``, strictly decreasing, and each point's ``class_of``.

    Larger values are evidence against the null.  Real-valued statistics
    must be supplied as exact rationals (use the likelihood ratio itself,
    not its logarithm): tie detection has to be exact.
    """

    name: str
    keys: tuple[Fraction, ...]
    class_of: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(a <= b for a, b in zip(self.keys, self.keys[1:])) or set(self.class_of) != set(range(len(self.keys))):
            raise RankingError(f"statistic {self.name!r} needs strictly decreasing keys, each with a point")

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(map(self.keys.__getitem__, self.class_of))

    def value(self, point: SupportPoint) -> Fraction:
        return self.keys[self.class_of[point.index]]


def _tie_classes(name: str, values: list[Fraction], group_of: Sequence[int], scale: Fraction | int = 1) -> Statistic:
    """Point i has ``values[group_of[i]] * scale``, scale > 0; groups in support order keep a monotone sort one run."""
    keys: list[Fraction] = []
    class_of_group = [0] * len(values)
    for g in sorted(range(len(values)), key=values.__getitem__, reverse=True):
        if not keys or values[g] != keys[-1]:
            keys.append(values[g])
        class_of_group[g] = len(keys) - 1
    return Statistic(name, tuple(key * scale for key in keys), tuple(map(class_of_group.__getitem__, group_of)))


def make_statistic(
    model: DiscreteModel,
    name: str,
    values: Sequence[object] | Callable[[SupportPoint], object],
) -> Statistic:
    """Build a statistic from a sequence aligned with the support, or a callable on points."""
    if callable(values):
        raw = [values(pt) for pt in model.support]
    elif isinstance(values, Mapping):  # its keys would be read as the values
        raise RankingError(f"statistic {name!r}: pass values in support order, not a label map")
    else:
        raw = list(values)
        if len(raw) != model.size:
            raise RankingError(f"statistic {name!r} has {len(raw)} values for {model.size} points")
    return _tie_classes(name, [parse_rational(v) for v in raw], range(len(raw)))


def likelihood_ratio_statistic(model: DiscreteModel, null_name: str, alt_name: str) -> Statistic:
    """Exact likelihood ratio p_alt(x) / p_null(x) per point, one ``Fraction`` per distinct numerator pair."""
    null_den, null_row = model.int_row(null_name)
    alt_den, alt_row = model.int_row(alt_name)
    if any(p == 0 for p in null_row):
        raise RankingError("likelihood ratio needs a strictly positive null pmf")
    pairs: dict[tuple[int, int], int] = {}
    group_of = [pairs.setdefault(pair, len(pairs)) for pair in zip(alt_row, null_row)]
    # Reducing pa/p0 and D0/Da apart keeps each gcd small, and the unscaled ratios are cheaper to sort.
    ratios = [Fraction(pa, p0) for pa, p0 in pairs]
    return _tie_classes(f"lr({alt_name}:{null_name})", ratios, group_of, Fraction(null_den, alt_den))


@dataclass(frozen=True)
class Ranking:
    """Bijection from the support onto {1..N}; rank 1 is most extreme."""

    agrees_with: str
    ranks: tuple[int, ...]
    tie_break: str

    def rank(self, point: SupportPoint) -> int:
        return self.ranks[point.index]

    def order(self) -> tuple[int, ...]:
        """Support indices sorted by rank (position r-1 holds rank r)."""
        out = [0] * len(self.ranks)
        for index, rank in enumerate(self.ranks):
            out[rank - 1] = index
        return tuple(out)


def _shuffle_key(seed: int, label: str) -> str:
    return hashlib.sha256(f"{seed}:{label}".encode()).hexdigest()


def build_agreeing_ranking(
    model: DiscreteModel,
    statistic: Statistic,
    tie_break: str = "lexicographic",
    *,
    priority: Sequence[str] | None = None,
    seed: int | None = None,
) -> Ranking:
    """Rank the support so that strictly larger statistic values come first.

    Tie classes are ordered by the policy: label order ("lexicographic",
    the deterministic default), position in a user priority list covering
    every label ("user-priority"), or a reproducible keyed shuffle
    ("seeded-shuffle").
    """
    if len(statistic.class_of) != model.size:
        raise RankingError("statistic and model support sizes differ")
    if tie_break == "lexicographic":
        tie_key = lambda pt: pt.label
    elif tie_break == "user-priority":
        if priority is None:
            raise RankingError("user-priority tie-break needs a priority list")
        position = {label: i for i, label in enumerate(priority)}
        if len(position) != len(list(priority)):
            raise RankingError("priority list contains duplicate labels")
        unknown = set(position) - {pt.label for pt in model.support}
        if unknown:
            raise RankingError(f"priority list has unknown labels: {sorted(unknown)[:3]}")
        missing = [pt.label for pt in model.support if pt.label not in position]
        if missing:
            raise RankingError(f"priority list is incomplete: missing {missing[:3]}")
        tie_key = lambda pt: position[pt.label]
    elif tie_break == "seeded-shuffle":
        if seed is None:
            raise RankingError("seeded-shuffle tie-break needs a seed")
        tie_key = lambda pt: _shuffle_key(seed, pt.label)
    else:
        raise RankingError(f"unknown tie-break policy {tie_break!r}")

    ordered = sorted(model.support, key=lambda pt: (statistic.class_of[pt.index], tie_key(pt)))
    ranks = [0] * model.size
    for pos, pt in enumerate(ordered, start=1):
        ranks[pt.index] = pos
    return Ranking(statistic.name, tuple(ranks), tie_break)


def ranking_from_order(model: DiscreteModel, labels_in_rank_order: Sequence[str]) -> Ranking:
    """Ranking given directly as labels listed from rank 1 to rank N."""
    if len(labels_in_rank_order) != model.size:
        raise RankingError(
            f"rank order lists {len(labels_in_rank_order)} labels for {model.size} points"
        )
    ranks = [0] * model.size
    for pos, label in enumerate(labels_in_rank_order, start=1):
        ranks[model.point(label).index] = pos
    if sorted(ranks) != list(range(1, model.size + 1)):
        raise RankingError("rank order must mention every support label exactly once")
    return Ranking("explicit", tuple(ranks), "explicit")


def verify_agreement(
    model: DiscreteModel, statistic: Statistic, ranking: Ranking
) -> tuple[bool, tuple[str, str] | None]:
    """Check bijectivity and agreement; return (ok, witness pair of labels).

    The witness (x, y) has a strictly larger statistic at x but a strictly
    larger (worse) rank, i.e. the ranking contradicts the statistic.
    """
    if len(statistic.class_of) != model.size or len(ranking.ranks) != model.size:
        raise RankingError("statistic, ranking and model must share one support")
    seen: dict[int, SupportPoint] = {}
    for pt in model.support:
        rank = ranking.rank(pt)
        if not 1 <= rank <= model.size:
            return False, (pt.label, pt.label)
        if rank in seen:
            return False, (seen[rank].label, pt.label)
        seen[rank] = pt
    by_rank = [seen[r] for r in range(1, model.size + 1)]
    for a, b in zip(by_rank, by_rank[1:]):
        if statistic.class_of[a.index] > statistic.class_of[b.index]:
            return False, (b.label, a.label)
    return True, None
