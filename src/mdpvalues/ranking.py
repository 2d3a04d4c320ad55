"""Test statistics and one-to-one rankings of the support.

A ranking agrees with a statistic when a strictly larger statistic value
always receives a strictly smaller rank.  Within a tie class the order is
free, and the dominance results hold for every such order, so one tie rule
is enough: ``build_agreeing_ranking`` breaks ties in label order.  Any
other tie order is an explicit rank order, read by ``ranking_from_order``
and checked by ``verify_agreement``.  Smaller rank means more evidence
against the null.

The likelihood ratio (pa / p0) * (D_null / D_alt) keeps its ratios pa / p0
and its positive scale D_null / D_alt apart: a scale changes no order and no
tie, so sorts and ties read the ratios, and ``Statistic.keys`` is built when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .model import DiscreteModel, SupportPoint, UsageError, refuse_string
from .rational import format_ratios, parse_rational


class RankingError(UsageError):
    """Invalid statistic or ranking configuration."""


def _refuse_inexact(kinds: tuple[type, ...], values: Iterable[object], fault: str) -> None:
    """Refuse the first bool or value not of ``kinds``: a float is never a key, rank or class index."""
    if not set(map(type, values)) <= set(kinds):  # one pass over the exact types; the loop names the first fault
        for value in values:
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise RankingError(f"{fault}, got {value!r}")


@dataclass(frozen=True, init=False)
class Statistic:
    """Exact statistic as its tie-class table: distinct ``keys``, strictly decreasing, and each point's ``class_of``.

    Larger values are evidence against the null.  Real-valued statistics
    must be supplied as exact rationals (use the likelihood ratio itself,
    not its logarithm): tie detection has to be exact.  The keys are held as
    ratios and a positive scale (1 here), and built on first read.
    """

    name: str
    keys: tuple[Fraction | int, ...]
    class_of: tuple[int, ...]

    def __init__(self, name: str, keys: tuple[Fraction | int, ...], class_of: tuple[int, ...]) -> None:
        self._set(name, keys, class_of, 1)

    def _set(self, name: str, ratios: tuple[Fraction | int, ...], class_of: tuple[int, ...],
             scale: Fraction | int) -> Statistic:
        _refuse_inexact((int, Fraction), ratios, f"statistic {name!r}: keys must be ints or Fractions")
        _refuse_inexact((int,), class_of, f"statistic {name!r}: class indices must be ints")
        # Neighbours over one denominator compare by numerator, others by cross-multiplication.
        terms = [(key.numerator, key.denominator) for key in ratios]
        if (scale <= 0 or set(class_of) != set(range(len(ratios)))
                or any(an <= bn if ad == bd else an * bd <= bn * ad for (an, ad), (bn, bd) in zip(terms, terms[1:]))):
            raise RankingError(f"statistic {name!r} needs strictly decreasing keys, each with a point")
        self.__dict__.update(name=name, class_of=class_of, _ratios=ratios, _scale=scale)
        return self

    @cached_property
    def keys(self) -> tuple[Fraction | int, ...]:  # the field, built on first read; an int scale 1 keeps them as given
        scale = self._scale
        return tuple(ratio * scale for ratio in self._ratios) if isinstance(scale, Fraction) else self._ratios

    def _key_texts(self) -> list[str]:
        """``format_rational`` of each key, from its ratio and the scale: one gcd per key, no ``Fraction``."""
        sn, sd = self._scale.numerator, self._scale.denominator
        dens = {ratio.denominator for ratio in self._ratios}
        if len(dens) == 1:  # one reduced denominator, printed once
            return format_ratios([ratio.numerator * sn for ratio in self._ratios], dens.pop() * sd)
        return [format_ratios((ratio.numerator * sn,), ratio.denominator * sd)[0] for ratio in self._ratios]

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(map(self.keys.__getitem__, self.class_of))

    def value(self, point: SupportPoint) -> Fraction:  # builds this key alone
        return self._ratios[self.class_of[point.index]] * self._scale


def _tie_classes(name: str, values: list[Fraction | int], group_of: Sequence[int],
                 scale: Fraction | int = 1) -> Statistic:
    """Point i has ``values[group_of[i]] * scale``, scale > 0; groups in support order keep a monotone sort one run."""
    ratios: list[Fraction | int] = []
    class_of_group = [0] * len(values)
    order = [v.numerator for v in values] if len({v.denominator for v in values}) == 1 else values  # ints: no Fraction calls
    for g in sorted(range(len(values)), key=order.__getitem__, reverse=True):
        if not ratios or order[g] != last:
            ratios.append(values[g])
            last = order[g]
        class_of_group[g] = len(ratios) - 1
    class_of = tuple(map(class_of_group.__getitem__, group_of))
    return Statistic.__new__(Statistic)._set(name, tuple(ratios), class_of, scale)


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
        refuse_string(values, f"statistic {name!r}: values must be a list in support order", RankingError)
        raw = list(values)
        if len(raw) != model.size:
            raise RankingError(f"statistic {name!r} has {len(raw)} values for {model.size} points")
    try:
        values = [parse_rational(v) for v in raw]
    except ValueError as exc:
        raise RankingError(str(exc)) from None
    return _tie_classes(name, values, range(len(raw)))


def likelihood_ratio_statistic(model: DiscreteModel, null_name: str, alt_name: str) -> Statistic:
    """Exact likelihood ratio p_alt(x) / p_null(x) per point: each distinct numerator pair's ratio, and one scale."""
    null_den, null_row = model.int_row(null_name)
    alt_den, alt_row = model.int_row(alt_name)
    if 0 in null_row:
        raise RankingError("likelihood ratio needs a strictly positive null pmf")
    pairs: dict[tuple[int, int], int] = {}
    group_of = [pairs.setdefault(pair, len(pairs)) for pair in zip(alt_row, null_row)]
    # Reducing pa/p0 and D0/Da apart keeps each gcd small and the ratios cheap to sort; an exact quotient stays an int.
    ratios = [Fraction(pa, p0) if pa % p0 else pa // p0 for pa, p0 in pairs]
    return _tie_classes(f"lr({alt_name}:{null_name})", ratios, group_of, Fraction(null_den, alt_den))


@dataclass(frozen=True)
class Ranking:
    """Bijection from the support onto {1..N}, as each point's rank; rank 1 is most extreme.

    It is a class table with one point per class, read like a ``Statistic``:
    ``class_of`` is each point's rank - 1.
    """

    ranks: tuple[int, ...]
    class_of: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _refuse_inexact((int,), self.ranks, "ranks must be ints")
        class_of = tuple(rank - 1 for rank in self.ranks)
        if set(class_of) != set(range(len(class_of))):
            raise RankingError(f"a ranking needs each rank 1..{len(class_of)} exactly once: list every support label once")
        object.__setattr__(self, "class_of", class_of)

    def rank(self, point: SupportPoint) -> int:
        return self.ranks[point.index]

    def order(self) -> tuple[int, ...]:
        """Support indices sorted by rank (position r-1 holds rank r)."""
        out = [0] * len(self.ranks)
        for index, k in enumerate(self.class_of):
            out[k] = index
        return tuple(out)


def _ranking_from_indices(size: int, indices_in_rank_order: Iterable[int]) -> Ranking:
    """Ranks of support indices listed from rank 1 on; an index left out keeps rank 0, which ``Ranking`` refuses."""
    ranks = [0] * size
    for rank, index in enumerate(indices_in_rank_order, start=1):
        ranks[index] = rank
    return Ranking(tuple(ranks))


def build_agreeing_ranking(model: DiscreteModel, statistic: Statistic) -> Ranking:
    """Rank the support so that strictly larger statistic values come first, ties in label order."""
    if len(statistic.class_of) != model.size:
        raise RankingError("statistic and model support sizes differ")
    ordered = sorted(model.support, key=lambda pt: (statistic.class_of[pt.index], pt.label))
    return _ranking_from_indices(model.size, (pt.index for pt in ordered))


def ranking_from_order(model: DiscreteModel, labels_in_rank_order: Sequence[str]) -> Ranking:
    """Ranking given directly as labels listed from rank 1 to rank N: any tie order, checked by ``verify_agreement``.

    A repeated label leaves a point unranked, which ``Ranking`` refuses.
    """
    refuse_string(labels_in_rank_order, "rank order must be a list of support labels", RankingError)
    _refuse_inexact((str,), labels_in_rank_order, "rank order must list support labels")
    if len(labels_in_rank_order) != model.size:
        raise RankingError(f"rank order lists {len(labels_in_rank_order)} labels for {model.size} points")
    indices = list(map(model._by_label.get, labels_in_rank_order))
    if None in indices:  # the first unknown label, refused by the model's own lookup
        model.point(labels_in_rank_order[indices.index(None)])
    return _ranking_from_indices(model.size, indices)


def verify_agreement(
    model: DiscreteModel, statistic: Statistic, ranking: Ranking
) -> tuple[bool, tuple[str, str] | None]:
    """Check agreement; return (ok, witness pair of labels).

    The ranking is a bijection by construction, so agreement is one scan
    of the statistic's class indices in rank order: they must never
    decrease.  The witness (x, y) has a strictly larger statistic at x but
    a strictly larger (worse) rank, i.e. the ranking contradicts the
    statistic.
    """
    if len(statistic.class_of) != model.size or len(ranking.ranks) != model.size:
        raise RankingError("statistic, ranking and model must share one support")
    by_rank = ranking.order()
    for a, b in zip(by_rank, by_rank[1:]):
        if statistic.class_of[a] > statistic.class_of[b]:
            return False, (model.support[b].label, model.support[a].label)
    return True, None
