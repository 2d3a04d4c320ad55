"""Multiple testing and meta-analysis on p-value families, plus a seeded
Monte Carlo harness.

The harness isolates the discreteness/randomization effects: per-hypothesis
p-values come from the exact families (no resampling noise in the p-value
itself); only the data draws and the auxiliary uniforms are random.  Random
numbers use numpy's Philox generator with a documented substream scheme:
replicate r draws from Generator(Philox(SeedSequence(master_seed,
spawn_key=(r,)))), and within a replicate hypothesis i consumes component i
of each vectorized draw (data first, then auxiliary u, then the regenerated
u used for the dependence rate).  Identical configs therefore reproduce
bit-identical reports, and runs sharing a master seed see identical data.
The harness builds no SeedSequence: it derives every replicate's Philox key
as SeedSequence would, in one vectorized step, and re-keys one generator
per replicate, so the streams are numpy's own.
Replicates run in blocks of max(1, BLOCK_ELEMENTS // M) rows, so a block
array holds about BLOCK_ELEMENTS floats whatever the run's size: replicate
r fills its row from its own substream, and the p-values, the procedure
and the reductions run once per block, with each row's values those of a
replicate-at-a-time loop.  A data uniform u draws the point
np.searchsorted(cum, u, side="right") of its row's float cumulative sums,
read from a bucket table built once per run (``_draw_points``) and
searched only in the few buckets that hold a cum value, so the draws are
those of the plain search.  Fisher and the geometric mean decide a row by
the left-to-right sum of math.log of its p-values; a block first sums
np.log in any order and keeps that fold for the rows whose approximate sum
lies within a proven slack of the cut (``_log_sums_at_most``), so every
decision is the fold's on any host, under every u policy.  numpy is
imported inside functions only, and the package and ``mdpv simulate``
import this module (and with it ``special``) on first use, so the exact
layers and the other CLI commands load none of the three.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, NamedTuple, Sequence

from .model import DiscreteModel, UsageError
from .ranking import Ranking, build_agreeing_ranking, likelihood_ratio_statistic
from .rational import INTEGER, format_rational, parse_rational
from .special import chi2_upper_quantile
from .testing import MD, T_BASED, pvalue_family

if TYPE_CHECKING:
    import numpy as np

PROCEDURES = ("bh", "bonferroni", "fisher", "geometric-mean")
U_POLICIES = ("natural", "mid", "randomized")
# Floats per (replicates x hypotheses) array in one block of simulate.
BLOCK_ELEMENTS = 4096
RNG_IDENTITY = (
    "numpy Philox4x64 via SeedSequence(master_seed, spawn_key=(replicate,)); "
    "hypothesis i uses component i of each vectorized replicate draw"
)


class ConfigError(UsageError):
    """Invalid procedure input or simulation configuration."""


def _check_pvalues(pvalues: Sequence[float]) -> list[float]:
    out = [float(p) for p in pvalues]
    for p in out:
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"p-value {p} lies outside [0, 1]")
    return out


def _check_alpha(alpha: float) -> float:
    if not 0.0 < (value := float(alpha)) < 1.0:  # NaN fails too
        raise ConfigError(f"alpha={alpha!r} must lie strictly in (0, 1)")
    return value


def _decide_rows(ps: np.ndarray, alpha: float, procedure: str) -> tuple[np.ndarray | float, np.ndarray]:
    """The procedure on each row of ``ps``: thresholds and a rejection mask.

    BH keeps the last i with s_(i) * M <= alpha * i in the sorted row, and
    its threshold is that s_(i), or 0 with nothing rejected.  Fisher and the
    geometric mean give one global verdict per row, as a one-column mask,
    by the rules of ``fisher_test`` and ``geometric_mean_combination``.
    """
    import numpy as np

    m = ps.shape[1]
    if procedure == "bh":
        s = np.sort(ps, axis=1)
        ok = s * m <= alpha * np.arange(1, m + 1)
        rows = np.arange(len(ps))
        last = m - 1 - np.argmax(ok[:, ::-1], axis=1)
        feasible = ok[rows, last]
        cut = np.where(feasible, s[rows, last], 0.0)
        return cut, (ps <= cut[:, None]) & feasible[:, None]
    if procedure == "bonferroni":
        return alpha / m, ps <= alpha / m
    if procedure == "fisher":
        critical = _fisher_critical(alpha, 2 * m)
        # -2.0 * S >= critical iff S <= -critical / 2: both scalings by 2 are exact.
        rejected = _log_sums_at_most(ps, 1.0, -critical / 2, 0.0,
                                     lambda logs: -2.0 * _row_log_sums(logs) >= critical)
        return critical, rejected[:, None]
    # exp(S) <= alpha / e agrees with S <= log(alpha / e) once S is 2**-40 * (1 + |log cut|) from it:
    # math.log of the cut errs by an ULP or two, about 2**-52 * |log cut|, and math.exp by a relative
    # 2**-52 or so, an absolute 2**-52 in S.  That holds while exp(S) is a normal float; below 2**-1000
    # the cut is near or among the subnormals, where exp keeps fewer bits (or is 0), so the fold decides.
    cut = alpha / math.e
    if cut < 2.0**-1000:
        return cut, (_geometric_means(_logs(ps)) <= cut)[:, None]
    log_cut = math.log(cut)
    rejected = _log_sums_at_most(ps, 1.0 / m, log_cut, 2.0**-40 * (1.0 + abs(log_cut)),
                                 lambda logs: _geometric_means(logs) <= cut)
    return cut, rejected[:, None]


def _log_sums_at_most(
    ps: np.ndarray, scale: float, cut: float, margin: float, exact: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Whether each row's sum S of scale * log p lies at or below ``cut``, as ``exact(_logs(rows))`` decides.

    S is ``_row_log_sums(_logs(ps), scale)``, the left fold of
    e_i = fl(scale * math.log(p_i)); ``exact`` decides from S and agrees
    with S <= cut wherever S lies more than ``margin`` from ``cut``.  The
    fast step sums f_i = fl(scale * np.log(p_i)) in any order, giving A,
    and decides every row with |fl(A - cut)| > slack + margin; the other
    rows go through ``exact``.  A block that holds a p of 0 goes through
    ``exact`` whole, so Fisher still rejects it and the geometric mean
    still raises.

    Why A decides those rows as S does: let u = 2**-53 and
    x_i = scale * ln(p_i) exactly.  A float within k ULP of y is within
    2ku|y| of it, so with math.log within 1 ULP and np.log within k,
    |e_i - x_i| <= 3u|x_i| and |f_i - x_i| <= (2k + 1)u|x_i|.  Any order
    of m - 1 additions errs by at most (m - 1)u times the sum of the
    magnitudes, to first order (Higham, *Accuracy and Stability of
    Numerical Algorithms*, section 4.2), so
    |A - S| <= (2m + 2k + 8)u * sum|x_i|, second-order terms included while
    m * u is small.  The slack (m + 1024) * 2**-48 * T, with T the float
    sum of |f_i|, exceeds that bound at least 15-fold for every m when
    k <= 1024; np.log is within 1 ULP of math.log on x86-64 glibc.  So
    where |A - cut| > slack + margin, S lies on A's side of the cut, more
    than ``margin`` from it.
    """
    import numpy as np

    if not (ps > 0.0).all():
        return exact(_logs(ps))
    terms = scale * np.log(ps)
    gap = terms.sum(axis=1) - cut
    near = np.abs(gap) <= (ps.shape[1] + 1024) * 2.0**-48 * np.abs(terms).sum(axis=1) + margin
    at_most = gap < 0.0
    if near.any():
        at_most[near] = exact(_logs(ps[near]))
    return at_most


def _logs(ps: np.ndarray) -> np.ndarray:
    """math.log of each p, with -inf where p is 0: the terms of the exact left fold.

    Not np.log, whose last bits differ from math.log's on some inputs, by
    host and numpy build; ``_log_sums_at_most`` reads np.log only where a
    proven slack covers those bits.
    """
    import numpy as np

    logs = np.fromiter(map(math.log, np.where(ps > 0.0, ps, 1.0).ravel().tolist()), float, ps.size)
    logs[ps.ravel() == 0.0] = -math.inf
    return logs.reshape(ps.shape)


def _row_log_sums(logs: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Each row's sum of scale * log p, added left to right, so -inf where the row holds a p of 0.

    A running sum's last column is that left fold, bit for bit on every
    Python version; np.sum adds pairwise and rounds differently.
    """
    import numpy as np

    return np.cumsum(scale * logs, axis=1)[:, -1]


def _geometric_means(logs: np.ndarray) -> np.ndarray:
    """Each row's exp(mean of log P_i); a p of 0 in any row is a ``ConfigError``."""
    import numpy as np

    sums = _row_log_sums(logs, 1.0 / logs.shape[1])
    if np.isneginf(sums).any():
        raise ConfigError("p-values must be strictly positive here")
    return np.fromiter(map(math.exp, sums.tolist()), float, len(sums))


def bh_threshold(pvalues: Sequence[float], alpha: float) -> tuple[float, tuple[int, ...]]:
    """Benjamini-Hochberg step-up threshold and rejection set.

    The threshold is the largest attained p-value s whose estimated false
    discovery proportion s*M / #{P_i <= s} stays at or below alpha (0 when
    no candidate qualifies, the convention for an empty feasible set);
    every P_i <= threshold is rejected.  The step-up scan over sorted
    p-values in ``_decide_rows`` attains that supremum.
    """
    import numpy as np

    ps, alpha = _check_pvalues(pvalues), _check_alpha(alpha)
    if not ps:
        return 0.0, ()
    cut, rejected = _decide_rows(np.array([ps]), alpha, "bh")
    return float(cut[0]), tuple(np.flatnonzero(rejected[0]).tolist())


def bonferroni(pvalues: Sequence[float], alpha: float) -> tuple[int, ...]:
    """Reject every P_i <= alpha / M."""
    import numpy as np

    ps, alpha = _check_pvalues(pvalues), _check_alpha(alpha)
    if not ps:
        return ()
    _, rejected = _decide_rows(np.array([ps]), alpha, "bonferroni")
    return tuple(np.flatnonzero(rejected[0]).tolist())


@functools.lru_cache
def _fisher_critical(alpha: float, df: int) -> float:
    """The chi-squared(df) upper-alpha point, solved once per (alpha, df) in a process."""
    return chi2_upper_quantile(alpha, df)


class FisherResult(NamedTuple):
    statistic: float
    critical_value: float
    reject: bool
    note: str | None = None


def fisher_test(pvalues: Sequence[float], alpha: float) -> FisherResult:
    """Fisher combination: -2 sum log P_i against the chi-squared(2n) upper-alpha point."""
    import numpy as np

    ps, alpha = _check_pvalues(pvalues), _check_alpha(alpha)
    if not ps:
        raise ConfigError("fisher_test needs at least one p-value")
    critical = _fisher_critical(alpha, 2 * len(ps))
    statistic = float(-2.0 * _row_log_sums(_logs(np.array([ps])))[0])
    if statistic == math.inf:
        return FisherResult(statistic, critical, True, "zero p-value: statistic diverges")
    return FisherResult(statistic, critical, statistic >= critical, None)


class GeometricMeanResult(NamedTuple):
    combined: float

    def rejects_at(self, alpha: float) -> bool:
        """Level-alpha rule backed by the e*alpha bound: reject iff P~ <= alpha/e."""
        return self.combined <= _check_alpha(alpha) / math.e


def geometric_mean_combination(pvalues: Sequence[float]) -> GeometricMeanResult:
    """Geometric mean exp(mean of log P_i) of strictly positive p-values."""
    import numpy as np

    ps = _check_pvalues(pvalues)
    if not ps:
        raise ConfigError("geometric mean needs at least one p-value")
    return GeometricMeanResult(float(_geometric_means(_logs(np.array([ps])))[0]))


@dataclass(frozen=True)
class SimulationConfig:
    model: DiscreteModel
    model_id: str
    hypotheses: int
    pi0: Fraction
    family: str
    u_policy: str
    procedure: str
    alpha: Fraction
    replicates: int
    seed: int
    alt_name: str | None = None

    def __post_init__(self) -> None:
        if self.hypotheses < 1:
            raise ConfigError("hypotheses must be >= 1")
        if not 0 <= self.pi0 <= 1:
            raise ConfigError("pi0 must lie in [0, 1]")
        if self.family not in (T_BASED, MD):
            raise ConfigError(f"unknown family {self.family!r} (use 't-based' or 'md')")
        if self.u_policy not in U_POLICIES:
            raise ConfigError(f"unknown u policy {self.u_policy!r}")
        if self.procedure not in PROCEDURES:
            raise ConfigError(f"unknown procedure {self.procedure!r}")
        if not 0 < self.alpha < 1:
            raise ConfigError("alpha must lie strictly in (0, 1)")
        if not 1 <= self.replicates <= 2**32:
            raise ConfigError("replicates must lie in [1, 2**32]: each replicate's spawn key is one 32-bit word")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    @property
    def null(self) -> str:
        """The model's null: p-values are formed under it, so true nulls draw their data from it."""
        return self.model.null

    @property
    def alt(self) -> str:
        if self.alt_name:
            return self.alt_name
        names = self.model.parameter_names
        if len(names) < 2:
            raise ConfigError("simulation needs a model with a null and an alternative")
        return names[1]

    @property
    def n_null(self) -> int:
        """floor(pi0 * M), the number of true-null hypotheses."""
        return int(self.pi0 * self.hypotheses)

    def to_dict(self) -> dict:
        return {
            "model": self.model_id,
            "hypotheses": self.hypotheses,
            "pi0": format_rational(self.pi0),
            "family": self.family,
            "u_policy": self.u_policy,
            "procedure": self.procedure,
            "alpha": format_rational(self.alpha),
            "replicates": self.replicates,
            "seed": self.seed,
            "tie_break": "lexicographic",
            "null": self.null,
            "alt": self.alt,
        }


_FAMILY_ALIASES = {"t": T_BASED, "t-based": T_BASED, "md": MD}


def _integer(data: Mapping, key: str) -> int:
    """An integer config field: a JSON integer or an integer string, never a float or a bool."""
    value = data[key]
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(INTEGER, value):
        return int(value)
    raise ValueError(f"{key} must be an integer, got {value!r}")


def config_from_dict(data: Mapping, model: DiscreteModel, model_id: str) -> SimulationConfig:
    null = data.get("null", model.null)
    if null != model.null:
        raise ConfigError(
            f"null {null!r} is not the model's null {model.null!r}: p-values are formed under "
            "the model's first parameter, so null hypotheses must draw from it"
        )
    if data.get("tie_break", "lexicographic") != "lexicographic":
        raise ConfigError(f"unsupported tie_break {data['tie_break']!r}: simulate breaks ties lexicographically")
    try:
        family = _FAMILY_ALIASES.get(str(data["family"]), str(data["family"]))
        return SimulationConfig(
            model=model,
            model_id=model_id,
            hypotheses=_integer(data, "hypotheses"),
            pi0=parse_rational(data["pi0"]),
            family=family,
            u_policy=str(data["u_policy"]),
            procedure=str(data["procedure"]),
            alpha=parse_rational(data["alpha"]),
            replicates=_integer(data, "replicates"),
            seed=_integer(data, "seed"),
            alt_name=data.get("alt"),
        )
    except KeyError as exc:
        raise ConfigError(f"config is missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from None


@dataclass(frozen=True)
class SimulationReport:
    config: dict
    m_null: int
    fdr: float
    fdr_mcse: float
    power: float
    power_mcse: float
    mean_rejections: float
    mean_threshold: float
    dependence_rate: float | None
    rng: str

    def to_dict(self) -> dict:
        return asdict(self)

    def summary_row(self) -> list:
        """The CSV summary: procedure, family, u_policy, alpha, fdr, fdr_mcse, power, dep_rate."""
        return [
            self.config["procedure"],
            self.config["family"],
            self.config["u_policy"],
            self.config["alpha"],
            self.fdr,
            self.fdr_mcse,
            self.power,
            "" if self.dependence_rate is None else self.dependence_rate,
        ]


def _mean_and_mcse(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if len(values) < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(len(values)))


# numpy's SeedSequence: its pool of 4 uint32 words and the hash and mix constants it fills them with.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Replicates whose Philox keys are derived in one vectorized step.
KEY_CHUNK = 1 << 16


def _hashmix(value, const: int, mult: int):
    """SeedSequence's hashmix of a uint32 (an int or a uint32 array); returns it and the next hash constant."""
    next_const = const * mult & _MASK32
    value = (value ^ const) * next_const & _MASK32
    return value ^ value >> 16, next_const


def _mix(x, y):
    """SeedSequence's mix of two uint32 words (ints or uint32 arrays)."""
    value = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return value ^ value >> 16


def _substream_keys(seed: int, replicates: int) -> Iterator[np.ndarray]:
    """The Philox key of SeedSequence(seed, spawn_key=(r,)) for r = 0, 1, ..., replicates - 1.

    SeedSequence hashes the seed's 32-bit words, zero-padded to its pool of
    4, into the pool and mixes the pool; then it mixes in any seed words
    past the fourth and the spawn word r, and hashes the pool out as the
    key's 4 words (``generate_state(2, uint64)``).  All but the last two
    steps depend on the seed alone, so they run once, on ints; those two run
    on uint32 arrays of KEY_CHUNK replicates at a time.  Each r < 2**32 is
    one spawn word.
    """
    import numpy as np

    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))
    const = _INIT_A
    pool = []
    for word in words[:_POOL]:
        value, const = _hashmix(word, const, _MULT_A)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL:]:
        for dst in range(_POOL):
            value, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    for start in range(0, replicates, KEY_CHUNK):
        spawn = np.arange(start, min(start + KEY_CHUNK, replicates), dtype=np.uint32)
        spawn_const, out_const, key_words = const, _INIT_B, []
        for dst in range(_POOL):
            value, spawn_const = _hashmix(spawn, spawn_const, _MULT_A)
            word, out_const = _hashmix(_mix(pool[dst], value), out_const, _MULT_B)
            key_words.append(word.astype(np.uint64))
        yield from np.stack([key_words[0] | key_words[1] << 32, key_words[2] | key_words[3] << 32], axis=1)


def _substreams(seed: int, replicates: int) -> Iterator[np.random.Generator]:
    """Generator(Philox(SeedSequence(seed, spawn_key=(r,)))) for r = 0, 1, ..., replicates - 1.

    One generator, re-keyed for each replicate: its key set, counter 0 and
    no buffered output, the state a new Philox starts from.
    """
    import numpy as np

    rng = np.random.Generator(np.random.Philox(0))
    state = rng.bit_generator.state
    for key in _substream_keys(seed, replicates):
        state["state"]["key"] = key
        rng.bit_generator.state = state
        yield rng


# Buckets per support point of an inverse-CDF table, and the bounds on its bit width.
_BUCKETS_PER_POINT = 64
_MIN_BUCKET_BITS, _MAX_BUCKET_BITS = 8, 16


class _BucketTable(NamedTuple):
    """The inverse CDF of one pmf row, read through K = 2**k equal buckets of [0, 1) (Chen & Asau, 1974).

    ``cum`` holds the row's float cumulative sums with the last set to 1.0;
    ``lo[b]`` is #{cum <= b/K}, and ``flagged[b]`` says that
    #{cum < (b+1)/K} differs from it, that is, that some cum lies strictly
    inside (b/K, (b+1)/K).
    """

    cum: np.ndarray
    lo: np.ndarray
    flagged: np.ndarray


def _bucket_table(den: int, row: Sequence[int]) -> _BucketTable:
    """The table of p(x) = row[x] / den, with K the least power of two >= 64 N, within [2**8, 2**16]."""
    import numpy as np

    # n / D is the correctly rounded float of the rational n/D, as float(Fraction(n, D)) is.
    cum = np.cumsum([p / den for p in row])
    cum[-1] = 1.0
    bits = min(max((_BUCKETS_PER_POINT * len(cum) - 1).bit_length(), _MIN_BUCKET_BITS), _MAX_BUCKET_BITS)
    edges = np.arange((1 << bits) + 1) / (1 << bits)
    lo = np.searchsorted(cum, edges[:-1], side="right")
    return _BucketTable(cum, lo, np.searchsorted(cum, edges[1:], side="left") != lo)


def _draw_points(table: _BucketTable, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(table.cum, u, side="right") for u in [0, 1): the support index each data uniform draws.

    Exact: K is a power of two, so u * K is exact and its truncation b is
    u's bucket, b/K <= u < (b+1)/K.  cum[:-1] is nondecreasing (sums of
    nonnegative floats; the later ones may round past 1.0) and
    cum[-1] = 1.0, so cum <= x for x < 1 and cum < x for x <= 1 hold on a
    prefix of cum, searchsorted counts that prefix, and #{cum <= u} lies
    between lo[b] and #{cum < (b+1)/K}.  In an unflagged bucket these are
    equal, so lo[b] is the answer, and it is at most N - 1.  Only draws in
    flagged buckets are searched.  A flagged bucket holds a cum value
    strictly inside it, so at most N - 1 of the K buckets are flagged, and
    a uniform u is searched with probability at most N/K, 1/64 while K is
    below its cap.
    """
    import numpy as np

    buckets = (u * len(table.lo)).astype(np.intp)
    points = table.lo[buckets]
    searched = table.flagged[buckets]
    if searched.any():
        points[searched] = np.searchsorted(table.cum, u[searched], side="right")
    return points


def simulate(config: SimulationConfig) -> SimulationReport:
    """Run the seeded Monte Carlo study described by ``config``.

    Each replicate draws M independent datasets (the first floor(pi0*M)
    hypotheses from the null, the rest from the alternative), forms exact
    per-point p-values for the configured family and u policy, applies the
    procedure, and records false/true discoveries.  With the randomized
    policy, u is regenerated once per replicate and the fraction of
    per-hypothesis decisions that flip is reported.
    """
    import numpy as np

    model = config.model
    statistic = likelihood_ratio_statistic(model, config.null, config.alt)
    if config.family == MD:
        source: Ranking | object = build_agreeing_ranking(model, statistic)
    else:
        source = statistic
    family = pvalue_family(model, source)

    # n / D is the correctly rounded float of the rational n/D, as float(Fraction(n, D)) is.
    den, mass, before = family.lattice(model.null)
    a_arr, b_arr = (np.array([column[k] / den for k in family.class_of]) for column in (before, mass))
    null_table = _bucket_table(*model.int_row(config.null))
    alt_table = _bucket_table(*model.int_row(config.alt))

    m = config.hypotheses
    m0 = config.n_null
    # The rejection mask's null and non-null columns.  Fisher and the
    # geometric mean decide once per replicate, in one column: a rejection
    # is false only when every hypothesis is null.
    null_cols, alt_cols = (m0, m - m0) if config.procedure in ("bh", "bonferroni") else (int(m0 == m), int(m0 < m))
    alpha = float(config.alpha)
    randomized = config.u_policy == "randomized"
    # A replicate's stream gives M data uniforms, M auxiliary u and M
    # regenerated u, in that order.  The fixed policies read only the data,
    # so they stop there.
    draws = 3 if randomized else 1

    # P = a + u * b.  The natural and mid policies fix u at 1 and 1/2, so each point has one P.
    if not randomized:
        p_arr = a_arr + {"natural": 1.0, "mid": 0.5}[config.u_policy] * b_arr
    streams = _substreams(config.seed, config.replicates)

    fdp, tdp, rejection_counts, thresholds, flips = np.zeros((5, config.replicates))

    rows = max(1, BLOCK_ELEMENTS // m)
    for start in range(0, config.replicates, rows):
        block = slice(start, min(start + rows, config.replicates))
        uniforms = np.empty((block.stop - start, draws, m))
        for row in uniforms:
            next(streams).random(out=row)
        idx = np.empty((len(uniforms), m), dtype=np.intp)
        idx[:, :m0] = _draw_points(null_table, uniforms[:, 0, :m0])
        idx[:, m0:] = _draw_points(alt_table, uniforms[:, 0, m0:])
        if randomized:
            a_block, b_block = a_arr[idx], b_arr[idx]
            ps = a_block + uniforms[:, 1] * b_block
        else:
            ps = p_arr[idx]
        thresholds[block], rejected = _decide_rows(ps, alpha, config.procedure)
        rejection_counts[block] = n_rej = rejected.sum(axis=1)
        fdp[block] = rejected[:, :null_cols].sum(axis=1) / np.maximum(n_rej, 1)
        tdp[block] = rejected[:, null_cols:].sum(axis=1) / alt_cols if alt_cols else 0.0
        if randomized:
            _, rejected2 = _decide_rows(a_block + uniforms[:, 2] * b_block, alpha, config.procedure)
            flips[block] = (rejected != rejected2).mean(axis=1)

    fdr, fdr_mcse = _mean_and_mcse(fdp)
    pw, pw_mcse = _mean_and_mcse(tdp)
    return SimulationReport(
        config=config.to_dict(),
        m_null=m0,
        fdr=fdr,
        fdr_mcse=fdr_mcse,
        power=pw,
        power_mcse=pw_mcse,
        mean_rejections=float(rejection_counts.mean()),
        mean_threshold=float(thresholds.mean()),
        dependence_rate=float(flips.mean()) if randomized else None,
        rng=RNG_IDENTITY,
    )


def report_to_json(report: SimulationReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
