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
replicate-at-a-time loop.  Fisher and the geometric mean sum math.log of
each p-value left to right along the row, as a running sum; under the
natural and mid policies a p-value takes one value per support point, so
its log is looked up in a per-point table.  numpy is imported inside
functions only, so the exact layers and the other CLI commands never load
it.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Sequence

from .model import DiscreteModel
from .ranking import Ranking, build_agreeing_ranking, likelihood_ratio_statistic
from .rational import format_rational, parse_rational
from .special import chi2_upper_quantile
from .testing import MD, T_BASED, TestFunction, pvalue_family

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


class ConfigError(ValueError):
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


def _decide_rows(
    ps: np.ndarray, alpha: float, procedure: str, logs: np.ndarray | None = None,
) -> tuple[np.ndarray | float, np.ndarray]:
    """The procedure on each row of ``ps``: thresholds and a rejection mask.

    BH keeps the last i with s_(i) * M <= alpha * i in the sorted row, and
    its threshold is that s_(i), or 0 with nothing rejected.  Fisher and the
    geometric mean give one global verdict per row, as a one-column mask,
    by the rules of ``fisher_test`` and ``geometric_mean_combination``; they
    read ``logs``, ``_logs(ps)`` unless the caller already holds it.
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
    logs = _logs(ps) if logs is None else logs
    if procedure == "fisher":
        critical = _fisher_critical(alpha, 2 * m)
        return critical, (-2.0 * _row_log_sums(logs) >= critical)[:, None]
    return alpha / math.e, (_geometric_means(logs) <= alpha / math.e)[:, None]


def _logs(ps: np.ndarray) -> np.ndarray:
    """math.log of each p, with -inf where p is 0.

    Not np.log: its last bits differ from math.log's on some inputs, by
    host and numpy build.
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


def randomization_dependence_prob(theta: str, test: TestFunction) -> Fraction:
    """Exact Pr_theta{phi(X) in (0,1)}: how often the decision hinges on u.

    That is the theta mass of the threshold class when 0 < gamma < 1.
    """
    if not 0 < test.gamma < 1:
        return Fraction(0)
    den, mass, _ = test.table.lattice(theta)
    return Fraction(mass[test.k], den)


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


# An integer string: an optional sign and ASCII digits, with the rationals' optional surrounding
# whitespace.  re compiles it on first use, not at import.
_INTEGER = r"\s*[+-]?[0-9]+\s*"


def _integer(data: Mapping, key: str) -> int:
    """An integer config field: a JSON integer or an integer string, never a float or a bool."""
    value = data[key]
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(_INTEGER, value):
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
    null_den, null_row = model.int_row(config.null)
    alt_den, alt_row = model.int_row(config.alt)
    cum_null = np.cumsum([p / null_den for p in null_row])
    cum_alt = np.cumsum([p / alt_den for p in alt_row])
    cum_null[-1] = cum_alt[-1] = 1.0

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

    # P = a + u * b.  The natural and mid policies fix u at 1 and 1/2, so
    # there a p-value, and the log that Fisher and the geometric mean read,
    # take one value per support point: the logs are looked up by point.
    fixed_u = {"natural": 1.0, "mid": 0.5}.get(config.u_policy)
    combined = config.procedure in ("fisher", "geometric-mean")
    log_table = _logs(a_arr + fixed_u * b_arr) if fixed_u and combined else None
    streams = _substreams(config.seed, config.replicates)

    fdp, tdp, rejection_counts, thresholds, flips = np.zeros((5, config.replicates))

    rows = max(1, BLOCK_ELEMENTS // m)
    for start in range(0, config.replicates, rows):
        block = slice(start, min(start + rows, config.replicates))
        uniforms = np.empty((block.stop - start, draws, m))
        for row in uniforms:
            next(streams).random(out=row)
        idx = np.empty((len(uniforms), m), dtype=np.int64)
        idx[:, :m0] = np.searchsorted(cum_null, uniforms[:, 0, :m0], side="right")
        idx[:, m0:] = np.searchsorted(cum_alt, uniforms[:, 0, m0:], side="right")
        np.clip(idx, 0, model.size - 1, out=idx)
        a_block, b_block = a_arr[idx], b_arr[idx]
        ps = a_block + (uniforms[:, 1] if randomized else fixed_u) * b_block
        logs = None if log_table is None else log_table[idx]
        thresholds[block], rejected = _decide_rows(ps, alpha, config.procedure, logs)
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
