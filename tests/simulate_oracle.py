"""Slow reference for downstream.simulate: one Python iteration per replicate.

This is the straight-line form of the Monte Carlo harness.  Each replicate
reads its own slices of the two Philox streams alone, never through the
harness's block loop: a fresh ``Philox(seed)`` advanced to the double r*M
gives its M data uniforms, and, under the randomized policy, a fresh
``Philox(seed).jumped()`` advanced to the double r*2M gives its M auxiliary
uniforms, then its M regenerated uniforms.  Philox makes 4 doubles per
counter step, so reaching double o is ``advance(o // 4)`` and then
discarding o % 4 doubles.  The procedure runs on that one replicate
through scalar code kept here: the Benjamini-Hochberg scan over sorted
p-values, the Bonferroni cut, and the Fisher and geometric-mean
statistics as left folds over ``math.log`` (an explicit ``reduce``, since
Python 3.12's ``sum`` compensates).  It shares no sort, step-up,
reduction or per-row statistic with the blocked harness, only the config
and report types and the chi-squared quantile, so ``simulate`` can be
compared against it byte for byte on ``report_to_json``.
Its per-point a and b come from the claims oracle's cumulative scan.
"""

from __future__ import annotations

import math
import operator
from functools import reduce

import numpy as np

from mdpvalues.downstream import RNG_IDENTITY, ConfigError, SimulationConfig, SimulationReport
from mdpvalues.ranking import build_agreeing_ranking, likelihood_ratio_statistic
from mdpvalues.special import chi2_upper_quantile

from claims_oracle import scan_pvalue_family


def _bh(ps: list[float], alpha: float) -> tuple[float, tuple[int, ...]]:
    m = len(ps)
    threshold = 0.0
    feasible = False
    for i, p in enumerate(sorted(ps), start=1):
        if p * m <= alpha * i:
            threshold = p
            feasible = True
    if not feasible:
        return 0.0, ()
    return threshold, tuple(i for i, p in enumerate(ps) if p <= threshold)


def _fisher_rejects(ps: list[float], critical: float) -> bool:
    if any(p == 0.0 for p in ps):
        return True
    return -2.0 * reduce(operator.add, map(math.log, ps)) >= critical


def _geometric_mean(ps: list[float]) -> float:
    if any(p == 0.0 for p in ps):
        raise ConfigError("p-values must be strictly positive here")
    w = 1.0 / len(ps)
    return math.exp(reduce(operator.add, (w * math.log(p) for p in ps)))


def _mean_and_mcse(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if len(values) < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(len(values)))


def _doubles(bit_generator: np.random.Philox, offset: int, count: int) -> np.ndarray:
    """Doubles offset ... offset + count - 1 of a Generator over a fresh ``bit_generator``."""
    bit_generator.advance(offset // 4)
    rng = np.random.Generator(bit_generator)
    rng.random(offset % 4)
    return rng.random(count)


def simulate_oracle(config: SimulationConfig) -> SimulationReport:
    model = config.model
    statistic = likelihood_ratio_statistic(model, config.null, config.alt)
    source = build_agreeing_ranking(model, statistic) if config.family == "md" else statistic
    forms = scan_pvalue_family(model, source)

    a_arr = np.array([float(v) for v in forms.a])
    b_arr = np.array([float(v) for v in forms.b])
    cum_null = np.cumsum([float(p) for p in model.probs(config.null)])
    cum_alt = np.cumsum([float(p) for p in model.probs(config.alt)])
    cum_null[-1] = cum_alt[-1] = 1.0

    m = config.hypotheses
    m0 = config.n_null
    m1 = m - m0
    is_null = np.zeros(m, dtype=bool)
    is_null[:m0] = True
    alpha = float(config.alpha)
    global_procedure = config.procedure in ("fisher", "geometric-mean")
    critical = chi2_upper_quantile(alpha, 2 * m) if config.procedure == "fisher" else math.nan
    fixed_u = 1.0 if config.u_policy == "natural" else 0.5

    def decide(ps: np.ndarray) -> tuple[np.ndarray, float]:
        if config.procedure == "bh":
            threshold, rejected = _bh(ps.tolist(), alpha)
            mask = np.zeros(m, dtype=bool)
            mask[list(rejected)] = True
            return mask, threshold
        if config.procedure == "bonferroni":
            return ps <= alpha / m, alpha / m
        if config.procedure == "fisher":
            return np.full(m, _fisher_rejects(ps.tolist(), critical)), critical
        return np.full(m, _geometric_mean(ps.tolist()) <= alpha / math.e), alpha / math.e

    fdp = np.zeros(config.replicates)
    tdp = np.zeros(config.replicates)
    rejection_counts = np.zeros(config.replicates)
    thresholds = np.zeros(config.replicates)
    flips = np.zeros(config.replicates)

    for r in range(config.replicates):
        data_u = _doubles(np.random.Philox(config.seed), r * m, m)
        idx = np.empty(m, dtype=np.int64)
        idx[:m0] = np.searchsorted(cum_null, data_u[:m0], side="right")
        idx[m0:] = np.searchsorted(cum_alt, data_u[m0:], side="right")
        np.clip(idx, 0, model.size - 1, out=idx)
        u = fixed_u
        if config.u_policy == "randomized":
            u, flip_u = _doubles(np.random.Philox(config.seed).jumped(), r * 2 * m, 2 * m).reshape(2, m)
        ps = a_arr[idx] + u * b_arr[idx]
        rejected, threshold = decide(ps)

        if global_procedure:
            globally_rejected = bool(rejected[0])
            fdp[r] = float(globally_rejected) if m1 == 0 else 0.0
            tdp[r] = float(globally_rejected) if m1 > 0 else 0.0
            rejection_counts[r] = float(globally_rejected)
        else:
            n_rej = int(rejected.sum())
            fdp[r] = rejected[is_null].sum() / max(n_rej, 1)
            tdp[r] = rejected[~is_null].sum() / m1 if m1 > 0 else 0.0
            rejection_counts[r] = n_rej
        thresholds[r] = threshold

        if config.u_policy == "randomized":
            rejected2, _ = decide(a_arr[idx] + flip_u * b_arr[idx])
            flips[r] = float((rejected != rejected2).mean())

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
        dependence_rate=float(flips.mean()) if config.u_policy == "randomized" else None,
        rng=RNG_IDENTITY,
    )
