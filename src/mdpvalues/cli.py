"""Command-line front end: tables, CDF data, claim verification, simulation.

Every run writes a manifest (inputs, package version, seed, grids) so seeded
commands can be reproduced byte for byte: table1, cdf and pvalues to
``<out>.manifest.json``, verify and simulate to ``<out>/manifest.json``.
Manifests never contain timestamps or absolute paths.  Exit codes: 0
success / all claims pass, 1 claim failure, 2 usage or input error (any
``UsageError``, or an ``OSError``).

Importing this module loads the exact layers only (``rational``, ``model``,
``ranking``, ``testing``, ``registry``), which is all that table1, cdf and
pvalues run.  verify imports the claim engine (``orders``) in its handler,
and simulate the harness (``downstream`` and ``special``, then numpy).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from . import __version__
from .model import DiscreteModel, UsageError
from .ranking import Ranking, Statistic, ranking_from_order, build_agreeing_ranking
from .rational import decimal_ratio, decimal_string, format_ratios, format_rational
from .registry import default_statistic, resolve_model, table1_ranking
from .testing import pvalue_family

if TYPE_CHECKING:
    from importlib import resources

    from .orders import OrderReport


class CliError(UsageError):
    """Usage or input error (exit status 2)."""


def _write_manifest(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["tool"] = "mdpv"
    payload["version"] = __version__
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


class _Lines(list):
    def write(self, line: str) -> None:  # a csv.writer calls it once per row, ended in "\r\n"
        self.append(line[:-2] + "\n")


def _csv_lines(rows: Iterable[Sequence[object]]) -> list[str]:
    """Each row as the line of text that ``csv.writer`` writes for it to a table, ended in LF.

    Before Python 3.13 the writer quotes a field's CR only when its terminator holds one, so it is given CRLF.
    """
    lines = _Lines()
    csv.writer(lines, lineterminator="\r\n").writerows(rows)
    return lines


def _write_table(out: Path, header: list[str], lines: list[str], manifest: dict | None = None) -> None:
    """Write a CSV header and ``lines``; with a manifest, also write it to ``<out>.manifest.json``, naming the table."""
    with open(out, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")  # plain names, which csv would not quote
        fh.writelines(lines)
    if manifest is not None:
        _write_manifest(out.with_name(out.name + ".manifest.json"), {**manifest, "outputs": [out.name], "seed": None})


def _read_json(source: Path | resources.abc.Traversable, what: str) -> tuple[object, str]:
    """Parsed value and raw text of a UTF-8 JSON file; any failure to read or parse it is a usage error."""
    try:
        raw = source.read_text(encoding="utf-8")
        return json.loads(raw), raw
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {what} {source}: {exc}") from None


def _model_and_statistic(args: argparse.Namespace) -> tuple[DiscreteModel, str, Statistic]:
    model, model_id = resolve_model(args.model)
    return model, model_id, default_statistic(model, args.alt)


def _load_ranking(model: DiscreteModel, path: str) -> Ranking:
    data, _ = _read_json(Path(path), "ranking file")
    if not (isinstance(data, list) and set(map(type, data)) <= {str}):
        raise CliError("ranking file must be a JSON array of labels, rank 1 first")
    return ranking_from_order(model, data)


def cmd_table1(args: argparse.Namespace) -> int:
    model, _ = resolve_model("example1")
    statistic = default_statistic(model)
    ranking = table1_ranking(model)
    t_family = pvalue_family(model, statistic)
    md_family = pvalue_family(model, ranking)
    p0 = model.probs(model.parameter_names[0])
    p1 = model.probs(model.parameter_names[1])
    rows = []
    for pt in sorted(model.support, key=ranking.rank):
        cells = [p0[pt.index], p1[pt.index], statistic.value(pt)]
        naturals = [md_family.evaluate(pt, 1), t_family.evaluate(pt, 1)]
        rows.append(
            [pt.label]
            + [format_rational(c) for c in cells]
            + [ranking.rank(pt)]
            + [format_rational(c) for c in naturals]
            + [decimal_string(c) for c in cells + naturals]
        )
    header = ["label", "p0", "p1", "lr", "rank", "md_natural", "t_natural",
              "p0_dec", "p1_dec", "lr_dec", "md_natural_dec", "t_natural_dec"]
    _write_table(Path(args.out), header, _csv_lines(rows), {
        "command": "table1",
        "model": "example1",
        "ranking": "table-1 head, label order after",
        "rows": model.size,
    })
    return 0


def cmd_cdf(args: argparse.Namespace) -> int:
    model, model_id, statistic = _model_and_statistic(args)
    theta = args.theta or model.parameter_names[0]
    family = pvalue_family(model, build_agreeing_ranking(model, statistic) if args.family == "md" else statistic)
    # Each column is int numerators over one denominator.  Under the null, class k starts at before[k]
    # with mass mass[k], over D_null; P(X, u) puts the class's theta mass at start + u * mass.
    den, mass, before = family.lattice(model.null)
    theta_den, _theta_mass, cum = family.lattice(theta)
    if args.uniform:
        columns = (before, den), (before, den)
    elif args.u == "rand":
        # Pr{P(X, U) <= t} is linear between its kinks, the class starts and 1; at start k it is the
        # theta mass of the classes before k
        columns = (before, den), (cum, theta_den)
    elif args.u == "natural":
        columns = (before[1:], den), (cum[1:], theta_den)
    else:
        columns = ([2 * s + m for s, m in zip(before, mass)], 2 * den), (cum[1:], theta_den)
    (t_num, t_den), (f_num, f_den) = columns
    # Every field is digits, "/", "." and "-", which csv would not quote, so each row is joined directly.
    rows = [f"{t},{value},{decimal_ratio(a, t_den)},{decimal_ratio(b, f_den)}\n"
            for t, value, a, b in zip(format_ratios(t_num, t_den), format_ratios(f_num, f_den), t_num, f_num)]
    _write_table(Path(args.out), ["t", "F", "t_dec", "F_dec"], rows, {
        "command": "cdf",
        "model": model_id,
        "family": args.family,
        "theta": theta,
        "u": args.u,
        "uniform_reference": bool(args.uniform),
        "rows": len(rows),
    })
    return 0


def reports_to_json(reports: Sequence[OrderReport]) -> Iterator[str]:
    """``orders.reports_to_json``, read from ``orders`` at each call; ``cmd_verify`` writes what this name yields."""
    from . import orders

    return orders.reports_to_json(reports)


def cmd_verify(args: argparse.Namespace) -> int:
    from .orders import reports_to_text, verify_all_claims

    model, model_id, statistic = _model_and_statistic(args)
    ranking = _load_ranking(model, args.ranking_file) if args.ranking_file else build_agreeing_ranking(model, statistic)
    if args.thetas is None:
        thetas = list(model.parameter_names)
    else:
        thetas = [t for t in args.thetas.split(",") if t]
    reports = verify_all_claims(model, statistic, ranking, thetas)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "reports.json", "w", encoding="utf-8") as fh:
        fh.writelines(reports_to_json(reports))
    text = reports_to_text(reports)
    (out / "reports.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    _write_manifest(out / "manifest.json", {
        "command": "verify",
        "model": model_id,
        "thetas": thetas,
        "ranking_file": bool(args.ranking_file),
        "claims": [r.claim for r in reports],
        "outputs": ["reports.json", "reports.txt"],
        "seed": None,
    })
    return 0 if all(r.verdict != "fail" for r in reports) else 1


def _read_config(spec: str) -> tuple[dict, str]:
    import hashlib
    from importlib import resources

    source: Path | resources.abc.Traversable = Path(spec)
    if not source.exists():
        source = resources.files("mdpvalues") / "configs" / f"{spec}.json"
        if not source.is_file():
            raise CliError(f"config {spec!r} is neither a file nor a bundled config")
    data, raw = _read_json(source, "config")
    if not isinstance(data, dict):
        raise CliError("config must be a JSON object")
    return data, hashlib.sha256(raw.encode()).hexdigest()


def cmd_simulate(args: argparse.Namespace) -> int:
    from .downstream import RNG_IDENTITY, ConfigError, config_from_dict, report_to_json, simulate

    data, digest = _read_config(args.config)
    if args.seed is not None:
        data["seed"] = args.seed
    if args.alpha is not None:
        data["alpha"] = args.alpha
    if "model" not in data:
        raise ConfigError("config is missing field 'model'")
    model, model_id = resolve_model(str(data["model"]))
    config = config_from_dict(data, model, model_id)
    report = simulate(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report_to_json(report), encoding="utf-8")
    header = ["procedure", "family", "u_policy", "alpha", "fdr", "fdr_mcse", "power", "dep_rate"]
    _write_table(out / "summary.csv", header, _csv_lines([report.summary_row()]))
    _write_manifest(out / "manifest.json", {
        "command": "simulate",
        "config_sha256": digest,
        "config": report.config,
        "rng": RNG_IDENTITY,
        "seed": config.seed,
        "outputs": ["report.json", "summary.csv"],
    })
    return 0


def cmd_pvalues(args: argparse.Namespace) -> int:
    """Per-point table in rank order; rationals are "num/den", then natural and mid again as decimals."""
    model, model_id, statistic = _model_and_statistic(args)
    ranking = build_agreeing_ranking(model, statistic)
    family = pvalue_family(model, ranking if args.family == "md" else statistic)
    # Per class: a, b and natural are ints over D_null, mid over 2 * D_null; these, their decimals and the
    # statistic print once.  Class k's natural is class k + 1's a, so each class start is formatted once.
    den, mass, before = family.lattice(model.null)
    mids = [2 * s + m for s, m in zip(before, mass)]
    starts = format_ratios(before, den)
    columns = (starts[:-1], format_ratios(mass, den), starts[1:], format_ratios(mids, 2 * den),
               [decimal_ratio(n, den) for n in before[1:]], [decimal_ratio(n, 2 * den) for n in mids])
    texts = [",".join(row) for row in zip(*columns)]
    keys = statistic._key_texts()
    # Only a label can need quoting: csv writes each as the first of two fields, ending in ",\n".
    labels = _csv_lines((pt.label, "") for pt in model.support)
    rows = [f"{labels[i][:-1]}{rank},{keys[statistic.class_of[i]]},{texts[family.class_of[i]]}\n"
            for rank, i in enumerate(ranking.order(), start=1)]
    header = ["label", "rank", "statistic", "a", "b", "natural", "mid", "natural_dec", "mid_dec"]
    _write_table(Path(args.out), header, rows, {
        "command": "pvalues",
        "model": model_id,
        "family": args.family,
        "rows": model.size,
    })
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``mdpv`` parser, built once per process and shared, so left unchanged; ``main`` runs ``cmd_<command>``."""
    parser = argparse.ArgumentParser(
        prog="mdpv",
        description="Exact discrete p-value constructions, ordering verification, and downstream simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="emit the worked five-coin table as CSV")
    p.add_argument("--out", required=True)

    p = sub.add_parser("cdf", help="emit p-value CDF step data as CSV")
    p.add_argument("--model", required=True, help="builtin name, binomial:n,t0,t1, or JSON path")
    p.add_argument("--family", choices=("t", "md"), default="t")
    p.add_argument("--theta", default=None, help="parameter name (default: the null)")
    p.add_argument("--u", choices=("natural", "mid", "rand"), default="natural")
    p.add_argument("--uniform", action="store_true", help="emit the exact diagonal reference instead")
    p.add_argument("--alt", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run the C1-C9 claim suite")
    p.add_argument("--model", required=True)
    p.add_argument("--thetas", default=None, help="comma-separated parameter grid (default: all)")
    p.add_argument("--ranking-file", default=None, help="JSON array of labels, rank 1 first")
    p.add_argument("--alt", default=None)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="run a seeded Monte Carlo study from a JSON config")
    p.add_argument("--config", required=True, help="config path or bundled config name")
    p.add_argument("--seed", default=None, help="override the config seed (an integer, read as the config's)")
    p.add_argument("--alpha", default=None, help="override the config alpha (num/den)")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("pvalues", help="emit the per-point p-value table as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--family", choices=("t", "md"), default="md")
    p.add_argument("--alt", default=None)
    p.add_argument("--out", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Exact rationals outgrow CPython's 4,300-digit int/str conversion limit (binomial n ~ 6,150
    # for 5^n); every such conversion here is our own output or a model file the user chose.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    # Looked up at each call, so a handler patched on this module is the one that runs.
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
