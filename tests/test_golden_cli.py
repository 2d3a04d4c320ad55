"""Byte identity of the exact CLI outputs across commits, by sha256.

``golden_cli.sha256.json`` maps "<case>/<file>" to the sha256 of every file
that each case below writes, manifests included.  A change that means to
alter these bytes has to regenerate the map and say so:

    PYTHONPATH=src python tests/test_golden_cli.py --write

``--check`` compares instead, with the stdlib alone (no pytest), so any
interpreter can run it: it lists each key that changed, appeared or went
missing, and exits 1 if there is one.

``simulate`` is left out on purpose: its floats depend on the numpy build.
TestDeterminism in test_cli.py reruns it within one checkout instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from mdpvalues.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.sha256.json")


def _cases() -> dict[str, list[str]]:
    """Case name -> CLI arguments; "{out}" is replaced by the case's output path."""
    cases = {"table1": ["table1", "--out", "{out}/table1.csv"]}
    for model in ("binomial:50,1/2,3/5", "example1"):
        for family in ("t", "md"):
            cases[f"pvalues {model} {family}"] = [
                "pvalues", "--model", model, "--family", family, "--out", "{out}/pvalues.csv"]
    for family in ("t", "md"):
        for u in ("natural", "mid", "rand"):
            for theta in ("theta0", "theta1"):
                cases[f"cdf example1 {family} {u} {theta}"] = [
                    "cdf", "--model", "example1", "--family", family, "--u", u,
                    "--theta", theta, "--out", "{out}/cdf.csv"]
        cases[f"cdf example1 {family} uniform"] = [
            "cdf", "--model", "example1", "--family", family, "--uniform", "--out", "{out}/cdf.csv"]
    cases["verify example1"] = ["verify", "--model", "example1", "--out", "{out}"]
    cases["verify binomial:200,1/2,3/5"] = ["verify", "--model", "binomial:200,1/2,3/5", "--out", "{out}"]
    return cases


def digests(root: Path) -> dict[str, str]:
    """Run every case into its own directory under ``root``; hash each file it wrote."""
    out = {}
    for index, (name, args) in enumerate(_cases().items()):
        directory = root / f"case{index:02d}"
        directory.mkdir()
        with contextlib.redirect_stdout(io.StringIO()):  # verify echoes its report table
            status = main([arg.replace("{out}", str(directory)) for arg in args])
        assert status == 0, f"{name}: exit status {status}"
        for path in sorted(directory.iterdir()):
            out[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def changed_keys(actual: dict[str, str]) -> list[str]:
    """The sorted keys whose digest differs from the golden map's, or that only one of the two holds."""
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return sorted(key for key in expected.keys() | actual.keys() if expected.get(key) != actual.get(key))


def test_cli_outputs_match_golden_digests(tmp_path):
    changed = changed_keys(digests(tmp_path))
    assert not changed, f"outputs differ from the golden map: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] not in (["--write"], ["--check"]):
        sys.exit("usage: python tests/test_golden_cli.py --write | --check")
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(Path(tmp))
    if sys.argv[1] == "--check":
        changed = changed_keys(table)
        print("".join(f"changed: {key}\n" for key in changed), end="")
        matched = len(table.keys() - set(changed))
        print(f"{matched} of {len(table)} digests match ({sys.version.split()[0]})", file=sys.stderr)
        sys.exit(1 if changed else 0)
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
