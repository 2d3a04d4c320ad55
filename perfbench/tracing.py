"""Outside-in layer spans for the mdpvalues benchmark.

The tracer replaces the public functions of the library's layer modules by
wrappers that record a span (name, start, end, parent, op id) in memory.
Each function is replaced under every name a caller looks it up by: a
function imported with ``from .testing import size_alpha_test`` is also
replaced in ``mdpvalues.orders``.  Nothing under ``src/`` is edited.

Run as a script, this module traces one CLI invocation in a child process:

    python perfbench/tracing.py SPANS.jsonl verify --model example1 --out out/

It installs the wrappers, calls ``mdpvalues.cli.main`` with the remaining
arguments, writes the spans as JSON lines and exits with main's status.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("model", "ranking", "testing", "orders", "downstream", "special", "cli")

# Methods named by the layer metrics.  Per-element methods such as
# StepCDF.evaluate, PValueFamily.mid or TestFunction.zone stay unwrapped:
# a wrapper costs more than the work it would time.
METHODS = {"model": ("DiscreteModel.event_prob",)}

# Called once per solver iteration: counted, not timed.
COUNT_ONLY = {"special.chi2_survival", "special.regularized_gamma_p", "special.regularized_gamma_q"}


class Tracer:
    """Records spans while installed; ``uninstall`` restores every patched name."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every public layer function under each name that refers to it."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"mdpvalues.{layer}")
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                make = self._count_wrapper if name in COUNT_ONLY else self._span_wrapper
                wrappers[id(value)] = (value, make(name, value))
            for qualname in METHODS.get(layer, ()):
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._span_wrapper(f"{layer}.{method}", original))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "mdpvalues" or mod_name.startswith("mdpvalues.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def adopt(self, path: Path, parent: int) -> None:
        """Append the spans and counts a child process wrote, under span ``parent``.

        Both processes read the same monotonic clock, so child times need no shift.
        """
        base = len(self.spans)
        for line in path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if "count" in rec:
                self.counts[rec["count"]] += rec["n"]
                continue
            up = rec["parent"]
            self.spans.append([rec["name"], rec["start"], rec["end"], parent if up < 0 else base + up, self.op_id])

    def write_jsonl(self, path: Path, origin: float = 0.0) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin, "end": end - origin,
                                     "parent": parent, "op": op}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_name, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans: list[list], counts: Counter[str]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += span[2] - span[1]
        row["self_s"] += own
    for name, n in counts.items():
        table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})["calls"] += n
    return table


def _child_main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    import mdpvalues.cli

    tracer = Tracer()
    tracer.install()
    try:
        status = mdpvalues.cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.write_jsonl(spans_path)
        with open(spans_path, "a", encoding="utf-8") as fh:
            for name, n in sorted(tracer.counts.items()):
                fh.write(json.dumps({"count": name, "n": n}) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
