"""Host-speed calibration for the benchmark's timings.

The shared host's speed swings by up to 2x over periods of about ten
seconds, for the benchmark and for any fixed load alike.  Every timing the
end-to-end metrics report is therefore scaled by REF_S / (time of a fixed
calibration load measured next to it, where the ops run): in process for
in-process ops, and in a fresh interpreter for workloads whose ops are child
processes.  The load sorts, indexes and sums exact Fractions, as the ops do,
and uses nothing from the package under test.

Run as a script, this module runs the load once.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# Median calibration times on the box the bounds were set on (see README.md).
REF_S = {"process": 0.032, "child": 0.175}
EVERY_S = 1.0  # calibrate before an op once this much time has passed
WINDOW_S = 2.5  # an op is scaled by the median calibration within this distance of it


def load() -> Fraction:
    rng = random.Random(20261017)
    values = [Fraction(rng.randrange(1, 10**12), rng.randrange(1, 10**12)) for _ in range(1200)]
    rank = {x: i for i, x in enumerate(sorted(values))}
    total = Fraction(0)
    for x in values[:400]:
        total += x * rank[x]
    return total


def measure(where: str) -> float:
    """Seconds the load takes now: in this process, or in a fresh interpreter."""
    t0 = time.perf_counter()
    if where == "process":
        load()
    else:
        subprocess.run([sys.executable, str(Path(__file__).resolve())], check=True, timeout=60)
    return time.perf_counter() - t0


def scale(seconds: float, calibration_s: float, where: str) -> float:
    """Wall seconds converted to reference-speed seconds."""
    return seconds * REF_S[where] / calibration_s


def scale_spans(spans: list[tuple[float, float]], marks: list[tuple[float, float]], where: str) -> list[float]:
    """Scale each (start, end) span by the median calibration (time, seconds) near it.

    The window is long enough to damp the calibration's own noise and short
    enough to follow the host's swings.
    """
    out = []
    for t0, t1 in spans:
        near = [c for t, c in marks if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        out.append(scale(t1 - t0, statistics.median(near), where))
    return out


if __name__ == "__main__":
    load()
