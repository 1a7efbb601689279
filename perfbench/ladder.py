#!/usr/bin/env python3
"""Informational scaling ladder: single runs, not compared between commits.

Reproduces the ROADMAP baseline points with their per-layer split:
``color_rc2`` on rand(100), rand(400), rand(1500), K40, K80 and W40, where
rand(n) is ``random_two_connected(n, n // 3, seed=1)``.  Each point is timed
once untraced and once traced.  A verify ladder then checks constructed
colorings of ``random_two_connected(n, n // 3, seed=3)`` with the size guard
lifted, over growing n, and stops at the first size that exceeds the time
cap (``CAP_S``); it records the largest size verified.

Usage (from the repository root):

    python3 perfbench/ladder.py [--out .perfbench_out/ladder.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402

COLOR_LAYERS = ("minimalize", "ears", "menger", "coloring", "graphs.is_two_connected", "graphs.adjacency")
VERIFY_SIZES = (24, 32, 40, 48, 56, 64, 72, 80, 88, 96)
# The verify ladder stops at the first size that takes longer than this.
CAP_S = 60.0


class _OverCap(Exception):
    pass


def _raise_over_cap(signum, frame):
    raise _OverCap


def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def color_point(name: str, g) -> dict:
    from rc2 import coloring

    start = time.perf_counter()
    result = coloring.color_rc2(g)
    wall = time.perf_counter() - start

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        coloring.color_rc2(g)
    finally:
        uninstall()
    return {
        "case": name,
        "n": g.vertex_count,
        "m": g.edge_count,
        "strategy": result.strategy,
        "wall_s": wall,
        "traced_wall_s": tracer.total_s["coloring"],
        "self_s": {layer: tracer.self_s[layer] for layer in COLOR_LAYERS},
        "fan_calls": tracer.calls["menger"],
        "connectivity_tests": tracer.counters["minimalize.connectivity_tests"],
    }


def verify_point(n: int) -> dict:
    from rc2.coloring import color_rc2
    from rc2.generators import random_two_connected
    from rc2.reports import SizeGuard
    from rc2.verify import is_rainbow_two_connected

    g = random_two_connected(n, n // 3, 3)
    coloring = color_rc2(g).coloring
    guard = SizeGuard(g.vertex_count, g.edge_count)
    previous = signal.signal(signal.SIGALRM, _raise_over_cap)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, CAP_S)
    try:
        report = is_rainbow_two_connected(g, coloring, guard)
    except _OverCap:
        return {"n": n, "m": g.edge_count, "finished": False, "wall_s": time.perf_counter() - start}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return {
        "n": n,
        "m": g.edge_count,
        "finished": True,
        "passed": report.passed,
        "wall_s": time.perf_counter() - start,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_out" / "ladder.json")
    args = parser.parse_args(argv)

    from rc2.generators import complete_graph, random_two_connected, wheel_graph

    cases = [(f"rand({n})", random_two_connected(n, n // 3, 1)) for n in (100, 400, 1500)]
    cases += [("K40", complete_graph(40)), ("K80", complete_graph(80)), ("W40", wheel_graph(40))]
    colors = []
    for name, g in cases:
        point = color_point(name, g)
        colors.append(point)
        split = "  ".join(f"{k} {v:.3f}" for k, v in point["self_s"].items())
        print(f"color {name:<10} n={point['n']:<5} m={point['m']:<5} {point['wall_s']:.3f} s"
              f"  traced {point['traced_wall_s']:.3f} s  self: {split}"
              f"  fans {point['fan_calls']}  tests {point['connectivity_tests']}", flush=True)

    verifies = []
    for n in VERIFY_SIZES:
        point = verify_point(n)
        verifies.append(point)
        state = ("pass" if point["passed"] else "FAIL") if point["finished"] else "over cap"
        print(f"verify rand({n}) m={point['m']}: {state} after {point['wall_s']:.3f} s", flush=True)
        if not point["finished"]:
            break
    largest = max((p["n"] for p in verifies if p["finished"]), default=None)
    print(f"largest size verified within {CAP_S:g} s: {largest}")

    doc = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "git_sha": _git_sha(),
        "cap_seconds": CAP_S,
        "color": colors,
        "verify": verifies,
        "largest_verified_n": largest,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
