#!/usr/bin/env python3
"""rc2 benchmark: one workload per process, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload color-sparse --seed 1 --seconds 25 --trace 0

Each job starts when the previous one ends, as a script driving ``rc2``
would.  A pass runs the workload's job list once; passes repeat until the
next one would overrun ``--seconds``.  Every job's output is checked against
a known answer after its pass.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics with no tracing installed.
``--trace 1`` spends half of ``--seconds`` untraced and half with rc2's
layer functions wrapped (see ``tracer.py``), and reports the per-layer
metrics per pass, the tracing overhead and the verify verdict latencies.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5

# Between jobs, a host-speed slice is timed whenever this much time has
# passed since the last one (see hostspeed.py).
SLICE_EVERY_S = 0.05

sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _purge_rc2() -> None:
    for name in [m for m in sys.modules if m == "rc2" or m.startswith("rc2.")]:
        del sys.modules[name]


def set_up(name: str, seed: int, work: Path, reps: int, speed: hostspeed.HostSpeed):
    """Build the workload ``reps`` times from a fresh import of rc2; return
    the last build and the median set-up time, raw and scaled."""
    raw, scaled = [], []
    for _ in range(reps):
        _purge_rc2()
        gc.collect()
        before = speed.slice()
        start = time.perf_counter()
        wl = workloads.build(name, seed, work)
        seconds = time.perf_counter() - start
        after = speed.slice()
        raw.append(seconds)
        scaled.append(seconds * hostspeed.factor([before, after]))
    return wl, statistics.median(raw), statistics.median(scaled)


class Passes:
    """Timed passes over a job list, with their known-answer checks.

    A pass's wall time is the sum of its job latencies (the calibration
    slices between jobs are not in it).  Each job's time is scaled by the
    host-speed factor of the two slices around it; ``scaled_*`` hold the
    scaled times.
    """

    def __init__(self, speed: hostspeed.HostSpeed):
        self.speed = speed
        self.walls: list[float] = []
        self.scaled_walls: list[float] = []
        self.scaled_job_s: list[float] = []
        self.scaled_verdict_s: dict[str, list[float]] = {"pass": [], "fail": []}
        self.attempted = 0
        self.failures: list[str] = []

    def _pass(self, wl, tracer) -> tuple[list, list[float]]:
        """Run the job list once; return the outcomes and each job's factor."""
        slices = [self.speed.slice()]
        last = time.perf_counter()
        outcomes, before = [], []
        for job in wl.jobs:
            before.append(len(slices) - 1)
            if tracer is None:
                outcomes.append(job.run())
            else:
                tracer.enter("job")
                try:
                    outcomes.append(job.run())
                finally:
                    tracer.exit()
            if time.perf_counter() - last >= SLICE_EVERY_S:
                slices.append(self.speed.slice())
                last = time.perf_counter()
        slices.append(self.speed.slice())
        return outcomes, [hostspeed.factor(slices[i:i + 2]) for i in before]

    def run(self, wl, budget_s: float, tracer=None) -> None:
        start = time.perf_counter()
        while True:
            gc.collect()
            t0 = time.perf_counter()
            outcomes, factors = self._pass(wl, tracer)
            elapsed = time.perf_counter() - t0
            scaled = [o.seconds * f for o, f in zip(outcomes, factors)]
            self.walls.append(sum(o.seconds for o in outcomes))
            self.scaled_walls.append(sum(scaled))
            self.scaled_job_s += scaled
            for job, outcome, seconds in zip(wl.jobs, outcomes, scaled):
                self.attempted += 1
                if job.verdict is not None:
                    self.scaled_verdict_s[job.verdict].append(seconds)
                reason = job.failure(outcome)
                if reason is not None:
                    self.failures.append(f"{job.name}: {reason}")
            if time.perf_counter() - start + elapsed > budget_s:
                return


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def _report(lines: list[str], result: dict) -> None:
    for line in lines:
        print(line)
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "rc2" / "__init__.py").is_file():
        print(f"error: no rc2 sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        if args.trace:
            return _traced(args, work)
        return _untraced(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it


def _header(args, wl, passes: Passes) -> list[str]:
    return [
        f"workload {args.workload}  seed {args.seed}  input_digest {wl.digest}",
        f"passes {len(passes.walls)}  jobs/pass {len(wl.jobs)}  jobs {passes.attempted}"
        f"  failed {len(passes.failures)}  fail_frac {len(passes.failures) / passes.attempted:.4f} ratio",
        f"raw wall_s {statistics.median(passes.walls):.6g} s"
        f"  host-speed factor {statistics.median(passes.scaled_walls) / statistics.median(passes.walls):.4f}",
        *(f"  FAILED {f}" for f in passes.failures[:10]),
    ]


def _untraced(args, work: Path) -> int:
    speed = hostspeed.HostSpeed()
    wl, setup_raw, setup_s = set_up(args.workload, args.seed, work, SETUP_REPS, speed)
    passes = Passes(speed)
    passes.run(wl, args.seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(passes.scaled_walls), "s"),
        "job_s.p50": (statistics.median(passes.scaled_job_s), "s"),
        "job_s.p90": (_p90(passes.scaled_job_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = _header(args, wl, passes) + [f"raw setup_s {setup_raw:.6g} s"]
    if passes.attempted < 100:
        lines.append(f"  warning: {passes.attempted} job samples, p90 has fewer than 10 beyond it")
    lines += [f"  {k:<12} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    _report(lines, {
        "correct": not passes.failures,
        "attempted": passes.attempted,
        "failed": len(passes.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    return 0


def _traced(args, work: Path) -> int:
    speed = hostspeed.HostSpeed()
    wl, _, _ = set_up(args.workload, args.seed, work, 1, speed)
    plain = Passes(speed)
    plain.run(wl, args.seconds / 2)

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    traced = Passes(speed)
    try:
        traced.run(wl, args.seconds / 2, tracer)
    finally:
        uninstall()
    try:
        tracing.check_coverage(tracer, args.workload)
    except tracing.LayerCoverageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = tracing.layer_metrics(tracer, len(traced.walls))
    overhead = statistics.median(traced.scaled_walls) - statistics.median(plain.scaled_walls)
    metrics["trace.overhead_s"] = (overhead, "s")
    for verdict in ("pass", "fail"):
        times = plain.scaled_verdict_s[verdict]
        metrics[f"verdict_s.{verdict}.p50"] = (statistics.median(times) if times else 0.0, "s")

    spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json.gz"
    tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                              "input_digest": wl.digest, "passes": len(traced.walls)})
    failures = plain.failures + traced.failures
    lines = _header(args, wl, traced) + [f"  spans {len(tracer.spans)} written to {spans_path}"]
    lines += [f"  {k:<32} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    _report(lines, {
        "correct": not failures,
        "attempted": plain.attempted + traced.attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
