"""Benchmark of nmgeo's README recipes: one workload per run.

    python3 bench/run.py --workload phase_diagram --seed 1 --seconds 35 --trace 0

Drives the library in this process with src/ on sys.path (the package is
not installed).  A run measures the set-up time in fresh interpreters,
warms up, then repeats whole cycles until --seconds would be exceeded, checks
the outputs against computations made apart from nmgeo (checks.py), and
prints as its last line one JSON object: correct, attempted, failed and
metrics.

A cycle is one round of the workload's own operations followed by one small
round of each other workload's operations.  The result line carries every
end-to-end metric on every workload; interleaving the small rounds with the
workload's own rounds makes both see the same swings in machine speed.
attempted and failed count the workload's own operations only.

--trace 0 reports the end-to-end metrics.  --trace 1 first times untraced
rounds of the workload for a quarter of the budget (at least one), then
traces the remaining cycles and a probe of the single-trajectory QSD
functions, and reports the per-layer metrics, the work counts and the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_RUNS = 3
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy, scipy
import nmgeo, nmgeo.cli
sol = nmgeo.solve_g(nmgeo.ModelParams(kappa=0.43, gamma_w=0.9))
sol.eval(numpy.linspace(0.0, 20.0, 2001))
print(repr(time.perf_counter() - t0))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "sweep_cells_per_s": "cells/s",
    "boundary_points_per_s": "points/s",
    "qsd_traj_steps_per_s": "traj-steps/s",
    "series_rows_per_s": "rows/s",
}


def measure_setup() -> float:
    """Median over fresh interpreters of importing nmgeo, numpy, scipy plus a first solve_g/eval."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], capture_output=True,
                              text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Cycles:
    """Rounds of the main workload and of the side workloads, collected cycle by cycle."""

    def __init__(self, main, sides: list):
        self.main = main
        self.sides = sides
        self.rounds: list = []
        self.side_rounds: dict = {wl.name: [] for wl in sides}
        self.windows: list = []  # (start, end) of each main round

    def run(self, seconds: float) -> None:
        """Whole cycles while the next one is expected to end within `seconds`."""
        t_start = time.perf_counter()
        while True:
            tag = "later" if self.rounds else "first"
            c0 = time.perf_counter()
            self.rounds.append(self.main.round(tag))
            self.windows.append((c0, time.perf_counter()))
            for wl in self.sides:
                self.side_rounds[wl.name].append(
                    wl.round("later" if self.side_rounds[wl.name] else "first"))
            c1 = time.perf_counter()
            if (c1 - t_start) + (c1 - c0) > seconds:
                return

    def side_rates(self) -> dict:
        return {m: statistics.median(r.rates[m] for r in self.side_rounds[wl.name])
                for wl in self.sides for m in wl.rate_metrics}

    def assess(self) -> tuple[list[str], int]:
        """Output errors of all rounds, and the main workload's failed operations."""
        errors, failed = assess_rounds(self.main, self.rounds)
        for wl in self.sides:
            side_errors, side_failed = assess_rounds(wl, self.side_rounds[wl.name])
            errors += side_errors
            if side_failed:
                errors.append(f"side rounds of {wl.name}: {side_failed} operations failed")
        return errors, failed


def assess_rounds(wl, rounds: list) -> tuple[list[str], int]:
    """Checks of the first round, exact repeats of it, and failed operations in total."""
    if not rounds:
        return [], 0
    errors, failed = wl.assess(rounds[0])
    for i, rnd in enumerate(rounds[1:], start=2):
        if not wl.same(rounds[0], rnd):
            errors.append(f"{wl.name}: round {i} did not repeat round 1's outputs")
    return errors, failed * len(rounds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nmgeo", "__init__.py")):
        print(f"bench: no nmgeo package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import nmgeo
    import nmgeo.cli
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = os.path.join(OUT, "scratch", f"{args.workload}-{os.getpid()}")
    os.makedirs(os.path.join(scratch, "side"), exist_ok=True)
    try:
        return measured_run(args, nmgeo, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measured_run(args, nmgeo, scratch: str) -> int:
    """Set-up, warm-up, timed (or traced) cycles, checks and the result line."""
    from workloads import WORKLOADS

    setup_s = measure_setup()
    cls = WORKLOADS[args.workload]
    cls(nmgeo, args.seed, "tiny", scratch).round("warmup")
    wl = cls(nmgeo, args.seed, "full", scratch)
    sides = [c(nmgeo, 0, "side", os.path.join(scratch, "side"))
             for name, c in WORKLOADS.items() if name != args.workload]
    cycles = Cycles(wl, sides)

    if args.trace:
        metrics = traced_run(nmgeo, args, cycles)
    else:
        cycles.run(args.seconds)
        values = {
            "setup_s": setup_s,
            "cpu_s": statistics.median(r.cpu for r in cycles.rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **{m: statistics.median(r.rates[m] for r in cycles.rounds)
               for m in cls.rate_metrics},
            **cycles.side_rates(),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    errors, failed = cycles.assess()
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in cycles.rounds),
        "failed": failed,
        "metrics": metrics,
    }
    report(args, cycles, errors, result)
    print(json.dumps(result))
    return 0


def traced_run(nmgeo, args, cycles: Cycles) -> dict:
    """Untraced rounds of the workload for a quarter of the budget (at least one), then
    traced cycles and the QSD probe; per-layer metrics."""
    import layers
    from tracing import Tracer
    from workloads import QsdEnsemble

    t_start = time.perf_counter()
    untraced: list = []
    while not untraced or (time.perf_counter() - t_start + untraced[-1].wall
                           <= 0.25 * args.seconds):
        untraced.append(cycles.main.round("later" if untraced else "first"))
    cycles.rounds.extend(untraced)
    tracer = Tracer()
    tracer.install(nmgeo)
    try:
        cycles.run(args.seconds - (time.perf_counter() - t_start))
        QsdEnsemble(nmgeo, args.seed, "side", "").probe_layers()
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    os.makedirs(OUT, exist_ok=True)
    spans.save(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.npz"))
    traced = [r.wall for r in cycles.rounds[len(untraced):]]
    overhead = 100.0 * (statistics.median(traced)
                        / statistics.median(r.wall for r in untraced) - 1.0)
    return layers.per_layer_metrics(spans, cycles.windows, overhead)


def report(args, cycles: Cycles, errors, result) -> None:
    """Human-readable summary on stdout, and the result and inputs in .bench_out/."""
    wl = cycles.main
    print(f"workload {wl.name}  seed {args.seed}  rounds {len(cycles.rounds)}  "
          f"inputs {json.dumps(wl.describe())}")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"args": vars(args), "inputs": wl.describe(), "errors": errors,
                   "round_walls": [r.wall for r in cycles.rounds],
                   "side_round_walls": {k: [r.wall for r in v]
                                        for k, v in cycles.side_rounds.items()},
                   **result}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
