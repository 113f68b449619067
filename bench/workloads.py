"""The three workloads: the phase-diagram, QSD and time-series recipes.

Each workload runs in whole rounds of the same operations.  A round
returns its wall and CPU time, the rate metrics of its work, the number of
operations attempted, and its outputs; assess() checks one round's outputs
against checks.py and counts its failed operations, and same() tells
whether a later round repeated them exactly.

Sizes: "full" is the workload the benchmark times; "side" is a small fixed
version that runs once per cycle of every other workload, whose result
line carries every end-to-end metric; "tiny" is for the warm-up and the
quick check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time

import numpy as np

import checks

REFERENCE = (0.9, 0.43)          # README reference point (gamma_w, kappa)
THETA = 0.7853981633974483       # README theta = pi/4


def _seeded(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def _range(start: float, step: float, count: int) -> str:
    start, step = float(start), float(step)
    return f"{start!r}:{start + step * (count - 1)!r}:{step!r}"


class Round:
    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.rates: dict[str, float] = {}
        self.attempted = 0
        self.outputs: dict = {}


class _Timer:
    """Wall and process-CPU time of the enclosed block, added to a Round."""

    def __init__(self, rnd: Round):
        self.rnd = rnd

    def __enter__(self):
        self.w0, self.c0 = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.w0
        self.rnd.wall += self.wall
        self.rnd.cpu += time.process_time() - self.c0
        return False


# ---------------------------------------------------------------------------
# phase_diagram
# ---------------------------------------------------------------------------

class PhaseDiagram:
    """Sub-grid of the README sweep box at t_max=200, then the boundaries recipe.

    full: every 15th README gamma_w node and every 12th kappa node (10 x 10
    cells, 0.3 and 0.06 apart), the whole sub-grid shifted by a seeded
    fraction of one README step, so every seed crosses all three regions
    and both analytic curves in the same proportions; then the README
    boundaries recipe 0.05:3.0:0.05.
    """

    name = "phase_diagram"
    rate_metrics = ("sweep_cells_per_s", "boundary_points_per_s")
    T_MAX = 200.0
    DT = 0.01

    def __init__(self, nmgeo, seed: int, size: str, scratch: str):
        self.cli = nmgeo.cli
        self.scratch = scratch
        rng = _seeded(seed, 1)
        if size == "full":
            ug, uk = (float(x) for x in rng.random(2))
            self.gamma = (round(0.02 + 0.02 * ug, 6), 0.3, 10)
            self.kappa = (round(0.005 + 0.005 * uk, 6), 0.06, 10)
            self.boundaries = "0.05:3.0:0.05"
        elif size == "side":
            self.gamma = (0.3, 0.8, 4)
            self.kappa = (0.05, 0.18, 4)
            self.boundaries = "0.5:1.5:0.1"
        else:
            self.gamma = (0.3, 2.2, 2)
            self.kappa = (0.05, 0.36, 2)
            self.boundaries = "0.05:2.45:0.8"
        self.n_cells = self.gamma[2] * self.kappa[2]
        a, b, s = (float(x) for x in self.boundaries.split(":"))
        self.n_rows = int(math.floor((b - a) / s + 0.5)) + 1  # as the CLI counts a range
        self.seed = seed

    def describe(self) -> dict:
        return {"gamma_w_range": _range(*self.gamma), "kappa_range": _range(*self.kappa),
                "cells": self.n_cells, "t_max": self.T_MAX,
                "boundaries_range": self.boundaries, "boundary_rows": self.n_rows}

    def round(self, tag: str) -> Round:
        rnd = Round()
        sweep_out = os.path.join(self.scratch, f"{tag}-sweep.csv")
        bnd_out = os.path.join(self.scratch, f"{tag}-boundaries.csv")
        with _Timer(rnd) as t_sweep:
            rc_sweep = self.cli.run([
                "sweep", "--gamma-w-range", _range(*self.gamma),
                "--kappa-range", _range(*self.kappa),
                "--t-max", repr(self.T_MAX), "--out", sweep_out,
            ])
        with _Timer(rnd) as t_bnd:
            rc_bnd = self.cli.run(["boundaries", "--gamma-w-range", self.boundaries,
                                   "--out", bnd_out])
        rnd.rates = {"sweep_cells_per_s": self.n_cells / t_sweep.wall,
                     "boundary_points_per_s": self.n_rows / t_bnd.wall}
        rnd.attempted = self.n_cells + self.n_rows
        rnd.outputs = {"sweep": sweep_out, "boundaries": bnd_out,
                       "codes": (rc_sweep, rc_bnd)}
        return rnd

    def same(self, first: Round, later: Round) -> bool:
        return all(_digest(first.outputs[k]) == _digest(later.outputs[k])
                   for k in ("sweep", "boundaries"))

    def parse(self, rnd: Round):
        """(boundaries header, cells, boundary rows) read back from the CSV outputs."""
        with open(rnd.outputs["sweep"]) as fh:
            lines = fh.read().split("\n")
        cells = []
        for ln in lines[1:]:
            if not ln:
                continue
            f = ln.split(",")
            cells.append({"gamma_w": float(f[0]), "kappa": float(f[1]), "region": f[2],
                          "t_first": float(f[3]) if f[3] else None,
                          "n_total": float(f[4]) if f[4] else math.nan})
        with open(rnd.outputs["boundaries"]) as fh:
            lines = fh.read().split("\n")
        rows = []
        for ln in lines[1:]:
            if not ln:
                continue
            f = [float(x) if x else None for x in ln.split(",")]
            rows.append({"gamma_w": f[0], "green": f[1], "blue": f[2], "tangency": f[3]})
        return lines[0], cells, rows

    def assess(self, rnd: Round) -> tuple[list[str], int]:
        """(errors, failed operations) of one round's outputs."""
        return self.check(*self.parse(rnd), rnd.outputs["codes"])

    def check(self, header, cells, rows, codes=(0, 0)) -> tuple[list[str], int]:
        errors, failed = [], 0
        if codes[0]:
            failed += self.n_cells
        else:
            if len(cells) != self.n_cells:
                errors.append(f"phase_diagram: {len(cells)} cells, expected {self.n_cells}")
            failed += sum(c["region"] == "ERR" for c in cells)
            good = [c for c in cells if c["region"] != "ERR"]
            div = [i for i, c in enumerate(good) if c["region"] == "NM_DIV"]
            sample = sorted(_seeded(self.seed, 2).choice(div, size=min(8, len(div)),
                                                         replace=False)) if div else []
            errors += checks.check_sweep_cells(good, self.T_MAX, self.DT, sample)
        if codes[1]:
            failed += self.n_rows
        else:
            if header != "gamma_w,kappa_green,kappa_blue,kappa_tangency" or \
                    len(rows) != self.n_rows:
                errors.append(f"phase_diagram: boundaries header {header!r}, "
                              f"{len(rows)} rows, expected {self.n_rows}")
            b_errors, b_failed = checks.check_boundaries(rows)
            errors += b_errors
            failed += b_failed
        return errors, failed


# ---------------------------------------------------------------------------
# qsd_ensemble
# ---------------------------------------------------------------------------

class QsdEnsemble:
    """The README qsd recipe through ensemble_density, and the same ensemble on [0, 8].

    The [0, 5] window takes base_seed = --seed.  The [0, 8] window crosses
    the zero of g at t = 5.1869; it keeps base_seed 1 for every seed, so it
    is the same operation in every run.
    """

    name = "qsd_ensemble"
    rate_metrics = ("qsd_traj_steps_per_s",)
    DT = 0.01

    def __init__(self, nmgeo, seed: int, size: str, scratch: str):
        self.nmgeo = nmgeo
        self.params = nmgeo.ModelParams(gamma_w=REFERENCE[0], kappa=REFERENCE[1])
        self.n_traj = {"full": 20_000, "side": 1_024, "tiny": 256}[size]
        self.windows = [(5.0, seed)]
        if size != "side":
            self.windows.append((8.0, 1))
        self.seed = seed

    def describe(self) -> dict:
        return {"gamma_w": REFERENCE[0], "kappa": REFERENCE[1], "theta": THETA,
                "dt": self.DT, "n_traj": self.n_traj,
                "windows": [{"t_max": t, "base_seed": s} for t, s in self.windows]}

    def round(self, tag: str) -> Round:
        rnd = Round()
        done_steps = 0
        results = []
        for t_max, base_seed in self.windows:
            grid = self.nmgeo.GridSpec.uniform(t_max, self.DT)
            with _Timer(rnd):
                try:
                    res = self.nmgeo.qsd.ensemble_density(
                        self.params, THETA, grid, self.n_traj, base_seed)
                except self.nmgeo.NmgeoError as exc:
                    res = exc
            if not isinstance(res, Exception):
                done_steps += self.n_traj * grid.n_steps
            results.append((t_max, res))
        rnd.attempted = len(self.windows)
        rnd.rates = {"qsd_traj_steps_per_s": done_steps / rnd.wall}
        rnd.outputs = {"results": results}
        return rnd

    def same(self, first: Round, later: Round) -> bool:
        for (_, a), (_, b) in zip(first.outputs["results"], later.outputs["results"]):
            if isinstance(a, Exception) or isinstance(b, Exception):
                if type(a) is not type(b):
                    return False
                continue
            for ch in ("rho_ee", "rho_eg", "rho_gg"):
                if not np.array_equal(a.series[ch], b.series[ch]):
                    return False
        return True

    def assess(self, rnd: Round) -> tuple[list[str], int]:
        errors, failed = [], 0
        for t_max, res in rnd.outputs["results"]:
            if isinstance(res, Exception):
                failed += 1
                continue
            errors += checks.check_ensemble(
                REFERENCE[0], REFERENCE[1], THETA, t_max, self.DT, 1.0, res.n_traj,
                res.series["rho_ee"], res.series["rho_eg"],
                res.mean_final_norm_sq, res.stderr_final_norm_sq)
        return errors, failed

    def probe_layers(self, n: int = 16) -> None:
        """Single-trajectory calls of the public sample_noises / evolve_trajectory."""
        qsd = self.nmgeo.qsd
        grid = self.nmgeo.GridSpec.uniform(5.0, self.DT)
        psi0 = self.nmgeo.PureState2.from_bloch_angle(THETA)
        for i in range(n):
            noises = qsd.sample_noises(self.params, grid, self.seed, i)
            qsd.evolve_trajectory(self.params, psi0, noises, grid)


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

class Series:
    """The README time-series recipes through nmgeo.cli.run.

    full: phase, nonmarkov, dynamics and qfi at dt=0.001, t_max=20 near the
    reference point (gamma_w, kappa and theta moved by a seeded fraction of
    at most 1 %, 1 % and 10 %), gfun in the three README regimes at
    t_max=25, markov-limit at kappa=0.5, t_max=30, and the phase recipe
    once more with --format json.  side is the same at the reference point
    itself; tiny uses dt=0.01 throughout.
    """

    name = "series"
    rate_metrics = ("series_rows_per_s",)

    def __init__(self, nmgeo, seed: int, size: str, scratch: str):
        self.cli = nmgeo.cli
        self.scratch = scratch
        gw, k, theta, dt = REFERENCE[0], REFERENCE[1], THETA, 0.001
        if size == "full":
            jg, jk, jt = (float(x) for x in _seeded(seed, 3).uniform(-1.0, 1.0, 3))
            gw = round(REFERENCE[0] * (1 + 0.01 * jg), 6)
            k = round(REFERENCE[1] * (1 + 0.01 * jk), 6)
            theta = round(THETA * (1 + 0.1 * jt), 6)
        elif size == "tiny":
            dt = 0.01
        ref = {"gamma_w": gw, "kappa": k, "theta": theta, "t_max": 20.0, "dt": dt}
        self.recipes = [dict(ref, subcommand=s, format="csv") for s in
                        ("phase", "nonmarkov", "dynamics", "qfi")]
        self.recipes[1]["theta"] = None
        for gw_, k_ in ((0.9, 0.43), (0.3, 0.23), (0.9, 0.10)):
            self.recipes.append({"subcommand": "gfun", "gamma_w": gw_, "kappa": k_,
                                 "theta": None, "t_max": 25.0, "dt": 0.01, "format": "csv"})
        self.recipes.append({"subcommand": "markov-limit", "gamma_w": math.inf, "kappa": 0.5,
                             "theta": None, "t_max": 30.0, "dt": 0.01, "format": "csv"})
        self.recipes.append(dict(ref, subcommand="phase", format="json"))
        for i, r in enumerate(self.recipes):
            r["label"] = f"{i}-{r['subcommand']}.{r['format']}"
        self.rows = sum(int(round(r["t_max"] / r["dt"])) + 1 for r in self.recipes)

    def describe(self) -> dict:
        return {"recipes": [{k: v for k, v in r.items() if k != "label"} for r in self.recipes],
                "rows_per_round": self.rows}

    def _argv(self, r: dict, out: str) -> list[str]:
        argv = [r["subcommand"], "--kappa", repr(r["kappa"]), "--t-max", repr(r["t_max"]),
                "--dt", repr(r["dt"]), "--format", r["format"], "--out", out]
        if not math.isinf(r["gamma_w"]):
            argv += ["--gamma-w", repr(r["gamma_w"])]
        if r["theta"] is not None:
            argv += ["--theta", repr(r["theta"])]
        return argv

    def round(self, tag: str) -> Round:
        rnd = Round()
        paths, codes = [], []
        for r in self.recipes:
            out = os.path.join(self.scratch, f"{tag}-{r['label']}")
            with _Timer(rnd):
                codes.append(self.cli.run(self._argv(r, out)))
            paths.append(out)
        rnd.attempted = len(self.recipes)
        done = sum(int(round(r["t_max"] / r["dt"])) + 1
                   for r, c in zip(self.recipes, codes) if not c)
        rnd.rates = {"series_rows_per_s": done / rnd.wall}
        rnd.outputs = {"paths": paths, "codes": codes}
        return rnd

    def same(self, first: Round, later: Round) -> bool:
        return all(_digest(a) == _digest(b)
                   for a, b in zip(first.outputs["paths"], later.outputs["paths"]))

    def load(self, path: str, fmt: str):
        """(header, columns, manifest) of one output."""
        with open(path) as fh:
            text = fh.read()
        if fmt == "json":
            payload = json.loads(text)
            header = ",".join(payload)
            cols = {k: (np.full(len(payload["t"]), math.nan) if v is None
                        else np.array(v, dtype=float)) for k, v in payload.items()}
        else:
            header, cols = checks.parse_series_csv(text)
        with open(path + ".manifest.json") as fh:
            manifest = json.load(fh)
        return header, cols, manifest

    def assess(self, rnd: Round) -> tuple[list[str], int]:
        errors, failed = [], 0
        for r, path, code in zip(self.recipes, rnd.outputs["paths"], rnd.outputs["codes"]):
            if code:
                failed += 1
                continue
            header, cols, manifest = self.load(path, r["format"])
            errors += checks.check_series(r, header, cols, manifest)
        return errors, failed


WORKLOADS = {w.name: w for w in (PhaseDiagram, QsdEnsemble, Series)}
