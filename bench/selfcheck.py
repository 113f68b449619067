"""Quick check of the benchmark itself (about half a minute).

    python3 bench/selfcheck.py

Runs one round of each workload at a tiny size and requires its output
checks to pass, traces those rounds and requires every per-layer metric,
requires BENCHMARK.json to list exactly the metrics the benchmark prints,
and then feeds each output check a deliberately corrupted value and
requires it to be rejected.  Exits 0 when everything holds.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import nmgeo  # noqa: E402
import nmgeo.cli  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, PhaseDiagram, QsdEnsemble, Series  # noqa: E402

FAILED_PER_TINY_ROUND = {"phase_diagram": 0, "qsd_ensemble": 1, "series": 0}


class Report:
    def __init__(self):
        self.bad = 0

    def expect(self, what: str, ok: bool, detail="") -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}" + (f"  ({detail})" if detail and not ok else ""))
        self.bad += not ok

    def rejects(self, what: str, result) -> None:
        """result: the check's error list, or True when it counted the operation failed."""
        self.expect(f"rejects {what}", bool(result), "check accepted the corrupted value")


def check_manifest(rep: Report) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    rep.expect("BENCHMARK.json end_to_end matches the printed metrics",
               {k: u for k, (u, _) in e2e.items()} == run.END_TO_END_UNITS)
    per = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    rep.expect("BENCHMARK.json per_layer matches the printed metrics", per == layers.PER_LAYER)
    rep.expect("BENCHMARK.json workloads match", [w["name"] for w in spec["workloads"]]
               == list(WORKLOADS))


def tiny_rounds(rep: Report, scratch: str) -> dict:
    rounds = {}
    tracer = Tracer()
    windows = []
    tracer.install(nmgeo)
    try:
        for name, cls in WORKLOADS.items():
            wl = cls(nmgeo, 7, "tiny", scratch)
            w0 = time.perf_counter()
            rnd = wl.round(f"tiny-{name}")
            windows.append((w0, time.perf_counter()))
            errors, failed = wl.assess(rnd)
            rep.expect(f"tiny {name} passes its checks", not errors, "; ".join(errors))
            rep.expect(f"tiny {name} fails {FAILED_PER_TINY_ROUND[name]} operation(s)",
                       failed == FAILED_PER_TINY_ROUND[name], f"failed {failed}")
            rounds[name] = (wl, rnd)
        QsdEnsemble(nmgeo, 7, "tiny", scratch).probe_layers(2)
    finally:
        tracer.uninstall()
    metrics = layers.per_layer_metrics(tracer.spans(), windows, 0.0)
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    rep.expect("traced tiny rounds give every per-layer metric",
               set(metrics) == set(layers.PER_LAYER) and finite)
    rep.expect("traced tiny rounds count cells and rows",
               metrics["count.cells.NM_DIV"]["value"] > 0
               and metrics["count.rows_written"]["value"] > 0
               and metrics["count.traj_steps"]["value"] > 0)
    return rounds


def corrupt_phase(rep: Report, wl: PhaseDiagram, rnd) -> None:
    header, cells, rows = wl.parse(rnd)
    base_errors, base_failed = wl.check(header, cells, rows)

    def with_cell(pick, **change):
        cs = copy.deepcopy(cells)
        i = next(i for i, c in enumerate(cs) if pick(c))
        cs[i].update(change)
        return wl.check(header, cs, rows)[0]

    def with_row(pick, **change):
        rs = copy.deepcopy(rows)
        i = next(i for i, r in enumerate(rs) if pick(r))
        rs[i].update(change)
        return wl.check(header, cells, rs)

    def above(c):
        return c["kappa"] > checks.divergence_curve(c["gamma_w"]) + 0.01

    def below(c):
        return c["kappa"] < checks.divergence_curve(c["gamma_w"]) - 0.01

    rep.expect("clean phase_diagram outputs pass", not base_errors and base_failed == 0)
    rep.rejects("a cell above the divergence curve labelled M",
                with_cell(above, region="M", t_first=None))
    rep.rejects("a cell below the divergence curve labelled NM_DIV",
                with_cell(lambda c: below(c) and c["gamma_w"] < 1.0, region="NM_DIV",
                          t_first=1.0))
    rep.rejects("an NM_NODIV cell above gamma_w = 27/16",
                with_cell(lambda c: below(c) and c["gamma_w"] > 27 / 16, region="NM_NODIV"))
    rep.rejects("a first divergence time moved by 0.5",
                with_cell(lambda c: c["region"] == "NM_DIV",
                          t_first=next(c["t_first"] for c in cells
                                       if c["region"] == "NM_DIV") + 0.5))
    rep.rejects("an N_total above the exact backflow",
                with_cell(lambda c: c["region"] == "NM_DIV",
                          n_total=next(c["n_total"] for c in cells
                                       if c["region"] == "NM_DIV") + 0.01))
    rep.rejects("an N_total far below the exact backflow",
                with_cell(lambda c: c["region"] == "NM_DIV",
                          n_total=next(c["n_total"] for c in cells
                                       if c["region"] == "NM_DIV") * 0.5))
    rep.rejects("a missing cell", wl.check(header, cells[:-1], rows)[0])
    rep.rejects("a green value off by 1e-6",
                with_row(lambda r: r["green"] is not None,
                         green=next(r["green"] for r in rows if r["green"]) + 1e-6)[0])
    rep.rejects("a tangency kappa off by 1 %",
                with_row(lambda r: r["tangency"] is not None,
                         tangency=next(r["tangency"] for r in rows if r["tangency"]) * 1.01)[0])
    rep.rejects("a tangency kappa above the green curve",
                with_row(lambda r: r["tangency"] is not None,
                         tangency=next(r["green"] for r in rows if r["tangency"]) + 0.01)[0])
    _, failed = with_row(lambda r: r["tangency"] is not None, tangency=None)
    rep.rejects("a missing tangency value where a Markov region exists (counted failed)",
                failed > base_failed)
    bh = wl.check("gamma_w,kappa_green,kappa_blue", cells, rows)[0]
    rep.rejects("a wrong boundaries header", bh)
    rep.rejects("a blue value off by 1e-6",
                with_row(lambda r: r["blue"] is not None,
                         blue=next(r["blue"] for r in rows if r["blue"]) + 1e-6)[0])


def corrupt_qsd(rep: Report, wl: QsdEnsemble, rnd) -> None:
    (t_max, res) = next((t, r) for t, r in rnd.outputs["results"] if not isinstance(r, Exception))
    args = dict(gamma_w=0.9, kappa=0.43, theta=0.7853981633974483, t_max=t_max, dt=wl.DT,
                omega=1.0, n_traj=res.n_traj, rho_ee=np.array(res.series["rho_ee"]),
                rho_eg=np.array(res.series["rho_eg"]), mean_norm=res.mean_final_norm_sq,
                stderr_norm=res.stderr_final_norm_sq)
    rep.expect("clean qsd_ensemble outputs pass", not checks.check_ensemble(**args))
    bad = dict(args, rho_ee=args["rho_ee"].copy())
    bad["rho_ee"][len(bad["rho_ee"]) // 2] += 6.0 / math.sqrt(res.n_traj)
    rep.rejects("an ensemble rho_ee outside the 5/sqrt(N) band", checks.check_ensemble(**bad))
    bad = dict(args, rho_eg=args["rho_eg"].copy())
    bad["rho_eg"][-1] += 6.0j / math.sqrt(res.n_traj)
    rep.rejects("an ensemble rho_eg outside the 5/sqrt(N) band", checks.check_ensemble(**bad))
    bad = dict(args, mean_norm=1.0 + 6.0 * args["stderr_norm"])
    rep.rejects("a mean final |psi|^2 six standard errors from 1", checks.check_ensemble(**bad))
    rep.rejects("an ensemble series one sample short", checks.check_ensemble(
        **dict(args, rho_ee=args["rho_ee"][:-1])))


def corrupt_series(rep: Report, wl: Series, rnd) -> None:
    outputs = {}
    for r, path in zip(wl.recipes, rnd.outputs["paths"]):
        outputs.setdefault((r["subcommand"], r["format"]), (r, *wl.load(path, r["format"])))

    def run_check(key, col=None, index=None, delta=None, header=None, drop=False,
                  manifest=None):
        r, hdr, cols, man = outputs[key]
        cols = {k: v.copy() for k, v in cols.items()}
        if drop:
            cols = {k: v[:-1] for k, v in cols.items()}
        if col is not None:
            cols[col][index] += delta
        return checks.check_series(r, header or hdr, cols, dict(man, **(manifest or {})))

    for key in outputs:
        rep.expect(f"clean {key[0]}.{key[1]} output passes", not run_check(key))
    ph = ("phase", "csv")
    g = outputs[ph][2]["g"]
    away = int(np.argmax(np.abs(g) > 0.5 * np.max(np.abs(g[len(g) // 2:]))) + len(g) // 2)
    rep.rejects("a series header with a column renamed",
                run_check(ph, header=checks.SERIES_HEADER.replace("Nt", "N_t")))
    rep.rejects("a series one row short", run_check(ph, drop=True))
    rep.rejects("a g value off by 1e-7", run_check(("gfun", "csv"), "g", 7, 1e-7))
    rep.rejects("an Im beta value off by 1e-6", run_check(ph, "beta_im", away, 1e-6))
    rep.rejects("an Im beta value off by 1e-6 in JSON",
                run_check(("phase", "json"), "beta_im", away, 1e-6))
    nm = outputs[("nonmarkov", "csv")][2]["Nt"]
    k = int(np.argmax(np.diff(nm) > 0)) + 1
    rep.rejects("a decreasing N_t", run_check(("nonmarkov", "csv"), "Nt", k, -1.0))
    rep.rejects("a Bloch vector longer than 1", run_check(("dynamics", "csv"), "sx", 3, 1.0))
    rep.rejects("a negative QFI", run_check(("qfi", "csv"), "qfi", 5,
                                            -1.0 - outputs[("qfi", "csv")][2]["qfi"][5]))
    times = outputs[ph][3]["divergence_times"]
    rep.rejects("a divergence time moved by 0.01",
                run_check(ph, manifest={"divergence_times": [times[0] + 0.01] + times[1:]}))
    rep.rejects("a missing divergence time",
                run_check(ph, manifest={"divergence_times": times[1:]}))
    mk = ("markov-limit", "csv")
    roots = outputs[mk][3]["root_times"]
    rep.rejects("a Markov root time moved by 0.01",
                run_check(mk, manifest={"root_times": [roots[0] + 0.01] + roots[1:]}))
    rep.rejects("a markov-limit g value off by 1e-7", run_check(mk, "g", 100, 1e-7))


def main() -> int:
    rep = Report()
    scratch = os.path.join(ROOT, ".bench_out", "selfcheck")
    os.makedirs(scratch, exist_ok=True)
    try:
        check_manifest(rep)
        rounds = tiny_rounds(rep, scratch)
        corrupt_phase(rep, *rounds["phase_diagram"])
        corrupt_qsd(rep, *rounds["qsd_ensemble"])
        corrupt_series(rep, *rounds["series"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"selfcheck: {'all passed' if not rep.bad else f'{rep.bad} failed'}")
    return 1 if rep.bad else 0


if __name__ == "__main__":
    sys.exit(main())
