"""Per-layer metrics and work counts derived from a traced run's spans.

Times per call cover every traced call of the run (the workload's traced
rounds, the side pass and the single-trajectory QSD probe); work counts
cover the workload's own traced rounds only and are given per round, so
they repeat exactly between runs of one seed.
"""

from __future__ import annotations

import numpy as np

# name -> (unit, better); the order is the order of the result line
PER_LAYER = {
    "gfunction.solve_g_us": ("us/call", "lower"),
    "gfunction.find_g_roots_ms": ("ms/call", "lower"),
    "gfunction.eval_calls_per_cell": ("count", "lower"),
    "gfunction.roots_per_div_cell": ("count", "higher"),
    "gfunction.eval_points_per_s": ("points/s", "higher"),
    "dynamics.non_markovianity_ms": ("ms/call", "lower"),
    "dynamics.qfi_series_ms": ("ms/call", "lower"),
    "dynamics.evolve_master_equation_ms": ("ms/call", "lower"),
    "geomphase.geometric_phase_ms": ("ms/call", "lower"),
    "phasediagram.classify_point_ms.NM_DIV": ("ms/call", "lower"),
    "phasediagram.classify_point_ms.NM_NODIV": ("ms/call", "lower"),
    "phasediagram.classify_point_ms.M": ("ms/call", "lower"),
    "phasediagram.sweep_self_s": ("s", "lower"),
    "phasediagram.tangency_point_ms": ("ms/call", "lower"),
    "phasediagram.solve_g_calls_per_tangency": ("count", "lower"),
    "qsd.sample_noises_us_per_traj": ("us", "lower"),
    "qsd.evolve_trajectory_ms": ("ms/traj", "lower"),
    "qsd.ensemble_self_s": ("s", "lower"),
    "cli.write_series_csv_rows_per_s": ("rows/s", "higher"),
    "cli.write_series_json_rows_per_s": ("rows/s", "higher"),
    "cli.write_sweep_csv_rows_per_s": ("rows/s", "higher"),
    "cli.run_self_ms": ("ms/run", "lower"),
    "count.cells.NM_DIV": ("count/round", "higher"),
    "count.cells.NM_NODIV": ("count/round", "higher"),
    "count.cells.M": ("count/round", "higher"),
    "count.cells.ERR": ("count/round", "lower"),
    "count.roots_found": ("count/round", "higher"),
    "count.eval_calls": ("count/round", "lower"),
    "count.traj_steps": ("count/round", "higher"),
    "count.rows_written": ("count/round", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}

EVAL = "gfunction.GSolution.eval"
CLASSIFY = "phasediagram.classify_point"
REGIONS = ("NM_DIV", "NM_NODIV", "M")


def _mean(x: np.ndarray) -> float:
    return float(np.mean(x)) if x.size else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def per_layer_metrics(spans, windows: list, overhead_pct: float) -> dict:
    """Metric name -> {"value", "unit"} for every name in PER_LAYER."""
    dur = spans.duration
    m = spans.mask

    classify = np.zeros(len(dur), dtype=bool)
    for r in REGIONS:
        classify |= m(f"{CLASSIFY}.{r}")
    evals = m(EVAL)
    tangency = m("phasediagram.tangency_point")
    ensemble = m("qsd.ensemble_density")
    div_roots = spans.child_rows(m(f"{CLASSIFY}.NM_DIV")) & m("gfunction.find_g_roots.t200")
    dense = evals & (spans.n > 1)
    n_rounds = max(len(windows), 1)

    def rows_per_s(name: str) -> float:
        w = m(name)
        return _ratio(spans.n[w].sum(), dur[w].sum())

    in_rounds = np.zeros(len(dur), dtype=bool)
    for lo, hi in windows:
        in_rounds |= (spans.start >= lo) & (spans.end <= hi)

    def per_round(mask: np.ndarray, weighted: bool = False) -> float:
        inside = mask & in_rounds
        return float((spans.n[inside].sum() if weighted else inside.sum()) / n_rounds)

    writes = m("cli.write_series_csv") | m("cli.write_series_json") | m("cli.write_sweep_csv")
    roots = _prefix(spans, "gfunction.find_g_roots.t")

    values = {
        "gfunction.solve_g_us": 1e6 * _mean(dur[m("gfunction.solve_g")]),
        "gfunction.find_g_roots_ms": 1e3 * _mean(dur[m("gfunction.find_g_roots.t200")]),
        "gfunction.eval_calls_per_cell": _ratio(
            spans.has_ancestor(evals, classify).sum(), classify.sum()),
        "gfunction.roots_per_div_cell": _ratio(
            spans.n[div_roots].sum(), m(f"{CLASSIFY}.NM_DIV").sum()),
        "gfunction.eval_points_per_s": _ratio(spans.n[dense].sum(), dur[dense].sum()),
        "dynamics.non_markovianity_ms": 1e3 * _mean(dur[m("dynamics.non_markovianity")]),
        "dynamics.qfi_series_ms": 1e3 * _mean(dur[m("dynamics.qfi_series")]),
        "dynamics.evolve_master_equation_ms":
            1e3 * _mean(dur[m("dynamics.evolve_master_equation")]),
        "geomphase.geometric_phase_ms": 1e3 * _mean(dur[m("geomphase.geometric_phase")]),
        **{f"phasediagram.classify_point_ms.{r}": 1e3 * _mean(dur[m(f"{CLASSIFY}.{r}")])
           for r in REGIONS},
        "phasediagram.sweep_self_s": _mean(spans.self_times(m("phasediagram.sweep"))),
        "phasediagram.tangency_point_ms": 1e3 * _mean(dur[tangency]),
        "phasediagram.solve_g_calls_per_tangency": _ratio(
            spans.has_ancestor(m("gfunction.solve_g"), tangency).sum(), tangency.sum()),
        "qsd.sample_noises_us_per_traj": 1e6 * _mean(dur[m("qsd.sample_noises")]),
        "qsd.evolve_trajectory_ms": 1e3 * _mean(dur[m("qsd.evolve_trajectory")]),
        "qsd.ensemble_self_s": _mean(spans.self_times(ensemble)),
        "cli.write_series_csv_rows_per_s": rows_per_s("cli.write_series_csv"),
        "cli.write_series_json_rows_per_s": rows_per_s("cli.write_series_json"),
        "cli.write_sweep_csv_rows_per_s": rows_per_s("cli.write_sweep_csv"),
        "cli.run_self_ms": 1e3 * _mean(spans.self_times(_prefix(spans, "cli.run."))),
        **{f"count.cells.{r}": per_round(m(f"{CLASSIFY}.{r}")) for r in REGIONS},
        # sweep records a cell whose classify_point raised as ERR
        "count.cells.ERR": per_round(m(f"{CLASSIFY}.raised")),
        "count.roots_found": per_round(roots, weighted=True),
        "count.eval_calls": per_round(evals),
        "count.traj_steps": per_round(ensemble, weighted=True),
        "count.rows_written": per_round(writes, weighted=True),
        "trace.overhead_pct": overhead_pct,
    }
    return {k: {"value": values[k], "unit": u} for k, (u, _) in PER_LAYER.items()}


def _prefix(spans, prefix: str) -> np.ndarray:
    ids = [i for i, s in enumerate(spans.names) if s.startswith(prefix)]
    return np.isin(spans.name, ids)
