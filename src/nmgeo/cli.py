"""Command-line interface and stable CSV/JSON serialization.

Every subcommand writes one output file plus a JSON run manifest
(<out>.manifest.json with parameters, library versions, seed and wall
time; written even when the computation fails).  Exit codes: 0 success,
1 computation error, 2 usage/configuration error.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from typing import TYPE_CHECKING

import numpy as np
import scipy

from . import __version__
from .dynamics import (
    evolve_master_equation,
    expectations_sigma,
    f_z_from_g,
    non_markovianity,
    qfi_series,
)
from .errors import ConfigError, ConfigParseError, NmgeoError, UnknownConfigKey
from .gfunction import find_g_roots, solve_g
from .geomphase import BETA_CLAMP, geometric_phase
from .model import GridSpec, ModelParams, PureState2, TimeSeries, validate_params
from .phasediagram import (
    GREEN_BLUE_JOIN,
    PhaseCell,
    blue_boundary,
    green_boundary,
    sweep,
    tangency_curve,
)
from .qsd import ensemble_density

# argparse, json and traceback are imported where the CLI parses, writes
# and reports, so that importing nmgeo.cli loads none of them
if TYPE_CHECKING:
    import argparse

SERIES_COLUMNS = [
    "t", "g", "gp", "Fz_re", "Fz_im", "beta_re", "beta_im",
    "beta_I_clamped", "pole", "sx", "sy", "sz", "Nt", "D", "qfi",
]
SWEEP_COLUMNS = ["gamma_w", "kappa", "region", "t_first_divergence", "N_total", "error"]

# larger grids are refused before anything is allocated
_MAX_SERIES_SAMPLES = 10**7
_MAX_PARAMETER_POINTS = 10**6  # sweep cells, boundaries rows
# list items a JSON writer encodes at once
_JSON_ITEMS = 2**12


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _clamped_beta_column(series: TimeSeries) -> np.ndarray:
    """beta_I clipped to +-50; pole samples take the sign of the nearest finite one."""
    beta_i = np.asarray(series["beta_I"], dtype=float)
    out = np.clip(beta_i, -BETA_CLAMP, BETA_CLAMP)
    ok = np.isfinite(beta_i)
    bad, finite = np.nonzero(~ok)[0], np.nonzero(ok)[0]
    if not finite.size:
        out[bad] = -BETA_CLAMP
        return out
    # nearest finite neighbour of each bad sample; the earlier one on a tie
    pos = np.searchsorted(finite, bad)
    left = finite[np.maximum(pos - 1, 0)]
    right = finite[np.minimum(pos, finite.size - 1)]
    take_left = (pos > 0) & ((pos == finite.size) | (bad - left <= right - bad))
    nearest = beta_i[np.where(take_left, left, right)]
    out[bad] = np.where(nearest > 0.0, BETA_CLAMP, -BETA_CLAMP)
    return out


def _series_table(series: TimeSeries) -> dict:
    """Column name -> array (or None when the channel is absent)."""
    cols: dict = {name: None for name in SERIES_COLUMNS}
    cols["t"] = series.t
    if "g" in series:
        cols["g"] = np.asarray(series["g"], dtype=float)
    if "gp" in series:
        cols["gp"] = np.asarray(series["gp"], dtype=float)
    if "F_z" in series:
        fz = series["F_z"]
        cols["Fz_re"], cols["Fz_im"] = fz.real, fz.imag
    if "beta" in series:
        b = series["beta"]
        cols["beta_re"], cols["beta_im"] = b.real, b.imag
    if "beta_I" in series:
        cols["beta_I_clamped"] = _clamped_beta_column(series)
    if "pole" in series:
        cols["pole"] = np.asarray(series["pole"], dtype=int)
    for name in ("sx", "sy", "sz", "qfi"):
        if name in series:
            cols[name] = np.asarray(series[name], dtype=float)
    if "N_t" in series:
        cols["Nt"] = np.asarray(series["N_t"], dtype=float)
    if "D" in series:
        cols["D"] = np.asarray(series["D"], dtype=float)
    return cols


def write_series_csv(series: TimeSeries, path: str) -> None:
    """Fixed-header CSV, 17 significant digits, absent channels as empty fields."""
    cols = _series_table(series)
    template = ",".join(
        "" if cols[n] is None else "%d" if n == "pole" else "%.17g" for n in SERIES_COLUMNS
    ) + "\n"
    rows = zip(*(np.asarray(a).tolist() for a in cols.values() if a is not None))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SERIES_COLUMNS) + "\n")
        fh.writelines(template % row for row in rows)


def write_series_json(series: TimeSeries, path: str) -> None:
    cols = _series_table(series)
    payload = {
        name: (None if arr is None else np.asarray(arr, dtype=float).tolist())
        for name, arr in cols.items()
    }
    _write_json(payload, path)


def _write_json(payload, path: str) -> None:
    """payload as json.dump writes it, and a newline."""
    with open(path, "w") as fh:
        fh.writelines(_json_pieces(payload))
        fh.write("\n")


def _json_pieces(value):
    """The text of json.dumps(value), in pieces, for dicts with string keys.

    json.dumps runs the C encoder; json.dump streams through the
    pure-Python one, about twice as slow.  A dict is encoded one value at
    a time and a long list _JSON_ITEMS items at a time, so the text held
    at once stays small (the C encoder keeps one string per number until
    it joins them).
    """
    import json

    if isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            yield f"{', ' if i else ''}{json.dumps(key)}: "
            yield from _json_pieces(item)
        yield "}"
    elif isinstance(value, list) and len(value) > _JSON_ITEMS:
        yield "["
        for a in range(0, len(value), _JSON_ITEMS):
            yield (", " if a else "") + json.dumps(value[a : a + _JSON_ITEMS])[1:-1]
        yield "]"
    else:
        yield json.dumps(value)


def write_sweep_csv(cells: list[PhaseCell], path: str) -> None:
    """gamma_w,kappa,region,t_first_divergence,N_total,error rows."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for c in cells:
            row = [
                _fmt(c.gamma_w),
                _fmt(c.kappa),
                c.region,
                "" if c.t_first_divergence is None else _fmt(c.t_first_divergence),
                "" if math.isnan(c.n_total) else _fmt(c.n_total),
                "" if c.error is None else c.error.replace(",", ";").replace("\n", " "),
            ]
            fh.write(",".join(row) + "\n")


def write_sweep_json(cells: list[PhaseCell], path: str) -> None:
    payload = [
        {
            "gamma_w": c.gamma_w,
            "kappa": c.kappa,
            "region": c.region,
            "t_first_divergence": c.t_first_divergence,
            "N_total": None if math.isnan(c.n_total) else c.n_total,
            "error": c.error,
        }
        for c in cells
    ]
    _write_json(payload, path)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# the JSON values a flag's argparse type accepts, and their name (None: a string flag)
_JSON_TYPES = {float: ("a number", (int, float)), int: ("an integer", (int,)),
               None: ("a string", (str,))}


def load_config(path: str, subcommand: str | None = None) -> dict:
    """Flat key/value JSON mirroring the CLI flags (underscored names).

    Keys are the flags of the subcommand (of any subcommand when it is None
    or unknown); each value must have the JSON type of its flag's argparse
    type and lie in its choices.
    """
    import argparse
    import json

    try:
        with open(path) as fh:
            raw = fh.read()
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigParseError(f"{path}: top-level JSON value must be an object")
    parser = _build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {
        action.dest: action
        for name in ([subcommand] if subcommand in subparsers.choices else subparsers.choices)
        for action in subparsers.choices[name]._actions
        if action.dest not in ("help", "config")
    }
    for key, value in cfg.items():
        if key not in actions:
            raise UnknownConfigKey(f"{path}: unknown configuration key {key!r}")
        kind, types = _JSON_TYPES[actions[key].type]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"{path}: {key} must be {kind}, got {value!r}")
        choices = actions[key].choices
        if choices is not None and value not in choices:
            raise ConfigError(f"{path}: {key} must be one of {', '.join(choices)}, got {value!r}")
    return cfg


def _range_spec(text: str, name: str) -> tuple[float, float, int]:
    """(start, step, number of points) of a start:stop:step range."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name} must be start:stop:step, got {text!r}")
    try:
        a, b, s = (float(x) for x in parts)
    except ValueError as exc:
        raise ConfigError(f"{name}: non-numeric bound in {text!r}") from exc
    if not (s > 0.0 and a <= b and math.isfinite((b - a) / s)):
        raise ConfigError(
            f"{name}: need start <= stop, step > 0 and a finite point count, got {text!r}"
        )
    return a, s, int(math.floor((b - a) / s + 0.5)) + 1


def _parse_range(text: str, name: str) -> np.ndarray:
    a, s, n = _range_spec(text, name)
    return a + s * np.arange(n)


@dataclass
class RunConfig:
    """Resolved inputs of one CLI invocation."""

    subcommand: str
    out: str
    format: str = "csv"
    gamma_w: float = 0.9
    kappa: float = 0.43
    omega: float = 1.0
    Gamma_w: float = 1.0
    theta: float = math.pi / 4.0
    t_max: float = 20.0
    dt: float = 0.01
    convention: str = "qfi"
    gamma_w_range: str | None = None
    kappa_range: str | None = None
    n_traj: int = 20000
    seed: int = 1
    workers: int | None = None
    extras: dict = field(default_factory=dict)

    def params(self) -> ModelParams:
        return validate_params(
            ModelParams(
                kappa=self.kappa,
                gamma_w=self.gamma_w,
                omega=self.omega,
                omega_c=self.omega,
                Omega_w=self.omega,
                Gamma_w=self.Gamma_w,
            )
        )

    def grid(self) -> GridSpec:
        return GridSpec.uniform(self.t_max, self.dt)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by run and load_config
    (parsing leaves it unchanged)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="nmgeo",
        description="Qubit-in-lossy-cavity dynamics: g(t), phases, "
        "non-Markovianity, QFI, QSD trajectories and the phase diagram.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, theta=False):
        sp.add_argument("--config", default=None, help="flat JSON config; CLI flags win")
        sp.add_argument("--gamma-w", dest="gamma_w", type=float, default=None)
        sp.add_argument("--kappa", type=float, default=None)
        sp.add_argument("--omega", type=float, default=None,
                        help="resonant frequency (sets omega = omega_c = Omega_w)")
        sp.add_argument("--Gamma-w", dest="Gamma_w", type=float, default=None)
        sp.add_argument("--t-max", dest="t_max", type=float, default=None)
        sp.add_argument("--dt", type=float, default=None)
        sp.add_argument("--out", default=None, required=False)
        sp.add_argument("--format", choices=["csv", "json"], default=None)
        if theta:
            sp.add_argument("--theta", type=float, default=None)

    common(sub.add_parser("gfun", help="g, g' time series"))
    common(sub.add_parser("phase", help="complex geometric phase series"), theta=True)
    common(sub.add_parser("dynamics", help="master-equation evolution and <sigma_i>"), theta=True)
    common(sub.add_parser("nonmarkov", help="accumulated backflow N_t"))
    qfi_p = sub.add_parser("qfi", help="quantum Fisher information series")
    common(qfi_p, theta=True)
    qfi_p.add_argument("--convention", choices=["qfi", "bloch"], default=None)
    sweep_p = sub.add_parser("sweep", help="phase-diagram classification sweep")
    common(sweep_p)
    sweep_p.add_argument("--gamma-w-range", dest="gamma_w_range", default=None,
                         help="start:stop:step")
    sweep_p.add_argument("--kappa-range", dest="kappa_range", default=None,
                         help="start:stop:step")
    bnd_p = sub.add_parser("boundaries", help="analytic boundary curves")
    common(bnd_p)
    bnd_p.add_argument("--gamma-w-range", dest="gamma_w_range", default=None,
                       help="start:stop:step")
    common(sub.add_parser("markov-limit", help="memory-less-bath closed-form g"))
    qsd_p = sub.add_parser("qsd", help="QSD Monte-Carlo ensemble vs master equation")
    common(qsd_p, theta=True)
    qsd_p.add_argument("--n-traj", dest="n_traj", type=int, default=None)
    qsd_p.add_argument("--seed", type=int, default=None)
    qsd_p.add_argument("--workers", type=int, default=None)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand, out="")
    skip = ("config", "subcommand")
    flags = {k: v for k, v in vars(args).items() if v is not None and k not in skip}
    file_values = load_config(args.config, args.subcommand) if args.config else {}
    for key, value in {**file_values, **flags}.items():
        setattr(cfg, key, value)
    if not cfg.out:
        raise ConfigError("--out is required (flag or config file)")
    if not (0.0 < cfg.t_max < math.inf and 0.0 < cfg.dt < math.inf):
        raise ConfigError(
            f"need finite t_max > 0 and dt > 0, got t_max={cfg.t_max}, dt={cfg.dt}"
        )
    if not (0.0 <= cfg.theta <= math.pi):
        raise ConfigError(f"--theta must lie in [0, pi], got {cfg.theta}")
    if cfg.subcommand == "sweep":
        if not cfg.gamma_w_range or not cfg.kappa_range:
            raise ConfigError("sweep requires --gamma-w-range and --kappa-range")
        n_cells = (
            _range_spec(cfg.gamma_w_range, "--gamma-w-range")[2]
            * _range_spec(cfg.kappa_range, "--kappa-range")[2]
        )
        if n_cells > _MAX_PARAMETER_POINTS:
            raise ConfigError(f"sweep of {n_cells} cells exceeds {_MAX_PARAMETER_POINTS}")
    elif cfg.subcommand == "boundaries":
        if not cfg.gamma_w_range:
            cfg.gamma_w_range = "0.05:3.0:0.05"
        n_rows = _range_spec(cfg.gamma_w_range, "--gamma-w-range")[2]
        if n_rows > _MAX_PARAMETER_POINTS:
            raise ConfigError(
                f"boundaries range of {n_rows} points exceeds {_MAX_PARAMETER_POINTS}"
            )
    elif cfg.t_max / cfg.dt + 1.0 > _MAX_SERIES_SAMPLES:
        raise ConfigError(
            f"t_max/dt + 1 = {cfg.t_max / cfg.dt + 1.0:.6g} samples exceeds {_MAX_SERIES_SAMPLES}"
        )
    if cfg.subcommand == "qsd" and cfg.n_traj < 100:
        raise ConfigError("qsd needs --n-traj >= 100")
    if cfg.subcommand == "qsd" and cfg.seed < 0:
        raise ConfigError(f"qsd needs --seed >= 0, got {cfg.seed}")
    return cfg


# ---------------------------------------------------------------------------
# subcommand handlers: return (series-or-cells, manifest extras)
# ---------------------------------------------------------------------------

def _run_gfun(cfg: RunConfig):
    sol = solve_g(cfg.params())
    grid = cfg.grid()
    g, gp, _ = sol.eval(grid.times())
    series = TimeSeries(grid, {"g": g, "gp": gp})
    return series, {"method": sol.method, "confluent": sol.confluent}


def _run_phase(cfg: RunConfig):
    p = cfg.params()
    grid = cfg.grid()
    ps = geometric_phase(p, cfg.theta, grid)
    extras = {
        "divergence_times": ps.divergence_times,
        "eta_windings": ps.eta_windings,
        "consistency_residual": ps.consistency_residual,
    }
    return ps.series, extras


def _run_dynamics(cfg: RunConfig):
    p = cfg.params()
    grid = cfg.grid()
    sol = solve_g(p)
    rho0 = PureState2.from_bloch_angle(cfg.theta).density_matrix()
    rho = evolve_master_equation(p, rho0, grid, gsol=sol)
    sig = expectations_sigma(rho)
    g, gp, _ = sol.eval(grid.times())
    fz = f_z_from_g(sol, grid).series["F_z"]
    series = TimeSeries(
        grid,
        {
            "g": g, "gp": gp, "F_z": fz,
            "sx": sig["sx"], "sy": sig["sy"], "sz": sig["sz"],
            "D": np.abs(g),
        },
    )
    return series, {"method": sol.method, "confluent": sol.confluent}


def _run_nonmarkov(cfg: RunConfig):
    p = cfg.params()
    sol = solve_g(p)
    report = non_markovianity(p, cfg.t_max, cfg.dt, gsol=sol)
    grid = report.series.grid
    fz = f_z_from_g(sol, grid).series["F_z"]
    series = report.series.with_channels(F_z=fz, D=np.abs(report.series["g"]))
    extras = {"n_total": report.n_total, "backflow_windows": report.windows}
    return series, extras


def _run_qfi(cfg: RunConfig):
    p = cfg.params()
    grid = cfg.grid()
    sol = solve_g(p)
    qfi = qfi_series(p, cfg.theta, grid, cfg.convention, gsol=sol)
    fz = f_z_from_g(sol, grid).series["F_z"]
    series = TimeSeries(grid, {"qfi": qfi, "F_z": fz})
    return series, {"convention": cfg.convention}


def _run_sweep(cfg: RunConfig):
    gammas = _parse_range(cfg.gamma_w_range, "--gamma-w-range")
    kappas = _parse_range(cfg.kappa_range, "--kappa-range")
    cells = sweep(gammas, kappas, cfg.t_max)
    extras = {
        "n_gamma": len(gammas),
        "n_kappa": len(kappas),
        "region_counts": dict(Counter(c.region for c in cells)),
        "error_types": dict(Counter(c.error_type for c in cells if c.error_type is not None)),
    }
    return cells, extras


def _run_boundaries(cfg: RunConfig):
    gammas = [float(gw) for gw in _parse_range(cfg.gamma_w_range, "--gamma-w-range")]
    curve = tangency_curve([gw for gw in gammas if 0.0 < gw < GREEN_BLUE_JOIN])
    tangency = {point.gamma_w: point for point in curve}
    rows = []
    for gw in gammas:
        row = {"gamma_w": gw, "green": None, "blue": None, "tangency": None}
        if 0.0 < gw <= 2.25:
            row["green"] = green_boundary(gw)
        if GREEN_BLUE_JOIN <= gw <= 3.0:
            row["blue"] = blue_boundary(gw)
        if 0.0 < gw < GREEN_BLUE_JOIN:
            point = tangency[gw]
            if point.error is not None:
                row["tangency_error"] = point.error
            elif point.t_star is not None:  # else no Markov region: left empty, never 0
                row["tangency"] = point.kappa
        rows.append(row)
    extras = {
        "join_point": {"gamma_w": GREEN_BLUE_JOIN, "kappa": 3.0 * math.sqrt(3.0) / 16.0},
        "tangency_errors": {r["gamma_w"]: r["tangency_error"] for r in rows if "tangency_error" in r},
        "no_markov_region": [p.gamma_w for p in curve if p.error is None and p.t_star is None],
    }
    return rows, extras


def _write_boundaries(rows, cfg: RunConfig):
    if cfg.format == "json":
        _write_json(rows, cfg.out)
        return
    with open(cfg.out, "w", newline="") as fh:
        fh.write("gamma_w,kappa_green,kappa_blue,kappa_tangency\n")
        for row in rows:
            fields = [_fmt(row["gamma_w"])]
            for key in ("green", "blue", "tangency"):
                fields.append("" if row.get(key) is None else _fmt(row[key]))
            fh.write(",".join(fields) + "\n")


def _run_markov_limit(cfg: RunConfig):
    grid = cfg.grid()
    ts = grid.times()
    p = ModelParams(kappa=cfg.kappa, gamma_w=math.inf, Gamma_w=cfg.Gamma_w)
    sol = solve_g(p)
    g, gp, _ = sol.eval(ts)
    series = TimeSeries(grid, {"g": g, "gp": gp, "D": np.abs(g)})
    extras = {"confluent": sol.confluent, "root_times": find_g_roots(sol, cfg.t_max)}
    return series, extras


def _run_qsd(cfg: RunConfig):
    p = cfg.params()
    grid = cfg.grid()
    sol = solve_g(p)
    result = ensemble_density(p, cfg.theta, grid, cfg.n_traj, cfg.seed,
                              workers=cfg.workers, gsol=sol)
    rho0 = PureState2.from_bloch_angle(cfg.theta).density_matrix()
    ref = evolve_master_equation(p, rho0, grid, gsol=sol)
    dev = max(
        float(np.max(np.abs(result.series["rho_ee"] - ref["rho_ee"]))),
        float(np.max(np.abs(result.series["rho_eg"] - ref["rho_eg"]))),
        float(np.max(np.abs(result.series["rho_gg"] - ref["rho_gg"]))),
    )
    sig = expectations_sigma(result.series)
    series = TimeSeries(grid, {"sx": sig["sx"], "sy": sig["sy"], "sz": sig["sz"]})
    extras = {
        "n_traj": result.n_traj,
        "seed": result.base_seed,
        "max_deviation_from_master_equation": dev,
        "deviation_band_5_over_sqrt_n": 5.0 / math.sqrt(cfg.n_traj),
        "mean_final_norm_sq": result.mean_final_norm_sq,
        "stderr_final_norm_sq": result.stderr_final_norm_sq,
    }
    return series, extras


_HANDLERS = {
    "gfun": _run_gfun,
    "phase": _run_phase,
    "dynamics": _run_dynamics,
    "nonmarkov": _run_nonmarkov,
    "qfi": _run_qfi,
    "sweep": _run_sweep,
    "boundaries": _run_boundaries,
    "markov-limit": _run_markov_limit,
    "qsd": _run_qsd,
}


def _manifest(cfg: RunConfig, status: str, wall: float, extras: dict, error: str | None):
    return {
        "subcommand": cfg.subcommand,
        "params": {
            "gamma_w": cfg.gamma_w,
            "kappa": cfg.kappa,
            "omega": cfg.omega,
            "Gamma_w": cfg.Gamma_w,
        },
        "theta": cfg.theta,
        "grid": {"t_max": cfg.t_max, "dt": cfg.dt},
        "seed": cfg.seed,
        "n_traj": cfg.n_traj if cfg.subcommand == "qsd" else None,
        "output": cfg.out,
        "format": cfg.format,
        "versions": {
            "nmgeo": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": wall,
        "status": status,
        "error": error,
        **extras,
    }


def run(argv=None) -> int:
    """Parse argv, execute one subcommand, write output + manifest."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        cfg = _resolve_config(args)
    except ConfigError as exc:
        print(f"nmgeo: configuration error: {exc}", file=sys.stderr)
        return 2
    extras: dict = {}
    try:
        result, extras = _HANDLERS[cfg.subcommand](cfg)
        if cfg.subcommand == "sweep":
            if cfg.format == "json":
                write_sweep_json(result, cfg.out)
            else:
                write_sweep_csv(result, cfg.out)
        elif cfg.subcommand == "boundaries":
            _write_boundaries(result, cfg)
        else:
            if cfg.format == "json":
                write_series_json(result, cfg.out)
            else:
                write_series_csv(result, cfg.out)
    except ConfigError as exc:
        print(f"nmgeo: configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"nmgeo: i/o error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # NmgeoError, or any failure the handlers did not foresee
        wall = time.perf_counter() - t0
        extras = {**extras, "error_type": type(exc).__name__}
        _write_manifest_file(cfg, _manifest(cfg, "error", wall, extras, str(exc)))
        if not isinstance(exc, NmgeoError):
            import traceback

            traceback.print_exc()
        print(f"nmgeo: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - t0
    _write_manifest_file(cfg, _manifest(cfg, "ok", wall, extras, None))
    return 0


def _write_manifest_file(cfg: RunConfig, manifest: dict):
    import json

    try:
        with open(cfg.out + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, default=_json_default)
            fh.write("\n")
    except OSError as exc:
        print(f"nmgeo: could not write manifest: {exc}", file=sys.stderr)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
