import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nmgeo
from nmgeo import GridSpec, TimeSeries, cli
from nmgeo.cli import (
    SERIES_COLUMNS,
    load_config,
    run,
    write_series_csv,
    write_series_json,
    write_sweep_csv,
)
from nmgeo.errors import ConfigParseError, UnknownConfigKey
from nmgeo.gfunction import _ModalCells
from nmgeo.phasediagram import GREEN_BLUE_JOIN, PhaseCell, classify_point


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_series_csv_shape_and_header(tmp_path):
    grid = GridSpec.uniform(0.3, 0.1)
    series = TimeSeries(grid, {"g": np.array([1.0, 0.9, 0.8, 0.7])})
    out = tmp_path / "s.csv"
    write_series_csv(series, str(out))
    rows = _read_csv(out)
    assert rows[0] == SERIES_COLUMNS
    assert len(rows) == 5  # header + n_steps + 1
    # absent channels are empty fields
    assert rows[1][SERIES_COLUMNS.index("sx")] == ""
    assert rows[1][SERIES_COLUMNS.index("g")] == "1"


def test_series_csv_round_trip_exact(tmp_path, rng):
    grid = GridSpec.uniform(1.0, 0.25)
    vals = rng.standard_normal(5) * 1e3
    nts = np.abs(rng.standard_normal(5))
    series = TimeSeries(grid, {"g": vals, "N_t": nts})
    out = tmp_path / "rt.csv"
    write_series_csv(series, str(out))
    rows = _read_csv(out)
    gi = SERIES_COLUMNS.index("g")
    ni = SERIES_COLUMNS.index("Nt")
    for k in range(5):
        assert float(rows[1 + k][gi]) == vals[k]
        assert float(rows[1 + k][ni]) == nts[k]


def test_series_csv_pole_row_clamps_beta(tmp_path):
    grid = GridSpec.uniform(0.4, 0.1)
    beta_i = np.array([-1.0, -30.0, np.nan, -20.0, -2.0])
    pole = np.array([False, False, True, False, False])
    series = TimeSeries(grid, {"beta_I": beta_i, "pole": pole})
    out = tmp_path / "p.csv"
    write_series_csv(series, str(out))
    rows = _read_csv(out)
    bi = SERIES_COLUMNS.index("beta_I_clamped")
    pi = SERIES_COLUMNS.index("pole")
    assert rows[3][pi] == "1"
    assert float(rows[3][bi]) == -50.0
    assert rows[2][pi] == "0"


def _clamped_beta_reference(beta_i):
    # per-sample loop the vectorised clamp replaced
    out = np.clip(beta_i, -50.0, 50.0)
    finite = np.nonzero(np.isfinite(beta_i))[0]
    for i in np.nonzero(~np.isfinite(beta_i))[0]:
        if finite.size:
            j = finite[np.argmin(np.abs(finite - i))]
            out[i] = math.copysign(50.0, beta_i[j]) if beta_i[j] != 0 else -50.0
        else:
            out[i] = -50.0
    return out


def test_clamped_beta_matches_loop_reference(rng):
    grid = GridSpec.uniform(0.39, 0.01)
    cases = [np.full(40, np.nan), np.r_[np.nan, 3.0, np.nan, np.nan, -0.0, np.inf, 7.0]]
    for _ in range(50):
        b = rng.normal(0.0, 60.0, 40)
        b[rng.random(40) < 0.3] = np.nan
        b[rng.random(40) < 0.05] = 0.0
        cases.append(b)
    for b in cases:
        b = np.pad(b, (0, 40 - b.size), constant_values=1.0)
        got = cli._clamped_beta_column(TimeSeries(grid, {"beta_I": b.copy()}))
        np.testing.assert_array_equal(got, _clamped_beta_reference(b))


# sha256 of the README time-series recipes' CSVs, pinned on x86-64 Linux
# (numpy 2.4) with g evaluated in the real modal form; the pole states
# theta = 0 and pi give beta = 0 and the same file
POLE_STATE_PHASE_SHA256 = "363132f92a3315c984e4e6ceb62826fae95b39796866e828ee91f05fcbe3caaf"
README_SERIES_SHA256 = {
    # id: (subcommand, theta or None, sha256)
    "phase": ("phase", "0.7853981633974483",
              "734456d8dff447eb3eee6d8cd4e68bfd672c94740da5621a3946ae1aa16586cd"),
    "phase-theta0": ("phase", "0", POLE_STATE_PHASE_SHA256),
    "phase-thetapi": ("phase", "3.141592653589793", POLE_STATE_PHASE_SHA256),
    "nonmarkov": ("nonmarkov", None,
                  "7dfc474f1c2a919d524e3f21a5e05ec818b4006ae1e2c4ee5bb8b38d3c527712"),
    "dynamics": ("dynamics", "0.7853981633974483",
                 "ba8f079a2dcfd9cef71d8c5fde617af51124d5a82e39303cdfad87bba5eda90d"),
}


@pytest.mark.parametrize("case", sorted(README_SERIES_SHA256))
def test_readme_series_csv_bytes_pinned(tmp_path, case):
    subcommand, theta, sha256 = README_SERIES_SHA256[case]
    out = tmp_path / f"{case}.csv"
    theta_args = [] if theta is None else ["--theta", theta]
    args = [subcommand, "--gamma-w", "0.9", "--kappa", "0.43", *theta_args,
            "--t-max", "20", "--dt", "0.001", "--out", str(out)]
    assert run(args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


# sha256 of the README qsd recipe's CSV, pinned like the series above
README_QSD_SHA256 = "58f220e572e921a70c5c1c857e54222a1ec57393eea54abd6572e81813debb57"


def test_readme_qsd_csv_bytes_pinned(tmp_path):
    out = tmp_path / "qsd.csv"
    args = ["qsd", "--gamma-w", "0.9", "--kappa", "0.43", "--theta", "0.7853981633974483",
            "--t-max", "5", "--dt", "0.01", "--n-traj", "20000", "--seed", "1", "--out", str(out)]
    assert run(args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == README_QSD_SHA256


@pytest.mark.parametrize("args", [
    ["nonmarkov", "--t-max", "20", "--dt", "0.01"],
    ["qsd", "--theta", "0.7853981633974483", "--t-max", "1", "--dt", "0.01", "--n-traj", "100"],
])
def test_recipe_solves_g_once(tmp_path, count_calls, args):
    # the handler's solution serves the library calls it makes
    kernels = count_calls(_ModalCells, "__init__")
    assert run([*args, "--gamma-w", "0.9", "--kappa", "0.43", "--out", str(tmp_path / "o.csv")]) == 0
    assert kernels() == 1


def test_sweep_csv_contents(tmp_path):
    cells = [classify_point(0.9, 0.43, t_max=20.0)]
    cells += [PhaseCell(0.5, 0.1, "M", None, 0.0)] * 99
    cells.append(PhaseCell(1.0, 0.2, "ERR", None, math.nan, error="boom, with comma"))
    out = tmp_path / "sweep.csv"
    write_sweep_csv(cells, str(out))
    rows = _read_csv(out)
    assert len(rows) == 102
    assert rows[0] == ["gamma_w", "kappa", "region", "t_first_divergence", "N_total", "error"]
    first = rows[1]
    assert float(first[0]) == 0.9 and float(first[1]) == 0.43
    assert first[2] == "NM_DIV"
    assert abs(float(first[3]) - 5.19) < 0.02
    err_row = rows[-1]
    assert err_row[2] == "ERR"
    assert err_row[3] == "" and err_row[4] == ""
    assert "boom" in err_row[5]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_load_config_roundtrip(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text('{"gamma_w": 0.9, "kappa": 0.43}')
    cfg = load_config(str(cfg_path), "gfun")
    assert cfg == {"gamma_w": 0.9, "kappa": 0.43}


def test_load_config_rejects_malformed(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"gamma_w": 0.9,,}')
    with pytest.raises(ConfigParseError) as err:
        load_config(str(cfg_path), "gfun")
    assert "line 1" in str(err.value)


def test_load_config_rejects_unknown_key(tmp_path):
    cfg_path = tmp_path / "typo.json"
    cfg_path.write_text('{"kapa": 0.43}')
    with pytest.raises(UnknownConfigKey) as err:
        load_config(str(cfg_path), "gfun")
    assert "kapa" in str(err.value)


def test_load_config_rejects_a_key_the_subcommand_does_not_read(tmp_path):
    # the sweep never reads Gamma_w: a value for it would be recorded, not used
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text('{"Gamma_w": 2}')
    with pytest.raises(UnknownConfigKey) as err:
        load_config(str(cfg_path), "sweep")
    assert "'Gamma_w'" in str(err.value)
    assert load_config(str(cfg_path), "gfun") == {"Gamma_w": 2}


def test_cli_flag_overrides_config(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text('{"gamma_w": 0.9, "kappa": 0.1, "t_max": 2.0, "dt": 0.1}')
    out = tmp_path / "g.csv"
    code = run([
        "gfun", "--config", str(cfg_path), "--kappa", "0.43",
        "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
    assert manifest["params"]["kappa"] == 0.43
    assert manifest["params"]["gamma_w"] == 0.9
    assert manifest["grid"]["t_max"] == 2.0


# ---------------------------------------------------------------------------
# subcommands and exit codes
# ---------------------------------------------------------------------------

def test_gfun_row_count(tmp_path):
    out = tmp_path / "g.csv"
    code = run([
        "gfun", "--gamma-w", "0.9", "--kappa", "0.43",
        "--t-max", "20", "--dt", "0.01", "--out", str(out),
    ])
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 2002  # header + 2001 data rows


def test_phase_manifest_lists_divergences(tmp_path):
    out = tmp_path / "phase.csv"
    code = run([
        "phase", "--gamma-w", "0.9", "--kappa", "0.43",
        "--theta", str(math.pi / 4), "--t-max", "20", "--dt", "0.01",
        "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "phase.csv.manifest.json").read_text())
    times = manifest["divergence_times"]
    for expected in (5.19, 8.85, 14.87):
        assert any(abs(t - expected) < 0.02 for t in times)


@pytest.mark.parametrize(
    "subcommand, config, message",
    [
        ("gfun", {"t_max": "20"}, "t_max must be a number, got '20'"),
        ("gfun", {"format": "xml"}, "format must be one of csv, json, got 'xml'"),
        ("qsd", {"workers": "2"}, "workers must be an integer, got '2'"),
    ],
    ids=["string-number", "choice", "string-integer"],
)
def test_config_values_checked_like_flags_exit_2(tmp_path, capsys, subcommand, config, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x.csv"
    assert run([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "x.csv.manifest.json").exists()


def test_malformed_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code = run(["gfun", "--config", str(cfg), "--out", str(tmp_path / "g.csv")])
    assert code == 2


def test_series_csv_uses_lf_newlines(tmp_path):
    grid = GridSpec.uniform(0.2, 0.1)
    series = TimeSeries(grid, {"g": np.array([1.0, 0.9, 0.8])})
    out = tmp_path / "nl.csv"
    write_series_csv(series, str(out))
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_sweep_inverted_range_exits_2(tmp_path):
    code = run([
        "sweep", "--gamma-w-range", "1.0:0.5:0.1", "--kappa-range", "0.1:0.2:0.05",
        "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 2


def test_missing_out_exits_2():
    assert run(["gfun", "--gamma-w", "0.9", "--kappa", "0.43"]) == 2


def test_structural_config_errors_exit_2(tmp_path):
    out = str(tmp_path / "x.csv")
    base = ["--gamma-w", "0.9", "--kappa", "0.43", "--out", out]
    assert run(["gfun", *base, "--dt", "-0.1"]) == 2
    assert run(["gfun", *base, "--t-max", "0"]) == 2
    assert run(["phase", *base, "--theta", "4.0"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--gamma-w-range", "0.9:0.9:0.1", "--kappa-range", "0.43:0.43:0.1",
         "--t-max", "nan"],
        ["sweep", "--gamma-w-range", "0.9:0.9:0.1", "--kappa-range", "0.43:0.43:0.1",
         "--t-max", "inf"],
        ["nonmarkov", "--gamma-w", "0.9", "--kappa", "0.43", "--t-max", "nan"],
        ["gfun", "--gamma-w", "0.9", "--kappa", "0.43", "--t-max", "nan"],
        ["qsd", "--gamma-w", "0.9", "--kappa", "0.43", "--t-max", "nan", "--n-traj", "100"],
        ["gfun", "--gamma-w", "0.9", "--kappa", "0.43", "--dt", "nan"],
        ["gfun", "--gamma-w", "0.9", "--kappa", "0.43", "--dt", "inf"],
    ],
    ids=["sweep-nan", "sweep-inf", "nonmarkov-nan", "gfun-nan", "qsd-nan", "dt-nan", "dt-inf"],
)
def test_non_finite_t_max_and_dt_exit_2(tmp_path, capsys, argv):
    # sweep wrote all-ERR CSVs with exit 0, the others failed with exit 1 (a
    # traceback for nonmarkov): a NaN passed the t_max > 0 check
    out = tmp_path / "x.csv"
    assert run([*argv, "--out", str(out)]) == 2
    assert "configuration error: need finite t_max > 0 and dt > 0" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "x.csv.manifest.json").exists()


ONE_CELL = ["--gamma-w-range", "0.9:0.9:0.1", "--kappa-range", "0.43:0.43:0.1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", *ONE_CELL, "--Gamma-w", "2"],
        ["sweep", *ONE_CELL, "--dt", "0.1"],
        ["boundaries", "--t-max", "1"],
        ["markov-limit", "--kappa", "0.5", "--gamma-w", "0.3"],
    ],
    ids=["sweep-Gamma-w", "sweep-dt", "boundaries-t-max", "markov-limit-gamma-w"],
)
def test_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, argv):
    # the sweep wrote the Gamma_w = 1 cells and recorded Gamma_w = 2
    out = tmp_path / "x.csv"
    assert run([*argv, "--out", str(out)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "x.csv.manifest.json").exists()


class _Reads:
    """cfg, recording the names of the attributes read from it."""

    def __init__(self, cfg):
        self.cfg, self.read = cfg, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.cfg, name)


SERIES_ARGS = ["--gamma-w", "0.9", "--kappa", "0.43", "--t-max", "1", "--dt", "0.1"]
EVERY_SUBCOMMAND = {
    "gfun": SERIES_ARGS,
    "phase": SERIES_ARGS,
    "dynamics": SERIES_ARGS,
    "nonmarkov": SERIES_ARGS,
    "qfi": SERIES_ARGS,
    "sweep": [*ONE_CELL, "--t-max", "20"],
    "boundaries": ["--gamma-w-range", "0.5:1.0:0.5"],
    "markov-limit": ["--kappa", "0.5", "--t-max", "1", "--dt", "0.1"],
    "qsd": [*SERIES_ARGS, "--n-traj", "100"],
}


@pytest.mark.parametrize("subcommand", sorted(EVERY_SUBCOMMAND))
def test_handler_reads_every_flag_of_its_subcommand(tmp_path, monkeypatch, subcommand):
    # a flag the handler ignores would be accepted and recorded, and change nothing
    assert set(EVERY_SUBCOMMAND) == set(cli._SUBCOMMANDS)
    spec = cli._SUBCOMMANDS[subcommand]
    reads = []

    def recording(cfg):
        reads.append(_Reads(cfg))
        return spec.handler(reads[-1])

    monkeypatch.setitem(cli._SUBCOMMANDS, subcommand, dataclasses.replace(spec, handler=recording))
    assert run([subcommand, *EVERY_SUBCOMMAND[subcommand], "--out", str(tmp_path / "o")]) == 0
    assert reads[0].read == set(spec.flags) - {"out", "format"}


def test_sweep_manifest_records_only_what_the_sweep_read(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["sweep", *ONE_CELL, "--t-max", "50", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert manifest["grid"] == {"t_max": 50.0}
    assert manifest["gamma_w_range"] == "0.9:0.9:0.1"
    assert manifest["output"] == str(out) and "out" not in manifest
    for key in ("params", "theta", "seed", "n_traj", "gamma_w", "kappa", "omega", "Gamma_w"):
        assert key not in manifest, key


def test_computation_error_exits_1_and_writes_manifest(tmp_path):
    out = tmp_path / "g.csv"
    code = run([
        "gfun", "--gamma-w", "-1.0", "--kappa", "0.43",
        "--t-max", "5", "--dt", "0.1", "--out", str(out),
    ])
    assert code == 1
    manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
    assert manifest["status"] == "error"
    assert "gamma_w" in manifest["error"]


def test_unexpected_error_exits_1_and_writes_manifest(tmp_path, monkeypatch, capsys):
    def broken(cfg):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setitem(cli._SUBCOMMANDS, "gfun",
                        dataclasses.replace(cli._SUBCOMMANDS["gfun"], handler=broken))
    out = tmp_path / "g.csv"
    code = run(["gfun", "--t-max", "5", "--dt", "0.1", "--out", str(out)])
    assert code == 1
    manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error_type"] == "LinAlgError"
    assert manifest["error"] == "singular matrix"
    assert "LinAlgError: singular matrix" in capsys.readouterr().err


def test_python_m_nmgeo_runs_cli(tmp_path):
    src = str(Path(nmgeo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "nmgeo", "gfun", "--gamma-w", "0.9", "--kappa", "0.43",
         "--t-max", "1", "--dt", "0.1", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(_read_csv(out)) == 12  # header + 11 rows
    assert json.loads((tmp_path / "x.csv.manifest.json").read_text())["status"] == "ok"


def test_byte_identical_reruns(tmp_path):
    args = [
        "gfun", "--gamma-w", "0.9", "--kappa", "0.43",
        "--t-max", "5", "--dt", "0.01",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_qsd_byte_identical_and_within_band(tmp_path):
    args = [
        "qsd", "--gamma-w", "0.9", "--kappa", "0.43",
        "--theta", str(math.pi / 4), "--t-max", "1.0", "--dt", "0.01",
        "--n-traj", "500", "--seed", "7",
    ]
    out1, out2 = tmp_path / "q1.csv", tmp_path / "q2.csv"
    assert run(args + ["--out", str(out1), "--workers", "1"]) == 0
    assert run(args + ["--out", str(out2), "--workers", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    manifest = json.loads((tmp_path / "q1.csv.manifest.json").read_text())
    assert manifest["max_deviation_from_master_equation"] <= manifest["deviation_band_5_over_sqrt_n"]
    assert manifest["seed"] == 7 and manifest["n_traj"] == 500
    assert manifest["workers"] == 1
    assert json.loads((tmp_path / "q2.csv.manifest.json").read_text())["workers"] == 3


def test_qsd_manifest_records_the_worker_count_that_ran(tmp_path, monkeypatch):
    monkeypatch.setenv("NMGEO_THREADS", "2")
    out = tmp_path / "q.csv"
    args = ["qsd", "--t-max", "0.1", "--n-traj", "100", "--out", str(out)]
    assert run(args) == 0
    assert json.loads((tmp_path / "q.csv.manifest.json").read_text())["workers"] == 2


def test_qsd_negative_seed_exit_2(tmp_path, capsys):
    # it died inside numpy with a traceback and exit 1
    out = tmp_path / "q.csv"
    args = ["qsd", "--gamma-w", "0.9", "--kappa", "0.43", "--t-max", "1.0", "--n-traj", "100"]
    assert run([*args, "--seed", "-1", "--out", str(out)]) == 2
    assert "configuration error: qsd needs --seed >= 0, got -1" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "q.csv.manifest.json").exists()


def test_sweep_csv_via_cli(tmp_path):
    out = tmp_path / "s.csv"
    code = run([
        "sweep", "--gamma-w-range", "0.8:1.0:0.1", "--kappa-range", "0.1:0.45:0.35",
        "--t-max", "50", "--out", str(out),
    ])
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 7  # header + 3 * 2 cells
    regions = {r[2] for r in rows[1:]}
    assert regions <= {"M", "NM_DIV", "NM_NODIV"}
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert sum(manifest["region_counts"].values()) == 6
    assert manifest["error_types"] == {}


def test_sweep_manifest_counts_error_types(tmp_path):
    out = tmp_path / "s.csv"
    code = run([
        "sweep", "--gamma-w-range=-0.1:0.1:0.1", "--kappa-range=-0.1:0.1:0.2",
        "--t-max", "20", "--out", str(out),
    ])
    assert code == 0
    rows = _read_csv(out)
    assert [r[2] for r in rows[1:]] == ["ERR"] * 5 + ["NM_NODIV"]
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert manifest["region_counts"] == {"ERR": 5, "NM_NODIV": 1}
    assert manifest["error_types"] == {"NonPositiveRate": 4, "NegativeCoupling": 1}


def test_oversize_series_grid_refused_before_running(tmp_path, capsys):
    out = tmp_path / "g.csv"
    # 2e7 + 1 samples; the README recipes use 20,001
    code = run(["gfun", "--t-max", "20", "--dt", "1e-6", "--out", str(out)])
    assert code == 2
    assert "exceeds 10000000" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "g.csv.manifest.json").exists()


def test_oversize_sweep_refused_before_running(tmp_path, capsys):
    out = tmp_path / "s.csv"
    # 3,001 x 1,001 cells; the README sweep has 18,000
    code = run([
        "sweep", "--gamma-w-range", "0.0:3.0:0.001", "--kappa-range", "0.0:1.0:0.001",
        "--out", str(out),
    ])
    assert code == 2
    assert "3004001 cells exceeds 1000000" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "s.csv.manifest.json").exists()


def test_oversize_boundaries_refused_before_running(tmp_path, capsys):
    out = tmp_path / "b.csv"
    # 3,000,001 rows; the README boundaries recipe has 60
    code = run(["boundaries", "--gamma-w-range", "0.0:3.0:1e-6", "--out", str(out)])
    assert code == 2
    assert "3000001 points exceeds 1000000" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "b.csv.manifest.json").exists()


def test_boundaries_csv(tmp_path):
    out = tmp_path / "b.csv"
    code = run(["boundaries", "--gamma-w-range", "1.6:2.0:0.2", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert rows[0] == ["gamma_w", "kappa_green", "kappa_blue", "kappa_tangency"]
    # gamma_w = 1.6: green + tangency, no blue; gamma_w = 2.0: blue only
    row16 = rows[1]
    assert row16[1] != "" and row16[2] == "" and row16[3] != ""
    row20 = rows[3]
    assert row20[1] != "" and row20[2] != "" and row20[3] == ""
    manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert manifest["tangency_errors"] == {}


def test_readme_boundaries_recipe(tmp_path):
    out = tmp_path / "b.csv"
    assert run(["boundaries", "--gamma-w-range", "0.05:3.0:0.05", "--out", str(out)]) == 0
    rows = _read_csv(out)[1:]
    assert len(rows) == 60
    manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert manifest["tangency_errors"] == {}
    assert manifest["no_markov_region"] == [0.05]
    assert rows[0][3] == ""  # no Markov region at 0.05: empty, never 0
    assert all(0.0 < float(r[3]) < float(r[1]) for r in rows[1:33])
    assert all(r[3] == "" for r in rows[33:])
    # the closed-form green and blue columns, byte for byte
    columns = "".join(f"{r[1]},{r[2]}\n" for r in rows).encode()
    assert hashlib.sha256(columns).hexdigest() == (
        "0c12c8d92304b2064bab8f3f39a7c1444646f3853300bbf53f93f3cb983f367c"
    )
    # kappa* of this recipe before the first-lobe refine became a Newton
    # iteration; 1.6 is test_tangency_point_values_kept's value, where the
    # continuation's 0.33987426868951265 left the first lobe at g'/kappa^2 =
    # -3.1e-11 and the closed form leaves 1.8e-18
    for i, kappa in [
        (1, 0.056687694161128295),
        (9, 0.27474639208485674),
        (19, 0.36359988750924732),
        (31, 0.339874270402564),
        (32, 0.33165503086114223),
    ]:
        # row i holds gamma_w = 0.05 (i + 1): 0.1, 0.5, 1.0, 1.6 and 1.65
        assert float(rows[i][3]) == pytest.approx(kappa, rel=1e-12, abs=0.0), rows[i]


def test_boundaries_manifest_keeps_tangency_error(tmp_path, monkeypatch):
    out = tmp_path / "b.csv"
    assert run(["boundaries", "--gamma-w-range", "0.05:0.1:0.05", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[1][3] == "" and rows[2][3] != ""
    manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert manifest["tangency_errors"] == {}
    assert manifest["no_markov_region"] == [0.05]
    # a failed solve is an error of its row, not a missing Markov region
    monkeypatch.setattr(
        nmgeo.phasediagram, "_tangency_residual",
        lambda gw, x0: (np.full(x0.shape, math.nan), np.ones(x0.shape), np.ones(x0.shape)),
    )
    assert run(["boundaries", "--gamma-w-range", "0.05:0.1:0.05", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[1][3] == "" and rows[2][3] == ""
    manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert list(manifest["tangency_errors"]) == ["0.05", "0.1"]
    assert all(e.startswith("tangency residual nan") for e in manifest["tangency_errors"].values())
    assert manifest["no_markov_region"] == []


def test_markov_limit_manifest_roots(tmp_path):
    out = tmp_path / "m.csv"
    code = run([
        "markov-limit", "--kappa", "0.5", "--t-max", "30", "--dt", "0.01",
        "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
    roots = manifest["root_times"]
    assert len(roots) == 4
    assert roots[0] == pytest.approx(4.8368, abs=1e-3)


def test_markov_limit_roots_for_any_bath_rate(tmp_path):
    # Gamma_w != 1 has no closed-form root list; the scan still finds every zero
    out = tmp_path / "m.csv"
    code = run([
        "markov-limit", "--kappa", "0.5", "--Gamma-w", "1.5", "--t-max", "30",
        "--dt", "0.01", "--out", str(out),
    ])
    assert code == 0
    roots = json.loads((tmp_path / "m.csv.manifest.json").read_text())["root_times"]
    assert roots == pytest.approx([7.31394, 16.813224, 26.312507], abs=1e-5)
    sol = nmgeo.solve_g(nmgeo.ModelParams(kappa=0.5, gamma_w=math.inf, Gamma_w=1.5))
    for t in roots:
        assert sol.g(t - 1e-6) * sol.g(t + 1e-6) < 0.0, t


def test_gfun_double_root_is_a_root_sum(tmp_path):
    # kappa = 0, gamma_w = 2: a double root, evaluated by the one modal kernel
    out = tmp_path / "g.csv"
    code = run([
        "gfun", "--gamma-w", "2.0", "--kappa", "0.0",
        "--t-max", "5", "--dt", "0.1", "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
    assert manifest["method"] == "root-sum"
    assert [row[1] for row in _read_csv(out)[1:]] == ["1"] * 51


@pytest.mark.parametrize(
    "args, confluent",
    [
        (["gfun", "--gamma-w", "0.9", "--kappa", "0.43"], False),
        (["dynamics", "--gamma-w", "0.9", "--kappa", "0.43"], False),
        # the double root of test_gfun_double_root_is_a_root_sum
        (["gfun", "--gamma-w", "2.0", "--kappa", "0.0"], False),
        # the triple root at the green/blue join
        (["gfun", "--gamma-w", repr(GREEN_BLUE_JOIN),
          "--kappa", repr(3.0 * math.sqrt(3.0) / 16.0)], True),
        (["markov-limit", "--kappa", "0.5"], True),
    ],
)
def test_manifest_records_confluent_form(tmp_path, args, confluent):
    out = tmp_path / "g.csv"
    assert run([*args, "--t-max", "5", "--dt", "0.1", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
    assert manifest["confluent"] is confluent


def test_json_format_output(tmp_path):
    out = tmp_path / "g.json"
    code = run([
        "gfun", "--gamma-w", "0.9", "--kappa", "0.43",
        "--t-max", "1", "--dt", "0.1", "--out", str(out), "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["t"]) == 11
    assert payload["g"][0] == 1.0
    assert payload["sx"] is None


def _json_dump_bytes(payload, path) -> bytes:
    """The bytes json.dump and a newline write: the writers' reference."""
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")
    return path.read_bytes()


def test_json_writers_match_json_dump(tmp_path):
    # NaN, None and -0.0 in each JSON writer's payload, in lists longer than
    # the writers encode at once
    special = [math.nan, -0.0, 1.0 / 3.0, math.inf, 1e-300] * 2000
    grid = GridSpec(0.1, len(special) - 1)
    series = TimeSeries(grid, {"g": np.array(special), "gp": np.array(special[::-1])})
    write_series_json(series, str(tmp_path / "s.json"))
    payload = {
        name: None if arr is None else np.asarray(arr, dtype=float).tolist()
        for name, arr in cli._series_table(series).items()
    }
    assert payload["sx"] is None
    expected = _json_dump_bytes(payload, tmp_path / "s.ref")
    assert (tmp_path / "s.json").read_bytes() == expected

    cells = [
        PhaseCell(0.9, -0.0, "M", None, 0.0),
        PhaseCell(0.9, 0.43, "NM_DIV", 5.186923, 1.5),
        PhaseCell(-1.0, 0.1, "ERR", None, math.nan, "gamma_w must be > 0", "NonPositiveRate"),
    ] * 3000
    cli.write_sweep_json(cells, str(tmp_path / "c.json"))
    payload = [
        {"gamma_w": c.gamma_w, "kappa": c.kappa, "region": c.region,
         "t_first_divergence": c.t_first_divergence,
         "N_total": None if math.isnan(c.n_total) else c.n_total, "error": c.error}
        for c in cells
    ]
    assert (tmp_path / "c.json").read_bytes() == _json_dump_bytes(payload, tmp_path / "c.ref")

    rows = [{"gamma_w": 0.05, "green": -0.0, "blue": None, "tangency": math.nan,
             "tangency_error": "tangency residual nan at green/1e4"}]
    cli._SUBCOMMANDS["boundaries"].write_json(rows, str(tmp_path / "b.json"))
    assert (tmp_path / "b.json").read_bytes() == _json_dump_bytes(rows, tmp_path / "b.ref")


def _run_recipes(tmp_path, fresh: bool, capsys) -> list:
    """(exit code, stderr, output bytes) of five CLI runs, sharing one parser
    unless fresh, in which case each run builds its own."""
    tmp_path.mkdir()
    bad_config = tmp_path / "bad.json"
    bad_config.write_text(json.dumps({"t_max": "20"}))
    recipes = [
        ["gfun", "--gamma-w", "0.9", "--kappa", "0.43", "--t-max", "2", "--dt", "0.01"],
        ["gfun", "--gamma-w", "0.9", "--no-such-flag", "1"],
        ["gfun", "--config", str(bad_config)],
        ["boundaries", "--gamma-w-range", "0.05:3.0:0.05"],
        # on the default t_max, which a flag left behind by gfun would change
        ["sweep", "--gamma-w-range", "0.3:0.9:0.3", "--kappa-range", "0.1:0.5:0.2"],
    ]
    results = []
    for i, argv in enumerate(recipes):
        if fresh:
            cli._build_parser.cache_clear()
        out = tmp_path / f"out{i}.csv"
        code = run([*argv, "--out", str(out)])
        results.append((code, capsys.readouterr().err, out.read_bytes() if out.exists() else None))
    return results


def test_parser_built_once_gives_the_same_runs(tmp_path, capsys):
    # the parser is built on first use and shared: a bad flag or a bad
    # config in between changes no later run
    cli._build_parser.cache_clear()
    shared = _run_recipes(tmp_path / "shared", False, capsys)
    assert cli._build_parser.cache_info().misses == 1
    fresh = _run_recipes(tmp_path / "fresh", True, capsys)
    assert [r[0] for r in shared] == [0, 2, 2, 0, 0]
    assert shared == [
        (code, err.replace(str(tmp_path / "fresh"), str(tmp_path / "shared")), out)
        for code, err, out in fresh
    ]
