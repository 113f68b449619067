import math

import numpy as np
import pytest

from nmgeo import (
    BLOCH_CONVENTION,
    GREEN_BLUE_JOIN,
    QFI_CONVENTION,
    DensityMatrix2,
    GridSpec,
    ModelParams,
    PureState2,
    classify_point,
    evolve_master_equation,
    expectations_sigma,
    f_ode_oracle,
    f_z_from_g,
    find_g_roots,
    g_ode_oracle,
    initial_state,
    non_markovianity,
    qfi_series,
    solve_g,
)

from conftest import EXCEPTION_POINT, MARKOV_POINT
from oracles import (
    density_matrix_at,
    density_series_diagnostics,
    evolve_lindblad,
    f_w_closed_form,
    f_w_from_f_z,
    initial_family_fd,
    qfi_series_eigh,
    trace_distance,
)


# ---------------------------------------------------------------------------
# O-operator coefficients
# ---------------------------------------------------------------------------

def test_f_z_boundary_values(ref_gsol):
    grid = GridSpec.uniform(1.0, 1e-4)
    fz = f_z_from_g(ref_gsol, grid).series["F_z"]
    assert abs(fz[0]) < 1e-14
    # F_z'(0) = kappa, checked by finite difference
    slope = (fz[1] - fz[0]).real / 1e-4
    assert slope == pytest.approx(0.43, rel=1e-4)


def test_f_z_first_negative_near_first_root(ref_gsol):
    grid = GridSpec.uniform(6.0, 0.001)
    fz = f_z_from_g(ref_gsol, grid).series["F_z"].real
    neg = np.nonzero(fz < -1e-10)[0]  # dead band around the t=0 rounding residue
    assert neg.size > 0
    assert grid.times()[neg[0]] == pytest.approx(5.19, abs=0.02)


def test_f_z_nonnegative_in_markov_region():
    sol = solve_g(ModelParams(**MARKOV_POINT))
    grid = GridSpec.uniform(200.0, 0.01)
    fz = f_z_from_g(sol, grid).series["F_z"].real
    assert np.all(fz >= 0.0)


def test_f_z_pole_markers_on_g_zeros(ref_params, ref_gsol):
    t_root = find_g_roots(ref_gsol, 6.0)[0]
    grid = GridSpec(dt=t_root / 2, n_steps=3)
    oc = f_z_from_g(ref_gsol, grid)
    assert oc.series["pole"][2]
    assert np.isnan(oc.series["F_z"][2].real)
    assert np.isfinite(oc.series["F_z"][1].real)
    assert oc.source == "from-g"


def test_f_w_vanishes_for_free_system():
    fz = np.zeros(11, dtype=complex)
    assert np.max(np.abs(f_w_from_f_z(fz, 0.0, 0.01))) == 0.0


def test_f_z_real_at_resonance(ref_gsol):
    grid = GridSpec.uniform(20.0, 0.01)
    oc = f_z_from_g(ref_gsol, grid)
    fz = oc.series["F_z"]
    g = ref_gsol.g(grid.times())
    mask = (np.abs(g) > 1e-6) & ~oc.series["pole"]
    assert np.max(np.abs(fz[mask].imag)) <= 1e-8


def test_f_w_zero_at_origin(ref_gsol):
    grid = GridSpec.uniform(1.0, 1e-3)
    fz = f_z_from_g(ref_gsol, grid).series["F_z"]
    fw = f_w_from_f_z(fz, 0.43, grid.dt)
    assert abs(fw[0]) < 1e-8


def test_f_w_matches_ode_oracle_before_pole(ref_params, ref_gsol):
    grid = GridSpec.uniform(4.9, 1e-3)
    oc = f_ode_oracle(ref_params, grid)
    fz = f_z_from_g(ref_gsol, grid).series["F_z"]
    fw = f_w_from_f_z(fz, ref_params.kappa, grid.dt)
    assert np.max(np.abs(fw - oc.series["F_w"])) < 1e-6


def test_f_w_matches_ode_oracle_on_pole_free_window():
    p = ModelParams(**MARKOV_POINT)
    sol = solve_g(p)
    grid = GridSpec.uniform(50.0, 1e-3)
    oc = f_ode_oracle(p, grid)
    assert oc.pole_time is None
    fz = f_z_from_g(sol, grid).series["F_z"]
    fw = f_w_from_f_z(fz, p.kappa, grid.dt)
    assert np.max(np.abs(fw - oc.series["F_w"])) < 1e-6


def test_f_w_closed_form_matches_oracle(ref_params, ref_gsol):
    grid = GridSpec.uniform(4.5, 0.01)
    oc = f_ode_oracle(ref_params, grid)
    fw = f_w_closed_form(ref_gsol, grid.times())
    assert np.max(np.abs(fw - oc.series["F_w"])) < 1e-6


def test_f_ode_oracle_matches_f_z_from_g(ref_params, ref_gsol):
    grid = GridSpec.uniform(5.0, 0.01)
    oc = f_ode_oracle(ref_params, grid)
    fz_g = f_z_from_g(ref_gsol, grid).series["F_z"]
    assert np.max(np.abs(oc.series["F_z"] - fz_g)) < 1e-6


def test_f_ode_oracle_pole_time_matches_first_root(ref_params, ref_gsol):
    grid = GridSpec.uniform(8.0, 0.01)
    oc = f_ode_oracle(ref_params, grid)
    assert oc.pole_time is not None
    t_root = find_g_roots(ref_gsol, 8.0)[0]
    assert abs(oc.pole_time - t_root) < 1e-3
    assert np.all(oc.series["pole"][grid.times() > oc.pole_time])


def test_f_ode_oracle_free_system():
    grid = GridSpec.uniform(10.0, 0.01)
    oc = f_ode_oracle(ModelParams(kappa=0.0, gamma_w=0.9), grid)
    assert np.max(np.abs(oc.series["F_z"])) < 1e-12
    assert np.max(np.abs(oc.series["F_w"])) < 1e-12


def test_f_z_satisfies_second_order_closed_equation(ref_gsol):
    # the coupled F_z/F_w system folds into
    #   F'' = gw k - F'(gw - 3 k F) - F(gw Gw + 2 k F (k F - gw) + 2 k^2) / 2
    # with F(0)=0, F'(0)=k, F''(0)=0; evaluate both sides exactly through g
    gw, Gw, k = 0.9, 1.0, 0.43
    ts = np.linspace(1e-6, 4.9, 200)
    g, gp, gpp = ref_gsol.eval(ts)
    gppp = -gw * gpp - 0.5 * (gw * Gw + 2 * k**2) * gp - gw * k**2 * g
    fz = -gp / (k * g)
    dfz = -gpp / (k * g) + k * fz**2
    d2fz = -gppp / (k * g) - fz * gpp / g + 2 * k * fz * dfz
    rhs = (
        gw * k
        - dfz * (gw - 3 * k * fz)
        - 0.5 * fz * (gw * Gw + 2 * k * fz * (k * fz - gw) + 2 * k**2)
    )
    assert np.max(np.abs(d2fz - rhs)) < 1e-9
    assert abs(fz[0]) < 1e-5 and dfz[0] == pytest.approx(k, rel=1e-6)
    assert abs(d2fz[0]) < 1e-5  # F''(0) = 0


def test_f_ode_oracle_detuned_smoke():
    p = ModelParams(kappa=0.3, gamma_w=0.9, omega=1.5, omega_c=1.0, Omega_w=1.0)
    grid = GridSpec.uniform(10.0, 0.01)
    oc = f_ode_oracle(p, grid)
    fz = oc.series["F_z"]
    finite = ~oc.series["pole"]
    assert np.all(np.isfinite(fz[finite].real))
    # detuning makes F_z genuinely complex
    assert np.max(np.abs(fz[finite].imag)) > 1e-3


# ---------------------------------------------------------------------------
# master equation
# ---------------------------------------------------------------------------

def test_ground_state_is_stationary(ref_params, ref_gsol):
    grid = GridSpec.uniform(30.0, 0.01)
    rho0 = PureState2(0.0, 1.0).density_matrix()
    rho = evolve_master_equation(ref_params, rho0, grid, gsol=ref_gsol)
    assert np.max(np.abs(rho["rho_gg"] - 1.0)) < 1e-14
    assert np.max(np.abs(rho["rho_eg"])) < 1e-14


def test_closed_form_against_independent_g(ref_params):
    # g from the adaptive oracle, evolution from the root-sum route
    grid = GridSpec.uniform(50.0, 0.01)
    rho0 = initial_state(math.pi / 4).density_matrix()
    rho = evolve_master_equation(ref_params, rho0, grid, gsol=solve_g(ref_params))
    g_ref = g_ode_oracle(ref_params, grid)["g"]
    assert np.max(np.abs(rho["rho_ee"] - rho0.rho_ee.real * g_ref**2)) < 1e-7
    assert np.max(np.abs(np.abs(rho["rho_eg"]) - abs(rho0.rho_eg) * np.abs(g_ref))) < 1e-7


def test_numeric_integrator_agrees_with_g_route(ref_params, ref_gsol):
    # independent propagation route: integrate the Lindblad equation driven by F_z
    grid = GridSpec.uniform(5.0, 0.005)
    kappa = ref_params.kappa

    def fz_at(t):
        g, gp, _ = ref_gsol.eval(t)
        return complex(-gp[0] / (kappa * g[0]))

    rho0 = initial_state(0.9).density_matrix()
    by_fz = evolve_lindblad(ref_params, rho0, grid, fz_at)
    by_g = evolve_master_equation(ref_params, rho0, grid, gsol=ref_gsol)
    for ch in ("rho_ee", "rho_eg", "rho_gg"):
        assert np.max(np.abs(by_fz[ch] - by_g[ch])) < 1e-7
    tr_err, _ = density_series_diagnostics(by_fz)
    assert tr_err <= 1e-10


def test_numeric_integrator_from_sampled_series(ref_params, ref_gsol):
    # series-driven variant (linear interpolation), away from the pole
    grid = GridSpec.uniform(3.0, 0.002)
    fz = f_z_from_g(ref_gsol, grid).series
    rho0 = initial_state(0.9).density_matrix()
    by_fz = evolve_lindblad(ref_params, rho0, grid, fz)
    by_g = evolve_master_equation(ref_params, rho0, grid, gsol=ref_gsol)
    for ch in ("rho_ee", "rho_eg", "rho_gg"):
        assert np.max(np.abs(by_fz[ch] - by_g[ch])) < 1e-7


def test_trace_preserved_for_random_states(ref_params, ref_gsol, rng):
    grid = GridSpec.uniform(50.0, 0.05)
    for _ in range(100):
        n = rng.normal(size=3)
        n *= rng.uniform(0.0, 1.0) / np.linalg.norm(n)
        rho0 = DensityMatrix2(
            0.5 * (1.0 + n[2]),
            0.5 * (n[0] - 1j * n[1]),
            0.5 * (n[0] + 1j * n[1]),
            0.5 * (1.0 - n[2]),
        )
        rho = evolve_master_equation(ref_params, rho0, grid, gsol=ref_gsol)
        tr_err, min_eig = density_series_diagnostics(rho)
        assert tr_err <= 1e-10
        assert min_eig >= -1e-9


def test_expectation_values_basic():
    grid = GridSpec.uniform(1.0, 0.5)
    n = grid.n_steps + 1
    from nmgeo.model import TimeSeries

    excited = TimeSeries(grid, {
        "rho_ee": np.ones(n), "rho_eg": np.zeros(n, dtype=complex),
        "rho_ge": np.zeros(n, dtype=complex), "rho_gg": np.zeros(n),
    })
    s = expectations_sigma(excited)
    assert np.allclose([s["sx"][0], s["sy"][0], s["sz"][0]], [0.0, 0.0, 1.0])

    mixed = TimeSeries(grid, {
        "rho_ee": 0.5 * np.ones(n), "rho_eg": np.zeros(n, dtype=complex),
        "rho_ge": np.zeros(n, dtype=complex), "rho_gg": 0.5 * np.ones(n),
    })
    s = expectations_sigma(mixed)
    assert np.allclose([s["sx"][0], s["sy"][0], s["sz"][0]], [0.0, 0.0, 0.0])


def test_expectations_continuous_across_divergences(ref_params, ref_gsol):
    grid = GridSpec.uniform(20.0, 0.01)
    rho0 = initial_state(math.pi / 4).density_matrix()
    rho = evolve_master_equation(ref_params, rho0, grid, gsol=ref_gsol)
    sig = expectations_sigma(rho)
    for t_div in find_g_roots(ref_gsol, 20.0):
        for eps in (1e-4, 1e-6):
            pair = GridSpec(dt=2 * eps, n_steps=1, t0=t_div - eps)
            r2 = evolve_master_equation(ref_params, rho0, pair, gsol=ref_gsol)
            s2 = expectations_sigma(r2)
            for ch in ("sx", "sy", "sz"):
                assert abs(s2[ch][1] - s2[ch][0]) < 10.0 * eps
    # no channel norm exceeds the Bloch ball
    norm = np.sqrt(sig["sx"] ** 2 + sig["sy"] ** 2 + sig["sz"] ** 2)
    assert np.max(norm) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# trace distance and non-Markovianity
# ---------------------------------------------------------------------------

def test_trace_distance_basic():
    e = PureState2(1.0, 0.0).density_matrix()
    g = PureState2(0.0, 1.0).density_matrix()
    assert trace_distance(e, e) == 0.0
    assert trace_distance(e, g) == pytest.approx(1.0)


def test_optimal_pair_gives_abs_g(ref_params, ref_gsol):
    # equatorial antipodal pair: distance |g(t)| at every time
    grid = GridSpec.uniform(20.0, 0.5)
    plus = DensityMatrix2(0.5, 0.5, 0.5, 0.5)
    minus = DensityMatrix2(0.5, -0.5, -0.5, 0.5)
    r1 = evolve_master_equation(ref_params, plus, grid, gsol=ref_gsol)
    r2 = evolve_master_equation(ref_params, minus, grid, gsol=ref_gsol)
    g = np.abs(ref_gsol.g(grid.times()))
    for k in range(grid.n_steps + 1):
        d = trace_distance(density_matrix_at(r1, k), density_matrix_at(r2, k))
        assert abs(d - g[k]) < 1e-8


def test_random_pairs_never_beat_optimal(ref_params, ref_gsol, rng):
    grid = GridSpec.uniform(20.0, 1.0)
    gabs = np.abs(ref_gsol.g(grid.times()))
    for _ in range(200):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        a = DensityMatrix2(
            0.5 * (1 + n[2]), 0.5 * (n[0] - 1j * n[1]), 0.5 * (n[0] + 1j * n[1]), 0.5 * (1 - n[2])
        )
        b = DensityMatrix2(
            0.5 * (1 - n[2]), -0.5 * (n[0] - 1j * n[1]), -0.5 * (n[0] + 1j * n[1]), 0.5 * (1 + n[2])
        )
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
        ra = evolve_master_equation(ref_params, a, grid, gsol=ref_gsol)
        rb = evolve_master_equation(ref_params, b, grid, gsol=ref_gsol)
        for k in range(grid.n_steps + 1):
            d = trace_distance(density_matrix_at(ra, k), density_matrix_at(rb, k))
            assert d <= gabs[k] + 1e-8


def test_nonmarkovianity_zero_in_markov_region():
    rep = non_markovianity(ModelParams(**MARKOV_POINT), 200.0, 0.01)
    assert np.max(rep.series["N_t"]) <= 1e-9
    assert rep.windows == []


def test_no_backflow_windows_when_g_is_constant():
    # kappa = 0 decouples the qubit: g = 1, and rounding noise in g' is no backflow
    assert non_markovianity(ModelParams(kappa=0.0, gamma_w=0.5), 200.0).windows == []


def test_nonmarkovianity_windows_at_reference_point(ref_params):
    rep = non_markovianity(ref_params, 20.0, 0.001)
    starts = [w[0] for w in rep.windows]
    assert len(starts) == 4
    for found, expected in zip(starts, (5.19, 8.85, 14.87, 19.603)):
        assert abs(found - expected) < 0.02
    n_t = rep.series["N_t"]
    assert np.all(np.diff(n_t) >= 0.0)
    ts = rep.series.t
    for lo, hi in rep.windows:
        inside = (ts[:-1] >= lo) & (ts[1:] <= hi)
        assert np.all(np.diff(n_t)[inside] > 0.0)
    outside = np.ones(ts.size - 1, dtype=bool)
    for lo, hi in rep.windows:
        outside &= ~((ts[:-1] < hi) & (ts[1:] > lo))  # any overlap with the window
    assert np.max(np.diff(n_t)[outside]) <= 1e-9


def test_nonmarkov_n_total_is_exact_and_independent_of_dt(ref_params):
    # the grid value N_t[-1] is 0.111810 at dt = 0.01 and 0.112239 at dt = 0.001
    exact = classify_point(0.9, 0.43, t_max=20.0).n_total
    for dt in (0.01, 0.001):
        assert non_markovianity(ref_params, 20.0, dt).n_total == exact, dt
    assert exact == pytest.approx(0.112257, abs=1e-6)


def test_nonmarkov_positive_without_divergence():
    p = ModelParams(**EXCEPTION_POINT)
    rep = non_markovianity(p, 200.0, 0.01)
    assert rep.n_total > 1e-6
    assert find_g_roots(solve_g(p), 200.0) == []


def test_sign_lock_between_abs_g_slope_and_f_z(ref_gsol):
    grid = GridSpec.uniform(20.0, 0.001)
    ts = grid.times()
    g, gp, _ = ref_gsol.eval(ts)
    fz = f_z_from_g(ref_gsol, grid).series["F_z"].real
    mask = np.abs(g) > 1e-9
    slope_sign = np.sign(g * gp)  # sign of d|g|/dt
    fz_sign = np.sign(np.where(np.abs(fz) > 1e-10, fz, 0.0))
    check = mask & (fz_sign != 0.0) & (slope_sign != 0.0)
    assert np.all(slope_sign[check] == -fz_sign[check])


# ---------------------------------------------------------------------------
# quantum Fisher information
# ---------------------------------------------------------------------------

def test_qfi_initial_value_is_four(ref_params, rng):
    at_zero = GridSpec(dt=1.0, n_steps=1)  # single-time QFI: the first sample, t = 0
    for theta in rng.uniform(0.1, 1.4, 5):
        assert qfi_series(ref_params, theta, at_zero)[0] == pytest.approx(4.0, abs=1e-9)


def test_qfi_constant_under_free_evolution():
    p = ModelParams(kappa=0.0, gamma_w=0.9)
    grid = GridSpec.uniform(30.0, 0.1)
    f = qfi_series(p, 0.6, grid)
    assert np.max(np.abs(f - 4.0)) < 1e-9


def test_qfi_bloch_convention_initial_value(ref_params):
    # half-angle parametrization moves at half speed: F(0) = 1
    at_zero = GridSpec(dt=1.0, n_steps=1)
    assert qfi_series(ref_params, 0.8, at_zero, convention=BLOCH_CONVENTION)[0] == pytest.approx(
        1.0, abs=1e-9
    )


def test_qfi_analytic_vs_finite_difference(ref_params, ref_gsol):
    grid = GridSpec.uniform(10.0, 0.05)
    fa = qfi_series(ref_params, 0.7, grid, gsol=ref_gsol)
    family = initial_family_fd(0.7, QFI_CONVENTION)
    fd = qfi_series_eigh(ref_params, 0.7, grid, gsol=ref_gsol, family=family)
    mask = fa > 1e-3
    assert np.max(np.abs(fa[mask] - fd[mask]) / fa[mask]) < 1e-4


# (gamma_w, kappa): the reference point, the non-divergent backflow point, a
# Markovian point, free evolution, a blue-side point and the green/blue join
QFI_ORACLE_POINTS = [
    (0.9, 0.43), (0.3, 0.23), (0.9, 0.10), (0.9, 0.0), (2.5, 0.5),
    (GREEN_BLUE_JOIN, 3.0 * math.sqrt(3.0) / 16.0),
]
# the pole angles of both conventions (0, pi/2, pi) and 1e-7 from either side
QFI_ORACLE_THETAS = [
    0.0, 1e-7, 0.3, math.pi / 4, math.pi / 2 - 1e-7, math.pi / 2, 2.0, math.pi - 1e-7, math.pi,
]


@pytest.mark.parametrize("gamma_w,kappa", QFI_ORACLE_POINTS)
def test_qfi_closed_form_matches_eigh_oracle(gamma_w, kappa):
    # the grid crosses zeros of g, where the state is pure
    p = ModelParams(kappa=kappa, gamma_w=gamma_w)
    sol = solve_g(p)
    grid = GridSpec.uniform(20.0, 0.001)
    for convention in (QFI_CONVENTION, BLOCH_CONVENTION):
        for theta in QFI_ORACLE_THETAS:
            f = qfi_series(p, theta, grid, convention, gsol=sol)
            ref = qfi_series_eigh(p, theta, grid, convention, gsol=sol)
            assert np.max(np.abs(f - ref)) <= 1e-13, (convention, theta)


def test_qfi_free_evolution_is_four_to_rounding():
    p = ModelParams(kappa=0.0, gamma_w=0.9)
    grid = GridSpec.uniform(20.0, 0.001)
    for theta in QFI_ORACLE_THETAS:
        assert np.max(np.abs(qfi_series(p, theta, grid) - 4.0)) <= 1e-14, theta


def test_qfi_growth_locks_to_backflow_windows(ref_params, ref_gsol):
    grid = GridSpec.uniform(10.0, 0.002)
    f = qfi_series(ref_params, math.pi / 4, grid, gsol=ref_gsol)
    fz = f_z_from_g(ref_gsol, grid).series["F_z"].real
    df = np.diff(f)
    grow = df > 0.0
    backflow = fz < 0.0
    # agreement away from window edges (one-step slack there)
    interior = backflow[:-1] == backflow[1:]
    finite = ~np.isnan(fz[:-1]) & ~np.isnan(fz[1:])
    sel = interior & finite
    assert np.all(grow[sel] == backflow[:-1][sel])
