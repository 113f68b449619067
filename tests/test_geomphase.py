import math

import numpy as np
import pytest

from nmgeo import (
    GridSpec,
    ModelParams,
    beta_imag_at,
    divergence_report,
    find_g_roots,
    geometric_phase,
    solve_g,
)

from conftest import EXCEPTION_POINT


def test_total_phase_starts_at_zero(ref_params, ref_gsol):
    grid = GridSpec.uniform(5.0, 0.01)
    phi = geometric_phase(ref_params, 0.7, grid, gsol=ref_gsol).series["phi_T"]
    assert abs(phi[0]) < 1e-12


def test_total_phase_pole_state_substitution(ref_params, ref_gsol):
    # theta = 0: phi_T = -i log g - omega t / 2
    grid = GridSpec.uniform(4.0, 0.01)
    ts = grid.times()
    g = ref_gsol.g(ts)
    phi = geometric_phase(ref_params, 0.0, grid, gsol=ref_gsol).series["phi_T"]
    expected = -1j * np.log(g.astype(complex)) - 0.5 * ref_params.omega * ts
    assert np.max(np.abs(phi - expected)) < 1e-12


def test_total_phase_imag_blows_up_at_first_root(ref_params, ref_gsol):
    t_root = find_g_roots(ref_gsol, 6.0)[0]
    offsets = np.array([1e-2, 1e-4, 1e-6])
    vals = []
    for eps in offsets:
        grid = GridSpec(dt=t_root - eps, n_steps=1)
        phi = geometric_phase(ref_params, math.pi / 4, grid, gsol=ref_gsol).series["phi_T"]
        vals.append(abs(phi[1].imag))
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 5.0


def test_dynamical_phase_values(ref_params, ref_gsol):
    grid = GridSpec.uniform(10.0, 0.01)
    ts = grid.times()
    phi = geometric_phase(ref_params, 0.7, grid, gsol=ref_gsol).series["phi_d"]
    assert abs(phi[0]) < 1e-12
    # theta = pi: phi_d = omega t / 2 exactly, independent of g
    phi_pi = geometric_phase(ref_params, math.pi, grid, gsol=ref_gsol).series["phi_d"]
    assert np.max(np.abs(phi_pi - 0.5 * ref_params.omega * ts)) < 1e-12


def test_dynamical_phase_pole_state_finite_at_g_zero(ref_params, ref_gsol):
    # theta = pi stays omega t / 2 even when a sample lands on a zero of g
    t_root = find_g_roots(ref_gsol, 6.0)[0]
    grid = GridSpec(dt=t_root / 2, n_steps=2)
    g = ref_gsol.g(grid.times())
    assert abs(g[2]) < 1e-12
    phi = geometric_phase(ref_params, math.pi, grid, gsol=ref_gsol).series["phi_d"]
    assert np.all(np.isfinite(phi.real))
    assert phi[2] == pytest.approx(0.5 * ref_params.omega * t_root)


def test_dynamical_phase_free_system():
    p = ModelParams(kappa=0.0, gamma_w=0.9)
    grid = GridSpec.uniform(10.0, 0.01)
    ts = grid.times()
    phi = geometric_phase(p, 0.6, grid).series["phi_d"]
    assert np.max(np.abs(phi.imag)) < 1e-15
    assert np.allclose(phi.real, -0.5 * ts * math.cos(0.6))


def test_beta_zero_at_t0(rng):
    for _ in range(5):
        p = ModelParams(kappa=rng.uniform(0.05, 0.8), gamma_w=rng.uniform(0.2, 2.5))
        theta = rng.uniform(0.05, math.pi - 0.05)
        ps = geometric_phase(p, theta, GridSpec.uniform(2.0, 0.01))
        assert abs(ps.series["beta"][0]) < 1e-12


def test_beta_vanishes_for_pole_states(ref_params):
    grid = GridSpec.uniform(20.0, 0.01)
    for theta in (0.0, math.pi):
        ps = geometric_phase(ref_params, theta, grid)
        assert np.max(np.abs(ps.series["beta"])) == 0.0
        assert np.max(np.abs(ps.series["beta_I"])) == 0.0


def test_free_evolution_reproduces_unitary_phase():
    # closed path t = 2 pi / omega: beta = pi (cos(theta) - 1), real
    p = ModelParams(kappa=0.0, gamma_w=0.9)
    theta = math.pi / 3
    grid = GridSpec.uniform(2.0 * math.pi, 2.0 * math.pi / 2000)
    ps = geometric_phase(p, theta, grid)
    beta_end = ps.series["beta"][-1]
    assert abs(beta_end.imag) < 1e-9
    assert beta_end.real == pytest.approx(math.pi * (math.cos(theta) - 1.0), abs=1e-9)
    assert np.max(np.abs(ps.series["beta"].imag)) < 1e-9


def test_eq4_consistent_with_phase_difference(rng):
    worst = 0.0
    for _ in range(50):
        p = ModelParams(kappa=rng.uniform(0.05, 1.0), gamma_w=rng.uniform(0.1, 3.0))
        theta = rng.uniform(0.05, math.pi - 0.05)
        ps = geometric_phase(p, theta, GridSpec.uniform(20.0, 0.02))
        worst = max(worst, ps.consistency_residual)
    assert worst <= 1e-9


def test_divergence_times_equal_g_roots(ref_params):
    grid = GridSpec.uniform(20.0, 0.01)
    ps = geometric_phase(ref_params, math.pi / 4, grid)
    roots = find_g_roots(solve_g(ref_params), 20.0)
    assert ps.divergence_times == roots


def test_beta_continuous_between_roots(ref_params, ref_gsol):
    roots = find_g_roots(ref_gsol, 20.0)
    # sample strictly inside the second inter-root segment
    lo, hi = roots[0] + 0.05, roots[1] - 0.05
    n = 2000
    grid = GridSpec(dt=(hi - lo) / n, n_steps=n, t0=lo)
    ps = geometric_phase(ref_params, math.pi / 4, grid)
    beta_i = ps.series["beta_I"]
    assert np.all(np.isfinite(beta_i))
    jumps = np.abs(np.diff(beta_i))
    slope = np.max(np.abs(np.gradient(beta_i, grid.dt)))
    assert np.max(jumps) <= 10.0 * grid.dt * slope


def test_divergence_report_reference_point(ref_params):
    report = divergence_report(ref_params, math.pi / 4, 20.0)
    # three reported times plus the genuine fourth crossing near t = 19.603
    assert len(report) == 4
    expected = (5.19, 8.85, 14.87, 19.603)
    for (t_div, ok), ref in zip(report, expected):
        assert abs(t_div - ref) < 0.02
        assert ok


def test_divergence_report_empty_cases(ref_params):
    assert divergence_report(ModelParams(**EXCEPTION_POINT), math.pi / 4, 200.0) == []
    assert divergence_report(ref_params, 0.0, 20.0) == []
    assert divergence_report(ref_params, math.pi, 20.0) == []


@pytest.mark.parametrize("theta", [1e-7, 1e-9, math.pi - 1e-7, math.pi - 1e-9])
def test_near_pole_angles_are_pole_states(ref_params, ref_gsol, theta):
    # a population below POLE_G_TOL: its Im beta divergence is narrower than
    # the pole mask resolves; 1e-7 and pi - 1e-7 reported 4 divergences while
    # 1e-9 and pi - 1e-9, where cos(theta) rounds to +-1, reported none
    ps = geometric_phase(ref_params, theta, GridSpec.uniform(20.0, 0.01), gsol=ref_gsol)
    assert np.all(ps.series["beta"] == 0.0) and not np.any(ps.series["pole"])
    assert ps.divergence_times == [] and divergence_report(ref_params, theta, 20.0) == []
    assert np.all(beta_imag_at(ref_params, theta, ref_gsol, [5.0, 10.0]) == 0.0)


def test_small_angle_is_not_a_pole_state(ref_params):
    assert len(divergence_report(ref_params, 1e-5, 20.0)) == 4


def test_beta_imag_pointwise_matches_series(ref_params, ref_gsol):
    grid = GridSpec.uniform(4.0, 0.01)
    ps = geometric_phase(ref_params, 0.9, grid, gsol=ref_gsol)
    direct = beta_imag_at(ref_params, 0.9, ref_gsol, grid.times())
    assert np.max(np.abs(ps.series["beta_I"] - direct)) < 1e-12


def test_pole_samples_marked(ref_params, ref_gsol):
    t_root = find_g_roots(ref_gsol, 6.0)[0]
    # land one sample exactly on the root
    grid = GridSpec(dt=t_root / 2, n_steps=4, t0=0.0)
    ps = geometric_phase(ref_params, math.pi / 4, grid)
    pole = ps.series["pole"]
    assert pole[2]
    assert np.isnan(ps.series["beta_I"][2])
    assert np.isfinite(ps.series["beta_I"][1])


def test_pole_state_phases_one_closed_form(ref_params, ref_gsol):
    # theta in {0, pi}: phi_T = phi_d = -omega t cos(th)/2 - i/2 (1 + cos th) log g,
    # beta = 0 and no pole samples, also on a sample that lands on a zero of g
    t_root = find_g_roots(ref_gsol, 6.0)[0]
    grid = GridSpec(dt=t_root / 2, n_steps=4)
    ts = grid.times()
    g = ref_gsol.g(ts)
    assert abs(g[2]) < 1e-12
    for theta in (0.0, math.pi):
        ps = geometric_phase(ref_params, theta, grid, gsol=ref_gsol)
        phi_t, phi_d = ps.series["phi_T"], ps.series["phi_d"]
        np.testing.assert_array_equal(phi_t, phi_d)
        assert np.all(ps.series["beta"] == 0.0)
        assert not np.any(ps.series["pole"])
        assert ps.divergence_times == [] and ps.eta_windings == []
    # theta = 0 diverges at the zero of g; theta = pi has no log g term
    ok = np.abs(g) > 1e-12
    expected = -0.5 * ref_params.omega * ts[ok] - 1j * np.log(g[ok].astype(complex))
    phi_0 = geometric_phase(ref_params, 0.0, grid, gsol=ref_gsol).series["phi_T"]
    assert np.max(np.abs(phi_0[ok] - expected)) < 1e-12
    assert np.isnan(phi_0[2])
    phi_pi = geometric_phase(ref_params, math.pi, grid, gsol=ref_gsol).series["phi_T"]
    assert np.max(np.abs(phi_pi - 0.5 * ref_params.omega * ts)) < 1e-12
