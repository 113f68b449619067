import math

import numpy as np
import pytest

from nmgeo import (
    GREEN_BLUE_JOIN,
    REGION_DIVERGENT,
    REGION_ERROR,
    REGION_MARKOV,
    REGION_NONDIVERGENT,
    ModelParams,
    OutOfDomain,
    blue_boundary,
    classify_point,
    cubic_discriminant,
    find_g_roots,
    green_boundary,
    non_markovianity,
    solve_g,
    sweep,
    tangency_boundary,
    tangency_point,
)

JOIN_KAPPA = 3.0 * math.sqrt(3.0) / 16.0


def test_green_boundary_values():
    assert green_boundary(GREEN_BLUE_JOIN) == pytest.approx(JOIN_KAPPA, abs=1e-15)
    assert green_boundary(1e-9) < 1e-4
    assert green_boundary(0.9) == pytest.approx(math.sqrt(4.86) / 6.0, rel=1e-14)


def test_green_boundary_domain():
    for bad in (0.0, -0.5, 2.26, 9.0):
        with pytest.raises(OutOfDomain):
            green_boundary(bad)


def test_blue_boundary_join_continuity():
    assert abs(blue_boundary(GREEN_BLUE_JOIN) - JOIN_KAPPA) <= 1e-12
    assert abs(green_boundary(GREEN_BLUE_JOIN) - blue_boundary(GREEN_BLUE_JOIN)) <= 1e-12


def test_blue_boundary_domain():
    for bad in (1.5, 3.1, 0.0):
        with pytest.raises(OutOfDomain):
            blue_boundary(bad)


def test_blue_boundary_sits_on_discriminant_zero():
    for gw in np.linspace(GREEN_BLUE_JOIN + 1e-6, 3.0, 25):
        kb = blue_boundary(float(gw))
        d = cubic_discriminant(ModelParams(kappa=kb, gamma_w=float(gw)))
        scale = abs(cubic_discriminant(ModelParams(kappa=0.0, gamma_w=float(gw))))
        assert abs(d) <= 1e-6 * max(scale, 1.0)


def test_blue_boundary_endpoint_against_bisection():
    # oracle: bisect the discriminant zero in kappa at gamma_w = 3
    gw = 3.0
    lo, hi = 0.05, 0.6
    f = lambda k: cubic_discriminant(ModelParams(kappa=k, gamma_w=gw))
    assert f(lo) < 0.0 < f(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    assert blue_boundary(gw) == pytest.approx(0.5 * (lo + hi), abs=1e-6)


def test_blue_boundary_continuous():
    gws = np.linspace(GREEN_BLUE_JOIN, 3.0, 200)
    ks = np.array([blue_boundary(float(g)) for g in gws])
    assert np.all(np.isfinite(ks))
    assert np.max(np.abs(np.diff(ks))) < 5e-3


def test_tangency_reference_value():
    t_star, k_star = tangency_point(0.5)
    assert k_star == pytest.approx(0.27475, abs=5e-4)
    sol = solve_g(ModelParams(kappa=k_star, gamma_w=0.5))
    _, gp, gpp = sol.eval(t_star)
    assert abs(gp[0]) <= 1e-9
    assert abs(gpp[0]) <= 1e-9


def test_tangency_domain():
    with pytest.raises(OutOfDomain):
        tangency_point(GREEN_BLUE_JOIN)
    with pytest.raises(OutOfDomain):
        tangency_point(0.0)


def test_above_tangency_crosses_transversally():
    # kappa = 0.4 at gamma_w = 0.5 sits above the boundary: g' changes sign
    sol = solve_g(ModelParams(kappa=0.4, gamma_w=0.5))
    ts = np.linspace(1e-3, 30.0, 3000)
    gp = sol.eval(ts)[1]
    assert np.any(gp > 0.0) and np.any(gp < 0.0)
    cell = classify_point(0.5, 0.4)
    assert cell.region in (REGION_DIVERGENT, REGION_NONDIVERGENT)


def test_classify_reference_points():
    c1 = classify_point(0.9, 0.43)
    assert c1.region == REGION_DIVERGENT
    assert c1.t_first_divergence == pytest.approx(5.19, abs=0.02)
    assert c1.n_total > 1e-6

    c2 = classify_point(0.3, 0.23)
    assert c2.region == REGION_NONDIVERGENT
    assert c2.t_first_divergence is None
    assert c2.n_total > 1e-6

    c3 = classify_point(0.9, 0.1)
    assert c3.region == REGION_MARKOV
    assert c3.t_first_divergence is None
    assert c3.n_total <= 1e-6


def test_divergent_cell_time_is_verified_root():
    cell = classify_point(0.9, 0.43)
    sol = solve_g(ModelParams(kappa=0.43, gamma_w=0.9))
    assert abs(sol.g(cell.t_first_divergence)[0]) <= 1e-8


def test_n_total_sign_around_tangency():
    k_star = tangency_boundary(0.5)
    below = non_markovianity(ModelParams(kappa=0.9 * k_star, gamma_w=0.5), 200.0, 0.01)
    above = non_markovianity(ModelParams(kappa=1.1 * k_star, gamma_w=0.5), 200.0, 0.01)
    assert below.n_total <= 1e-9
    assert above.n_total > 1e-6


def test_sweep_cardinality_and_determinism():
    gammas = np.linspace(0.2, 1.1, 10)
    kappas = np.linspace(0.05, 0.5, 10)
    cells = sweep(gammas, kappas, t_max=50.0)
    assert len(cells) == 100
    assert all(c.region != REGION_ERROR for c in cells)
    assert sweep(gammas, kappas, t_max=50.0) == cells


def test_sweep_region_sequence_along_gamma_09():
    kappas = np.arange(0.005, 0.6, 0.005)
    cells = sweep([0.9], kappas, t_max=200.0)
    regions = [c.region for c in cells]
    # ordered M -> NM_NODIV -> NM_DIV with no interleaving
    order = {REGION_MARKOV: 0, REGION_NONDIVERGENT: 1, REGION_DIVERGENT: 2}
    codes = [order[r] for r in regions]
    assert codes == sorted(codes)
    first_div = kappas[regions.index(REGION_DIVERGENT)]
    assert abs(first_div - green_boundary(0.9)) <= 0.005 + 1e-12


def test_divergence_iff_above_blue(rng):
    for gw in rng.uniform(GREEN_BLUE_JOIN, 3.0, 4):
        kb = blue_boundary(float(gw))
        above = find_g_roots(solve_g(ModelParams(kappa=kb + 0.01, gamma_w=float(gw))), 200.0)
        below = find_g_roots(solve_g(ModelParams(kappa=kb - 0.01, gamma_w=float(gw))), 200.0)
        assert above
        assert not below


def test_sweep_records_errors_per_cell():
    cells = sweep([-1.0, 0.9], [0.1], t_max=20.0)
    assert cells[0].region == REGION_ERROR
    assert cells[0].error
    assert math.isnan(cells[0].n_total)
    assert cells[1].region == REGION_MARKOV


def test_worker_count_env_var(monkeypatch):
    from nmgeo.qsd import resolve_workers

    monkeypatch.setenv("NMGEO_THREADS", "3")
    assert resolve_workers() == 3
    monkeypatch.setenv("NMGEO_THREADS", "0")
    assert resolve_workers() >= 1
    monkeypatch.delenv("NMGEO_THREADS")
    assert resolve_workers(2) == 2
