import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from nmgeo import (
    GREEN_BLUE_JOIN,
    GridSpec,
    REGION_DIVERGENT,
    REGION_ERROR,
    REGION_MARKOV,
    REGION_NONDIVERGENT,
    ModelParams,
    NoConvergence,
    OutOfDomain,
    blue_boundary,
    classify_point,
    cubic_roots,
    find_g_roots,
    g_ode_oracle,
    green_boundary,
    non_markovianity,
    solve_g,
    sweep,
    tangency_boundary,
    tangency_curve,
    tangency_point,
)
from nmgeo import gfunction, phasediagram
from nmgeo.gfunction import GSolution, _critical_points, _ModalCells, _sign_changes

from oracles import (
    _N_SCAN,
    _T_SCAN,
    _bisect_brackets,
    _first_gp_maximum,
    _scan_intervals,
    _total_rise,
    critical_points_full_scan,
    cubic_discriminant,
    kernel_of,
    tangency_point_bisected,
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


@pytest.mark.parametrize(
    "gamma_w, kappa",
    # tangency_point's values before its first-lobe refine became a Newton iteration
    [
        (0.10, 0.056687694161128295),
        (0.5, 0.27474639208486323),
        (1.0, 0.36359988750924743),
        (1.6, 0.339874270402564),
        (1.65, 0.33165503086114234),
    ],
)
def test_tangency_point_values_kept(gamma_w, kappa):
    assert tangency_point(gamma_w)[1] == pytest.approx(kappa, rel=1e-12, abs=0.0)


def test_first_gp_maximum_matches_bisection_reference():
    # the oracles' first-lobe scan, refined by the shared Newton refiner,
    # against the reference bisector halving g'' to 1e-12 on the same bracket
    rng = np.random.default_rng(3)
    checked = 0
    for gw, u in zip(rng.uniform(0.02, 1.68, 80), rng.uniform(-4.0, 0.3, 80)):
        kappa = green_boundary(gw) * 10.0**u
        sol = solve_g(ModelParams(kappa=kappa, gamma_w=gw))
        ts = np.linspace(1e-6, _T_SCAN, _N_SCAN)
        flips, _ = _sign_changes(sol.eval(ts)[2], np.zeros(ts.size, dtype=np.intp))
        top = _first_gp_maximum(gw, kappa)
        if flips.size < 2:
            assert top is None
            continue
        i = flips[1:2]
        t_ref = _bisect_brackets(lambda t, j: sol.eval(t)[2], ts[i], ts[i + 1])[0]
        assert abs(top[0] - t_ref) <= 1e-11, (gw, kappa)
        assert abs(top[1] - sol.eval(t_ref)[1][0]) <= 1e-15, (gw, kappa)
        checked += 1
    assert checked >= 50


CALL_POINTS = [(0.9, 0.43), (0.9, 0.1), (0.3, 0.23), (2.5, 0.5)]


def test_first_gp_maximum_bisects_when_newton_leaves_bracket(monkeypatch):
    # slopes a thousand times too small: every Newton step of the shared
    # refiner overshoots, so its brackets shrink by midpoints
    expect = _first_gp_maximum(0.5, 0.2)
    cells = [classify_point(g, k) for g, k in CALL_POINTS]
    slopes, calls = _ModalCells.slopes, [0]

    def scaled(self, *args):
        calls[0] += 1
        value, slope = slopes(self, *args)
        return value, 1e-3 * slope

    monkeypatch.setattr(_ModalCells, "slopes", scaled)
    t, gp = _first_gp_maximum(0.5, 0.2)
    assert abs(t - expect[0]) <= 1e-11 and abs(gp - expect[1]) <= 1e-15
    assert calls[0] > 20  # about 40 halvings, where Newton takes a few steps
    for (g, k), cell in zip(CALL_POINTS, cells):
        again = classify_point(g, k)
        assert again.region == cell.region, (g, k)
        assert abs(again.n_total - cell.n_total) <= 1e-11, (g, k)


@pytest.mark.parametrize("gamma_w, kappa", CALL_POINTS)
def test_classify_point_kernel_calls(count_calls, gamma_w, kappa):
    # halving every bracket to 1e-12 took 84, 41, 86 and 85 kernel calls here
    calls = count_calls(_ModalCells, "eval")
    # the stacked solve builds the kernel, and no GSolution on the way
    kernels = count_calls(_ModalCells, "__init__")
    solutions = count_calls(GSolution, "__init__")
    classify_point(gamma_w, kappa)
    assert calls() <= 30
    assert (kernels(), solutions()) == (1, 0)


def _rows(coeffs):
    return len(coeffs)


def test_tangency_curve_call_counts(count_calls):
    # the README range 0.05:1.65:0.05 as the CLI parses it; the first-lobe
    # scans, Brent seed and continued Newton took 63 scans, 486 g
    # evaluations and 394 solve_g calls here.  The points' secants run in
    # lockstep in the cubic's real root: one stacked root call, for the
    # bracket ends at green/1e4, serves the whole range
    evals = count_calls(GSolution, "eval")
    solves = count_calls(phasediagram, "solve_g")
    roots = count_calls(phasediagram, "_stacked_roots", weight=_rows)
    stacked = count_calls(phasediagram, "_stacked_roots")
    points = tangency_curve(0.05 + 0.05 * np.arange(33))
    assert all(p.error is None for p in points)
    assert [p.t_star is None for p in points] == [True] + [False] * 32
    assert evals() == 0 and solves() == 0
    assert roots() == 33
    assert stacked() == 1


def test_tangency_curve_first_lobe_calls(count_calls):
    # halving kappa took 145 first-lobe scans and 477 solve_g calls here; the
    # secant in the real root solves one cubic per row, for its end at
    # green/1e4, and makes 263 closed-form first-lobe lookups on this range
    lobes = count_calls(phasediagram, "_tangency_residual", weight=lambda gw, x0: len(x0))
    solves = count_calls(phasediagram, "solve_g")
    roots = count_calls(phasediagram, "_stacked_roots", weight=_rows)
    tangency_curve(0.05 + 0.05 * np.arange(33))
    assert lobes() <= 10 * 33
    assert roots() == 33
    assert solves() == 0


@pytest.mark.parametrize("gamma_w", [0.1, 0.5, 1.0, 1.6, 1.65])
def test_tangency_point_first_lobe_calls(count_calls, gamma_w):
    # halving kappa took 54-57 first-lobe scans here, the Brent seed 7-24;
    # the closed form solves one cubic, at green/1e4, and evaluates no g
    evals = count_calls(GSolution, "eval")
    roots = count_calls(phasediagram, "_stacked_roots", weight=_rows)
    tangency_point(gamma_w)
    assert evals() == 0
    assert roots() == 1


def test_tangency_point_matches_bisection_reference():
    # the closed form against halving kappa on the scanned first lobe of g'
    # (tests/oracles.py), which agree also on "no Markov region" below the
    # endpoint at gamma_w ~ 0.0735
    rng = np.random.default_rng(13)
    for gw in [*rng.uniform(0.075, GREEN_BLUE_JOIN, 24), 1.60, 1.625, 1.65]:
        (t, k), (t_ref, k_ref) = tangency_point(gw), tangency_point_bisected(gw)
        assert abs(k - k_ref) <= 1e-13 * k_ref, gw
        assert abs(t - t_ref) <= 1e-9, gw
    # where F is steepest in x0, with t* ~ 83 and 144.  t* grows like
    # 1/(27/16 - gamma_w), and the reference's t* with it from its last bit
    # of kappa: at 1.685 it is 1.0e-9 off a 40-digit solve, the closed form 6e-12
    for gw in (1.68, 1.685):
        (t, k), (t_ref, k_ref) = tangency_point(gw), tangency_point_bisected(gw)
        assert abs(k - k_ref) <= 1e-13 * k_ref, gw
        assert abs(t - t_ref) <= 1e-11 * t_ref, gw
    for gw in (0.05, 0.06, 0.0725):
        assert tangency_point(gw) == tangency_point_bisected(gw) == (None, 0.0)


@pytest.mark.parametrize("gamma_w", [0.0736, 0.1, 0.5, 1.0, 1.5, 1.68, 1.6874])
def test_cubic_of_real_root_matches_cubic_roots(gamma_w):
    # Vieta's map from the real root x0 to kappa and the pair x1, against the
    # cubic solved at that kappa, over log-spaced x0 in (-2 gamma_w/3, 0)
    x0 = -2.0 * gamma_w / 3.0 * np.geomspace(1e-8, 1.0, 33)[:-1]
    k2, re, im = phasediagram._cubic_of_real_root(np.full(x0.shape, gamma_w), x0)
    for x, kappa, x1 in zip(x0, np.sqrt(k2), re + 1j * im):
        roots = cubic_roots(ModelParams(kappa=float(kappa), gamma_w=gamma_w))
        real = roots[roots.imag == 0.0].real
        assert real.size == 1 and abs(real[0] - x) <= 1e-13 * abs(x), (gamma_w, x)
        assert abs(roots[np.argmax(roots.imag)] - x1) <= 1e-13 * abs(x1), (gamma_w, x)


def test_cubic_of_real_root_at_green():
    # x0 = -2 gamma_w/3, where the three roots share their real part, is the green curve
    for gw in np.linspace(0.001, GREEN_BLUE_JOIN, 400, endpoint=False):
        k2, _, _ = phasediagram._cubic_of_real_root(gw, -2.0 * gw / 3.0)
        green = green_boundary(float(gw))
        assert abs(math.sqrt(k2) - green) <= 2.0 * np.spacing(green), gw


def test_tangency_endpoint_has_no_markov_region_below():
    # kappa*^2 ~ 0.107 (gamma_w - gamma_w0), gamma_w0 ~ 0.0735386
    assert tangency_point(0.0735) == (None, 0.0)
    assert tangency_curve([0.0735]) == [phasediagram.TangencyPoint(0.0735, None, 0.0)]
    t_star, k_star = tangency_point(0.07354)
    assert 0.0 < k_star < green_boundary(0.07354)
    sol = solve_g(ModelParams(kappa=k_star, gamma_w=0.07354))
    _, gp, gpp = sol.eval(t_star)
    assert max(abs(gp[0]), abs(gpp[0])) / k_star**2 <= 1e-9


def test_tangency_past_the_old_scan_window():
    # at 1.68 the first lobe of g' lies at t* ~ 83, past the 60-unit scan
    # window the first-lobe search had; a dense grid puts the first maximum
    # of g' at t*, where g' touches 0 from below
    t_star, k_star = tangency_point(1.68)
    assert t_star == pytest.approx(83.07, abs=0.01)
    assert k_star == pytest.approx(0.32619, abs=1e-5)
    ts = np.linspace(1e-6, 120.0, 240001)
    _, gp, gpp = solve_g(ModelParams(kappa=k_star, gamma_w=1.68)).eval(ts)
    flips, _ = _sign_changes(gpp, np.zeros(ts.size, dtype=np.intp))
    assert abs(ts[flips[1]] - t_star) <= ts[1] - ts[0]
    assert np.max(gp) / k_star**2 <= 1e-12


def _bracket_ends(gamma_w):
    """The secant's bracket in the real root x0: its root at green/1e4, and -2 gamma_w/3."""
    roots = cubic_roots(ModelParams(kappa=green_boundary(gamma_w) / 1e4, gamma_w=gamma_w))
    return roots[roots.imag == 0.0].real[0], -2.0 * gamma_w / 3.0


@pytest.mark.parametrize("inside_only", [False, True], ids=["nan", "nan_inside"])
def test_tangency_search_failure_is_no_convergence(monkeypatch, inside_only):
    # NaN has no sign: at the bracket ends, or only at the secant's steps
    gw = 0.5
    k_hi = green_boundary(gw)
    ends, true = _bracket_ends(gw), phasediagram._tangency_residual

    def patched(gamma_w, x0):
        f, t, k = true(gamma_w, x0)
        nan = ~np.isin(x0, ends) if inside_only else np.full(x0.shape, True)
        return np.where(nan, math.nan, f), np.where(nan, 20.0, t), k

    monkeypatch.setattr(phasediagram, "_tangency_residual", patched)
    with pytest.raises(NoConvergence, match="tangency residual") as info:
        tangency_point(gw)
    assert {"gamma_w": gw, "kappa_lo": k_hi / 1e4, "kappa_hi": k_hi}.items() <= (
        info.value.diagnostics.items()
    )
    point = tangency_curve([gw])[0]  # recorded in its row, not raised
    assert point.kappa is None and point.error.startswith("tangency residual")


@pytest.mark.parametrize("inside_only", [False, True], ids=["nan", "nan_inside"])
def test_tangency_curve_nan_at_one_point_leaves_the_others(monkeypatch, inside_only):
    # the secants run in lockstep; a NaN residual at one gamma_w stops that
    # point alone, with its NoConvergence, and no other point moves by a bit
    gammas = 0.05 + 0.05 * np.arange(33)
    clean = tangency_curve(gammas)
    sick = float(gammas[9])
    ends, true = _bracket_ends(sick), phasediagram._tangency_residual

    def patched(gamma_w, x0):
        f, t, k = true(gamma_w, x0)
        nan = (gamma_w == sick) & ~(np.isin(x0, ends) & inside_only)
        return np.where(nan, math.nan, f), t, k

    monkeypatch.setattr(phasediagram, "_tangency_residual", patched)
    points = tangency_curve(gammas)
    assert points[9].kappa is None and points[9].t_star is None
    assert points[9].error.startswith(
        "tangency residual is NaN" if inside_only else "tangency residual nan at green/1e4"
    )
    assert points[:9] + points[10:] == clean[:9] + clean[10:]
    assert clean[9].error is None


def test_tangency_domain():
    with pytest.raises(OutOfDomain):
        tangency_point(GREEN_BLUE_JOIN)
    with pytest.raises(OutOfDomain):
        tangency_point(0.0)


CURVE_GAMMAS = 0.10 + 0.05 * np.arange(32)  # 0.10:1.65:0.05


@pytest.fixture(scope="module")
def curve():
    return tangency_curve(CURVE_GAMMAS)


def test_tangency_curve_matches_per_point_bisection(curve):
    assert [p.gamma_w for p in curve] == CURVE_GAMMAS.tolist()
    for p in curve:
        assert p.error is None
        assert abs(p.kappa - tangency_point(p.gamma_w)[1]) <= 1e-8, p


def test_tangency_curve_against_ode_oracle(curve):
    for p in curve:
        s = g_ode_oracle(ModelParams(kappa=p.kappa, gamma_w=p.gamma_w), GridSpec(p.t_star, 1))
        assert max(abs(s["gp"][-1]), abs(s["gpp"][-1])) / p.kappa**2 <= 1e-9, p


def test_tangency_curve_guard_keeps_first_lobe(curve):
    # between 1.60 and 1.65 the first lobe of g' jumps from t ~ 24.3 to t ~ 37.0;
    # the closed form's t* is on the first lobe the scan finds
    p160, p165 = curve[-2], curve[-1]
    assert p160.t_star == pytest.approx(24.28, abs=0.01)
    assert p165.t_star == pytest.approx(36.99, abs=0.01)
    lobe = _first_gp_maximum(p165.gamma_w, p165.kappa)
    assert lobe[0] == pytest.approx(p165.t_star, abs=1e-6)


def test_tangency_curve_records_missing_markov_region():
    points = tangency_curve([0.05, 0.10, 0.15])
    assert points[0].error is None
    assert points[0].t_star is None and points[0].kappa == 0.0
    assert all(p.error is None and p.kappa > 0.0 for p in points[1:])


def test_tangency_curve_domain():
    with pytest.raises(OutOfDomain):
        tangency_curve([0.5, GREEN_BLUE_JOIN])


def test_scaled_newton_keeps_small_kappa_tangency():
    # g' and g'' are O(kappa^2), so a residual in them not scaled by kappa^2
    # is below 1e-10 near kappa ~ 1e-5 with no tangency there
    t_star, k_star = tangency_point(0.10)
    assert k_star == pytest.approx(0.0567, abs=1e-4)
    descending = tangency_curve([0.20, 0.15, 0.10])
    assert abs(descending[-1].kappa - k_star) <= 1e-8


def test_free_system_has_no_backflow():
    # kappa = 0: g = 1 exactly, so nothing rises
    cell = classify_point(0.1, 0.0)
    assert cell.region == REGION_MARKOV and cell.n_total == 0.0
    assert non_markovianity(ModelParams(kappa=0.0, gamma_w=0.1), 200.0).windows == []


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
    assert cells[0].error_type == "NonPositiveRate"
    assert math.isnan(cells[0].n_total)
    assert cells[1].region == REGION_MARKOV
    assert cells[1].error is None and cells[1].error_type is None


def test_sweep_group_keeps_invalid_cells_apart():
    # one solve group: the cells that fail validation, or whose cubic has a
    # non-finite coefficient, keep the records solve_g's errors gave them one
    # by one; the valid cells solved with them are the cells solved alone
    gammas, kappas = [-1.0, 0.0, 0.5, 0.9], [-0.1, 0.2, math.inf, math.nan, 1e200, 0.0, 0.43]
    cells = sweep(gammas, kappas, t_max=50.0)
    errors = {
        (-1.0, None): ("NonPositiveRate", "gamma_w must be > 0, got -1.0"),
        (0.0, None): ("NonPositiveRate", "gamma_w must be > 0, got 0.0"),
        (None, -0.1): ("NegativeCoupling", "kappa must be >= 0, got -0.1"),
        (None, math.inf): ("LinAlgError", "Array must not contain infs or NaNs"),
        (None, "nan"): ("NegativeCoupling", "kappa must be >= 0, got nan"),
        (None, 1e200): ("OverflowError", "(34, 'Numerical result out of range')"),
    }
    for cell in cells:
        key = "nan" if math.isnan(cell.kappa) else cell.kappa
        error = errors.get((cell.gamma_w, None)) or errors.get((None, key))
        if error:
            assert (cell.region, cell.error_type, cell.error) == (REGION_ERROR, *error), cell
            assert math.isnan(cell.n_total) and cell.t_first_divergence is None
        else:
            alone = sweep([cell.gamma_w], [cell.kappa], t_max=50.0)[0]
            assert cell == alone == classify_point(cell.gamma_w, cell.kappa, t_max=50.0)
    assert sum(c.region != REGION_ERROR for c in cells) == 6


@pytest.mark.parametrize("t_max", [0.0, -1.0, math.nan])
def test_sweep_records_bad_t_max_in_each_solvable_cell(t_max):
    # every cell that solves records the t_max error; the others keep their solve errors
    cells = sweep([-1.0, 0.9, math.inf], [0.1, -0.1, 1e200], t_max=t_max)
    bad_t_max = ("ValueError", f"t_max must be > 0, got {t_max}")
    errors = {
        -1.0: [("NonPositiveRate", "gamma_w must be > 0, got -1.0")] * 3,
        0.9: [
            bad_t_max,
            ("NegativeCoupling", "kappa must be >= 0, got -0.1"),
            ("OverflowError", "(34, 'Numerical result out of range')"),
        ],
        math.inf: [bad_t_max, ("NegativeCoupling", "kappa must be >= 0, got -0.1"), bad_t_max],
    }
    expect = [error for g in (-1.0, 0.9, math.inf) for error in errors[g]]
    got = [(c.region, c.error_type, c.error) for c in cells]
    assert got == [(REGION_ERROR, *e) for e in expect]
    assert all(math.isnan(c.n_total) and c.t_first_divergence is None for c in cells)
    for cell in cells:
        with pytest.raises(Exception, match=re.escape(cell.error)) as raised:
            classify_point(cell.gamma_w, cell.kappa, t_max=t_max)
        assert type(raised.value).__name__ == cell.error_type


def test_sweep_refuses_too_large_scan_grid_in_its_own_cell():
    # kappa >= 1e16 asks for more than 2**62 scan steps, refused before
    # anything is allocated; the cell solved with them is classified as alone
    cells = sweep([0.5], [0.3, 1e16, 1e20, 1e150], t_max=200.0)
    assert cells[0] == classify_point(0.5, 0.3, t_max=200.0)
    assert (cells[0].region, cells[0].n_total) == (REGION_NONDIVERGENT, 0.028707616177929034)
    for cell, steps in zip(cells[1:], ("4e+19", "4e+23", "4e+153")):
        error = f"scan grid of {steps} steps exceeds 2**62"
        assert (cell.region, cell.error_type, cell.error) == (REGION_ERROR, "OverflowError", error)
        assert math.isnan(cell.n_total) and cell.t_first_divergence is None
        with pytest.raises(OverflowError, match=re.escape(error)):
            classify_point(0.5, cell.kappa, t_max=200.0)
        with pytest.raises(OverflowError, match=re.escape(error)):
            find_g_roots(solve_g(ModelParams(kappa=cell.kappa, gamma_w=0.5)), 200.0)


def test_sweep_of_overflowing_cells_warns_nothing():
    # cells whose cubic rows, roots and weights overflow are refused alone, by
    # the scan or by eigvals; with numpy's warnings raised, one of them made
    # the whole sweep raise
    gammas, kappas = [0.5, 1e307], [0.3, 1e16, 1e150]
    cells = sweep(gammas, kappas, t_max=200.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert sweep(gammas, kappas, t_max=200.0) == cells
    assert (cells[0].region, cells[0].n_total) == (REGION_NONDIVERGENT, 0.028707616177929034)
    assert [c.error_type for c in cells[1:]] == ["OverflowError"] * 3 + ["LinAlgError"] * 2


def test_sweep_validates_each_cell_once(count_calls):
    # the benchmark's 10 x 10 sub-grid; solving validated each point twice
    validations = count_calls(gfunction, "validate_params")
    sweep(0.02 + 0.3 * np.arange(10), 0.005 + 0.06 * np.arange(10), t_max=200.0)
    assert 0 < validations() <= 100


# the 31 x 21 sub-grid 0.02:3.0:0.1 x 0.005:0.6:0.03 of the README sweep box
README_GAMMAS = 0.02 + 0.1 * np.arange(31)
README_KAPPAS = 0.005 + 0.03 * np.arange(21)

# regions at t_max = 200 (M, N = NM_NODIV, D = NM_DIV), one row per gamma_w,
# as classified from N_total on a dt = 0.01 grid before the exact sum
README_REGIONS = [
    "NNNDDDDDDDDDDDDDDDDDD",  # gamma_w = 0.02
    "MMMNNNDDDDDDDDDDDDDDD",  # gamma_w = 0.12
    "MMMMMNNNDDDDDDDDDDDDD",  # gamma_w = 0.22
    "MMMMMMMNNDDDDDDDDDDDD",  # gamma_w = 0.32
    "MMMMMMMMMNDDDDDDDDDDD",  # gamma_w = 0.42
    "MMMMMMMMMMNDDDDDDDDDD",  # gamma_w = 0.52
    "MMMMMMMMMMMNDDDDDDDDD",  # gamma_w = 0.62
    "MMMMMMMMMMMNDDDDDDDDD",  # gamma_w = 0.72
    "MMMMMMMMMMMMDDDDDDDDD",  # gamma_w = 0.82
    "MMMMMMMMMMMMNDDDDDDDD",  # gamma_w = 0.92
    "MMMMMMMMMMMMNDDDDDDDD",  # gamma_w = 1.02
    "MMMMMMMMMMMMMDDDDDDDD",  # gamma_w = 1.12
    "MMMMMMMMMMMMMDDDDDDDD",  # gamma_w = 1.22
    "MMMMMMMMMMMMMDDDDDDDD",  # gamma_w = 1.32
    "MMMMMMMMMMMMDDDDDDDDD",  # gamma_w = 1.42
    "MMMMMMMMMMMMDDDDDDDDD",  # gamma_w = 1.52
    "MMMMMMMMMMMMDDDDDDDDD",  # gamma_w = 1.62
    "MMMMMMMMMMMDDDDDDDDDD",  # gamma_w = 1.72
    "MMMMMMMMMMMDDDDDDDDDD",  # gamma_w = 1.82
    *["MMMMMMMMMMDDDDDDDDDDD"] * 12,  # gamma_w = 1.92 ... 3.02
]


@pytest.fixture(scope="module")
def readme_sweep():
    """(cells, tracemalloc peak in bytes) of the README sub-grid sweep at t_max = 200."""
    tracemalloc.start()
    try:
        cells = sweep(README_GAMMAS, README_KAPPAS, t_max=200.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return cells, peak


def test_sweep_readme_subgrid_regions_pinned(readme_sweep):
    cells, _ = readme_sweep
    code = {REGION_MARKOV: "M", REGION_NONDIVERGENT: "N", REGION_DIVERGENT: "D"}
    regions = "".join(code[c.region] for c in cells)
    assert [regions[21 * i : 21 * (i + 1)] for i in range(31)] == README_REGIONS


def test_sweep_memory_is_bounded_by_blocks(readme_sweep):
    assert readme_sweep[1] < 16e6


def test_sweep_columns_equal_per_cell_reference(readme_sweep):
    # N_total is a segmented sum that adds each cell's rises in time order:
    # bitwise the running sum of one cell (np.add.reduceat, which pairs the
    # terms, differs in 226 of these 651 cells), also for cells with many
    # critical points; the first zero is the cell's first
    cells, _ = readme_sweep
    points = [(float(g), float(k)) for g in README_GAMMAS for k in README_KAPPAS]
    sols = [solve_g(ModelParams(kappa=k, gamma_w=g)) for g, k in points]
    per_cell = _critical_points(kernel_of(sols), 200.0)
    assert sum(crit.size >= 10 for _, crit, _ in per_cell) > 300
    assert max(crit.size for _, crit, _ in per_cell) >= 90
    for cell, (zeros, _, abs_g) in zip(cells, per_cell):
        assert cell.n_total.hex() == _total_rise(abs_g).hex(), cell
        assert cell.t_first_divergence == (float(zeros[0]) if zeros.size else None), cell


def test_sweep_cells_equal_classify_point_alone(readme_sweep):
    # blocks share numpy work but every value is elementwise: a cell's
    # record does not depend on the cells classified with it
    cells, _ = readme_sweep
    alone = [classify_point(g, k, t_max=200.0) for g in README_GAMMAS for k in README_KAPPAS]
    assert cells == alone
    # separated, confluent (a double root on the blue curve at 2.4, the triple
    # root at the join) and Markov-bath cells batched together
    join_kappa = 3.0 * math.sqrt(3.0) / 16.0
    gammas = [0.5, 2.0, 2.4, GREEN_BLUE_JOIN, math.inf]
    kappas = [0.0, 1e-9, 0.3, 0.43, blue_boundary(2.4), join_kappa]
    assert sweep(gammas, kappas, t_max=50.0) == [
        classify_point(g, k, t_max=50.0) for g in gammas for k in kappas
    ]


def test_sweep_scans_a_twentieth_of_the_full_grids(count_calls):
    # the README sub-grid 0.02:3.0:0.1 x 0.005:0.6:0.02 at t_max = 200: the
    # kernel's points outside refine (the scan, the phase brackets' halving
    # and the |g| and g' evaluations) against the full scan's grid points
    gammas, kappas = 0.02 + 0.1 * np.arange(30), 0.005 + 0.02 * np.arange(30)
    full = sum(
        _scan_intervals(solve_g(ModelParams(kappa=float(k), gamma_w=float(g))), 200.0) + 1
        for g in gammas
        for k in kappas
    )
    points = count_calls(_ModalCells, "eval", lambda self, t, cell=None: t.size)
    refined = count_calls(_ModalCells, "slopes", lambda self, t, cell, order: t.size)
    sweep(gammas, kappas, t_max=200.0)
    assert points() - refined() <= 0.05 * full
    # the refiner gets the full scan's brackets, so it does the same work
    scanned, before = points(), refined()
    sols = [solve_g(ModelParams(kappa=float(k), gamma_w=float(g))) for g in gammas for k in kappas]
    critical_points_full_scan(sols, 200.0)
    assert points() - scanned - (refined() - before) >= full
    assert refined() - before == before


@pytest.mark.parametrize("shift", [0.0, 1.0])
def test_benchmark_sized_sweep_runs_in_one_block(count_calls, shift):
    # the benchmark's 10 x 10 sub-grid, shifted by up to one README step
    blocks = count_calls(gfunction, "_scan")
    # one kernel from the stacked solve's columns: 100 GSolutions were built
    # only to be stacked again
    kernels = count_calls(_ModalCells, "__init__")
    solutions = count_calls(GSolution, "__init__")
    gammas = 0.02 + 0.02 * shift + 0.3 * np.arange(10)
    kappas = 0.005 + 0.005 * shift + 0.06 * np.arange(10)
    cells = sweep(gammas, kappas, t_max=200.0)
    assert blocks() == 1
    assert (kernels(), solutions()) == (1, 0)
    assert {c.region for c in cells} == {REGION_MARKOV, REGION_NONDIVERGENT, REGION_DIVERGENT}


def test_sweep_dominance_analysis_warns_nothing():
    # zero weights (kappa = 0), a Markov bath, confluent cells and tied rates
    # on the green curve: numpy warnings, raised here, would turn into ERR cells
    gammas = [0.02, 0.9, GREEN_BLUE_JOIN, 2.4, 3.0]
    kappas = [0.0, 1e-9, green_boundary(0.9), blue_boundary(2.4), 0.3, 0.6]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cells = sweep(gammas, kappas, t_max=200.0)
        cells.append(classify_point(math.inf, 0.3))
        cells.append(classify_point(math.inf, 0.0))
    assert all(c.region != REGION_ERROR for c in cells), [c.error for c in cells]


@pytest.mark.parametrize("chunk", [1, 2, 5, 97])
def test_sweep_scan_chunks_do_not_change_cells(monkeypatch, chunk):
    # each sign change of g and g'' is found once, also across a chunk's end
    gammas, kappas = [0.3, 0.9, 2.7], [0.05, 0.23, 0.43]
    whole = sweep(gammas, kappas, t_max=60.0)
    monkeypatch.setattr("nmgeo.gfunction._SCAN_CHUNK", chunk)
    assert sweep(gammas, kappas, t_max=60.0) == whole


def _oracle_n_total(gamma_w: float, kappa: float, t_max: float = 200.0) -> float:
    """Sum of the rises of |g| between its critical points, from the ODE oracle.

    Zeros of g and g' are sign changes on a 1e-3 grid.  |g| is 0 at a zero
    of g and, at a zero of g', the vertex g - g'^2 / (2 g'') of the Taylor
    parabola at the nearest sample, off by O(dt^3) (about 1e-12 here).
    """
    s = g_ode_oracle(ModelParams(kappa=kappa, gamma_w=gamma_w), GridSpec.uniform(t_max, 1e-3))
    t, g, gp, gpp = s.t, s["g"], s["gp"], s["gpp"]
    points = [(0.0, abs(g[0])), (t[-1], abs(g[-1]))]
    for i in np.nonzero(g[:-1] * g[1:] < 0.0)[0]:
        points.append((t[i] - g[i] / gp[i], 0.0))
    for i in np.nonzero(gp[:-1] * gp[1:] < 0.0)[0]:
        j = i if abs(gp[i]) < abs(gp[i + 1]) else i + 1
        points.append((t[j] - gp[j] / gpp[j], abs(g[j] - gp[j] ** 2 / (2.0 * gpp[j]))))
    values = [v for _, v in sorted(points)]
    return float(sum(max(0.0, b - a) for a, b in zip(values[:-1], values[1:])))


ORACLE_POINTS = [
    (float(gw), float(k))
    for gw, k in zip(
        np.random.default_rng(11).uniform(0.05, 3.0, 20),
        np.random.default_rng(12).uniform(0.01, 0.6, 20),
    )
] + [(0.5, 0.0), (2.0, 0.0), (2.0, 0.3)]


@pytest.mark.parametrize("gamma_w,kappa", ORACLE_POINTS)
def test_n_total_is_exact_critical_point_sum(gamma_w, kappa):
    cell = classify_point(gamma_w, kappa, t_max=200.0)
    assert abs(cell.n_total - _oracle_n_total(gamma_w, kappa)) <= 1e-9


@pytest.mark.parametrize("gamma_w", [0.2, 0.5, 1.0])
def test_n_total_catches_narrow_gp_lobe_above_tangency(gamma_w):
    # just above the tangency curve g' has one positive lobe narrower than
    # the scan step; a scan of g' alone misses it and reports N_total = 0
    kappa = tangency_boundary(gamma_w) * (1.0 + 1e-5)
    cell = classify_point(gamma_w, kappa, t_max=200.0)
    assert cell.n_total > 0.0
    assert abs(cell.n_total - _oracle_n_total(gamma_w, kappa)) <= 1e-9


def test_worker_count_env_var(monkeypatch):
    from nmgeo.qsd import resolve_workers

    monkeypatch.setenv("NMGEO_THREADS", "3")
    assert resolve_workers() == 3
    monkeypatch.setenv("NMGEO_THREADS", "0")
    assert resolve_workers() >= 1
    monkeypatch.delenv("NMGEO_THREADS")
    assert resolve_workers() == 1
    assert resolve_workers(2) == 2
