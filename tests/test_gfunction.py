import math
import warnings

import numpy as np
import pytest

import nmgeo.gfunction
from nmgeo import (
    GridSpec,
    ModelParams,
    NotResonant,
    cubic_coefficients,
    cubic_roots,
    find_g_roots,
    g_markov_limit,
    g_markov_limit_deriv,
    g_ode_oracle,
    markov_root_times,
    solve_g,
)
from nmgeo.dynamics import non_markovianity
from nmgeo.geomphase import geometric_phase
from nmgeo.gfunction import (
    MARKOV,
    ROOT_SUM,
    GSolution,
    _critical_points,
    _ModalCells,
    _scan_plan,
    _scan_steps,
    _sign_changes,
    _stacked_roots,
)
from nmgeo.phasediagram import (
    GREEN_BLUE_JOIN,
    _classify_cells,
    blue_boundary,
    classify_point,
    green_boundary,
    sweep,
)

from conftest import EXCEPTION_POINT, MARKOV_POINT, REF_POINT
from oracles import (
    _bisect_brackets,
    _scan_intervals,
    _scan_step,
    _total_rise,
    critical_points_full_scan,
    cubic_discriminant,
    kernel_of,
    ode_state_matrix,
)

JOIN_KAPPA = 3.0 * math.sqrt(3.0) / 16.0


# ---------------------------------------------------------------------------
# characteristic cubic
# ---------------------------------------------------------------------------

def test_roots_match_state_matrix_eigenvalues(ref_params):
    # oracle: eigenvalues of the first-order evolution matrix are x_i / 2
    eigs = np.sort_complex(2.0 * np.linalg.eigvals(ode_state_matrix(ref_params)))
    roots = np.sort_complex(cubic_roots(ref_params))
    assert np.max(np.abs(eigs - roots)) < 1e-10


def test_vieta_identities(rng):
    for _ in range(20):
        p = ModelParams(kappa=rng.uniform(0.01, 1.0), gamma_w=rng.uniform(0.05, 3.0))
        r = cubic_roots(p)
        assert np.sum(r) == pytest.approx(-2.0 * p.gamma_w, rel=1e-9)
        assert np.prod(r) == pytest.approx(-8.0 * p.kappa**2 * p.gamma_w, rel=1e-9)


def test_roots_sorted_and_conjugate(ref_params):
    r = cubic_roots(ref_params)
    order = np.lexsort((r.imag, r.real))
    assert np.array_equal(order, np.arange(3))
    # one real root and an exact conjugate pair at this point
    assert abs(r[0].imag) == 0.0
    assert r[1] == np.conj(r[2])


def _np_roots_polished(p):
    """The characteristic roots as np.roots and two np.polyval Newton steps give them."""
    coeffs = cubic_coefficients(p)
    roots = np.roots(coeffs).astype(complex)
    dcoeffs = np.polyder(coeffs)
    for _ in range(2):
        fv = np.polyval(coeffs, roots)
        dv = np.polyval(dcoeffs, roots)
        ok = np.abs(dv) > 0
        roots[ok] = roots[ok] - fv[ok] / dv[ok]
    scale = max(1.0, float(np.max(np.abs(roots))))
    imag = np.abs(roots.imag) > 1e-10 * scale
    if np.count_nonzero(imag) == 2:
        i, j = np.nonzero(imag)[0]
        pair = 0.5 * (roots[i] + np.conj(roots[j]))
        roots[i], roots[j] = pair, np.conj(pair)
        k = np.nonzero(~imag)[0][0]
        roots[k] = roots[k].real
    elif np.count_nonzero(imag) == 0:
        roots = roots.real.astype(complex)
    return roots[np.lexsort((roots.imag, roots.real))]


def _reference_points() -> list:
    """650 seeded points, the last 50 at kappa = 0."""
    rng = np.random.default_rng(11)
    n = 600
    gammas = np.concatenate([rng.uniform(0.01, 5.0, n), rng.uniform(0.01, 5.0, 50)])
    kappas = np.concatenate([10.0 ** rng.uniform(-9.0, 0.3, n), np.zeros(50)])
    return [ModelParams(kappa=float(k), gamma_w=float(gw)) for gw, k in zip(gammas, kappas)]


def test_roots_bitwise_equal_to_np_roots_reference():
    for p in _reference_points():
        assert cubic_roots(p).tobytes() == _np_roots_polished(p).tobytes(), p


def test_stacked_roots_bitwise_equal_to_np_roots_reference():
    # the same points in one stacked call, the kappa = 0 rows (a 2 x 2
    # companion and the exact root 0) mixed in among the others
    points = _reference_points()
    points = [points[i] for i in np.random.default_rng(12).permutation(len(points))]
    roots = _stacked_roots(np.array([cubic_coefficients(p) for p in points]))
    assert roots.shape == (650, 3)
    for p, x in zip(points, roots):
        assert x.tobytes() == _np_roots_polished(p).tobytes(), p


@pytest.mark.parametrize("t_max", [0.7, 20.0, 200.0, 1000.0])
def test_scan_steps_bitwise_equal_to_scalar_reference(t_max):
    # the 650 points above (50 at kappa = 0), Markov baths with and without
    # an oscillating pair, and confluent cells, in one call
    points = _reference_points()
    points += [
        ModelParams(kappa=k, gamma_w=math.inf, Gamma_w=gw)
        for k in (0.0, 1e-13, 0.1, 0.25, 0.26, 0.5, 3.0)
        for gw in (0.3, 1.0, 2.0)
    ]
    points += [ModelParams(kappa=blue_boundary(gw), gamma_w=gw) for gw in (1.8, 2.1, 2.4, 2.9)]
    points += [ModelParams(kappa=JOIN_KAPPA, gamma_w=GREEN_BLUE_JOIN)]
    points += [ModelParams(kappa=1e-9, gamma_w=2.0)]
    sols = [solve_g(p) for p in points]
    assert sum(sol.confluent for sol in sols) >= 25
    assert _scan_steps(kernel_of(sols), t_max).tolist() == [_scan_intervals(sol, t_max) for sol in sols]


def test_cubic_requires_resonance():
    with pytest.raises(NotResonant):
        cubic_roots(ModelParams(kappa=0.4, gamma_w=0.9, omega=2.0))


def test_residuals_small(rng):
    for _ in range(10):
        p = ModelParams(kappa=rng.uniform(0.05, 1.0), gamma_w=rng.uniform(0.1, 3.0))
        coeffs = cubic_coefficients(p)
        res = np.abs(np.polyval(coeffs, cubic_roots(p)))
        assert np.max(res) < 1e-11


def test_discriminant_sign_classifies_root_structure(ref_params):
    assert cubic_discriminant(ref_params) > 0.0
    r = cubic_roots(ref_params)
    assert np.count_nonzero(np.abs(r.imag) > 1e-9) == 2

    p2 = ModelParams(kappa=0.01, gamma_w=0.9)
    d2 = cubic_discriminant(p2)
    n_complex = np.count_nonzero(np.abs(cubic_roots(p2).imag) > 1e-9)
    assert (d2 > 0.0) == (n_complex == 2)

    p3 = ModelParams(kappa=0.01, gamma_w=2.5)
    assert cubic_discriminant(p3) < 0.0
    assert np.count_nonzero(np.abs(cubic_roots(p3).imag) > 1e-9) == 0


def test_discriminant_zero_marks_repeated_root():
    # bisect kappa at gamma_w = 2.5 for the discriminant sign change
    gw = 2.5
    lo, hi = 0.01, 0.6
    f = lambda k: cubic_discriminant(ModelParams(kappa=k, gamma_w=gw))
    assert f(lo) < 0.0 < f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    r = cubic_roots(ModelParams(kappa=hi, gamma_w=gw))
    gaps = [abs(r[i] - r[j]) for i in range(3) for j in range(i + 1, 3)]
    assert min(gaps) < 1e-6


# ---------------------------------------------------------------------------
# g evaluation: root-sum vs ODE oracle
# ---------------------------------------------------------------------------

def test_initial_conditions(ref_gsol):
    g, gp, gpp = ref_gsol.eval(0.0)
    assert g[0] == pytest.approx(1.0, abs=1e-12)
    assert gp[0] == pytest.approx(0.0, abs=1e-12)
    assert gpp[0] == pytest.approx(-0.43**2, abs=1e-12)


def test_free_system_constant():
    sol = solve_g(ModelParams(kappa=0.0, gamma_w=0.9))
    ts = np.linspace(0.0, 100.0, 1001)
    g, gp, gpp = sol.eval(ts)
    assert np.max(np.abs(g - 1.0)) < 1e-12
    assert np.max(np.abs(gp)) < 1e-12
    assert np.max(np.abs(gpp)) < 1e-12


@pytest.mark.parametrize("gamma_w", [0.1, 0.3, 2.5])
def test_free_system_weights_exact(gamma_w):
    # kappa = 0: the root 0 carries all the weight, so g = 1 to the bit
    sol = solve_g(ModelParams(kappa=0.0, gamma_w=gamma_w))
    assert sol.method == ROOT_SUM
    assert sol.weights.tolist() == (sol.roots == 0.0).astype(complex).tolist()
    g, gp, gpp = sol.eval(np.linspace(0.0, 200.0, 2001))
    assert np.all(g == 1.0) and np.all(gp == 0.0) and np.all(gpp == 0.0)


def test_no_critical_point_next_to_t0():
    # g'(0) = 0 exactly: a rounded g'(0) > 0 would bracket a g' zero at t ~ 1e-13
    rng = np.random.default_rng(5)
    sols = [
        solve_g(ModelParams(kappa=float(k), gamma_w=float(gw)))
        for gw, k in zip(rng.uniform(0.02, 3.0, 300), rng.uniform(0.005, 0.6, 300))
    ]
    sols = [sol for sol in sols if sol.method == ROOT_SUM]
    for sol, (_, crit, _) in zip(sols, _critical_points(kernel_of(sols), 200.0)):
        assert crit[0] == 0.0
        assert not np.any((crit > 0.0) & (crit < 1e-9)), sol.params


def test_root_sum_matches_ode_oracle(ref_params, ref_gsol):
    grid = GridSpec.uniform(200.0, 0.01)
    oracle = g_ode_oracle(ref_params, grid)
    g = ref_gsol.g(grid.times())
    assert np.max(np.abs(g - oracle["g"])) <= 1e-8
    assert oracle["g"][0] == pytest.approx(1.0, abs=1e-14)
    assert oracle["gp"][0] == pytest.approx(0.0, abs=1e-14)
    assert oracle["gpp"][0] == pytest.approx(-0.43**2, abs=1e-12)


def test_ode_oracle_free_system():
    grid = GridSpec.uniform(50.0, 0.1)
    oracle = g_ode_oracle(ModelParams(kappa=0.0, gamma_w=1.3), grid)
    assert np.max(np.abs(oracle["g"] - 1.0)) < 1e-12


def test_ode_oracle_requires_resonance():
    with pytest.raises(NotResonant):
        g_ode_oracle(ModelParams(kappa=0.3, gamma_w=0.9, omega_c=2.0), GridSpec.uniform(1.0, 0.1))


def test_realness_over_random_draws(rng):
    # 100 draws on a 1e-2 grid over [0, 200]: the complex root sum has
    # |Im g| <= 1e-9, and GSolution.eval's real modal form stays within
    # 1e-14 of the sum of the magnitudes of its terms, for g, g' and g''
    ts = np.arange(0.0, 200.0 + 0.005, 0.01)
    worst_imag, worst_scaled = 0.0, 0.0
    for _ in range(100):
        p = ModelParams(kappa=rng.uniform(1e-3, 1.0), gamma_w=rng.uniform(1e-2, 3.0))
        sol = solve_g(p)
        if sol.method != ROOT_SUM:
            continue
        e = np.exp(np.outer(ts, sol.roots) / 2.0)
        worst_imag = max(worst_imag, float(np.max(np.abs((e @ sol.weights).imag))))
        for order, values in enumerate(sol.eval(ts)):
            w = sol.weights * (sol.roots / 2.0) ** order
            reference = (e @ w).real
            scale = np.abs(e * w).sum(axis=1)
            worst_scaled = max(worst_scaled, float(np.max(np.abs(values - reference) / scale)))
    assert worst_imag <= 1e-9
    assert worst_scaled <= 1e-14


def test_eval_does_not_depend_on_batch(ref_gsol):
    # every value is computed elementwise: one call over many times gives
    # bitwise the values of one call per time
    t = np.random.default_rng(3).uniform(0.0, 200.0, 1000)
    batch = ref_gsol.eval(t)
    for k in range(t.size):
        single = ref_gsol.eval(t[k])
        assert all(b[k] == s[0] for b, s in zip(batch, single)), t[k]


def _roots_then_eval(p):
    sol = solve_g(p)
    return find_g_roots(sol, 20.0), sol.eval(np.linspace(0.0, 20.0, 201))


@pytest.mark.parametrize(
    "run",
    [
        lambda p: non_markovianity(p, 20.0, 0.01),
        lambda p: geometric_phase(p, 0.7, GridSpec.uniform(20.0, 0.01)),
        _roots_then_eval,
    ],
    ids=["non_markovianity", "geometric_phase", "find_g_roots-eval"],
)
@pytest.mark.parametrize("point", [REF_POINT, dict(kappa=0.3, gamma_w=math.inf)])
def test_one_solution_builds_one_kernel(count_calls, run, point):
    # the kernel solve_g builds serves the scan and every evaluation; the
    # first eval built a second one
    kernels = count_calls(_ModalCells, "__init__")
    solutions = count_calls(GSolution, "__init__")
    run(ModelParams(**point))
    assert (kernels(), solutions()) == (1, 1)


@pytest.mark.parametrize(
    "point", [REF_POINT, dict(kappa=0.0, gamma_w=2.0), dict(kappa=0.5, gamma_w=math.inf)]
)
def test_eval_empty_input(point):
    # root-sum, a double root and a Markov bath
    for values in solve_g(ModelParams(**point)).eval([]):
        assert values.shape == (0,) and values.dtype == float


@pytest.mark.parametrize(
    "point, g_inf",
    [
        (REF_POINT, 0.0),
        (dict(kappa=0.5, gamma_w=math.inf), 0.0),
        (dict(kappa=0.0, gamma_w=0.9), 1.0),
        (dict(kappa=JOIN_KAPPA, gamma_w=GREEN_BLUE_JOIN), 0.0),
    ],
)
def test_eval_at_infinity_is_the_limit(point, g_inf):
    # root sum, Markov bath, kappa = 0 (g = 1) and the triple root (confluent form)
    sol = solve_g(ModelParams(**point))
    t = np.array([[0.0, 1.0], [1e300, math.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, gp, gpp = sol.eval(t)
        alone = sol.eval(t[t < math.inf])
    assert g.shape == gp.shape == gpp.shape == t.shape
    assert (g[1, 1], gp[1, 1], gpp[1, 1]) == (g_inf, 0.0, 0.0)
    assert all(np.array_equal(v[t < math.inf], a) for v, a in zip((g, gp, gpp), alone))
    assert sol.eval(math.inf)[0][0] == g_inf


def test_degenerate_roots_stay_accurate():
    # kappa = 0, gamma_w = 2 Gamma_w puts a double root at x = -gamma_w
    sol = solve_g(ModelParams(kappa=0.0, gamma_w=2.0))
    assert sol.method == ROOT_SUM
    ts = np.linspace(0.0, 50.0, 501)
    assert np.max(np.abs(sol.g(ts) - 1.0)) < 1e-13

    near = solve_g(ModelParams(kappa=1e-9, gamma_w=2.0))
    assert near.method == ROOT_SUM
    assert np.max(np.abs(near.g(ts) - 1.0)) < 1e-13


def _oracle_error(gamma_w: float, kappa: float) -> float:
    """Largest |difference| of g, g', g'' from g_ode_oracle on [0, 200]."""
    p = ModelParams(kappa=kappa, gamma_w=gamma_w)
    grid = GridSpec.uniform(200.0, 0.05)
    oracle = g_ode_oracle(p, grid)
    values = solve_g(p).eval(grid.times())
    return max(float(np.max(np.abs(v - oracle[k]))) for v, k in zip(values, ("g", "gp", "gpp")))


# double roots on the blue curve, kappa = blue(gamma_w) (1 + d); the triple
# root at the join, along kappa and along gamma_w; a double root at kappa ~ 0
DEGENERATE_POINTS = [
    pytest.param(gw, blue_boundary(gw) * (1.0 + d), id=f"blue-{gw}-{d:g}")
    for gw in (1.8, 2.1, 2.4, 2.9)
    for d in (1e-4, 1e-8, 1e-12, 0.0, -1e-12, -1e-8)
]
DEGENERATE_POINTS += [
    pytest.param(GREEN_BLUE_JOIN, JOIN_KAPPA * (1.0 + d), id=f"join-kappa-{d:g}")
    for d in (1e-4, 1e-6, 0.0)
]
DEGENERATE_POINTS += [
    pytest.param(GREEN_BLUE_JOIN * (1.0 + d), JOIN_KAPPA, id=f"join-gamma-{d:g}")
    for d in (1e-4, 1e-6)
]
DEGENERATE_POINTS += [pytest.param(2.0, 0.0, id="double-0"), pytest.param(2.0, 1e-9, id="double-1e-9")]


@pytest.mark.parametrize("gamma_w, kappa", DEGENERATE_POINTS)
def test_repeated_roots_match_ode_oracle(gamma_w, kappa):
    # the root sum's weights grow like 1/p'(x_i): at the blue curve it was
    # off by 4.5e-4; the confluent form holds to the oracle's own accuracy
    assert _oracle_error(gamma_w, kappa) <= 1e-11


@pytest.mark.parametrize("d", np.logspace(-1.0, -6.0, 11))
def test_join_neighbourhood_matches_ode_oracle(d):
    # crosses the switch from the root sum (|w| <= 64) to the confluent form
    for gamma_w, kappa in [
        (GREEN_BLUE_JOIN, JOIN_KAPPA * (1.0 + d)),
        (GREEN_BLUE_JOIN, JOIN_KAPPA * (1.0 - d)),
        (GREEN_BLUE_JOIN * (1.0 + d), JOIN_KAPPA),
        (GREEN_BLUE_JOIN * (1.0 - d), JOIN_KAPPA),
    ]:
        assert _oracle_error(gamma_w, kappa) <= 1e-10, (gamma_w, kappa)


def test_no_ode_integration_outside_the_oracle(count_calls):
    integrations = count_calls(nmgeo.gfunction, "solve_ivp")
    points = [
        (2.0, 0.0),
        (2.0, 1e-9),
        (2.4, blue_boundary(2.4)),
        (GREEN_BLUE_JOIN, JOIN_KAPPA),
        (math.inf, 0.5),
    ]
    for gamma_w, kappa in points:
        p = ModelParams(kappa=kappa, gamma_w=gamma_w)
        sol = solve_g(p)
        sol.eval(np.linspace(0.0, 300.0, 7))
        find_g_roots(sol, 50.0)
        classify_point(gamma_w, kappa, t_max=50.0)
        sweep([gamma_w], [kappa], t_max=50.0)
        non_markovianity(p, 50.0)
    assert integrations() == 0
    g_ode_oracle(ModelParams(kappa=JOIN_KAPPA, gamma_w=GREEN_BLUE_JOIN), GridSpec.uniform(1.0, 0.1))
    assert integrations() == 1


# ---------------------------------------------------------------------------
# memory-less (Markov-bath) closed forms
# ---------------------------------------------------------------------------

def test_markov_limit_initial_value():
    assert g_markov_limit(1.0, 0.5, 0.0)[0] == pytest.approx(1.0)
    assert g_markov_limit(1.0, 0.25, 0.0)[0] == pytest.approx(1.0)
    assert g_markov_limit(1.0, 0.1, 0.0)[0] == pytest.approx(1.0)


def test_markov_limit_monotone_below_quarter():
    ts = np.linspace(1e-6, 100.0, 10_000)
    for kappa in (0.1, 0.2, 0.25):
        g = g_markov_limit(1.0, kappa, ts)
        gp = g_markov_limit_deriv(1.0, kappa, ts)
        assert np.all(g > 0.0)
        assert np.all(gp < 0.0)


def test_markov_limit_branch_continuity():
    ts = np.linspace(0.0, 30.0, 301)
    at = g_markov_limit(1.0, 0.25, ts)
    above = g_markov_limit(1.0, 0.25 + 1e-7, ts)
    below = g_markov_limit(1.0, 0.25 - 1e-7, ts)
    assert np.max(np.abs(at - above)) < 1e-5
    assert np.max(np.abs(at - below)) < 1e-5


def test_markov_root_times_match_closed_form_zeros():
    # oracle: bisection on the closed-form g itself
    delta = 0.25
    kappa = 0.25 + delta
    times = markov_root_times(delta, 6)
    for t in times:
        lo, hi = t - 1e-3, t + 1e-3
        f = lambda x: g_markov_limit(1.0, kappa, x)[0]
        assert f(lo) * f(hi) < 0.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        assert abs(0.5 * (lo + hi) - t) < 1e-8


def test_markov_root_times_small_delta_pushed_out():
    assert markov_root_times(1e-6, 1)[0] > 1e3


def test_markov_root_times_spacing_at_delta_one():
    times = markov_root_times(1.0, 12)
    assert np.all(np.diff(times) > 0.0)
    # the merged sequence interleaves two families of period 2 sqrt(2) pi / sqrt(3)
    period = 2.0 * math.sqrt(2.0) * math.pi / math.sqrt(3.0)
    times = np.asarray(times)
    assert np.max(np.abs(times[2:] - times[:-2] - period)) < 1e-9


def test_finite_gamma_converges_to_markov_limit():
    ts = np.linspace(0.0, 20.0, 2001)
    ref = g_markov_limit(1.0, 0.5, ts)
    sups = []
    for gw in (200.0, 500.0, 1000.0):
        sol = solve_g(ModelParams(kappa=0.5, gamma_w=gw))
        sups.append(np.max(np.abs(sol.g(ts) - ref)))
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] <= 0.02


def test_markov_limit_gsolution():
    sol = solve_g(ModelParams(kappa=0.5, gamma_w=math.inf))
    assert sol.method == MARKOV
    roots = find_g_roots(sol, 15.0)
    expect = markov_root_times(0.25, 2)
    assert np.allclose(roots, expect, atol=1e-9)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def test_reference_point_roots(ref_gsol):
    roots = find_g_roots(ref_gsol, 20.0)
    # the three reported divergence times; a fourth sign change is genuinely
    # present near t = 19.603 (confirmed against the independent ODE oracle)
    assert abs(roots[0] - 5.19) < 0.02
    assert abs(roots[1] - 8.85) < 0.02
    assert abs(roots[2] - 14.87) < 0.02
    assert len(roots) == 4
    assert abs(roots[3] - 19.603) < 0.02


def test_fourth_root_confirmed_by_ode_oracle(ref_params):
    grid = GridSpec.uniform(20.0, 0.001)
    g = g_ode_oracle(ref_params, grid)["g"]
    sign_changes = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]
    assert sign_changes.size == 4
    assert abs(grid.times()[sign_changes[3]] - 19.603) < 0.01


def test_roots_evaluate_to_zero(ref_gsol):
    for t in find_g_roots(ref_gsol, 20.0):
        assert abs(ref_gsol.g(t)[0]) <= 1e-8


def test_no_roots_at_exception_point():
    sol = solve_g(ModelParams(**EXCEPTION_POINT))
    assert find_g_roots(sol, 200.0) == []


def test_no_roots_at_markov_point():
    sol = solve_g(ModelParams(**MARKOV_POINT))
    assert find_g_roots(sol, 200.0) == []


def test_root_count_stable_at_4x_scan_density(ref_gsol):
    roots = find_g_roots(ref_gsol, 20.0)
    step = _scan_step(ref_gsol) / 4.0
    ts = np.arange(0.0, 20.0 + step, step)
    g = ref_gsol.g(ts)
    dense_count = int(np.count_nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0))
    assert dense_count == len(roots)


def test_find_g_roots_rejects_bad_t_max(ref_gsol):
    with pytest.raises(ValueError):
        find_g_roots(ref_gsol, -1.0)


def _bisect_root(f, lo: float, hi: float, xtol: float = 1e-12) -> float:
    """Scalar bisection, the reference rule for the batched finder."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < xtol:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_batched_bisection_matches_scalar_reference(order):
    # the batched reference bisector of tests/oracles.py against a scalar one
    rng = np.random.default_rng(7)
    points = [
        dict(gamma_w=float(gw), kappa=float(k))
        for gw, k in zip(rng.uniform(0.05, 3.0, 18), rng.uniform(0.01, 0.6, 18))
    ]
    # a g root and a g' zero at these two points lost their last bit when
    # GSolution.eval formed a matrix-vector product over all brackets
    points += [
        dict(gamma_w=1.3551144553589063, kappa=0.5923015159294286),
        dict(gamma_w=1.1195995087147772, kappa=0.5201632003595308),
    ]
    # Markov bath, no roots of g, and g = 1 (a double root): no brackets at all
    points += [dict(kappa=0.5, gamma_w=math.inf), MARKOV_POINT, dict(kappa=0.0, gamma_w=2.0)]
    counts = []
    for point in points:
        sol = solve_g(ModelParams(**point))
        ts = np.linspace(0.0, 200.0, int(math.ceil(200.0 / _scan_step(sol))) + 1)
        values = sol.eval(ts)[order]
        flips, _ = _sign_changes(values, np.zeros(ts.size, dtype=np.intp))
        sign = np.sign(values)
        assert flips.tolist() == [i for i in range(ts.size - 1) if sign[i] * sign[i + 1] < 0]
        f = lambda t: float(sol.eval(t)[order][0])
        expect = [_bisect_root(f, ts[i], ts[i + 1]) for i in flips]
        batched = _bisect_brackets(lambda t, j: sol.eval(t)[order], ts[flips], ts[flips + 1])
        assert batched.tolist() == expect
        counts.append(len(expect))
    assert min(counts) == 0 and sum(counts) > len(points)


def test_newton_brackets_match_bisection_reference():
    # the kernel's Newton refiner against halving to 1e-12, on every sign
    # change of g, g' and g'' on the scan grid
    rng = np.random.default_rng(5)
    points = list(zip(rng.uniform(0.02, 3.0, 60), rng.uniform(0.005, 0.6, 60)))
    # a double root on the blue curve, the triple root at the join, two
    # Markov baths, g = 1 and a nearly free cavity
    points += [(2.4, blue_boundary(2.4)), (GREEN_BLUE_JOIN, JOIN_KAPPA)]
    points += [(math.inf, 0.5), (math.inf, 0.26), (2.0, 0.0), (2.0, 1e-9)]
    count = 0
    for gw, k in points:
        sol = solve_g(ModelParams(kappa=float(k), gamma_w=float(gw)))
        ts = np.linspace(0.0, 200.0, int(math.ceil(200.0 / _scan_step(sol))) + 1)
        values = sol.eval(ts)
        for order in (0, 1, 2):
            i, _ = _sign_changes(values[order], np.zeros(ts.size, dtype=np.intp))
            newton = sol._cells.refine(ts[i], ts[i + 1], 0, order)
            expect = _bisect_brackets(lambda t, j: sol.eval(t)[order], ts[i], ts[i + 1])
            assert np.all(np.abs(newton - expect) <= 1e-12 * np.maximum(1.0, expect)), (gw, k)
            count += i.size
    assert count > 3000


# ---------------------------------------------------------------------------
# the scan cut where one mode dominates, against the full scan
# ---------------------------------------------------------------------------

# the 30 x 30 sub-grid 0.02:3.0:0.1 x 0.005:0.6:0.02 of the README sweep box
SUBGRID = [(gw, k) for gw in 0.02 + 0.1 * np.arange(30) for k in 0.005 + 0.02 * np.arange(30)]


def _solutions(points):
    return [solve_g(ModelParams(kappa=float(k), gamma_w=float(gw))) for gw, k in points]


def _differing_cells(sols, t_max):
    """Parameters of the cells whose critical points differ from the full scan's in any bit."""
    cut, full = _critical_points(kernel_of(sols), t_max), critical_points_full_scan(sols, t_max)
    return [
        sol.params
        for sol, a, b in zip(sols, cut, full)
        if not all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
    ]


def test_cut_scan_equals_full_scan_on_readme_subgrid():
    # the phase brackets are narrowed to the grid step a scan brackets, so
    # pair-dominated cells are bitwise equal too, not only the real-dominated
    sols = _solutions(SUBGRID)
    cells, n = kernel_of(sols), np.array([_scan_intervals(sol, 200.0) for sol in sols])
    settle, pair = cells.dominance()
    end, _, count, _ = _scan_plan(cells, n, 200.0)
    # both cuts are taken: real-dominated cells stop early, pair-dominated
    # ones place most of their zeros from the phase
    assert np.count_nonzero(~pair & (end.max(axis=0) < n)) > 400
    assert np.count_nonzero(pair & (count.sum(axis=0) > 0)) > 400
    assert count.sum() > 20000
    assert _differing_cells(sols, 200.0) == []


def _join_neighbourhood():
    """Root-sum cells around the triple root at the join, weights up to about 56."""
    points = [
        (GREEN_BLUE_JOIN + dg, JOIN_KAPPA + dk)
        for dg in np.linspace(-0.05, 0.05, 21)
        for dk in np.linspace(-0.02, 0.02, 21)
    ]
    return [sol for sol in _solutions(points) if not sol.confluent]


HAND_PICKED = (
    # within 1e-4 of the green and blue curves, and near-ties r0 ~ r1 on the
    # green curve, where the dominance takes longer than any window
    [(gw, green_boundary(gw) + d) for gw in (0.1, 0.3, 0.9, 1.5, 1.68) for d in (-1e-4, 1e-4)]
    + [(gw, green_boundary(gw) + d) for gw in (0.3, 0.9, 1.5) for d in (-1e-9, 1e-9)]
    + [(gw, blue_boundary(gw) + d) for gw in (1.7, 2.0, 2.5, 2.8, 3.0) for d in (-1e-4, 1e-4)]
    # g = 1, Markov baths, and a double root on the blue curve (confluent)
    + [(gw, 0.0) for gw in (0.02, 0.9, 3.0)]
    + [(math.inf, k) for k in (0.1, 0.25, 0.26, 0.5)]
    + [(2.4, blue_boundary(2.4)), (GREEN_BLUE_JOIN, JOIN_KAPPA)]
)


@pytest.mark.parametrize("t_max", [20.0, 200.0, 1000.0])
def test_cut_scan_equals_full_scan_on_hand_picked_cells(t_max):
    rng = np.random.default_rng(17)
    random = list(zip(rng.uniform(0.02, 3.0, 200), rng.uniform(0.005, 0.6, 200)))
    join = _join_neighbourhood()
    assert 40.0 < max(np.max(np.abs(sol.weights)) for sol in join) <= 64.0
    sols = _solutions(HAND_PICKED + random) + join
    assert _differing_cells(sols, t_max) == []


def test_cut_scan_equals_full_scan_with_the_cut_next_to_t_max():
    # t_max a hair below and above the time T where the cut starts, and a
    # scan step either side of it, for real- and pair-dominated cells
    sols = [sol for sol in _solutions(SUBGRID[::7]) if not sol.confluent]
    settle, pair = kernel_of(sols).dominance()
    checked = [0, 0]
    for sol, t, p in zip(sols, settle, pair):
        if not 1.0 < t < 500.0:
            continue
        step = _scan_step(sol)
        for t_max in (t * (1.0 - 1e-9), t * (1.0 + 1e-9), t - step, t + step, t + 3.0 * step):
            assert _differing_cells([sol], t_max) == [], t_max
        checked[bool(p)] += 1
    assert min(checked) >= 10


@pytest.mark.parametrize("t_max", [20.0, 200.0, 1000.0])
def test_classified_columns_equal_per_cell_reference(t_max):
    # the sweep's columns against each cell's critical points: N_total
    # bitwise the running sum of its rises, and its first zero of g
    errors, t_first, n_total = _classify_cells(HAND_PICKED, t_max)
    assert errors.tolist() == [None] * len(HAND_PICKED)
    sols = _solutions(HAND_PICKED)
    per_cell = _critical_points(kernel_of(sols), t_max)
    for sol, (zeros, _, abs_g), t, total in zip(sols, per_cell, t_first, n_total):
        assert total.hex() == _total_rise(abs_g).hex(), sol.params
        assert t == zeros[0] if zeros.size else math.isnan(t), sol.params
