"""Analytic boundary curves and the (gamma_w, kappa) classification sweep.

All boundaries are stated for Gamma_w = 1.  The divergence boundary is the
green curve kappa = sqrt(gamma_w (9 - 4 gamma_w)) / 6 for gamma_w up to
27/16 and, beyond that, the blue curve obtained from the vanishing of the
characteristic-cubic discriminant; the two join at (27/16, 3 sqrt(3)/16).
The Markov / non-Markovian crossover for gamma_w < 27/16 is the locus
where g' becomes tangent to zero: g'(t*) = g''(t*) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NegativeKappaSquared, NmgeoError, NoConvergence, OutOfDomain
from .gfunction import (
    GSolution,
    _critical_points,
    _ode_row,
    _scan_intervals,
    _sign_changes,
    _third_derivative,
    _total_rise,
    solve_g,
)
from .model import ModelParams

GREEN_BLUE_JOIN = 27.0 / 16.0

REGION_MARKOV = "M"
REGION_DIVERGENT = "NM_DIV"
REGION_NONDIVERGENT = "NM_NODIV"
REGION_ERROR = "ERR"

N_THRESHOLD = 1e-6

# tangency: first-lobe scan window and samples, Newton tolerance and steps
_T_SCAN, _N_SCAN = 60.0, 2500
_NEWTON_TOL, _NEWTON_ITER = 1e-10, 60

# scan points one block of sweep cells holds; bounds the sweep's memory
_BLOCK_POINTS = 2**15


def green_boundary(gamma_w: float) -> float:
    """kappa = sqrt(gamma_w (9 - 4 gamma_w)) / 6.

    Real for gamma_w in (0, 9/4]; meaningful as the divergence boundary on
    (0, 27/16].
    """
    if not (0.0 < gamma_w <= 2.25):
        raise OutOfDomain(f"green boundary needs gamma_w in (0, 9/4], got {gamma_w}")
    return math.sqrt(gamma_w * (9.0 - 4.0 * gamma_w)) / 6.0


def blue_boundary(gamma_w: float) -> float:
    """Divergence boundary for gamma_w in [27/16, 3] (discriminant-zero locus).

        kappa^2 = sqrt(2 gw^3 (2 gw + 27)) cos(a/3) / 3 - gw (4 gw + 3) / 6,
        a = arcsec( 8 sqrt(2 gw) (2 gw + 27)^{3/2} / (8 gw (4 gw - 135) - 729) ).

    The arcsec argument is <= -1 on the domain, so a = arccos(1/arg) lies in
    (pi/2, pi]; at the join point the argument is exactly -1.
    """
    if not (GREEN_BLUE_JOIN <= gamma_w <= 3.0):
        raise OutOfDomain(f"blue boundary needs gamma_w in [27/16, 3], got {gamma_w}")
    den = 8.0 * gamma_w * (4.0 * gamma_w - 135.0) - 729.0
    arg = 8.0 * math.sqrt(2.0 * gamma_w) * (2.0 * gamma_w + 27.0) ** 1.5 / den
    # rounding can push 1/arg a hair past -1 at the join point
    a = math.acos(min(1.0, max(-1.0, 1.0 / arg)))
    k2 = (
        math.sqrt(2.0 * gamma_w**3 * (2.0 * gamma_w + 27.0)) * math.cos(a / 3.0) / 3.0
        - gamma_w * (4.0 * gamma_w + 3.0) / 6.0
    )
    if k2 < 0.0:
        raise NegativeKappaSquared(
            f"kappa^2 = {k2} < 0 at gamma_w = {gamma_w}; arcsec branch error"
        )
    return math.sqrt(k2)


@lru_cache(maxsize=4)
def _tangency_solution(gamma_w: float, kappa: float) -> GSolution:
    """solve_g at (gamma_w, kappa), remembered for the next few calls.

    A continued Newton ends on the kappa its first-lobe guard solves again,
    and a Brent-seeded Newton starts on a kappa the search just solved.
    """
    return solve_g(ModelParams(kappa=kappa, gamma_w=gamma_w))


def _first_gp_maximum(gamma_w: float, kappa: float):
    """(t, g'(t)) at the first interior local maximum of g' on (0, _T_SCAN], or None.

    Bracketed by the second sign change of g'' on _N_SCAN samples (the first
    is the minimum of g', since g''(0) = -kappa^2 < 0), then refined as a
    zero of g'' by the kernel's one zero refiner, _ModalCells.refine.
    """
    sol = _tangency_solution(gamma_w, kappa)
    ts = np.linspace(1e-6, _T_SCAN, _N_SCAN)
    flips, _ = _sign_changes(sol.eval(ts)[2], np.zeros(ts.size, dtype=np.intp))
    if flips.size < 2:
        return None
    i = flips[1:2]
    t = sol._modal.refine(ts[i], ts[i + 1], 0, 2)
    return float(t[0]), float(sol.eval(t)[1][0])


def _tangency_newton(gamma_w: float, t: float, k: float, tol: float, max_iter: int):
    """Damped Newton from (t, kappa) onto g'(t) = 0 = g''(t); returns floats.

    The residual is (g', g'')/kappa^2: both are O(kappa^2), so unscaled the
    iteration can slide to kappa ~ 0, where any tolerance holds without a
    tangency.  The t column of the Jacobian is (g'', g''')/kappa^2 in closed
    form, g''' from the ODE; only the kappa column is differenced.
    """

    def state(t_, k_):
        g, gp, gpp = _tangency_solution(gamma_w, k_).eval(t_)
        return g[0] / k_**2, np.array([gp[0], gpp[0]]) / k_**2

    g, fval = state(t, k)
    for _ in range(max_iter):
        if np.max(np.abs(fval)) < tol:
            return float(t), float(k)
        # g, g' and g'' divided by kappa^2, and so g''' too
        gppp = _third_derivative(g, *fval, _ode_row(_tangency_solution(gamma_w, k).params))
        hk = 1e-7 * max(1.0, k)
        jac = np.empty((2, 2))
        jac[:, 0] = (fval[1], gppp)
        jac[:, 1] = (state(t, k + hk)[1] - state(t, k - hk)[1]) / (2.0 * hk)
        try:
            step = np.linalg.solve(jac, -fval)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(
                "singular Jacobian in tangency Newton",
                {"gamma_w": gamma_w, "t": t, "kappa": k, "residual": fval.tolist()},
            ) from exc
        lam, n0 = 1.0, float(fval @ fval)
        while lam > 1e-8:
            t_c, k_c = t + lam * step[0], k + lam * step[1]
            if k_c > 0.0:
                g_c, f_c = state(t_c, k_c)
                if float(f_c @ f_c) < n0:
                    break
            lam *= 0.5
        else:
            raise NoConvergence(
                "tangency Newton found no descent step",
                {"gamma_w": gamma_w, "t": t, "kappa": k, "residual": fval.tolist()},
            )
        t, k, g, fval = t_c, k_c, g_c, f_c
    raise NoConvergence(
        "tangency Newton did not reach tolerance",
        {"gamma_w": gamma_w, "t": t, "kappa": k, "residual": fval.tolist()},
    )


def _check_tangency_domain(gamma_w: float):
    if not (0.0 < gamma_w < GREEN_BLUE_JOIN):
        raise OutOfDomain(
            f"tangency construction applies for gamma_w in (0, 27/16), got {gamma_w}"
        )


def tangency_point(gamma_w: float) -> tuple[float, float]:
    """(t*, kappa*) solving g'(t*) = 0 = g''(t*) at the smallest kappa > 0.

    The double root makes a raw 2-d scan on |g'| + |g''| useless (both decay
    exponentially, so spurious distant lobes win), so the seed comes from a
    Brent search in kappa (scipy.optimize.brentq) on the sign of g'/kappa^2
    at its first interior local maximum (none counts as negative); a damped
    Newton iteration then polishes (t, kappa) until both components of
    (g', g'')/kappa^2 are below 1e-10, from the last kappa searched whose
    maximum is not negative.
    """
    _check_tangency_domain(gamma_w)
    k_hi = green_boundary(gamma_w)
    k_lo = k_hi / 1e4
    h_lo = _first_gp_maximum(gamma_w, k_lo)
    h_hi = _first_gp_maximum(gamma_w, k_hi)
    if h_hi is None or h_hi[1] <= 0.0:
        raise NoConvergence(
            "no positive first lobe of g' at the green boundary",
            {"gamma_w": gamma_w, "kappa_hi": k_hi, "h_hi": h_hi},
        )
    if h_lo is not None and h_lo[1] > 0.0:
        raise NoConvergence(
            "first lobe already positive at the lower kappa bracket",
            {"gamma_w": gamma_w, "kappa_lo": k_lo, "h_lo": h_lo},
        )
    known = {k_lo: h_lo, k_hi: h_hi}  # brentq evaluates both ends first
    seed = [h_hi[0], k_hi]

    def height(k):
        lobe = known.pop(k) if k in known else _first_gp_maximum(gamma_w, k)
        if lobe is not None and lobe[1] >= 0.0:
            seed[:] = lobe[0], k
        # no lobe: negative, and near the -2/Gamma_w of small-kappa heights
        return -1.0 if lobe is None else lobe[1] / k**2

    # imported here: only the seed uses scipy.optimize, and importing it costs more than a seed
    from scipy.optimize import brentq

    try:  # to float resolution in kappa
        brentq(height, k_lo, k_hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
    except (ValueError, RuntimeError) as exc:  # a NaN height, or maxiter reached
        details = {"gamma_w": gamma_w, "kappa_lo": k_lo, "kappa_hi": k_hi}
        raise NoConvergence(f"kappa search on the first lobe of g' failed: {exc}", details) from exc
    return _tangency_newton(gamma_w, *seed, _NEWTON_TOL, _NEWTON_ITER)


def tangency_boundary(gamma_w: float) -> float:
    """Markov / non-Markovian boundary kappa*(gamma_w); see tangency_point."""
    return tangency_point(gamma_w)[1]


@dataclass(frozen=True)
class TangencyPoint:
    """One point of the tangency curve; t_star and kappa are None when error is set."""

    gamma_w: float
    t_star: float | None
    kappa: float | None
    error: str | None = None


def tangency_curve(gamma_values) -> list[TangencyPoint]:
    """Tangency points at each gamma_w, continued from one point to the next.

    The first gamma_w with a Markov region is seeded by tangency_point's
    Brent search in kappa.  Each later point starts from a secant predictor
    through the two previous (t*, kappa*) (the previous one alone for the
    second) and is polished by the same Newton.  One first-lobe scan at the
    new kappa guards it: when the first maximum of g' is not at the Newton
    t (the continuation followed a later lobe), the point is recomputed by
    tangency_point.  A point that fails is recorded with its error, never
    raised, and the next point is seeded afresh.
    """
    gammas = [float(gw) for gw in gamma_values]
    for gw in gammas:
        _check_tangency_domain(gw)
    points: list[TangencyPoint] = []
    done: list[TangencyPoint] = []  # the continuation's last two points
    for gw in gammas:
        try:
            t, k = _continued(gw, done) if done else tangency_point(gw)
        except NmgeoError as exc:
            points.append(TangencyPoint(gw, None, None, str(exc)))
            done = []
            continue
        points.append(TangencyPoint(gw, t, k))
        done = [*done[-1:], points[-1]]
    return points


def _continued(gamma_w: float, done: list[TangencyPoint]) -> tuple[float, float]:
    """Tangency at gamma_w continued from the previous points, else by tangency_point."""
    a, b = done[0], done[-1]
    s = (gamma_w - b.gamma_w) / (b.gamma_w - a.gamma_w) if a.gamma_w != b.gamma_w else 0.0
    t0, k0 = b.t_star + s * (b.t_star - a.t_star), b.kappa + s * (b.kappa - a.kappa)
    try:
        t, k = _tangency_newton(gamma_w, t0, k0, _NEWTON_TOL, _NEWTON_ITER)
    except NmgeoError:
        return tangency_point(gamma_w)
    lobe = _first_gp_maximum(gamma_w, k)
    # a later lobe, or one so flat that the Newton t is not pinned down
    if lobe is None or abs(lobe[0] - t) > 1e-6 * max(1.0, t):
        return tangency_point(gamma_w)
    return t, k


@dataclass(frozen=True)
class PhaseCell:
    """Classification record of one (gamma_w, kappa) grid point.

    error and error_type (the exception's class name) are set on ERR cells.
    """

    gamma_w: float
    kappa: float
    region: str
    t_first_divergence: float | None
    n_total: float
    error: str | None = None
    error_type: str | None = None


def classify_point(gamma_w: float, kappa: float, t_max: float = 200.0) -> PhaseCell:
    """Classify one parameter point by g-roots and accumulated backflow.

    Roots in (0, t_max] => NM_DIV with the first root time; otherwise
    N_total > N_THRESHOLD => NM_NODIV, else M.  This is sweep's code on a
    one-cell block: one scan, and one Newton refine of the zeros it
    brackets; see _classify for how roots and N_total are found.
    """
    sol = solve_g(ModelParams(kappa=kappa, gamma_w=gamma_w))
    return _record(gamma_w, kappa, *_classify([sol], t_max)[0])


def sweep(gamma_values, kappa_values, t_max: float = 200.0) -> list[PhaseCell]:
    """Classify every (gamma_w, kappa) grid node, row-major in gamma then kappa.

    Cells are classified together, whatever form their g takes, in blocks
    of at most _BLOCK_POINTS scan points (a larger cell alone).  Each cell's
    record equals classify_point's.
    Per-cell failures are recorded in the cell (region ERR), a failure of a
    whole block in each of its cells, and never abort the sweep.
    """
    points = [(g, k) for g in gamma_values for k in kappa_values]
    cells: list = [None] * len(points)
    block, held = [], 0
    for i, (g, k) in enumerate(points):
        try:
            sol = solve_g(ModelParams(kappa=k, gamma_w=g))
            size = _scan_intervals(sol, t_max) + 1
        except Exception as exc:  # recorded, not raised
            cells[i] = _error_record(g, k, exc)
            continue
        if block and held + size > _BLOCK_POINTS:
            _classify_into(cells, points, block, t_max)
            block, held = [], 0
        block.append((i, sol))
        held += size
    if block:
        _classify_into(cells, points, block, t_max)
    return cells


def _classify_into(cells: list, points: list, block: list, t_max: float):
    """Classify the (index, solution) pairs of one block into cells[index]."""
    try:
        results = _classify([sol for _, sol in block], t_max)
    except Exception as exc:  # recorded in each cell of the block, not raised
        for i, _ in block:
            cells[i] = _error_record(*points[i], exc)
        return
    for (i, _), result in zip(block, results):
        cells[i] = _record(*points[i], *result)


def _record(gamma_w, kappa, t_first: float | None, n_total: float) -> PhaseCell:
    if t_first is not None:
        region = REGION_DIVERGENT
    elif n_total > N_THRESHOLD:
        region = REGION_NONDIVERGENT
    else:
        region = REGION_MARKOV
    return PhaseCell(gamma_w, kappa, region, t_first, n_total)


def _error_record(gamma_w, kappa, exc: Exception) -> PhaseCell:
    return PhaseCell(
        gamma_w, kappa, REGION_ERROR, None, math.nan, error=str(exc), error_type=type(exc).__name__
    )


def _classify(sols: list[GSolution], t_max: float) -> list[tuple[float | None, float]]:
    """(first zero of g in (0, t_max] or None, N_total) of each cell, found together.

    N_total is the sum of the rises of |g| between consecutive critical
    points from _critical_points: exact, with no time grid.
    """
    out = []
    for zeros, _, abs_g in _critical_points(sols, t_max):
        out.append((float(zeros[0]) if zeros.size else None, _total_rise(abs_g)))
    return out
