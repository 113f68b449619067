"""Analytic boundary curves and the (gamma_w, kappa) classification sweep.

All boundaries are stated for Gamma_w = 1.  The divergence boundary is the
green curve kappa = sqrt(gamma_w (9 - 4 gamma_w)) / 6 for gamma_w up to
27/16 and, beyond that, the blue curve obtained from the vanishing of the
characteristic-cubic discriminant; the two join at (27/16, 3 sqrt(3)/16).
The Markov / non-Markovian crossover for gamma_w < 27/16 is the locus
where g' becomes tangent to zero: g'(t*) = g''(t*) = 0, one closed-form
equation in the cubic's real root (see _tangency_residual).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NmgeoError, NoConvergence, OutOfDomain
from .gfunction import (
    _cubic_rows,
    _scan_blocks,
    _solve_each,
    _stacked_roots,
    _total_rises,
    solve_g,  # noqa: F401, tests count its calls here: the tangency code makes none
)
from .model import ModelParams

GREEN_BLUE_JOIN = 27.0 / 16.0

REGION_MARKOV = "M"
REGION_DIVERGENT = "NM_DIV"
REGION_NONDIVERGENT = "NM_NODIV"
REGION_ERROR = "ERR"

N_THRESHOLD = 1e-6

# cells the sweep solves before classifying them; bounds the memory their
# kernel holds (377 bytes a cell)
_SOLVE_CELLS = 2**12


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
    (pi/2, pi]; at the join point the argument is exactly -1.  kappa falls
    from 3 sqrt(3)/16 to 0.2771 at gamma_w = 3, so kappa^2 stays positive.
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
    return math.sqrt(k2)


def _check_tangency_domain(gamma_w: float):
    if not (0.0 < gamma_w < GREEN_BLUE_JOIN):
        raise OutOfDomain(
            f"tangency construction applies for gamma_w in (0, 27/16), got {gamma_w}"
        )


def _cubic_of_real_root(gamma_w: np.ndarray, x0: np.ndarray) -> tuple[np.ndarray, ...]:
    """(kappa^2, Re x1, Im x1) of the cubic (Gamma_w = 1) with the real root x0, by
    Vieta's formulas; kappa falls from green_boundary at x0 = -2 gamma_w/3 to 0 at 0."""
    k2 = -x0 * (x0 * x0 + 2.0 * gamma_w * (x0 + 1.0)) / (4.0 * (x0 + 2.0 * gamma_w))
    re = -0.5 * (2.0 * gamma_w + x0)
    return k2, re, np.sqrt(-8.0 * k2 * gamma_w / x0 - re * re)


def _tangency_residual(gamma_w: np.ndarray, x0: np.ndarray) -> tuple[np.ndarray, ...]:
    """(F, t*, kappa) at the cubic with the real root x0[i] (_cubic_of_real_root):
    F = 0 on the tangency, t* the time of the first lobe of g'.  No root solve.

    At g' = g'' = 0 the mode amplitudes w_i e^{x_i t/2} are orthogonal to
    (x_i) and (x_i^2), so (x_i + 2 gamma_w) e^{x_i t/2} is the same for every
    root x_i of the cubic (w_i = N(x_i)/p'(x_i) as in solve_g, and x N(x) =
    -4 kappa^2 (x + 2 gamma_w) at a root).  For the real root x0 and the root
    x1 with Im > 0, exp((x1 - x0) t/2) = Q = (x0 + 2 gamma_w)/(x1 + 2 gamma_w):
    its imaginary part gives t* = (Arg Q + 2 pi)/Im(x1/2), its real part
    F = (Re x1 - x0) t*/2 - ln|Q|.
    """
    k2, re, im = _cubic_of_real_root(gamma_w, x0)
    re = re + 2.0 * gamma_w  # x1 + 2 gamma_w, whose argument is -Arg Q
    t = (2.0 * math.pi - np.arctan2(im, re)) / (0.5 * im)
    f = -0.25 * (2.0 * gamma_w + 3.0 * x0) * t + np.log(np.hypot(re, im) / (x0 + 2.0 * gamma_w))
    return f, t, np.sqrt(k2)


def tangency_point(gamma_w: float) -> tuple[float | None, float]:
    """(t*, kappa*) solving g'(t*) = 0 = g''(t*) at the smallest kappa > 0, or
    (None, 0.0) where there is no Markov region (gamma_w <= gamma_w0 ~ 0.0735386).

    A bracketed secant (Illinois regula falsi, the midpoint where a step
    leaves the bracket) on F of _tangency_residual in the cubic's real root
    x0, from its root at green/1e4 (one cubic solve) to -2 gamma_w/3, where
    kappa is green's; to float resolution in x0 (F = 0 is a zero step), and
    kappa* from x0 in closed form.  F >= 0 at green/1e4 means no Markov
    region; a NaN F, or one not positive at green, raises NoConvergence.
    This is tangency_curve's secant on one point.
    """
    _check_tangency_domain(gamma_w)
    point = _tangency_secants([gamma_w])[0]
    if isinstance(point, NoConvergence):
        raise point
    return point


def _tangency_secants(gammas: list) -> list:
    """tangency_point at each gamma_w, or the NoConvergence it raises there.

    Every point runs its own secant, with its own bracket, stopping rule
    and 100-step limit, in lockstep with the others: one _tangency_residual
    call per step takes the points still running.  One _stacked_roots call
    gives every point's x0 at green/1e4.
    """
    n = len(gammas)
    gw = np.array(gammas, dtype=float)
    k_hi = np.array([green_boundary(g) for g in gammas])
    k_lo = k_hi / 1e4
    details = [{"gamma_w": g, "kappa_lo": a, "kappa_hi": b}
               for g, a, b in zip(gammas, k_lo.tolist(), k_hi.tolist())]
    # a: the bracket's end with F < 0, b: its end with F > 0
    roots = _stacked_roots(_cubic_rows(np.array([k**2 for k in k_lo.tolist()]), gw, 1.0))
    a = roots[np.arange(n), np.argmin(np.abs(roots.imag), axis=1)].real
    b = -2.0 * gw / 3.0
    f, t, k = _tangency_residual(np.concatenate([gw, gw]), np.concatenate([a, b]))
    f_a, f_b, t, k = f[:n], f[n:], t[n:], k[n:]
    points: list = [None] * n
    bad = np.isnan(f_a) | ~(f_b > 0.0)
    for i in np.nonzero(bad)[0]:
        points[i] = NoConvergence(
            f"tangency residual {float(f_a[i])} at green/1e4, {float(f_b[i])} at green",
            details[i],
        )
    for i in np.nonzero(~bad & (f_a >= 0.0))[0]:
        points[i] = (None, 0.0)
    live = np.array([i for i in range(n) if points[i] is None], dtype=np.intp)
    x, moved, eps = b.copy(), np.zeros(n), 4.0 * np.finfo(float).eps

    def finish(done):
        for i in done:
            points[i] = (float(t[i]), float(k[i]))

    for _ in range(100):
        if not live.size:
            break
        new = (a[live] * f_b[live] - b[live] * f_a[live]) / (f_b[live] - f_a[live])
        done = np.abs(new - x[live]) <= eps * np.abs(x[live])
        finish(live[done])
        live, new = live[~done], new[~done]
        inside = (new - a[live]) * (new - b[live]) < 0.0
        x[live] = np.where(inside, new, 0.5 * (a[live] + b[live]))
        f, t[live], k[live] = _tangency_residual(gw[live], x[live])
        nan = np.isnan(f)
        for i in live[nan]:
            points[i] = NoConvergence(
                "tangency residual is NaN", {**details[i], "x0": float(x[i]), "kappa": float(k[i])}
            )
        live, f = live[~nan], f[~nan]
        # Illinois: an end that stays twice has its value halved
        neg = f < 0.0
        a[live], b[live] = np.where(neg, x[live], a[live]), np.where(neg, b[live], x[live])
        f_a[live], f_b[live] = (
            np.where(neg, f, f_a[live] * np.where(moved[live] > 0, 0.5, 1.0)),
            np.where(neg, f_b[live] * np.where(moved[live] < 0, 0.5, 1.0), f),
        )
        moved[live] = np.where(neg, -1.0, 1.0)
        done = np.abs(b[live] - a[live]) <= eps * np.abs(b[live])
        finish(live[done])
        live = live[~done]
    for i in live:
        points[i] = NoConvergence("tangency secant did not reach float resolution", details[i])
    return points


def tangency_boundary(gamma_w: float) -> float:
    """Markov / non-Markovian boundary kappa*(gamma_w); see tangency_point."""
    return tangency_point(gamma_w)[1]


@dataclass(frozen=True)
class TangencyPoint:
    """One point of the tangency curve: t_star and kappa are None when error is
    set, and t_star is None and kappa 0.0 where gamma_w has no Markov region."""

    gamma_w: float
    t_star: float | None
    kappa: float | None
    error: str | None = None


def tangency_curve(gamma_values) -> list[TangencyPoint]:
    """tangency_point at each gamma_w, all checked against the domain first;
    a point that fails records its error, never raises.  The points' secants
    run in lockstep (_tangency_secants)."""
    gammas = [float(gw) for gw in gamma_values]
    for gw in gammas:
        _check_tangency_domain(gw)
    return [
        TangencyPoint(gw, None, None, str(p)) if isinstance(p, NmgeoError) else TangencyPoint(gw, *p)
        for gw, p in zip(gammas, _tangency_secants(gammas))
    ]


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
    N_total > N_THRESHOLD => NM_NODIV, else M.  This is sweep's code on one
    cell, raising the error sweep would record: one scan, and one Newton
    refine of the zeros it brackets; see _classify_cells.
    """
    point = [(gamma_w, kappa)]
    columns = _classify_cells(point, t_max)
    if columns[0][0] is not None:
        raise columns[0][0]
    return _records(point, *columns)[0]


def sweep(gamma_values, kappa_values, t_max: float = 200.0) -> list[PhaseCell]:
    """Classify every (gamma_w, kappa) grid node, row-major in gamma then kappa.

    _classify_cells takes _SOLVE_CELLS cells at a time, and the records are
    built from its columns; each equals classify_point's.  Errors are
    recorded in their cells (region ERR) and never abort the sweep.
    """
    points = [(g, k) for g in gamma_values for k in kappa_values]
    groups = [points[a : a + _SOLVE_CELLS] for a in range(0, len(points), _SOLVE_CELLS)]
    return [cell for group in groups for cell in _records(group, *_classify_cells(group, t_max))]


def _classify_cells(points: list, t_max: float) -> tuple[np.ndarray, ...]:
    """Columns (error, first zero of g in (0, t_max] or NaN, N_total) of the cells at points.

    One stacked solve (gfunction._solve_each) gives the kernel that
    gfunction._scan_blocks scans; an error is that of either.  N_total sums
    the rises of |g| between consecutive critical points: exact, with no
    time grid.
    """
    errors, cells = _solve_each([ModelParams(kappa=k, gamma_w=g) for g, k in points])
    solved = np.flatnonzero([e is None for e in errors])
    errors = np.array(errors, dtype=object)
    t_first, n_total = np.full(len(points), np.nan), np.full(len(points), np.nan)
    for ids, columns in _scan_blocks(cells, t_max):
        block = solved[ids]
        if isinstance(columns, Exception):  # recorded in each cell of the block, not raised
            errors[block] = columns
            continue
        z, z_cell, _, crit_cell, abs_g = columns
        k = np.searchsorted(z_cell, np.arange(block.size + 1))  # where each cell's zeros start
        has = k[:-1] < k[1:]
        t_first[block[has]] = z[k[:-1][has]]
        n_total[block] = _total_rises(abs_g, crit_cell, block.size)
    return errors, t_first, n_total


def _records(points: list, errors, t_first, n_total) -> list[PhaseCell]:
    """The PhaseCell of each cell of _classify_cells's columns: ERR with its error,
    else NM_DIV at a first zero, NM_NODIV with N_total > N_THRESHOLD, or M."""
    names = (REGION_MARKOV, REGION_NONDIVERGENT, REGION_DIVERGENT)
    region = np.where(np.isnan(t_first), n_total > N_THRESHOLD, 2).tolist()
    return [
        PhaseCell(g, k, names[r], t if r == 2 else None, n)
        if e is None
        else PhaseCell(g, k, REGION_ERROR, None, math.nan, str(e), type(e).__name__)
        for (g, k), e, r, t, n in zip(points, errors, region, t_first.tolist(), n_total.tolist())
    ]
