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

import numpy as np

from .dynamics import non_markovianity
from .errors import NegativeKappaSquared, NoConvergence, OutOfDomain
from .gfunction import _bisect, _sign_brackets, find_g_roots, solve_g
from .model import ModelParams

GREEN_BLUE_JOIN = 27.0 / 16.0

REGION_MARKOV = "M"
REGION_DIVERGENT = "NM_DIV"
REGION_NONDIVERGENT = "NM_NODIV"
REGION_ERROR = "ERR"

N_THRESHOLD = 1e-6


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


def _params(gamma_w: float, kappa: float) -> ModelParams:
    return ModelParams(kappa=kappa, gamma_w=gamma_w)


def _first_gp_maximum(gamma_w: float, kappa: float, t_scan: float, n_scan: int):
    """(t, g'(t)) at the first interior local maximum of g', or None.

    Located as the second sign change of g'' (the first is the minimum of
    g', since g''(0) = -kappa^2 < 0).
    """
    sol = solve_g(_params(gamma_w, kappa))
    ts = np.linspace(1e-6, t_scan, n_scan)
    _, flips = _sign_brackets(sol, ts, 2)
    if flips.size < 2:
        return None
    i = flips[1:2]
    t_star = float(_bisect(sol, 2, ts[i], ts[i + 1])[0])
    return t_star, float(sol.eval(t_star)[1][0])


def tangency_point(
    gamma_w: float,
    *,
    t_scan: float = 60.0,
    n_scan: int = 2500,
    newton_tol: float = 1e-10,
    max_iter: int = 60,
) -> tuple[float, float]:
    """(t*, kappa*) solving g'(t*) = 0 = g''(t*) at the smallest kappa > 0.

    The double root makes a raw 2-d scan on |g'| + |g''| useless (both decay
    exponentially, so spurious distant lobes win), so the seed comes from
    bisecting kappa on the sign of g' at its first interior local maximum;
    a damped Newton iteration with a numerical Jacobian then polishes (t,
    kappa) to the requested tolerance.
    """
    if not (0.0 < gamma_w < GREEN_BLUE_JOIN):
        raise OutOfDomain(
            f"tangency construction applies for gamma_w in (0, 27/16), got {gamma_w}"
        )
    k_hi = green_boundary(gamma_w)
    k_lo = k_hi / 1e4
    h_lo = _first_gp_maximum(gamma_w, k_lo, t_scan, n_scan)
    h_hi = _first_gp_maximum(gamma_w, k_hi, t_scan, n_scan)
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
    for _ in range(60):
        k_mid = 0.5 * (k_lo + k_hi)
        if k_mid in (k_lo, k_hi):  # float resolution: the bracket can no longer move
            break
        h = _first_gp_maximum(gamma_w, k_mid, t_scan, n_scan)
        if h is None or h[1] < 0.0:
            k_lo = k_mid
        else:
            k_hi, h_hi = k_mid, h
    t, k = h_hi[0], k_hi

    def residual(t_, k_):
        _, gp, gpp = solve_g(_params(gamma_w, k_)).eval(t_)
        return np.array([gp[0], gpp[0]])

    fval = residual(t, k)
    for _ in range(max_iter):
        if np.max(np.abs(fval)) < newton_tol:
            break
        ht = 1e-6 * max(1.0, abs(t))
        hk = 1e-7 * max(1.0, abs(k))
        jac = np.empty((2, 2))
        jac[:, 0] = (residual(t + ht, k) - residual(t - ht, k)) / (2.0 * ht)
        jac[:, 1] = (residual(t, k + hk) - residual(t, k - hk)) / (2.0 * hk)
        try:
            step = np.linalg.solve(jac, -fval)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(
                "singular Jacobian in tangency Newton",
                {"gamma_w": gamma_w, "t": t, "kappa": k, "residual": fval.tolist()},
            ) from exc
        lam, n0 = 1.0, float(fval @ fval)
        while lam > 1e-8:
            cand = residual(t + lam * step[0], k + lam * step[1])
            if float(cand @ cand) < n0:
                break
            lam *= 0.5
        t, k = t + lam * step[0], k + lam * step[1]
        fval = residual(t, k)
    else:
        raise NoConvergence(
            "tangency Newton did not reach tolerance",
            {"gamma_w": gamma_w, "t": t, "kappa": k, "residual": fval.tolist()},
        )
    return float(t), float(k)


def tangency_boundary(gamma_w: float, **kwargs) -> float:
    """Markov / non-Markovian boundary kappa*(gamma_w); see tangency_point."""
    return tangency_point(gamma_w, **kwargs)[1]


@dataclass(frozen=True)
class PhaseCell:
    """Classification record of one (gamma_w, kappa) grid point."""

    gamma_w: float
    kappa: float
    region: str
    t_first_divergence: float | None
    n_total: float
    error: str | None = None


def classify_point(
    gamma_w: float,
    kappa: float,
    t_max: float = 200.0,
    *,
    dt: float = 0.01,
    n_threshold: float = N_THRESHOLD,
) -> PhaseCell:
    """Classify one parameter point by g-roots and accumulated backflow.

    Roots in (0, t_max] => NM_DIV with the first root time; otherwise
    N_total > n_threshold => NM_NODIV, else M.
    """
    p = _params(gamma_w, kappa)
    sol = solve_g(p)
    roots = find_g_roots(sol, t_max)
    report = non_markovianity(p, t_max, dt)
    if roots:
        region = REGION_DIVERGENT
        t_first = roots[0]
    elif report.n_total > n_threshold:
        region, t_first = REGION_NONDIVERGENT, None
    else:
        region, t_first = REGION_MARKOV, None
    return PhaseCell(gamma_w, kappa, region, t_first, report.n_total)


def sweep(
    gamma_values,
    kappa_values,
    t_max: float = 200.0,
    *,
    dt: float = 0.01,
) -> list[PhaseCell]:
    """Classify every (gamma_w, kappa) grid node, row-major in gamma then kappa.

    Per-cell failures are recorded in the cell (region ERR) and never abort
    the sweep.
    """
    cells = []
    for g in gamma_values:
        for k in kappa_values:
            try:
                cells.append(classify_point(g, k, t_max, dt=dt))
            except Exception as exc:  # recorded, not raised
                cells.append(PhaseCell(g, k, REGION_ERROR, None, math.nan, error=str(exc)))
    return cells
