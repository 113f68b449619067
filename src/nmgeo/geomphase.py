"""Total, dynamical and complex geometric phases of the averaged evolution.

For initial Bloch angle theta the complex geometric phase is

    beta = [cos(theta) (omega t + i log g) - i log eta] / 2,
    eta  = [g (1 + cos th) + (1 - cos th) e^{i omega t}]
         / [g (1 - cos th) + (1 + cos th) e^{i omega t}],

equal to (total phase) - (dynamical phase) with

    phi_T = -i/2 (log g + log eta),
    phi_d = -omega t cos(th)/2 - i/2 (cos th + 1) log g.

Branch policy: principal logs unwrapped for continuity sample-to-sample,
with the unwrap state reset across each sign change of g (a genuine
divergence of Im beta).  Im beta itself is branch-independent:
Im beta = [cos(th) log|g| - log|eta|] / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import POLE_G_TOL
from .errors import OutOfRangeAngle
from .gfunction import GSolution, find_g_roots, solve_g
from .model import GridSpec, ModelParams, TimeSeries, validate_params

BETA_CLAMP = 50.0


@dataclass(frozen=True)
class PhaseSeries:
    """Phase channels on a grid.

    series channels: phi_T, phi_d, beta (complex), beta_I (real) and the
    boolean pole mask (samples landing on a zero of g; NaN in the phase
    channels there).  divergence_times lists the zeros of g up to the end
    of the grid; eta_windings holds the final 2-pi branch index of log eta
    for each inter-root segment; consistency_residual is the largest
    |beta - (phi_T - phi_d)| away from poles.
    """

    series: TimeSeries
    divergence_times: list
    eta_windings: list
    consistency_residual: float

    @property
    def beta_I(self) -> np.ndarray:
        return self.series["beta_I"]


def _check_theta(theta: float):
    if not (0.0 <= theta <= math.pi):
        raise OutOfRangeAngle(f"theta must lie in [0, pi], got {theta}")


def _pole_state(theta: float) -> bool:
    """Pole state (theta near 0 or pi): the smaller population min(cos^2(theta/2), sin^2(theta/2))
    is below POLE_G_TOL, where the Im beta divergence is narrower than the pole mask resolves."""
    return min(math.cos(theta / 2.0) ** 2, math.sin(theta / 2.0) ** 2) < POLE_G_TOL


def _eta_of(g: np.ndarray, cth: float, phase: np.ndarray) -> np.ndarray:
    return (g * (1.0 + cth) + (1.0 - cth) * phase) / (
        g * (1.0 - cth) + (1.0 + cth) * phase
    )


def _segments(ts: np.ndarray, roots: list) -> list:
    """Index ranges of ts split at the g-roots (unwrap reset points)."""
    edges = [0]
    for r in roots:
        edges.append(int(np.searchsorted(ts, r)))
    edges.append(ts.size)
    return [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def _resolved_logs(g: np.ndarray, eta: np.ndarray, segments: list):
    """Branch-resolved log g and log eta plus per-segment winding numbers.

    log g is the principal complex log (real for g > 0, +i pi for g < 0).
    The phase of eta starts from the principal value at each segment head
    and is unwrapped for continuity inside the segment.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        log_g = np.log(g.astype(complex))
        mag_eta = np.log(np.abs(eta))
    ang = np.angle(eta)
    unwrapped = np.array(ang, copy=True)
    windings = []
    for a, b in segments:
        unwrapped[a:b] = np.unwrap(ang[a:b])
        windings.append(int(round((unwrapped[b - 1] - ang[b - 1]) / (2.0 * math.pi))))
    return log_g, mag_eta + 1j * unwrapped, windings


def geometric_phase(
    p: ModelParams,
    theta: float,
    grid: GridSpec,
    *,
    gsol: GSolution | None = None,
) -> PhaseSeries:
    """Full phase bundle on the grid, with divergence times from the g-roots.

    For the pole states at theta = 0 and pi (see _pole_state), eta is taken
    as g e^{-i omega t} or e^{i omega t} / g, so phi_T = phi_d and beta = 0
    exactly, with no pole samples, divergence times or windings.  Near pi
    the log g term of phi_d has coefficient 1 + cos(theta) < 2 POLE_G_TOL and
    is dropped, so the phases stay finite through zeros of g; near 0 they are
    NaN where |g| < 1e-12.
    """
    validate_params(p)
    _check_theta(theta)
    sol = gsol if gsol is not None else solve_g(p)
    ts = grid.times()
    g = sol.g(ts)
    cth = math.cos(theta)
    pole_state = _pole_state(theta)

    if pole_state:
        roots, windings = [], []
        pole = np.zeros(ts.size, dtype=bool)
        log_g = np.zeros(ts.size, dtype=complex)
        if cth > 0.0:
            with np.errstate(divide="ignore"):
                log_g = np.log(g.astype(complex))
            log_g[np.abs(g) < POLE_G_TOL] = np.nan
    else:
        roots = find_g_roots(sol, grid.t_end)
        pole = np.abs(g) < POLE_G_TOL
        eta = _eta_of(g, cth, np.exp(1j * p.omega * ts))
        log_g, log_eta, windings = _resolved_logs(g, eta, _segments(ts, roots))

    phi_d = -0.5 * p.omega * ts * cth - 0.5j * (cth + 1.0) * log_g
    if pole_state:
        phi_t, beta, residual = phi_d.copy(), np.zeros(ts.size, dtype=complex), 0.0
    else:
        phi_t = -0.5j * (log_g + log_eta)
        beta = 0.5 * (cth * (p.omega * ts + 1j * log_g) - 1j * log_eta)
        finite = ~pole
        residual = float(np.max(np.abs(beta[finite] - (phi_t[finite] - phi_d[finite]))))

    beta_i = np.where(pole, np.nan, beta.imag)
    for arr in (phi_t, phi_d, beta):
        arr[pole] = np.nan
    series = TimeSeries(
        grid,
        {
            "phi_T": phi_t,
            "phi_d": phi_d,
            "beta": beta,
            "beta_I": beta_i,
            "pole": pole,
            "g": g,
        },
    )
    return PhaseSeries(series, roots, windings, residual)


def beta_imag_at(p: ModelParams, theta: float, sol: GSolution, t) -> np.ndarray:
    """Pointwise Im beta = [cos(th) log|g| - log|eta|] / 2 (branch-free)."""
    _check_theta(theta)
    cth = math.cos(theta)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if _pole_state(theta):
        return np.zeros(t.size)
    g = sol.g(t)
    eta = _eta_of(g, cth, np.exp(1j * p.omega * t))
    with np.errstate(divide="ignore"):
        return 0.5 * (cth * np.log(np.abs(g)) - np.log(np.abs(eta)))


def divergence_report(p: ModelParams, theta: float, t_max: float) -> list:
    """(t_div, growth_ok) for every zero of g in (0, t_max].

    growth_ok checks that |Im beta| strictly grows on both sides as the
    sampling offset shrinks through 1e-3, 1e-5, 1e-7 (logarithmic
    divergence).  Pole states (see _pole_state) report an empty list.
    """
    validate_params(p)
    _check_theta(theta)
    if _pole_state(theta):
        return []
    sol = solve_g(p)
    out = []
    for t_div in find_g_roots(sol, t_max):
        ok = True
        for side in (-1.0, 1.0):
            mags = [
                abs(float(beta_imag_at(p, theta, sol, t_div + side * eps)[0]))
                for eps in (1e-3, 1e-5, 1e-7)
            ]
            ok = ok and mags[0] < mags[1] < mags[2]
        out.append((t_div, ok))
    return out
