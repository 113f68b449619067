"""Linear quantum-state-diffusion trajectories with the two colored noises.

A trajectory solves the linear stochastic equation

    d psi / dt = [ -i H_s + kappa sigma^- z*_t - kappa F_z sigma^+ sigma^-
                   - i w*_t F_z sigma^- - i z*_t F_w sigma^- ] psi,

with z*_t = -i conj(z) e^{i omega_c t} for one standard complex Gaussian z
per trajectory, and w_t a stationary complex Ornstein-Uhlenbeck process
with covariance M[w_t conj(w_s)] = (gamma_w Gamma_w / 2)
exp(-gamma_w |t-s| - i Omega_w (t-s)); the equation consumes w*_t = conj(w_t).
The unnormalized ensemble mean M[psi psi^dagger] reproduces the reduced
density operator.

The equation is solved in closed form (written here for a grid starting
at t = 0; a grid starting at t0 propagates psi0 from t0).  The excited
amplitude does not see the noise, c_e(t) = c_e0 e^{-i omega t/2} g(t).  The
weights c_e F_z = -c_e0 e^{-i omega t/2} g'/kappa and c_e F_w have no poles,
and at resonance the kappa z*_t g terms cancel, so

    c_g(t) = e^{i omega t/2} [ c_g0 - c_e0 zeta g'(t)/kappa
                               + (i c_e0/kappa) int_0^t e^{-i omega s} w*_s g'(s) ds ]

with zeta = e^{-i omega t} z*_t = -i conj(z) constant and g'(0) = 0.  The
w integral is the one quadrature: a cumulative trapezoid over the grid
samples.  Trajectories therefore pass through the zeros of g, where F_z
has poles, as smoothly as the state does.  For kappa = 0 both noise terms
vanish.

Reproducibility: trajectory i draws from default_rng([base_seed, i]), and
ensemble reduction runs over fixed-size chunks in index order, so results
are bitwise identical for any worker count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gfunction import GSolution, solve_g
from .model import GridSpec, ModelParams, PureState2, TimeSeries, validate_params

CHUNK = 128  # fixed reduction granularity; must not depend on worker count


@dataclass(frozen=True)
class NoiseRealization:
    """One trajectory's noise samples on the grid."""

    z_star: np.ndarray
    w_star: np.ndarray
    base_seed: int
    traj_index: int


@dataclass(frozen=True)
class TrajectoryState:
    """Unnormalized state history of one trajectory; states has shape (n+1, 2)."""

    states: np.ndarray


def _check_grid(p: ModelParams, grid: GridSpec):
    if math.isinf(p.gamma_w):
        raise ValidationError(
            "trajectory noise needs a finite gamma_w (delta-correlated noise "
            "is outside the exact-discretization scheme)"
        )
    if p.gamma_w * grid.dt >= 0.1:
        raise ValidationError(
            f"grid too coarse: gamma_w * dt = {p.gamma_w * grid.dt:.3f} must stay below 0.1"
        )


def _draw(p: ModelParams, grid: GridSpec, base_seed: int, indices) -> tuple:
    """(zeta, w): zeta = -i conj(z) of shape (m,) and w_t of shape (m, n+1).

    Each trajectory draws its 4 + 2n standard normals in one call, read as
    the complex z, w_0 and the n OU increments in that order, so a
    trajectory's noises do not depend on chunking.
    """
    n = grid.n_steps
    raw = np.empty((len(indices), 4 + 2 * n))
    for row, idx in enumerate(indices):
        np.random.default_rng([base_seed, idx]).standard_normal(out=raw[row])
    var_st = 0.5 * p.gamma_w * p.Gamma_w
    scale = np.full(n + 2, math.sqrt(var_st * (1.0 - math.exp(-2.0 * p.gamma_w * grid.dt))))
    scale[:2] = 1.0, math.sqrt(var_st)
    c = raw.view(complex)
    c *= scale
    c /= math.sqrt(2.0)
    z, w = c[:, 0], c[:, 1:]
    decay = np.exp(-(p.gamma_w + 1j * p.Omega_w) * grid.dt)
    for k in range(n):  # exact OU update: w_{k+1} = w_k decay + increment
        w[:, k + 1] += w[:, k] * decay
    return -1j * np.conj(z), w


def _noise_chunk(p: ModelParams, grid: GridSpec, base_seed: int, indices) -> tuple:
    """(z_star, w_star) arrays of shape (m, n+1) for the given trajectory indices."""
    zeta, w = _draw(p, grid, base_seed, indices)
    z_star = zeta[:, None] * np.exp(1j * p.omega_c * grid.times())[None, :]
    return z_star, np.conj(w)


def sample_noises(
    p: ModelParams, grid: GridSpec, base_seed: int, traj_index: int
) -> NoiseRealization:
    """Noises for one trajectory; see the module docstring for conventions."""
    validate_params(p)
    _check_grid(p, grid)
    z_star, w_star = _noise_chunk(p, grid, base_seed, [traj_index])
    return NoiseRealization(z_star[0], w_star[0], base_seed, traj_index)


def _closed_form(p: ModelParams, grid: GridSpec, gsol: GSolution | None, psi0: PureState2):
    """c_e on the grid, and the map from noise rows to c_g.

    ground(z0, w_star) takes z*_t at the first grid time, shape (m,), and
    the w*_t samples, shape (m, n+1), which it overwrites; it returns c_g
    of shape (m, n+1).  g is evaluated here, once, so ground can run on
    several threads.
    """
    ce0, cg0 = psi0.c_e, psi0.c_g
    ts = grid.times()
    half = np.exp(-0.5j * p.omega * (ts - grid.t0))
    back = np.conj(half)
    if p.kappa == 0.0:
        return ce0 * half, lambda z0, w_star: np.broadcast_to(cg0 * back, w_star.shape)
    g, gp, _ = (gsol if gsol is not None else solve_g(p)).eval(ts)
    q = ce0 * gp / (p.kappa * g[0])  # c_e F_z = -q e^{-i omega (t - t0)/2}
    dq = q - q[0]
    v = half**2 * q

    def ground(z0, w_star):
        w_star *= v
        cg = np.zeros_like(w_star)
        np.add(w_star[:, 1:], w_star[:, :-1], out=cg[:, 1:])
        np.cumsum(cg[:, 1:], axis=1, out=cg[:, 1:])  # trapezoid sums of the w integral
        cg *= 0.5j * grid.dt
        cg -= np.multiply(z0[:, None], dq, out=w_star)
        cg += cg0
        cg *= back
        return cg

    return ce0 * half * (g / g[0]), ground


def evolve_trajectory(
    p: ModelParams,
    psi0: PureState2,
    noises: NoiseRealization,
    grid: GridSpec,
    *,
    gsol: GSolution | None = None,
) -> TrajectoryState:
    """One unnormalized trajectory on the grid, in closed form.

    z*_t enters only through its value at the first grid time, since
    e^{-i omega t} z*_t is constant for the noise sample_noises draws.
    """
    validate_params(p)
    _check_grid(p, grid)
    ce, ground = _closed_form(p, grid, gsol, psi0)
    cg = ground(noises.z_star[:1], np.array(noises.w_star, dtype=complex, ndmin=2))
    return TrajectoryState(np.column_stack([ce, cg[0]]))


@dataclass(frozen=True)
class EnsembleResult:
    """Monte-Carlo mean density matrix with per-entry standard errors.

    series channels rho_ee / rho_eg / rho_ge / rho_gg hold the mean outer
    product; stderr_ee / stderr_eg / stderr_gg the corresponding standard
    errors of the mean.
    """

    series: TimeSeries
    n_traj: int
    base_seed: int
    mean_final_norm_sq: float
    stderr_final_norm_sq: float


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else NMGEO_THREADS (0 or unset = 1).

    The chunks are GIL-bound numpy work, so one worker is the fastest
    default; more workers give the same results bitwise.
    """
    if workers is None:
        env = os.environ.get("NMGEO_THREADS", "0")
        try:
            workers = int(env)
        except ValueError:
            workers = 0
    return max(workers, 1)


def ensemble_density(
    p: ModelParams,
    theta: float,
    grid: GridSpec,
    n_traj: int,
    base_seed: int,
    *,
    workers: int | None = None,
) -> EnsembleResult:
    """Mean of psi psi^dagger over n_traj trajectories, with standard errors.

    Bitwise deterministic for fixed (base_seed, n_traj, grid): per-chunk
    partial sums (fixed chunk size) are reduced in chunk order regardless
    of how many workers ran them.  c_e is the same for every trajectory,
    so its channel has zero standard error and only sums of c_g, |c_g|^2
    and |c_g|^4 are reduced.
    """
    validate_params(p)
    if n_traj < 100:
        raise ValidationError(f"n_traj must be >= 100, got {n_traj}")
    _check_grid(p, grid)
    ce, ground = _closed_form(p, grid, None, PureState2.from_bloch_angle(theta))
    z_phase = np.exp(1j * p.omega_c * grid.t0)

    def run_chunk(chunk_index: int):
        lo = chunk_index * CHUNK
        zeta, w = _draw(p, grid, base_seed, range(lo, min(lo + CHUNK, n_traj)))
        cg = ground(zeta * z_phase, np.conj(w, out=w))
        a2 = np.abs(cg)
        a2 *= a2
        return cg.sum(axis=0), a2.sum(axis=0), np.einsum("mk,mk->k", a2, a2)

    n_chunks = (n_traj + CHUNK - 1) // CHUNK
    n_workers = resolve_workers(workers)
    if n_workers == 1 or n_chunks == 1:
        parts = [run_chunk(i) for i in range(n_chunks)]
    else:
        # imported where a pool runs: importing concurrent.futures is a
        # large share of importing nmgeo
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(run_chunk, range(n_chunks)))

    s1, s2, s4 = (sum(col) for col in zip(*parts))  # chunk order fixed by map

    mean_cg = s1 / n_traj
    rho_ee = np.abs(ce) ** 2
    rho_gg = s2 / n_traj
    rho_eg = ce * np.conj(mean_cg)
    var_gg = np.maximum(s4 / n_traj - rho_gg**2, 0.0)
    var_eg = rho_ee * np.maximum(rho_gg - np.abs(mean_cg) ** 2, 0.0)
    stderr_gg = np.sqrt(var_gg / n_traj)
    series = TimeSeries(
        grid,
        {
            "rho_ee": rho_ee,
            "rho_eg": rho_eg,
            "rho_ge": np.conj(rho_eg),
            "rho_gg": rho_gg,
            "stderr_ee": np.zeros_like(rho_ee),
            "stderr_eg": np.sqrt(var_eg / n_traj),
            "stderr_gg": stderr_gg,
        },
    )
    return EnsembleResult(
        series=series,
        n_traj=n_traj,
        base_seed=base_seed,
        mean_final_norm_sq=float(rho_ee[-1] + rho_gg[-1]),
        stderr_final_norm_sq=float(stderr_gg[-1]),
    )
