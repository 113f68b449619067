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

Reproducibility: trajectory i draws default_rng([base_seed, i])'s stream,
and ensemble reduction runs over fixed-size chunks in index order, so
results are bitwise identical for any worker count.  The streams' PCG64
states are computed for a whole chunk at once, replaying numpy's seeding
(stable by NEP 19), and one generator per chunk draws them in turn.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gfunction import GSolution, solve_g
from .model import GridSpec, ModelParams, PureState2, TimeSeries, validate_params

CHUNK = 128  # fixed reduction granularity; must not depend on worker count
_BLOCK = 64  # time samples per time-major block in _draw: 128 KB for a chunk


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


# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 seeding, fixed by NEP 19
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_HASH_A = (0x43B0D7E5, 0x931E8875)  # (initial constant, multiplier) of the entropy hash
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # the same for generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _words(n: int) -> list:
    """The little-endian 32-bit words of n >= 0 (one word for 0)."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """Column of the count + 1 constants that count successive hashes step through."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hash(v, consts):
    """SeedSequence's hash of the rows of v, row j xored with consts[j], times consts[j+1]."""
    v = v ^ consts[:-1]
    v *= consts[1:]
    v ^= v >> 16
    return v


def _mix(x, y):
    """SeedSequence's mix of two uint32 arrays."""
    r = x * _MIX_L
    r -= y * _MIX_R
    r ^= r >> 16
    return r


def _pcg64_states(base_seed: int, indices) -> list:
    """(state, inc) of default_rng([base_seed, i]).bit_generator for each index i.

    SeedSequence runs on uint32 arrays, once for all indices with the same
    number of words, and PCG64's 128-bit seeding step on Python ints.
    """
    seed_words = _words(int(base_seed))
    index_words = [_words(i) for i in indices]
    states = [None] * len(index_words)
    for size in set(map(len, index_words)):
        rows = [r for r, w in enumerate(index_words) if len(w) == size]
        n_words = len(seed_words) + size
        entropy = np.zeros((max(n_words, 4), len(rows)), dtype=np.uint32)  # zeros fill the pool
        entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
        entropy[len(seed_words) : n_words] = np.array([index_words[r] for r in rows]).T
        consts = _hash_constants(*_HASH_A, 4 + 12 + 4 * max(n_words - 4, 0))
        pool = _hash(entropy[:4], consts[:5])
        at = 4
        for src in range(4):  # hashes of one source word, one per other pool word
            dst = [d for d in range(4) if d != src]
            pool[dst] = _mix(pool[dst], _hash(pool[src], consts[at : at + 4]))
            at += 3
        for word in entropy[4:n_words]:
            pool = _mix(pool, _hash(word, consts[at : at + 5]))
            at += 4
        out = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_constants(*_HASH_B, 8))
        out = out[0::2].astype(np.uint64) | out[1::2].astype(np.uint64) << np.uint64(32)
        for r, (u0, u1, u2, u3) in zip(rows, zip(*out.tolist())):  # generate_state(4, uint64)
            initstate = u0 << 64 | u1
            inc = (u2 << 65 | u3 << 1 | 1) & _MASK128
            states[r] = (((inc + initstate) * _PCG_MULT + inc) & _MASK128, inc)
    return states


def _check_seed(name: str, value) -> None:
    if not isinstance(value, (int, np.integer)) or value < 0:
        raise ValidationError(f"{name} must be a non-negative integer, got {value!r}")


def _draw(p: ModelParams, grid: GridSpec, base_seed: int, indices, raw=None) -> tuple:
    """(zeta, w_star): zeta = -i conj(z) of shape (m,) and w*_t of shape (m, n+1).

    Each trajectory draws its 4 + 2n standard normals in one call, read as
    the complex z, w_0 and the n OU increments in that order, so a
    trajectory's noises do not depend on chunking.  One generator serves
    the chunk, given each trajectory's seeded state in turn.  Scaling and
    the OU recursion run time-major, on contiguous copies of _BLOCK samples
    of every trajectory, with the same complex multiply, divide and add per
    sample as a row-major update; conj(z) and w*_t are written back over
    the chunk's normals, so w_star is a view into them.  raw, when given, is
    a float buffer of at least m rows of 4 + 2n, which the results then share.
    """
    n, m = grid.n_steps, len(indices)
    raw = np.empty((m, 4 + 2 * n)) if raw is None else raw[:m]
    bitgen = np.random.PCG64(0)  # seed replaced row by row
    gen = np.random.Generator(bitgen)
    for row, (state, inc) in enumerate(_pcg64_states(base_seed, indices)):
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        gen.standard_normal(out=raw[row])
    var_st = 0.5 * p.gamma_w * p.Gamma_w
    scale = np.full((n + 2, 1), math.sqrt(var_st * (1.0 - math.exp(-2.0 * p.gamma_w * grid.dt))))
    scale[:2, 0] = 1.0, math.sqrt(var_st)
    # a 0-d decay and positional outputs make the per-sample calls cheaper
    decay = np.asarray(np.exp(-(p.gamma_w + 1j * p.Omega_w) * grid.dt))
    c = raw.view(complex)  # columns z, w_0 and the n increments
    block = np.empty((min(_BLOCK, n + 2), m), dtype=complex)
    step, prev = np.empty(m, dtype=complex), None
    for lo in range(0, n + 2, _BLOCK):
        hi = min(lo + _BLOCK, n + 2)
        rows = np.multiply(c[:, lo:hi].T, scale[lo:hi], out=block[: hi - lo])
        rows /= math.sqrt(2.0)
        for k, row in enumerate(rows, lo):
            if k >= 2:  # exact OU update: w_{k-1} = w_{k-2} decay + increment
                np.add(row, np.multiply(prev, decay, step), row)
            prev = row
        prev = rows[-1].copy()  # the block is refilled next
        np.conj(rows.T, out=c[:, lo:hi])
    return -1j * c[:, 0], c[:, 1:]


def _noise_chunk(p: ModelParams, grid: GridSpec, base_seed: int, indices) -> tuple:
    """(z_star, w_star) arrays of shape (m, n+1) for the given trajectory indices."""
    zeta, w_star = _draw(p, grid, base_seed, indices)
    z_star = zeta[:, None] * np.exp(1j * p.omega_c * grid.times())[None, :]
    return z_star, w_star


def sample_noises(
    p: ModelParams, grid: GridSpec, base_seed: int, traj_index: int
) -> NoiseRealization:
    """Noises for one trajectory; see the module docstring for conventions."""
    validate_params(p)
    _check_grid(p, grid)
    _check_seed("base_seed", base_seed)
    _check_seed("traj_index", traj_index)
    z_star, w_star = _noise_chunk(p, grid, base_seed, [int(traj_index)])
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
        cg = np.empty_like(w_star)
        cg[:, 0] = 0.0
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

    More workers shorten the wall time a little and add CPU time (README);
    they give the same results bitwise.
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
    _check_seed("base_seed", base_seed)
    _check_grid(p, grid)
    ce, ground = _closed_form(p, grid, None, PureState2.from_bloch_angle(theta))
    z_phase = np.exp(1j * p.omega_c * grid.t0)
    # each worker draws its chunks into one buffer: a fresh one per chunk can
    # cost a page fault per 4 KB, depending on the allocator's state
    buffers = threading.local()

    def run_chunk(chunk_index: int):
        lo = chunk_index * CHUNK
        if not hasattr(buffers, "raw"):
            buffers.raw = np.empty((CHUNK, 4 + 2 * grid.n_steps))
        indices = range(lo, min(lo + CHUNK, n_traj))
        zeta, w_star = _draw(p, grid, base_seed, indices, buffers.raw)
        cg = ground(zeta * z_phase, w_star)
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
