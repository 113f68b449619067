"""Independent reference routes used only by the tests.

f_w_from_f_z differentiates a sampled F_z numerically, and evolve_lindblad
integrates the Lindblad equation driven by F_z; both check the closed-form
library routes against a second, independent computation.  _bisect_brackets
halves brackets to 1e-12, the reference for the library's Newton refiner,
_first_gp_maximum scans for the first lobe of g', and
tangency_point_bisected halves kappa on its sign, the reference for the
library's closed-form tangency; qfi_series_eigh takes the QFI
from the eigendecomposition of the 2x2 density matrices, the reference for
the library's Bloch-vector closed form, also with initial_family_fd's
central differences in place of the analytic theta-derivatives.
critical_points_full_scan scans g and g'' over the whole window, the
reference for the library's scan, which stops where one mode settles the
signs, on the kernel kernel_of builds; _scan_intervals and _scan_step
give its grids one cell at a time, the reference for the library's
columnar _scan_steps, and _total_rise sums one cell's rises in time
order, the reference for its segmented _total_rises.  f_w_closed_form,
trace_distance, density_matrix_at, density_series_diagnostics,
ode_state_matrix and cubic_discriminant are small closed forms only the
tests read.  ensemble_density_rowmajor draws a chunk's noises, maps them
to c_g with closed_form_rowmajor's ground on whole rows and reduces each
chunk over full (m, n+1) arrays, the reference for the library's
time-major passes, which must match it bitwise.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from nmgeo import (
    QFI_CONVENTION,
    DensityMatrix2,
    GSolution,
    GridSpec,
    IntegrationFailure,
    ModelParams,
    NoConvergence,
    PureState2,
    TimeSeries,
    ValidationError,
    green_boundary,
    solve_g,
)
from nmgeo.dynamics import _initial_family
from nmgeo.gfunction import MARKOV, _ode_rows, _sign_changes, _solve_each, _sorted_by_cell
from nmgeo.model import validate_params
from nmgeo.phasediagram import _check_tangency_domain
from nmgeo.qsd import CHUNK, EnsembleResult, _pcg64_states

# first-lobe scan window and samples of _first_gp_maximum: 60 / 2499 apart,
# up to the first lobe at t* ~ 144 of gamma_w = 1.685
_T_SCAN, _N_SCAN = 200.0, 8331


def _derivative_4th(y: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order finite-difference derivative on a uniform grid."""
    d = np.empty_like(y)
    d[2:-2] = (-y[4:] + 8.0 * y[3:-1] - 8.0 * y[1:-3] + y[:-4]) / (12.0 * dt)
    # one-sided five-point stencils at the edges
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * dt)
    d[0] = c @ y[:5]
    d[1] = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12.0 * dt) @ y[:5]
    d[-2] = -np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12.0 * dt) @ y[-5:][::-1]
    d[-1] = -c @ y[-5:][::-1]
    return d


def f_w_from_f_z(f_z: np.ndarray, kappa: float, dt: float) -> np.ndarray:
    """F_w = i [F_z' - kappa - kappa F_z^2] with F_z' by 4th-order differences.

    Samples within two points of a pole marker (NaN) stay NaN.
    """
    fz = np.asarray(f_z, dtype=complex)
    if fz.size < 5:
        raise ValidationError("need at least 5 samples for the 4th-order stencil")
    dfz = _derivative_4th(fz, dt)
    return 1j * (dfz - kappa - kappa * fz**2)


def evolve_lindblad(p: ModelParams, rho0: DensityMatrix2, grid: GridSpec, f_z) -> TimeSeries:
    """Integrate the Lindblad equation driven by F_z on the grid (DOP853).

        drho/dt = -i [omega sigma_z/2 + kappa Im(F_z) sigma^+ sigma^-, rho]
                  + 2 kappa Re(F_z) D[sigma^-] rho

    f_z is a series carrying an "F_z" channel (linearly interpolated) or a
    callable t -> complex; the window must not contain poles of F_z.
    """
    ts = grid.times()
    if callable(f_z):
        fz_at = f_z
    else:
        fzv = f_z["F_z"]
        if np.any(np.isnan(fzv.real)):
            raise IntegrationFailure("F_z series contains pole markers inside the window")
        ft = f_z.grid.times()

        def fz_at(t):
            return complex(np.interp(t, ft, fzv.real), np.interp(t, ft, fzv.imag))

    def rhs(t, y):
        ree, rer, rei, rgg = y
        fz = fz_at(t)
        reg = rer + 1j * rei
        d_ee = -2.0 * p.kappa * fz.real * ree
        d_eg = -(1j * (p.omega + p.kappa * fz.imag) + p.kappa * fz.real) * reg
        d_gg = 2.0 * p.kappa * fz.real * ree
        return [d_ee, d_eg.real, d_eg.imag, d_gg]

    y0 = [rho0.rho_ee.real, rho0.rho_eg.real, rho0.rho_eg.imag, rho0.rho_gg.real]
    sol = solve_ivp(
        rhs, (ts[0], ts[-1]), y0, method="DOP853", rtol=1e-12, atol=1e-14, t_eval=ts
    )
    if not sol.success:
        raise IntegrationFailure(f"master-equation integration failed: {sol.message}")
    reg = sol.y[1] + 1j * sol.y[2]
    return TimeSeries(
        grid,
        {"rho_ee": sol.y[0], "rho_eg": reg, "rho_ge": np.conj(reg), "rho_gg": sol.y[3]},
    )


def f_w_closed_form(sol: GSolution, t) -> np.ndarray:
    """F_w = -i (g'' + kappa^2 g) / (kappa g), the w-noise coefficient."""
    kappa = sol.params.kappa
    g, _, gpp = sol.eval(t)
    return -1j * (gpp + kappa**2 * g) / (kappa * g)


def density_matrix_at(series: TimeSeries, k: int) -> DensityMatrix2:
    return DensityMatrix2(
        series["rho_ee"][k], series["rho_eg"][k], series["rho_ge"][k], series["rho_gg"][k]
    )


def density_series_diagnostics(series: TimeSeries) -> tuple[float, float]:
    """(max |trace - 1|, min eigenvalue) across the series."""
    ree = series["rho_ee"].real
    rgg = series["rho_gg"].real
    reg = series["rho_eg"]
    tr_err = float(np.max(np.abs(ree + rgg - 1.0)))
    mean = 0.5 * (ree + rgg)
    rad = np.sqrt(0.25 * (ree - rgg) ** 2 + np.abs(reg) ** 2)
    return tr_err, float(np.min(mean - rad))


def trace_distance(rho1: DensityMatrix2, rho2: DensityMatrix2) -> float:
    """Half the sum of absolute eigenvalues of rho1 - rho2."""
    a = (rho1.rho_ee - rho2.rho_ee).real
    d = (rho1.rho_gg - rho2.rho_gg).real
    b = rho1.rho_eg - rho2.rho_eg
    mean, rad = 0.5 * (a + d), math.sqrt(0.25 * (a - d) ** 2 + abs(b) ** 2)
    return 0.5 * (abs(mean + rad) + abs(mean - rad))


def _bisect_brackets(f, lo, hi) -> np.ndarray:
    """Zeros in the brackets [lo[j], hi[j]] of the functions f(t, j), bisected together.

    f(t, j) gives, for each bracket index in the array j, its function at
    the time in t.  Per bracket, mid = (lo + hi)/2 is the zero once
    hi - lo < 1e-12 or f(mid) == 0 (the bracket then collapses onto it),
    else the half whose sign differs from that at lo is kept, for at most
    200 halvings.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    flo = f(lo, np.arange(lo.size))
    neg = flo < 0.0
    hi[flo == 0.0] = lo[flo == 0.0]
    for _ in range(200):
        live = np.nonzero(hi - lo >= 1e-12)[0]
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        fm = f(mid, live)
        hit = fm == 0.0
        same = (fm < 0.0) == neg[live]
        lo[live[same | hit]] = mid[same | hit]
        hi[live[~same | hit]] = mid[~same | hit]
    return 0.5 * (lo + hi)


def _first_gp_maximum(gamma_w: float, kappa: float):
    """(t, g'(t)) at the first interior local maximum of g' on (0, _T_SCAN], or None.

    Bracketed by the second sign change of g'' on _N_SCAN samples (the first
    is the minimum of g', since g''(0) = -kappa^2 < 0), then refined as a
    zero of g'' by the kernel's zero refiner, _ModalCells.refine.
    """
    sol = solve_g(ModelParams(kappa=kappa, gamma_w=gamma_w))
    ts = np.linspace(1e-6, _T_SCAN, _N_SCAN)
    flips, _ = _sign_changes(sol.eval(ts)[2], np.zeros(ts.size, dtype=np.intp))
    if flips.size < 2:
        return None
    i = flips[1:2]
    t = sol._cells.refine(ts[i], ts[i + 1], 0, 2)
    return float(t[0]), float(sol.eval(t)[1][0])


def tangency_point_bisected(gamma_w: float) -> tuple[float | None, float]:
    """(t*, kappa*) by halving kappa on the sign of the first lobe of g'.

    The library's bracket [green(gamma_w)/1e4, green(gamma_w)]: a lobe
    already positive at its lower end means no Markov region, (None, 0.0).
    Then halvings until the bracket no longer moves in floating point; "no
    lobe" counts as negative.  t* is the first maximum of g' at the upper
    end, the last kappa whose lobe is not negative.
    """
    _check_tangency_domain(gamma_w)
    k_hi = green_boundary(gamma_w)
    k_lo = k_hi / 1e4
    h_lo = _first_gp_maximum(gamma_w, k_lo)
    if h_lo is not None and h_lo[1] > 0.0:
        return None, 0.0
    h_hi = _first_gp_maximum(gamma_w, k_hi)
    if h_hi is None or h_hi[1] <= 0.0:
        raise NoConvergence(
            "no positive first lobe of g' at the green boundary",
            {"gamma_w": gamma_w, "kappa_hi": k_hi, "h_hi": h_hi},
        )
    for _ in range(60):
        k_mid = 0.5 * (k_lo + k_hi)
        if k_mid in (k_lo, k_hi):  # float resolution: the bracket can no longer move
            break
        h = _first_gp_maximum(gamma_w, k_mid)
        if h is None or h[1] < 0.0:
            k_lo = k_mid
        else:
            k_hi, h_hi = k_mid, h
    return h_hi[0], k_hi


def _qfi_from_matrices(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """Quantum Fisher information of stacked (n,2,2) rho with derivative drho.

    F = sum over eigenpairs with p_i + p_j > 1e-12 of 2 |<i|drho|j>|^2 / (p_i + p_j).
    """
    p, u = np.linalg.eigh(rho)
    m = np.einsum("nij,njk,nkl->nil", np.conj(np.swapaxes(u, 1, 2)), drho, u)
    psum = p[:, :, None] + p[:, None, :]
    w = np.where(psum > 1e-12, 2.0 / np.where(psum > 1e-12, psum, 1.0), 0.0)
    return np.einsum("nij,nij->n", w, np.abs(m) ** 2).real


def qfi_series_eigh(
    p: ModelParams,
    theta: float,
    grid: GridSpec,
    convention: str = QFI_CONVENTION,
    *,
    gsol: GSolution,
    family: tuple | None = None,
) -> np.ndarray:
    """QFI of the evolved family rho(t; theta) from the eigenpairs of each sample.

    rho and its theta-derivative are built as (n,2,2) complex stacks in the
    lab frame, phase e^{-i omega t} included, from family, (rho_ee(0),
    rho_eg(0)) and their theta-derivatives: the library's analytic
    _initial_family by default, or initial_family_fd's.
    """
    ts = grid.times()
    g = gsol.g(ts)
    phase = np.exp(-1j * p.omega * ts)
    ree0, reg0, dee0, deg0 = family or _initial_family(theta, convention)
    rho = np.empty((ts.size, 2, 2), dtype=complex)
    rho[:, 0, 0] = ree0 * g**2
    rho[:, 0, 1] = reg0 * phase * g
    rho[:, 1, 0] = np.conj(rho[:, 0, 1])
    rho[:, 1, 1] = 1.0 - rho[:, 0, 0]
    drho = np.empty_like(rho)
    drho[:, 0, 0] = dee0 * g**2
    drho[:, 0, 1] = deg0 * phase * g
    drho[:, 1, 0] = np.conj(drho[:, 0, 1])
    drho[:, 1, 1] = -drho[:, 0, 0]
    return _qfi_from_matrices(rho, drho)


def initial_family_fd(theta: float, convention: str, h: float = 1e-5) -> tuple:
    """_initial_family with the theta-derivatives of rho_ee(0) and rho_eg(0) by
    central differences of step h (rho is linear in both, so this differences
    rho itself)."""
    plus, minus = _initial_family(theta + h, convention), _initial_family(theta - h, convention)
    ree0, reg0 = _initial_family(theta, convention)[:2]
    return ree0, reg0, (plus[0] - minus[0]) / (2.0 * h), (plus[1] - minus[1]) / (2.0 * h)


def kernel_of(sols: list[GSolution]):
    """The one _ModalCells of the solutions' points, as _solve_each builds it for a sweep."""
    return _solve_each([sol.params for sol in sols])[1]


def ode_state_matrix(p: ModelParams) -> np.ndarray:
    """Matrix M of the first-order form d/dt (g, g', g'') = M (g, g', g'').

    Its eigenvalues are x_i / 2 for the characteristic roots x_i.
    """
    return np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], _ode_rows(p.kappa**2, p.gamma_w, p.Gamma_w)])


def cubic_discriminant(p: ModelParams) -> float:
    """Discriminant-sign indicator of the characteristic cubic.

    D <= 0 means three real roots; D > 0 one real root plus a conjugate
    pair.  Only the sign is meaningful (overall constant fixed to 1).
    """
    validate_params(p)
    gw, k2, Gw = p.gamma_w, p.kappa**2, p.Gamma_w
    return float(
        gw**2 * (36.0 * k2 - 9.0 * gw * Gw + 4.0 * gw**2) ** 2
        - 2.0 * (-6.0 * k2 - 3.0 * gw * Gw + 2.0 * gw**2) ** 3
    )


def _scan_step(sol: GSolution) -> float:
    """Root-scan step: 1/20 of the shortest characteristic time scale."""
    p = sol.params
    scales = [1.0 / max(p.kappa, 1e-12)]
    if sol.method == MARKOV:
        c2 = p.Gamma_w**2 - 16.0 * p.kappa**2
        scales.append(4.0 / p.Gamma_w)
        if c2 < 0.0:
            scales.append(2.0 * math.pi * 4.0 / math.sqrt(-c2))
    else:
        scales.append(1.0 / p.gamma_w)
        im = float(np.max(np.abs(sol.roots.imag)))
        if im > 0.0:
            scales.append(2.0 * math.pi / im)
    return min(scales) / 20.0


def _scan_intervals(sol: GSolution, t_max: float) -> int:
    """Number of steps of the root-scan grid np.linspace(0, t_max, n + 1)."""
    if not (t_max > 0.0):
        raise ValueError(f"t_max must be > 0, got {t_max}")
    return int(math.ceil(t_max / _scan_step(sol)))


def _total_rise(abs_g: np.ndarray) -> float:
    """Sum of the rises of |g| between consecutive critical points: the exact N_total."""
    # added in time order: np.sum pairs terms and would round differently
    return float(np.cumsum(np.maximum(np.diff(abs_g), 0.0))[-1])


def critical_points_full_scan(sols: list[GSolution], t_max: float) -> list[tuple]:
    """(zeros of g in (0, t_max], critical points of |g|, |g| at each) per cell.

    The library's _critical_points before its scan was cut: every cell scans
    g and g'' on its whole grid np.linspace(0, t_max, n + 1), n from
    _scan_intervals, and one call of _ModalCells.refine refines every sign
    change of both; a sample exactly at zero between samples of opposite
    sign is a zero itself.  g' is monotone between consecutive zeros of g''
    (with 0 and t_max as the outer ends), so a second call refines its
    zeros bracketed there.
    """
    cells = kernel_of(sols)
    n_cells = len(sols)
    ids = np.arange(n_cells)
    n = np.array([_scan_intervals(sol, t_max) for sol in sols])
    first = np.cumsum(n + 1) - (n + 1)
    step = t_max / n

    def grid(k):
        c = np.searchsorted(first, k, side="right") - 1
        t = (k - first[c]) * step[c]
        t[k == first[c] + n[c]] = t_max
        return t, c

    size = int(first[-1] + n[-1] + 1)
    chunk = 2**12
    found: list = [[], [], [], []]  # sign changes of g, zero samples of g, then of g''
    for a in range(0, size, chunk):
        width = min(chunk, size - a)
        t, c = grid(np.arange(a, min(a + width + 2, size)))
        g, _, gpp = cells.eval(t, c)
        for m, values in enumerate((g, gpp)):
            i, k = _sign_changes(values, c)
            found[2 * m].append(a + i[i < width])
            found[2 * m + 1].append(a + k[k <= width])
    ig, kg, i2, k2 = (np.concatenate(ks) for ks in found)

    i = np.concatenate([ig, i2])
    (t_lo, owner), (t_hi, _) = grid(i), grid(i + 1)
    order = np.repeat([0, 2], [ig.size, i2.size])
    z = cells.refine(t_lo, t_hi, owner, order)
    of_g = order == 0
    (tg, cg), (t2, c2) = grid(kg), grid(k2)
    zg, zg_cell = _sorted_by_cell([z[of_g], tg], [owner[of_g], cg])
    z2, z2_cell = np.concatenate([z[~of_g], t2]), np.concatenate([owner[~of_g], c2])

    ends, end_cell = _sorted_by_cell(
        [np.zeros(n_cells), z2, np.full(n_cells, t_max)], [ids, z2_cell, ids]
    )
    gp_ends = cells.eval(ends, end_cell)[1]
    gp_ends[ends == 0.0] = 0.0
    j, k1 = _sign_changes(gp_ends, end_cell)
    zp = cells.refine(ends[j], ends[j + 1], end_cell[j], 1)

    crit, crit_cell = _sorted_by_cell(
        [np.zeros(n_cells), zg, zp, ends[k1], np.full(n_cells, t_max)],
        [ids, zg_cell, end_cell[j], end_cell[k1], ids],
    )
    abs_g = np.abs(cells.eval(crit, crit_cell)[0])
    zg_cut, crit_cut = np.searchsorted(zg_cell, ids[1:]), np.searchsorted(crit_cell, ids[1:])
    return list(
        zip(np.split(zg, zg_cut), np.split(crit, crit_cut), np.split(abs_g, crit_cut))
    )


def _draw_rowmajor(p: ModelParams, grid: GridSpec, base_seed: int, indices) -> tuple:
    """(zeta, w_star) of shape (m,) and (m, n+1) for the given trajectory indices.

    One generator draws every trajectory's 4 + 2n normals from its seeded
    state; scaling and the OU recursion run on time-major copies of 64
    samples with the same complex operations per sample as the library,
    and conj(z), w*_t are written back over the normals.
    """
    n, m = grid.n_steps, len(indices)
    raw = np.empty((m, 4 + 2 * n))
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for row, (state, inc) in enumerate(_pcg64_states(base_seed, indices)):
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        gen.standard_normal(out=raw[row])
    var_st = 0.5 * p.gamma_w * p.Gamma_w
    scale = np.full((n + 2, 1), math.sqrt(var_st * (1.0 - math.exp(-2.0 * p.gamma_w * grid.dt))))
    scale[:2, 0] = 1.0, math.sqrt(var_st)
    decay = np.asarray(np.exp(-(p.gamma_w + 1j * p.Omega_w) * grid.dt))
    c = raw.view(complex)
    step, prev = np.empty(m, dtype=complex), None
    for lo in range(0, n + 2, 64):
        hi = min(lo + 64, n + 2)
        rows = np.multiply(c[:, lo:hi].T, scale[lo:hi])
        rows /= math.sqrt(2.0)
        for k, row in enumerate(rows, lo):
            if k >= 2:
                np.add(row, np.multiply(prev, decay, step), row)
            prev = row
        prev = rows[-1].copy()
        np.conj(rows.T, out=c[:, lo:hi])
    return -1j * c[:, 0], c[:, 1:]


def closed_form_rowmajor(p: ModelParams, grid: GridSpec, psi0: PureState2):
    """(c_e, ground): ground(z0, w_star) maps rows of w*_t, shape (m, n+1), to c_g.

    The trapezoid sums run along each row with np.cumsum; w_star is
    overwritten.
    """
    ce0, cg0 = psi0.c_e, psi0.c_g
    ts = grid.times()
    half = np.exp(-0.5j * p.omega * (ts - grid.t0))
    back = np.conj(half)
    if p.kappa == 0.0:
        return ce0 * half, lambda z0, w_star: np.broadcast_to(cg0 * back, w_star.shape)
    g, gp, _ = solve_g(p).eval(ts)
    q = ce0 * gp / (p.kappa * g[0])
    dq = q - q[0]
    v = half**2 * q

    def ground(z0, w_star):
        w_star *= v
        cg = np.empty_like(w_star)
        cg[:, 0] = 0.0
        np.add(w_star[:, 1:], w_star[:, :-1], out=cg[:, 1:])
        np.cumsum(cg[:, 1:], axis=1, out=cg[:, 1:])
        cg *= 0.5j * grid.dt
        cg -= np.multiply(z0[:, None], dq, out=w_star)
        cg += cg0
        cg *= back
        return cg

    return ce0 * half * (g / g[0]), ground


def ensemble_density_rowmajor(
    p: ModelParams, theta: float, grid: GridSpec, n_traj: int, base_seed: int
) -> EnsembleResult:
    """ensemble_density with one row-major c_g array per CHUNK trajectories.

    Each chunk sums c_g, |c_g|^2 and |c_g|^4 over its (m, n+1) arrays, and
    the chunk sums are added in chunk order with the built-in sum.
    """
    ce, ground = closed_form_rowmajor(p, grid, PureState2.from_bloch_angle(theta))
    z_phase = np.exp(1j * p.omega_c * grid.t0)
    parts = []
    for lo in range(0, n_traj, CHUNK):
        zeta, w_star = _draw_rowmajor(p, grid, base_seed, range(lo, min(lo + CHUNK, n_traj)))
        cg = ground(zeta * z_phase, w_star)
        a2 = np.abs(cg)
        a2 *= a2
        parts.append((cg.sum(axis=0), a2.sum(axis=0), np.einsum("mk,mk->k", a2, a2)))
    s1, s2, s4 = (sum(col) for col in zip(*parts))

    mean_cg = s1 / n_traj
    rho_ee = np.abs(ce) ** 2
    rho_gg = s2 / n_traj
    rho_eg = ce * np.conj(mean_cg)
    var_gg = np.maximum(s4 / n_traj - rho_gg**2, 0.0)
    var_eg = rho_ee * np.maximum(rho_gg - np.abs(mean_cg) ** 2, 0.0)
    stderr_gg = np.sqrt(var_gg / n_traj)
    channels = {
        "rho_ee": rho_ee,
        "rho_eg": rho_eg,
        "rho_ge": np.conj(rho_eg),
        "rho_gg": rho_gg,
        "stderr_ee": np.zeros_like(rho_ee),
        "stderr_eg": np.sqrt(var_eg / n_traj),
        "stderr_gg": stderr_gg,
    }
    return EnsembleResult(TimeSeries(grid, channels), n_traj, base_seed,
                          float(rho_ee[-1] + rho_gg[-1]), float(stderr_gg[-1]))
