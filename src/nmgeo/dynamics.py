"""Time-local coefficients, master-equation evolution and information measures.

The decay coefficient F_z(t) = -g'(t) / (kappa g(t)) drives the Lindblad-form
master equation

    drho/dt = -i [omega sigma_z/2 + kappa Im(F_z) sigma^+ sigma^-, rho]
              + 2 kappa Re(F_z) D[sigma^-] rho.

Around zeros of g, F_z has poles while the state itself stays smooth, so
evolution and the non-Markovianity measure are computed from g directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationFailure, ValidationError
from .gfunction import GSolution, _critical_points, _total_rises, solve_g, solve_ivp
from .model import DensityMatrix2, GridSpec, ModelParams, TimeSeries, validate_params

FROM_G = "from-g"
FROM_ODE_ORACLE = "ode-oracle"

QFI_CONVENTION = "qfi"      # |psi(0)> = cos(theta)|g> + sin(theta)|e>
BLOCH_CONVENTION = "bloch"  # |psi(0)> = cos(theta/2)|e> + sin(theta/2)|g>

POLE_G_TOL = 1e-12
_FZ_BLOWUP = 1e8


@dataclass(frozen=True)
class OCoefficients:
    """F_z / F_w coefficient series.

    series carries complex channels "F_z" (and "F_w" when available) plus a
    boolean "pole" mask; samples under the mask hold NaN.  pole_time is the
    blow-up time when the ODE route hit |F_z| = 1e8 (a zero of g), else None.
    """

    series: TimeSeries
    source: str
    pole_time: float | None = None


def f_z_from_g(sol: GSolution, grid: GridSpec) -> OCoefficients:
    """F_z = -g'/(kappa g) on the grid; |g| < 1e-12 samples become pole markers."""
    kappa = sol.params.kappa
    if not (kappa > 0.0):
        raise ValidationError("F_z from g requires kappa > 0")
    g, gp, _ = sol.eval(grid.times())
    pole = np.abs(g) < POLE_G_TOL
    den = np.where(pole, 1.0, kappa * g)
    fz = (-gp / den).astype(complex)
    fz[pole] = complex(math.nan, math.nan)
    return OCoefficients(
        series=TimeSeries(grid, {"F_z": fz, "pole": pole}), source=FROM_G
    )


def f_ode_oracle(p: ModelParams, grid: GridSpec) -> OCoefficients:
    """F_z, F_w by direct integration (scipy's DOP853) of their coupled equations.

        F_z' = kappa - i F_w + i (omega - omega_c) F_z + kappa F_z^2
        F_w' = -i (gamma_w Gamma_w / 2) F_z
               + [i omega - (gamma_w + i Omega_w)] F_w + kappa F_z F_w

    Handles detuning; resonance is the special case.  Integration stops when
    |F_z| reaches 1e8 (a zero of g); remaining samples are pole-marked and
    pole_time records the blow-up time.
    """
    validate_params(p)
    kappa, det = p.kappa, p.omega - p.omega_c
    aw0 = 0.5 * p.gamma_w * p.Gamma_w
    cw = 1j * p.omega - (p.gamma_w + 1j * p.Omega_w)

    def rhs(t, y):
        fz = y[0] + 1j * y[1]
        fw = y[2] + 1j * y[3]
        dz = kappa - 1j * fw + 1j * det * fz + kappa * fz**2
        dw = -1j * aw0 * fz + cw * fw + kappa * fz * fw
        return [dz.real, dz.imag, dw.real, dw.imag]

    def blowup(t, y):
        return math.hypot(y[0], y[1]) - _FZ_BLOWUP

    blowup.terminal = True
    ts = grid.times()
    sol = solve_ivp(
        rhs,
        (ts[0], ts[-1]),
        [0.0, 0.0, 0.0, 0.0],
        method="DOP853",
        rtol=1e-11,
        atol=1e-13,
        t_eval=ts,
        events=blowup,
    )
    if not sol.success and sol.status != 1:
        raise IntegrationFailure(f"F_z/F_w integration failed: {sol.message}")
    n = grid.n_steps + 1
    fz = np.full(n, np.nan, dtype=complex)
    fw = np.full(n, np.nan, dtype=complex)
    m = sol.y.shape[1]
    fz[:m] = sol.y[0] + 1j * sol.y[1]
    fw[:m] = sol.y[2] + 1j * sol.y[3]
    pole = np.isnan(fz.real)
    pole_time = float(sol.t_events[0][0]) if sol.status == 1 else None
    return OCoefficients(
        series=TimeSeries(grid, {"F_z": fz, "F_w": fw, "pole": pole}),
        source=FROM_ODE_ORACLE,
        pole_time=pole_time,
    )


def evolve_master_equation(
    p: ModelParams, rho0: DensityMatrix2, grid: GridSpec, *, gsol: GSolution
) -> TimeSeries:
    """Master-equation evolution of rho0 on the grid (resonant case), from g,

        rho_ee(t) = rho_ee(0) g^2,   rho_eg(t) = rho_eg(0) e^{-i omega t} g,

    which passes smoothly through the poles of F_z.
    """
    if not p.resonant():
        raise ValidationError("the g-based propagator assumes resonance")
    ts = grid.times()
    g = gsol.g(ts)
    ree = rho0.rho_ee.real * g**2
    reg = rho0.rho_eg * np.exp(-1j * p.omega * ts) * g
    rgg = rho0.rho_gg.real + rho0.rho_ee.real * (1.0 - g**2)
    return TimeSeries(
        grid,
        {"rho_ee": ree, "rho_eg": reg, "rho_ge": np.conj(reg), "rho_gg": rgg},
    )


def expectations_sigma(series: TimeSeries) -> TimeSeries:
    """Pauli expectation channels sx, sy, sz of a density-matrix series."""
    reg = series["rho_eg"]
    sx = 2.0 * reg.real
    sy = -2.0 * reg.imag
    sz = series["rho_ee"].real - series["rho_gg"].real
    return TimeSeries(series.grid, {"sx": sx, "sy": sy, "sz": sz})


@dataclass(frozen=True)
class NonMarkovReport:
    """Accumulated trace-distance backflow N_t and the windows producing it.

    series channels: g, abs_g and the non-decreasing N_t, the grid sum of the
    rises of |g| between samples.  windows are the intervals between
    consecutive critical points of |g| (0, the zeros of g and g', t_max) over
    which |g| rises, so d|g|/dt > 0 inside (equivalently Re F_z < 0 away from
    zeros of g).  n_total is the sum of the rises of |g| between those
    critical points: exact, independent of dt and equal to classify_point's
    N_total, while N_t[-1] undershoots the peaks of |g| the grid misses.
    """

    series: TimeSeries
    windows: list
    n_total: float


def non_markovianity(
    p: ModelParams, t_max: float, dt: float = 0.01, *, gsol: GSolution | None = None
) -> NonMarkovReport:
    """BLP measure for the optimal pair, where the trace distance is |g(t)|.

    N_t accumulates the positive increments of |g| on the grid, so zeros of
    g are integrable kinks rather than failures.  n_total and the windows
    come from the critical points of |g| and do not depend on dt.
    """
    sol = gsol if gsol is not None else solve_g(p)
    _, crit, crit_abs_g = _critical_points(sol._cells, t_max)[0]
    # intervals narrower than the zero refiner's 1e-12 tolerance are not resolved
    rises = np.nonzero((np.diff(crit_abs_g) > 0.0) & (np.diff(crit) >= 1e-12))[0]
    windows = [(float(crit[i]), float(crit[i + 1])) for i in rises]
    grid = GridSpec.uniform(t_max, dt)
    g = sol.eval(grid.times())[0]
    absg = np.abs(g)
    inc = np.maximum(np.diff(absg), 0.0)
    n_t = np.concatenate([[0.0], np.cumsum(inc)])
    series = TimeSeries(grid, {"g": g, "abs_g": absg, "N_t": n_t})
    n_total = float(_total_rises(crit_abs_g, np.zeros(crit.size, dtype=np.intp), 1)[0])
    return NonMarkovReport(series=series, windows=windows, n_total=n_total)


def _initial_family(theta: float, convention: str):
    """(rho_ee(0), rho_eg(0), d rho_ee(0)/d theta, d rho_eg(0)/d theta)."""
    if convention == QFI_CONVENTION:
        return (
            math.sin(theta) ** 2,
            math.sin(theta) * math.cos(theta),
            math.sin(2.0 * theta),
            math.cos(2.0 * theta),
        )
    if convention == BLOCH_CONVENTION:
        return (
            math.cos(theta / 2.0) ** 2,
            0.5 * math.sin(theta),
            -0.5 * math.sin(theta),
            0.5 * math.cos(theta),
        )
    raise ValidationError(f"unknown initial-state convention {convention!r}")


def qfi_series(
    p: ModelParams,
    theta: float,
    grid: GridSpec,
    convention: str = QFI_CONVENTION,
    *,
    gsol: GSolution | None = None,
) -> np.ndarray:
    """QFI of the evolved family rho(t; theta) at each grid time.

    In the frame rotating with e^{-i omega t}, a unitary that does not depend
    on theta, the Bloch vector and its theta-derivative are

        r = (2 rho_eg(0) g, 2 rho_ee(0) g^2 - 1),  dr = (2 drho_eg(0) g, 2 drho_ee(0) g^2),

    and F = |dr|^2 + (r.dr)^2 / (1 - |r|^2), with 1 - |r|^2 = 4 det rho
    = 4 g^2 (rho_ee(0) (1 - rho_ee(0) g^2) - rho_eg(0)^2).  So omega does not
    enter.  The mixed term is kept where 2 det rho > 1e-12; elsewhere the
    state is pure (g = +-1, a zero of g, or a pole angle) and F = |dr|^2.
    """
    validate_params(p)
    ree0, reg0, dee0, deg0 = _initial_family(theta, convention)
    sol = gsol if gsol is not None else solve_g(p)
    g = sol.g(grid.times())
    g2 = g * g
    rx, rz = 2.0 * reg0 * g, 2.0 * ree0 * g2 - 1.0
    drx, drz = 2.0 * deg0 * g, 2.0 * dee0 * g2
    det = g2 * (ree0 * (1.0 - ree0 * g2) - reg0**2)
    f = drx**2 + drz**2
    dot = rx * drx + rz * drz
    mixed = 2.0 * det > 1e-12
    f[mixed] += dot[mixed] ** 2 / (4.0 * det[mixed])
    return f
