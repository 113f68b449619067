"""Shared parameter, state and time-series types.

Basis convention: the two-level system is stored in the ordered basis
(|e>, |g>), so sigma^- = |g><e| = [[0,0],[1,0]] and the Bloch angle
theta=0 is the excited pole.  sigma_z |e> = +|e>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeCoupling, NonPositiveRate, OutOfRangeAngle, ValidationError


@dataclass(frozen=True, kw_only=True)
class ModelParams:
    """Physical parameters of the qubit + lossy-cavity + bath model.

    omega    -- qubit frequency
    omega_c  -- cavity frequency
    Omega_w  -- bath central frequency
    kappa    -- qubit-cavity coupling, >= 0
    gamma_w  -- bath memory rate, > 0; math.inf selects the memory-less
                (Markov-bath) closed forms exactly
    Gamma_w  -- cavity-bath coupling strength, > 0
    """

    kappa: float
    gamma_w: float
    omega: float = 1.0
    omega_c: float = 1.0
    Omega_w: float = 1.0
    Gamma_w: float = 1.0

    def resonant(self) -> bool:
        """True iff omega, omega_c and Omega_w are exactly equal."""
        return self.omega == self.omega_c == self.Omega_w

    @property
    def is_markov_limit(self) -> bool:
        return math.isinf(self.gamma_w)


def validate_params(p: ModelParams) -> ModelParams:
    """Check parameter invariants; returns p unchanged when they hold.

    Idempotent.  Raises NonPositiveRate or NegativeCoupling otherwise.
    """
    if not (p.gamma_w > 0.0):
        raise NonPositiveRate(f"gamma_w must be > 0, got {p.gamma_w}")
    if not (p.Gamma_w > 0.0) or math.isinf(p.Gamma_w):
        raise NonPositiveRate(f"Gamma_w must be positive and finite, got {p.Gamma_w}")
    if p.kappa < 0.0 or math.isnan(p.kappa):
        raise NegativeCoupling(f"kappa must be >= 0, got {p.kappa}")
    for name in ("omega", "omega_c", "Omega_w"):
        v = getattr(p, name)
        if not math.isfinite(v):
            raise ValidationError(f"{name} must be finite, got {v}")
    return p


@dataclass(frozen=True)
class PureState2:
    """Unnormalized qubit state, amplitudes (c_e, c_g) in the (|e>, |g>) basis."""

    c_e: complex
    c_g: complex

    @classmethod
    def from_bloch_angle(cls, theta: float) -> "PureState2":
        """(cos(theta/2), sin(theta/2)) for theta in [0, pi]."""
        if not (0.0 <= theta <= math.pi):
            raise OutOfRangeAngle(f"theta must lie in [0, pi], got {theta}")
        return cls(math.cos(theta / 2.0), math.sin(theta / 2.0))

    def amplitudes(self) -> np.ndarray:
        return np.array([self.c_e, self.c_g], dtype=complex)

    def norm(self) -> float:
        return float(np.sqrt(abs(self.c_e) ** 2 + abs(self.c_g) ** 2))

    def density_matrix(self) -> "DensityMatrix2":
        a = self.amplitudes()
        m = np.outer(a, a.conj())
        return DensityMatrix2(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def initial_state(theta: float) -> PureState2:
    """Qubit initial state at Bloch angle theta (theta=0 is |e>)."""
    return PureState2.from_bloch_angle(theta)


_HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class DensityMatrix2:
    """2x2 density matrix entries in the (|e>, |g>) basis."""

    rho_ee: complex
    rho_eg: complex
    rho_ge: complex
    rho_gg: complex

    def __post_init__(self):
        if abs(self.rho_ge - np.conj(self.rho_eg)) > _HERMITICITY_TOL:
            raise ValidationError("rho_ge must equal conj(rho_eg) within 1e-12")

    def as_array(self) -> np.ndarray:
        return np.array(
            [[self.rho_ee, self.rho_eg], [self.rho_ge, self.rho_gg]], dtype=complex
        )

    def trace(self) -> complex:
        return self.rho_ee + self.rho_gg

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues, ascending."""
        return np.linalg.eigvalsh(self.as_array())


@dataclass(frozen=True)
class GridSpec:
    """Uniform time grid: n_steps+1 samples t0 + dt*k."""

    dt: float
    n_steps: int
    t0: float = 0.0

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ValidationError(f"dt must be > 0, got {self.dt}")
        if self.n_steps < 1:
            raise ValidationError(f"n_steps must be >= 1, got {self.n_steps}")

    @classmethod
    def uniform(cls, t_max: float, dt: float, t0: float = 0.0) -> "GridSpec":
        if not (t_max > t0):
            raise ValidationError(f"t_max must exceed t0, got {t_max} <= {t0}")
        return cls(dt=dt, n_steps=int(round((t_max - t0) / dt)), t0=t0)

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * self.n_steps

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class TimeSeries:
    """Named real/complex channels sampled on one uniform grid.

    Channel arrays are frozen (writeable flag cleared, including on the
    caller's array object) so series can be shared across threads.
    """

    grid: GridSpec
    channels: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.grid.n_steps + 1
        for name, arr in self.channels.items():
            a = np.asarray(arr)
            if a.shape != (n,):
                raise ValidationError(
                    f"channel {name!r} has shape {a.shape}, expected ({n},)"
                )
            a.flags.writeable = False
            self.channels[name] = a

    @property
    def t(self) -> np.ndarray:
        return self.grid.times()

    def __getitem__(self, name: str) -> np.ndarray:
        return self.channels[name]

    def __contains__(self, name: str) -> bool:
        return name in self.channels

    def with_channels(self, **extra) -> "TimeSeries":
        merged = dict(self.channels)
        merged.update(extra)
        return TimeSeries(self.grid, merged)
