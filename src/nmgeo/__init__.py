"""nmgeo: a qubit coupled to a lossy cavity embedded in a bosonic bath.

Exact dynamics through the auxiliary amplitude g(t), the complex geometric
phase and its divergences, trace-distance non-Markovianity, quantum Fisher
information, quantum-state-diffusion trajectories, and the full
Markov/non-Markovian phase diagram with analytic boundary curves.
"""

__version__ = "0.1.0"

from .dynamics import (
    BLOCH_CONVENTION,
    FROM_G,
    FROM_ODE_ORACLE,
    QFI_CONVENTION,
    NonMarkovReport,
    OCoefficients,
    evolve_master_equation,
    expectations_sigma,
    f_ode_oracle,
    f_z_from_g,
    non_markovianity,
    qfi_series,
)
from .errors import (
    ConfigError,
    ConfigParseError,
    IntegrationFailure,
    NegativeCoupling,
    NmgeoError,
    NoConvergence,
    NonPositiveRate,
    NotResonant,
    OutOfDomain,
    OutOfRangeAngle,
    UnknownConfigKey,
    ValidationError,
)
from .gfunction import (
    GSolution,
    cubic_coefficients,
    cubic_roots,
    find_g_roots,
    g_markov_limit,
    g_markov_limit_deriv,
    g_ode_oracle,
    markov_root_times,
    solve_g,
)
from .geomphase import (
    PhaseSeries,
    beta_imag_at,
    divergence_report,
    geometric_phase,
)
from .model import (
    DensityMatrix2,
    GridSpec,
    ModelParams,
    PureState2,
    TimeSeries,
    initial_state,
    validate_params,
)
from .phasediagram import (
    GREEN_BLUE_JOIN,
    REGION_DIVERGENT,
    REGION_ERROR,
    REGION_MARKOV,
    REGION_NONDIVERGENT,
    PhaseCell,
    TangencyPoint,
    blue_boundary,
    classify_point,
    green_boundary,
    sweep,
    tangency_boundary,
    tangency_curve,
    tangency_point,
)
from .qsd import (
    EnsembleResult,
    NoiseRealization,
    TrajectoryState,
    ensemble_density,
    evolve_trajectory,
    sample_noises,
)
