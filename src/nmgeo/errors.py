"""Exception hierarchy shared by all nmgeo modules."""


class NmgeoError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(NmgeoError):
    """Invalid model parameters or state."""


class NonPositiveRate(ValidationError):
    """gamma_w or Gamma_w is not strictly positive."""


class NegativeCoupling(ValidationError):
    """kappa is negative."""


class OutOfRangeAngle(ValidationError):
    """Bloch angle outside [0, pi]."""


class NotResonant(NmgeoError):
    """Operation requires omega == omega_c == Omega_w."""


class IntegrationFailure(NmgeoError):
    """An ODE integration did not reach the end of the requested interval."""


class OutOfDomain(NmgeoError):
    """Argument outside the validity domain of an analytic boundary curve."""


class NoConvergence(NmgeoError):
    """Iterative solver failed; carries scan/iteration diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConfigError(NmgeoError):
    """Bad CLI usage or configuration file (exit code 2)."""


class ConfigParseError(ConfigError):
    """Configuration file is not valid JSON."""


class UnknownConfigKey(ConfigError):
    """Configuration file contains a key that maps to no option."""
