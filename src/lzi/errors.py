"""Exception types shared across the package."""


class LziError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(LziError, ValueError):
    """Operands have incompatible matrix dimensions."""


class SameSiteError(LziError, ValueError):
    """A two-site operation received the same site twice."""


class DegenerateSpectralError(LziError, ValueError):
    """Spectral parameters coincide where distinct values are required."""


class NoRealShiftError(LziError, ValueError):
    """No usable diagonal shift (minus an eigenvalue of H(0)) lies in the search interval."""


class NumericalError(LziError, RuntimeError):
    """An iterative numerical procedure failed to converge or verify."""


class QuadratureError(NumericalError):
    """An oscillatory integral did not converge to the requested tolerance."""


class BranchPointError(LziError, ValueError):
    """Evaluation requested at or too close to a branch point."""


class ConfigError(LziError, ValueError):
    """A run configuration is missing, malformed, or inconsistent."""
