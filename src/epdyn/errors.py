"""Exception types shared across the package."""


class EpdynError(Exception):
    """Base class for all package-specific errors."""


class NoFiniteEPError(EpdynError):
    """No finite-amplitude EP exists (Re[d12] = 0), or float64 cannot resolve it."""


class NegativeAmplitudeError(EpdynError):
    """Closed-form EP amplitude would be negative (delta_gamma / Re[d12] < 0)."""


class EPOnContourError(EpdynError):
    """A parameter-space contour passes through (or too close to) the EP."""


class NotEncirclingError(EpdynError):
    """The loop does not encircle the EP (rho <= 0), so the state-exchange table has no meaning."""


class UndersampledError(EpdynError):
    """Contour sampling too coarse to track the discriminant's argument."""


class AmbiguousTrackingError(EpdynError):
    """Adjacent-sample eigenvector overlaps too close to distinguish branches."""


class StepSizeUnderflowError(EpdynError):
    """Adaptive integrator drove the step size below the representable floor."""


class StepBudgetError(EpdynError):
    """A propagation would take more steps than the fixed step budget allows."""


class NonFiniteError(EpdynError):
    """State amplitudes left the representable floating-point range."""


class ZeroNormError(EpdynError):
    """Both amplitudes are exactly zero; projections are undefined."""


class ConfigError(EpdynError):
    """Invalid run configuration; the message names the offending field."""
