"""Driven two-resonance model with an exceptional point: location, loop
protocols, time propagation, and the time-asymmetric state-exchange analysis.
"""

from .errors import (
    AmbiguousTrackingError,
    ConfigError,
    EpdynError,
    EPOnContourError,
    NegativeAmplitudeError,
    NoFiniteEPError,
    NonFiniteError,
    NotEncirclingError,
    StepBudgetError,
    StepSizeUnderflowError,
    UndersampledError,
    ZeroNormError,
)
from .loops import (
    Direction,
    LoopSpec,
    StaticDrive,
    contains_ep,
    field_at,
    field_velocity,
    rho,
    winding_number,
)
from .model import (
    EPLocation,
    FieldPoint,
    HamiltonianMatrix,
    SystemParams,
    build_hamiltonian,
    c_product,
    discriminant,
    locate_ep,
)
from .presets import (
    DEFAULT_PARAMS,
    DIODE_DURATION,
    HERMITIAN_PARAMS,
    diode_control_loop,
    diode_loop,
    encircling_loop,
    hermitian_loop,
)
from .propagation import (
    AdiabaticFrame,
    IntegratorConfig,
    StateVector,
    TrajectoryRecord,
    accumulated_phase,
    propagate_adiabatic,
    propagate_direct,
    track_branches,
)

__version__ = "0.1.0"
