"""Exception types shared across the package.

Every numerical failure mode raises a subclass of :class:`SimulationError` so
the command-line driver can map them to a single exit code.  Configuration
problems raise :class:`ConfigError` instead and are reported separately.
"""


class SimulationError(Exception):
    """Base class for numerical failures."""


class ConfigError(Exception):
    """Invalid run configuration (bad JSON, unknown keys, bad grids)."""


class NotHermitian(SimulationError):
    """Matrix failed the Hermitian symmetry check."""


class NotUnitary(SimulationError):
    """Matrix failed the unitarity check."""


class ConvergenceFailure(SimulationError):
    """A LAPACK decomposition did not converge."""


class NoConvergence(SimulationError):
    """Self-converging refinement hit its substep cap before reaching tol."""


class DimensionTooLarge(SimulationError):
    """Requested dense problem size above the supported range."""


class DimensionMismatch(SimulationError):
    """Operands have incompatible dimensions."""


class OutOfRange(SimulationError):
    """Scalar argument outside its documented domain."""


class DegenerateEndpoint(SimulationError):
    """A path endpoint has a degenerate ground state."""


class DegenerateGround(SimulationError):
    """Ground state is degenerate where a unique one is required."""


class DegeneratePath(SimulationError):
    """Spectrum degenerate along the path where non-degeneracy is required."""

    def __init__(self, message, step=None, level_a=None, level_b=None):
        super().__init__(message)
        self.step = step
        self.level_a = level_a
        self.level_b = level_b


class GapClosure(SimulationError):
    """Spectral gap below tolerance at a sampled point."""


class NonFiniteResult(SimulationError):
    """A computed quantity overflowed or came out NaN."""


class InsufficientData(SimulationError):
    """Too few samples for the requested fit."""


class OmegaZero(SimulationError):
    """Resonant step frequency (lambda * dt on 2*pi*Z); bounds are vacuous."""


class WrongDimension(SimulationError):
    """Operation restricted to a specific matrix dimension."""


class AllPass(SimulationError):
    """Every grid point passed; critical step not bracketed."""


class AllFail(SimulationError):
    """Every grid point failed; critical step not bracketed."""


class BranchAmbiguityWarning(UserWarning):
    """An eigenphase lies within tolerance of the log branch cut at +/- pi."""
