"""Exception types shared across the toolkit.

Every error carries a short machine-readable ``code`` so harness reports and
the CLI can classify failures without parsing messages.
"""


class OscintError(Exception):
    """Base class for all toolkit errors."""

    code = "ERROR"

    def __init__(self, message, **context):
        super().__init__(message)
        self.context = context


class PartitionOverflowError(OscintError):
    """More sign changes than the configured cap; the phase violates its structural claim."""

    code = "PARTITION_OVERFLOW"


class RootConvergenceError(OscintError):
    """Computed roots fail the residual check."""

    code = "NO_CONVERGENCE"


class NotSndError(OscintError):
    """Polynomial failed SND classification where an SND input was required."""

    code = "NOT_SND"


class NotNormalizedError(OscintError):
    """Derivative polynomial is neither monic nor SND."""

    code = "NOT_NORMALIZED"


class PreconditionError(OscintError):
    """An operation precondition does not hold (degenerate degree, |lambda| < 1 in SND mode, ...)."""

    code = "PRECONDITION"


class PanelBudgetError(OscintError):
    """Panel refinement would exceed max_panels; lambda too large for the config."""

    code = "PANEL_BUDGET"


class NonconvergentTailError(OscintError):
    """Frequency tail beyond the cutoff contributes too much; increase the cutoff."""

    code = "NONCONVERGENT_TAIL"


class InsufficientSpanError(OscintError):
    """Too few samples or too little dynamic range for a meaningful fit."""

    code = "INSUFFICIENT_SPAN"


class NoiseDominatedError(OscintError):
    """Quadrature errors are too large relative to the magnitudes being fitted."""

    code = "NOISE_DOMINATED"


class SliceOverflowError(OscintError):
    """A one-dimensional slice of the planar domain exceeded the declared interval bound."""

    code = "SLICE_OVERFLOW"


class ConfigError(OscintError):
    """Malformed experiment configuration."""

    code = "CONFIG"
