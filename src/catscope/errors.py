"""Exception types shared across the package.

Every failure mode that callers are expected to catch has its own class so
that tests can assert on the exact condition rather than matching message
strings.
"""


class CatscopeError(Exception):
    """Base class for all package-specific errors."""


class TruncationTooSmall(CatscopeError):
    """Fock-space dimension cannot hold the requested state to tail mass < 1e-8."""


class NonFinite(CatscopeError):
    """NaN or infinity encountered in an input amplitude or parameter."""


class InvalidIndex(CatscopeError):
    """Cat/compass component index outside [0, M)."""


class DimMismatch(CatscopeError):
    """Operands live in Fock spaces of different dimension."""


class QuadratureFailure(CatscopeError):
    """Adaptive quadrature did not converge."""


class UnitOverflow(CatscopeError):
    """A unit conversion produced a non-finite intermediate value."""


class InvalidMode(CatscopeError):
    """Unknown detector mode (expected 'compass' or 'vacuum')."""


class LeakageSymbol(CatscopeError):
    """A readout record containing leakage symbols was passed to inference."""


class DegenerateDesign(CatscopeError):
    """A fit was requested on data with no usable design variation."""


class NonConvergence(CatscopeError):
    """A fit missed its optimality conditions, or a record has zero
    probability under its model."""


class ZeroBaseline(CatscopeError):
    """Enhancement factor requested with a zero vacuum efficiency."""


class SingleBin(CatscopeError):
    """Background subtraction needs at least two frequency bins."""


class ZeroEfficiency(CatscopeError):
    """A frequency bin reports zero detection efficiency."""


class ZeroSignalDenominator(CatscopeError):
    """Limit conversion received an invalid (negative) fitted signal power."""


class MissingCalibration(CatscopeError):
    """A search command ran without calibration artifacts."""


class MissingArtifact(CatscopeError):
    """Figure regeneration requested an artifact that was never produced."""


class ConfigError(CatscopeError):
    """Campaign configuration failed validation."""
