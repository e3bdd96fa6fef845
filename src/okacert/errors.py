"""Exception types shared across the package."""


class OkacertError(Exception):
    """Base class for all package-specific errors."""


class DegenerateChart(OkacertError):
    """Chart denominator too close to zero for a reliable evaluation."""


class ZeroGradient(OkacertError):
    """A defining-function gradient vanished where a tangent was requested."""


class DimensionMismatch(OkacertError):
    """Operands live in different ambient dimensions."""


class UnsupportedVariant(OkacertError):
    """The requested operation is not available for this set variant."""


class InfeasiblePolyhedron(OkacertError):
    """No point satisfies the inequality system."""


class LPNumericalFailure(OkacertError):
    """The simplex solver could not finish reliably."""


class PointInsideSet(OkacertError):
    """nearest_boundary was called with a point already in the set."""


class ProjectionDidNotConverge(OkacertError):
    """An exact projection did not finish: the active-set steps of
    ``sets._project`` (onto a polyhedron, a recession cone or a NormCombo
    epigraph) ran past their cap or met a singular active set, or the
    secular Newton steps onto a quadratic epigraph ran past 100."""


class NotStronglyConvex(OkacertError):
    """A strong-convexity precondition failed on sampled Hessians."""


class SeparatorNotFound(OkacertError):
    """No valid exponential separator could be built for a sample batch."""


class NotIrreducibleFamily(OkacertError):
    """The weighted-functional family has a zero weight or does not span."""


class DesignFailed(OkacertError):
    """No contraction-step candidate passed verification within the budget."""


class SchemaError(OkacertError):
    """Input JSON does not match the documented schema."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class Overflow(OkacertError):
    """An iteration produced values beyond the representable guard."""
