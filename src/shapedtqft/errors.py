"""Exception hierarchy shared by all modules."""


class ShapedTqftError(Exception):
    """Base class for all package errors."""


class InputSchemaError(ShapedTqftError):
    """An input file is missing or does not describe a shaped complex."""


class UsageError(ShapedTqftError):
    """A command-line argument cannot be parsed."""


class PoleHit(ShapedTqftError):
    """An evaluation point is within tolerance of a pole (or zero) lattice."""


class QuadratureFailure(ShapedTqftError):
    """Adaptive integration could not meet the requested tolerance."""


class NonConvergence(ShapedTqftError):
    """A series/product cannot converge for the given parameters."""


class WeightOutOfRange(ShapedTqftError):
    """A Boltzmann weight's common scale factor is not a finite nonzero double."""


class DecayEstimateFailure(ShapedTqftError):
    """The integrand does not decay along some sampled direction (no positive rate)."""


class BadGluing(ShapedTqftError):
    """Face gluing data is not involutive / orientation-reversing / single-use."""


class BadLoop(ShapedTqftError):
    """A dual edge loop description is inconsistent with the triangulation."""


class NotApplicable(ShapedTqftError):
    """A combinatorial move's preconditions are not met."""


class ShapeViolation(ShapedTqftError):
    """A dihedral angle left the open interval (0, pi) or a sum constraint broke."""


class InvalidGauge(ShapedTqftError):
    """A gauge fixing does not satisfy the defining pairing property."""


class ConstraintViolation(ShapedTqftError):
    """Input parameters violate an identity's stated constraints."""


class NotCritical(ShapedTqftError):
    """A shape structure is not a critical point of the volume (gluing residuals too large)."""


class BoundaryDegeneration(ShapedTqftError):
    """Volume ascent ran into the boundary of the angle polytope."""
