"""Exception hierarchy.

Two error families matter for the CLI exit-code contract: plain
``SpherindexError`` subclasses signal invalid user input (exit 1), while
``TheoremViolation`` subclasses signal data that passed validation but broke
a structural identity that must hold for consistent input (exit 3).
"""


class SpherindexError(Exception):
    """Base class for all errors raised by this package."""


class ZeroVector(SpherindexError):
    pass


class NotARootBase(SpherindexError):
    pass


class LinearlyDependent(NotARootBase):
    pass


class NotFiniteType(SpherindexError):
    pass


class NegativeCoefficient(SpherindexError):
    pass


class NotConvex(SpherindexError):
    pass


class NotBetween(SpherindexError):
    pass


class NotSublattice(SpherindexError):
    pass


class BudgetExceeded(SpherindexError):
    pass


class DatumConstructionError(SpherindexError):
    """The input file parsed but does not describe a coherent datum."""


class TheoremViolation(SpherindexError):
    """A structural identity failed on data that passed validation."""


class InternalInconsistency(TheoremViolation):
    pass


class FiberMismatch(TheoremViolation):
    pass


class IndivisibilityMismatch(TheoremViolation):
    pass


class IdentityFails(TheoremViolation):
    pass


class BasisFailure(TheoremViolation):
    pass
