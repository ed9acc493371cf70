"""Exception hierarchy.

The class of an error decides the CLI's exit code, in ``cli.main``: a
``ParseError`` (input that does not describe an index or a spherical datum,
such as a star generator of the wrong shape) exits 2; a ``TheoremViolation``
(a structural identity broken by data that passed validation) exits 3; any
other ``SpherindexError`` exits 1, as does a datum that fails validation.
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


class BudgetExceeded(SpherindexError):
    pass


class ParseError(SpherindexError):
    """The input does not describe an index or a spherical datum."""


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
