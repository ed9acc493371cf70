"""Error classes, each beside what tells it apart; the base class decides the exit code.

SpherindexError        ``cli.main``: exit 1, for any failure not named below
ParseError             ``cli.main``: exit 2, input that describes no index or spherical datum
TheoremViolation       ``cli.main``: exit 3, a structural identity broken by validated data
NotARootBase           ``validate``, ``TitsIndex.violations``, ``RootBase.from_gram``: no root base
LinearlyDependent      ``validate``: its own check; a ``NotARootBase`` elsewhere
NotFiniteType          the same three: a Cartan matrix of no finite type
NegativeCoefficient    ``validate``: a root with a negative simple-root coefficient
InternalInconsistency  ``validate``: an inconsistent compact split; a ``TheoremViolation`` elsewhere
"""


class SpherindexError(Exception):
    """Base class for all errors raised by this package."""


class NotARootBase(SpherindexError):
    pass


class LinearlyDependent(NotARootBase):
    pass


class NotFiniteType(SpherindexError):
    pass


class NegativeCoefficient(SpherindexError):
    pass


class ParseError(SpherindexError):
    """The input does not describe an index or a spherical datum."""


class TheoremViolation(SpherindexError):
    """A structural identity failed on data that passed validation."""


class InternalInconsistency(TheoremViolation):
    pass
