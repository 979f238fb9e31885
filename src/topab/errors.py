"""Exception types shared across the package."""


class TopabError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveModulus(TopabError):
    pass


class ElementNotInGroup(TopabError):
    pass


class IllDefined(TopabError):
    """A generator assignment or table does not define a homomorphism."""


class NotASubgroup(TopabError):
    pass


class CompositionMismatch(TopabError):
    pass


class NotContinuous(TopabError):
    pass


class NotWellDefined(TopabError):
    pass


class InvalidSection(TopabError):
    pass


class InvalidCocycle(TopabError):
    pass


class NotTopologizing(TopabError):
    pass


class ValueOutsideIotaImage(TopabError):
    """A difference that must lie in the image of the kernel inclusion does not."""


class NotAnExtension(TopabError):
    pass


class DiagramError(TopabError):
    """A diagram fails a structural requirement (commutativity, typing)."""


class UnknownTheorem(TopabError):
    pass


class UnknownHypothesis(TopabError):
    pass


class InvalidFamilySpec(TopabError):
    """A family bound is out of range (an order below 1, a negative count)."""


class BudgetExceeded(TopabError):
    """Full enumeration would exceed the configured budget; lower the order bound."""
