"""Exception taxonomy.

Every domain failure raises a subclass of AlgebraError; the CLI maps these
to exit code 2 and parse failures (ParseError) to exit code 1.
"""


class AlgebraError(Exception):
    """Base class for all domain errors."""


# -- base algebra ------------------------------------------------------------

class DivisionByZero(AlgebraError):
    pass


class ZeroIdeal(AlgebraError):
    pass


class ZeroPolynomial(AlgebraError):
    pass


class InvalidAutomorphism(AlgebraError):
    pass


class FieldMismatch(AlgebraError):
    pass


# -- skew polynomials --------------------------------------------------------

class BothZero(AlgebraError):
    pass


# -- Drinfeld modules --------------------------------------------------------

class BadConstantTerm(AlgebraError):
    pass


class RankZero(AlgebraError):
    pass


class NotRankTwo(AlgebraError):
    pass


class UnsupportedField(AlgebraError):
    pass


class CocycleViolation(AlgebraError):
    pass


class NonCyclicGroup(AlgebraError):
    pass


class CMSuspected(AlgebraError):
    """Bounded endomorphism search found more than the A-line."""


class MissingCertificate(AlgebraError):
    """Operation needs a non-CM certificate of at least the stated bound."""


# -- isogenies ---------------------------------------------------------------

class NotIntertwining(AlgebraError):
    pass


class Inseparable(AlgebraError):
    pass


class StructureError(AlgebraError):
    pass


class DivisionInexact(AlgebraError):
    pass


class ChainMismatch(AlgebraError):
    pass


class NotPrimitive(AlgebraError):
    pass


class NotCyclic(AlgebraError):
    pass


class NotPrimePower(AlgebraError):
    pass


class NotScalarConjugate(AlgebraError):
    pass


# -- orbit trees -------------------------------------------------------------

class NotTreeMetric(AlgebraError):
    pass


class NotGInvariant(AlgebraError):
    pass


class AsymmetricMatrix(AlgebraError):
    pass


class MissingIsogeny(AlgebraError):
    pass


class OrbitNotClosed(AlgebraError):
    pass


class NotRealizable(AlgebraError):
    pass


# -- moduli ------------------------------------------------------------------

class AmbientMismatch(AlgebraError):
    pass


class DegreeMismatch(AlgebraError):
    pass


class EvenCharacteristic(AlgebraError):
    pass


class NotGStable(AlgebraError):
    pass


class NotAHomomorphism(AlgebraError):
    pass


# -- cross-cutting -----------------------------------------------------------

class InternalInconsistency(AlgebraError):
    """An invariant the library guarantees failed to hold; a bug, not bad input."""


class BudgetExceeded(AlgebraError):
    """A search passed its fixed size cap; names the budget and its value."""

    def __init__(self, budget, value):
        super().__init__(f"{budget} exceed the budget of {value}")
        self.budget = budget
        self.value = value


class ParseError(Exception):
    """Malformed textual input; carries a position for diagnostics."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
