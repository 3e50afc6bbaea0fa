"""Exception types shared across the kernel."""


class HopfkitError(Exception):
    """Base class for every error raised by this package."""


class AlphabetMismatch(HopfkitError):
    """Two elements over different alphabets were combined."""


class BudgetExceeded(HopfkitError):
    """An intermediate expression outgrew HOPFKIT_MAX_TERMS."""


class InvalidSetting(HopfkitError):
    """An environment variable holds a value hopfkit cannot use."""


class PresentationError(HopfkitError):
    """A presentation failed validation."""


class ZeroQ(PresentationError):
    """A straightening relation has coefficient q = 0."""


class TailNotNormal(PresentationError):
    """A relation tail uses a word that is not an ordered monomial."""


class TailNotSmaller(PresentationError):
    """A relation tail is not strictly below its head: it outweighs the
    head, or no positive auxiliary weight vector psi puts every
    equal-weight tail below its head, so rewriting has no termination
    certificate."""


class InvalidCoproduct(PresentationError):
    """Coproduct data violates the connected-filtered shape."""


class UnknownBuiltin(HopfkitError):
    """Requested builtin presentation does not exist."""


class NotConfluent(HopfkitError):
    """An operation needed a confluent rewriting system and the
    overlap check failed."""


class NoCoproductAttached(HopfkitError):
    """A coalgebra operation was invoked on a bare algebra presentation."""


class QSkewRejected(HopfkitError):
    """Coalgebra operations refuse presentations with q != 1 relations."""


class NonzeroConstantTerm(HopfkitError):
    """Primitivity is undefined for elements with a constant term."""


class NotHopfAdmissible(HopfkitError):
    """Series factorization hit a negative multiplicity."""

    def __init__(self, degree, message=None):
        self.degree = degree
        super().__init__(message or f"negative multiplicity forced at degree {degree}")


class TailAboveHead(HopfkitError):
    """A tail monomial outweighs its head, so there is no associated graded."""


class WindowTooSmall(HopfkitError):
    """The weight window cannot hold every monomial the computation needs."""


class AxiomFailure(HopfkitError):
    """The antipode axiom failed on a basis monomial."""

    def __init__(self, monomial, residual, side, message=None):
        self.monomial = monomial
        self.residual = residual
        self.side = side
        super().__init__(message or f"antipode axiom ({side}) fails on {monomial}")


class ParseError(HopfkitError):
    """A presentation file or expression could not be parsed."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
