"""Exception types shared across the package."""


class DegenstirError(Exception):
    """Base class for all library errors."""


class ModeMismatch(DegenstirError):
    """Operands live in different coefficient modes (symbolic vs pinned lambda)."""


class DivisionByZero(DegenstirError, ZeroDivisionError):
    """Exact division by a zero field element or polynomial."""


class BothZero(DegenstirError):
    """gcd(0, 0) is undefined."""


class PoleAtLambda(DegenstirError):
    """Evaluation hit a zero of the denominator."""


class PrecisionExceeded(DegenstirError):
    """A coefficient beyond the known truncation order was requested."""


class ZeroDivisorSeries(DegenstirError):
    """Series division by a series that vanishes to its full precision."""


class ValuationTooHigh(DegenstirError):
    """Series division would produce negative powers of t."""


class NonzeroConstantTerm(DegenstirError):
    """Series composition needs an inner series with zero constant term."""


class InputTooShort(DegenstirError):
    """A Bell-polynomial input sequence does not cover the required indices."""


class DomainViolation(DegenstirError):
    """Identity parameters fall outside the stated domain."""


class RouteDisagreement(DegenstirError):
    """Two independent routes to the same value returned different results."""
