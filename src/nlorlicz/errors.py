"""Exception types shared across the package."""


class NlorliczError(Exception):
    """Base class for all package errors."""


class ValidationError(NlorliczError, ValueError):
    """Inputs violate a documented contract (family parameters, config keys,
    grid shapes, kernel admissibility)."""


class BudgetExceededError(NlorliczError):
    """An assembly or sweep would exceed the configured resource budget."""


class BracketingError(NlorliczError):
    """A root could not be bracketed (e.g. for a bounded psi or modular)."""
