"""Exception types shared across the library."""


class HarmdistError(Exception):
    """Base class for all library errors."""


class DomainError(HarmdistError):
    """A point lies outside the open unit disc (or another admissible region)."""


class SingularError(HarmdistError):
    """A denominator vanished: zero derivative, zero constant term, etc."""


class PrecisionError(HarmdistError):
    """Evaluation requested beyond the radius where truncation error is certified."""


class NotSensePreservingError(HarmdistError):
    """The harmonic map fails |omega| < 1 / J > 0 at a queried point."""


class ParameterError(HarmdistError):
    """A user-supplied parameter is outside its admissible range."""


class NormalizationError(HarmdistError):
    """A map that must be normalized (phi(0)=0, phi'(0)=1) cannot be renormalized."""


class ConfigError(HarmdistError):
    """Invalid run configuration or mapping descriptor."""


class NonFiniteError(HarmdistError):
    """A computed value that must be a finite number is NaN or infinite."""
