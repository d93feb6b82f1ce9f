import math


class InvalidInputError(ValueError):
    """Raised when an operation receives input violating its preconditions."""


def require_finite(owner, *names):
    """Reject the first of ``owner``'s fields ``names`` that is NaN or infinite."""
    for name in names:
        if not math.isfinite(getattr(owner, name)):
            raise InvalidInputError(f"{name} must be finite")


class ConfigError(InvalidInputError):
    """Raised for malformed run configuration; carries the offending key."""

    def __init__(self, key, message):
        super().__init__(f"invalid config key '{key}': {message}")
        self.key = key
