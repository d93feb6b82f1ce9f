import cmath


class InvalidInputError(ValueError):
    """Raised when an operation receives input violating its preconditions."""


def require_finite(owner, *names):
    """Reject the first of ``owner``'s real or complex fields ``names`` that is not finite."""
    for name in names:
        if not cmath.isfinite(getattr(owner, name)):
            raise InvalidInputError(f"{name} must be finite")


class ConfigError(InvalidInputError):
    """Raised for malformed run configuration; carries the offending key."""

    def __init__(self, key, message):
        super().__init__(f"invalid config key '{key}': {message}")
        self.key = key
