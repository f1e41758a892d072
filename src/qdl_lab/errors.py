"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the documented domain of an operation."""


class ResourceError(RuntimeError):
    """A computation would exceed a configured resource cap."""

