"""Exception types shared across the package.

The CLI maps ConfigError-like failures to exit code 2 and everything else
to exit code 3, so raising the right class here matters.
"""


class SizeError(ValueError):
    """A vector or matrix dimension is invalid (wrong length, not a power of two)."""


class FramingError(ValueError):
    """A bitstring does not match the expected frame geometry."""


class ConfigError(ValueError):
    """An experiment or link configuration is inconsistent or unparseable."""


class DomainError(ValueError):
    """A numeric argument is outside the mathematical domain of the operation."""
