"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary invalid arguments; the classes
here mark conditions that callers (notably the CLI) need to tell apart.
"""


class DegenerateInputError(ValueError):
    """Input is syntactically valid but numerically unusable (e.g. a constant
    signal that cannot be normalized)."""


class WavFormatError(ValueError):
    """Malformed or unsupported WAV file."""


class ConfigError(ValueError):
    """Bad configuration file or checkpoint/configuration mismatch."""


class NumericsError(RuntimeError):
    """Training or inference aborted on a non-finite quantity."""
