"""Exception hierarchy shared across the package.

The CLI maps these onto stable exit codes: ConfigError -> 2,
DataError -> 3, everything else raised by the runtime -> 4.
"""


class VflError(Exception):
    """Base class for all package errors."""


class ShapeError(VflError):
    """Tensor shapes incompatible for the requested operation."""


class ValidationError(VflError):
    """Invalid argument values (labels out of range, negative lambda, ...)."""


class ConfigError(VflError):
    """Inconsistent or malformed configuration."""


def require_distinct(name, values):
    if len(set(values)) != len(values):
        raise ConfigError(f"{name} repeats an entry: {values}")


class DataError(VflError):
    """Dataset construction or ingestion failure."""


class FormatError(VflError):
    """Malformed serialized artifact (checkpoint or wire frame)."""


class VersionError(FormatError):
    """Serialized artifact written by an unsupported format version."""


class FingerprintError(VflError):
    """Checkpoint config fingerprint does not match the active config."""


class ProtocolError(VflError):
    """Message protocol violation (round regression, missing frame, ...)."""
