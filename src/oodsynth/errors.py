"""Exception hierarchy.

The three mid-level groups map onto CLI exit codes: ConfigError -> 2,
DataError -> 3, NumericalError -> 4.
"""

import dataclasses
import math


class OodSynthError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(OodSynthError):
    """Invalid configuration, argument, or class id."""


class DataError(OodSynthError):
    """Missing or insufficient data for the requested operation."""


class NumericalError(OodSynthError):
    """Degenerate numerical situation (zero vectors, singular densities)."""


class BadArgError(ConfigError):
    pass


class BadConfigError(ConfigError):
    pass


class BadClassError(ConfigError):
    pass


class NotUnitError(DataError):
    pass


class InsufficientDataError(DataError):
    pass


class EmptyBufferError(DataError):
    pass


class TooFewSamplesError(DataError):
    pass


class PrototypeUndefinedError(DataError):
    pass


class CorruptStoreError(DataError):
    pass


class ZeroVectorError(NumericalError):
    pass


class AntipodalPrototypesError(NumericalError):
    pass


def require_finite(config) -> None:
    """Raise BadConfigError naming the first float field of a config dataclass that is not finite."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type in ("float", float) and not math.isfinite(value):
            raise BadConfigError(f"{f.name} must be finite, got {value!r}")
