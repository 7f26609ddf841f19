"""Exception hierarchy.

The three mid-level groups map onto CLI exit codes: ConfigError -> 2,
DataError -> 3, NumericalError -> 4.
"""

import dataclasses
import numbers
import sys


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


def require_field_types(config) -> None:
    """Raise BadConfigError naming the first int, float or str config field that is wrong.

    An int field must hold an int; a float field a finite int or float
    (the range test also rejects NaN and ints too large for a float). A
    bool is neither. A str field must hold a non-empty string; a
    ``str | None`` field may also hold None.
    """
    for f in dataclasses.fields(config):
        kind = getattr(f.type, "__name__", f.type)
        value = getattr(config, f.name)
        if kind == "int" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise BadConfigError(f"{f.name} must be an integer, got {value!r}")
        if kind == "float" and (
            isinstance(value, bool)
            or not isinstance(value, numbers.Real)
            or not -sys.float_info.max <= value <= sys.float_info.max
        ):
            raise BadConfigError(f"{f.name} must be a finite number, got {value!r}")
        if kind in ("str", "str | None") and not (
            (isinstance(value, str) and value) or (value is None and kind != "str")
        ):
            null = "" if kind == "str" else " or null"
            raise BadConfigError(f"{f.name} must be a non-empty string{null}, got {value!r}")
