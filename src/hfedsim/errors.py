"""Exception types shared across the package, and the integer check of the file loaders."""

import numbers


class ConfigurationError(ValueError):
    """Inconsistent dimensions, missing fields, or out-of-range settings."""


class NumericDivergenceError(RuntimeError):
    """Model weights became non-finite during training."""


class DatasetFormatError(ValueError):
    """Malformed or invalid shard/manifest file."""


def integer_field(value, where: str) -> int:
    """`value` as an int if it is an integral number (3 or 3.0); `where` names the field.

    A bool, a string, or a number with a fraction (2.7, NaN, inf) raises
    `DatasetFormatError` rather than being converted, so nothing is truncated.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise DatasetFormatError(f"{where} must be an integer ({value!r})")
