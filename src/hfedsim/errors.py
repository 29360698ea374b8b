"""Exception types shared across the package, and the checks the records and file
loaders share.

Both loaders open their file through `read_json` and read each number through
`integer_field` or `float_field`. These raise `DatasetFormatError` naming the
file or the field, and never convert a value that is not already the number
the field asks for, so nothing is truncated, parsed or let through as NaN.

Every count a caller configures (a seed, an epoch count, a dimension, a
device id) goes through `check_count`, which raises `ConfigurationError`
naming the field. `is_integer` is its rule of what an integer is, which
`Topology` also applies to its link endpoints.
"""

import json
import math
import numbers
from pathlib import Path


class ConfigurationError(ValueError):
    """Inconsistent dimensions, missing fields, or out-of-range settings."""


class NumericDivergenceError(RuntimeError):
    """Model weights became non-finite during training."""


class DatasetFormatError(ValueError):
    """Malformed or invalid dataset or topology file."""


def is_integer(value) -> bool:
    """Whether `value` is an integer: any `numbers.Integral` but a bool, numpy's included.

    A float is not, even 2.0: counts and ids index, slice and bound loops,
    which a float breaks mid-run or ends at the wrong step.
    """
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(value, name: str, low: int = 1) -> None:
    """Raise `ConfigurationError` naming `name` unless `value` is an integer >= `low`."""
    if not is_integer(value) or value < low:
        raise ConfigurationError(f"{name} must be an integer >= {low} ({value!r})")


def read_json(path: Path) -> dict:
    """The JSON object in the file at `path`.

    A missing file, invalid JSON or a document that is not an object raises
    `DatasetFormatError` naming the file.
    """
    if not path.is_file():
        raise DatasetFormatError(f"{path}: file not found")
    try:
        doc = json.loads(path.read_bytes())
    except ValueError as exc:
        raise DatasetFormatError(f"{path.name}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DatasetFormatError(f"{path.name}: not a JSON object")
    return doc


def integer_field(value, where: str) -> int:
    """`value` as an int if it is an integral number (3 or 3.0); `where` names the field.

    A bool, a string, or a number with a fraction (2.7, NaN, inf) raises
    `DatasetFormatError` rather than being converted, so nothing is truncated.
    """
    if is_integer(value):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise DatasetFormatError(f"{where} must be an integer ({value!r})")


def float_field(value, where: str) -> float:
    """`value` as a float if it is a finite number; `where` names the field.

    A bool, a string, NaN or inf raises `DatasetFormatError`.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise DatasetFormatError(f"{where} must be a finite number ({value!r})")
