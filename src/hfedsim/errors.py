"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Inconsistent dimensions, missing fields, or out-of-range settings."""


class NumericDivergenceError(RuntimeError):
    """Model weights became non-finite during training."""


class DatasetFormatError(ValueError):
    """Malformed or invalid shard/manifest file."""
