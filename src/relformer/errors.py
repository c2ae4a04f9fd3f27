"""Exception taxonomy shared by the whole package.

The CLI maps these onto exit codes: ConfigError/UsageError -> 2,
DataError/CheckpointError -> 3, NumericsError -> 4, and any other
RelformerError (a ShapeError is an internal error) -> 1.
"""


class RelformerError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(RelformerError):
    """An operand's shape does not satisfy an operation's contract."""


class ConfigError(RelformerError):
    """Invalid configuration value; the message names the field."""


class DataError(RelformerError):
    """Dataset parse failure or invariant breach; the message names file/field."""


class UsageError(RelformerError):
    """An API was called out of order or with inconsistent arguments."""


class CheckpointError(RelformerError):
    """A checkpoint file is malformed or incompatible with the model config."""


class NumericsError(RelformerError):
    """Training diverged (non-finite loss, matching cost, gradient or parameter)."""
