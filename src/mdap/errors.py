"""Exception types shared across the package."""


class MdapError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MdapError):
    """Operands have incompatible or unexpected shapes."""


class ParameterError(MdapError):
    """A hyperparameter or configuration value is out of range."""


class DataError(MdapError):
    """Input data cannot be turned into a usable dataset."""


class ParseError(DataError):
    """An interaction file contains malformed lines (strict mode)."""


class CheckpointError(MdapError):
    """A checkpoint file is missing, truncated, or not ours."""


class TrainingDivergedError(MdapError):
    """Training produced a non-finite loss or gradient."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"non-finite loss at epoch {epoch}")
