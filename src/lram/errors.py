"""Exception types shared across the library, and the range checks of the configs."""

import math
from dataclasses import fields


class LramError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(LramError):
    """Operands have incompatible shapes."""


class NonSymmetricError(LramError):
    """Matrix asymmetry exceeds the tolerated fraction of its Frobenius norm."""


class NoConvergenceError(LramError):
    """An iterative solver stalled or broke down before reaching its target."""


class NotPositiveDefiniteError(LramError):
    """A nonpositive pivot was encountered while factorizing."""


class EmptyEnsembleError(LramError):
    """An operation requires at least one ensemble member."""


class SingularCapacitanceError(LramError):
    """The capacitance matrix of one sample's Woodbury solve is singular."""

    def __init__(self, sample, cond=float("inf")):
        super().__init__(
            f"update matrix singular for sample {sample} (cond estimate {cond:.3e})"
        )
        self.sample = sample
        self.cond = cond


class SingularSampleError(LramError):
    """A perturbed system matrix is singular for one sample."""

    def __init__(self, sample, message=""):
        super().__init__(message or f"perturbed matrix singular for sample {sample}")
        self.sample = sample


class EmptyInputError(LramError):
    """An aggregate was requested over an empty collection."""


class InvalidMeshSizeError(LramError):
    """Mesh spacing must lie strictly between 0 and 1."""


class DegenerateElementError(LramError):
    """A mesh element has nonpositive area."""


class LineSearchError(LramError):
    """Line search exhausted its trial budget without an acceptable step."""


class ConfigError(LramError):
    """Base class for configuration problems."""


class ConfigParseError(ConfigError):
    """Config file line could not be parsed."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class UnknownKeyError(ConfigError):
    """Config key is not recognized for this subcommand."""


class ConfigRangeError(ConfigError):
    """Config value is outside its admissible range."""


class InputFileError(ConfigError):
    """An input file could not be read or parsed."""


def check_range(ok: bool, message: str, value) -> None:
    """Raise ``ConfigRangeError("<message>, got <value>")`` unless ``ok``."""
    if not ok:
        raise ConfigRangeError(f"{message}, got {value!r}")


def check_finite(config) -> None:
    """``check_range`` on every float field of the dataclass ``config``: each must be finite."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float):
            check_range(math.isfinite(value), f"{f.name} must be finite", value)
