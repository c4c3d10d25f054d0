"""Exception types shared across the package."""


class GsoccError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(GsoccError, ValueError):
    """Array shapes are inconsistent with the operation's contract."""


class InvalidRotationError(GsoccError, ValueError):
    """Quaternion is not unit-norm (beyond tolerance) or matrix not orthonormal."""


class UndefinedMetricError(GsoccError, RuntimeError):
    """A metric or loss has no defined value for the given inputs
    (e.g. empty ground truth, no voxels, no rays hit the grid)."""


class ConfigError(GsoccError, ValueError):
    """Invalid configuration value or unresolvable input path."""


class StageError(GsoccError, RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage


def entries_error(name: str, want, got: int) -> ConfigError:
    """The ConfigError for a tuple setting `name` that holds `got` entries
    where it must hold `want` of them (None: at least one)."""
    need = f"{want} entries" if want else "at least one entry"
    return ConfigError(f"{name} must hold {need}, got {got}")
