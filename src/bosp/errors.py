"""Exception types shared across the package."""

__all__ = ["BlowUpError", "CheckpointError", "BadMagicError", "VersionError", "TruncatedFileError",
           "NonFinitePayloadError", "ConfigError"]


class BlowUpError(RuntimeError):
    """Raised when a time integration produces non-finite or exploding modes.

    ``last_good_time`` is the largest time at which the state was still
    finite and below the magnitude guard.
    """

    def __init__(self, last_good_time):
        self.last_good_time = float(last_good_time)
        super().__init__(f"solution blew up; last good time t = {self.last_good_time:.6g}")


class CheckpointError(IOError):
    """Base class for checkpoint (de)serialization failures."""


class BadMagicError(CheckpointError):
    pass


class VersionError(CheckpointError):
    pass


class TruncatedFileError(CheckpointError):
    pass


class NonFinitePayloadError(CheckpointError):
    pass


class ConfigError(ValueError):
    """Invalid experiment configuration (unknown key, bad value, bad file)."""
