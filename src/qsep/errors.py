"""Exceptions with dedicated CLI exit codes."""


class DataFormatError(Exception):
    """Corrupt or mismatched on-disk data (CLI exit code 3)."""


class TrainingDivergedError(Exception):
    """Loss or parameters became non-finite during training (CLI exit code 4)."""


class RejectionLimitError(Exception):
    """A rejection sampler drew its cap of states without accepting one (CLI exit code 5)."""
