"""qsep: a structurally separable autoencoder for 3-qubit density matrices.

The decoder can only emit normalized sums of product states, so a model
trained purely on separable states reconstructs them well and fails loudly on
correlated ones. A reconstruction loss above a threshold flags quantum
correlation (discord, and a fortiori entanglement).
"""
from .errors import DataFormatError, RejectionLimitError, TrainingDivergedError
from .oracles import (
    StateClass,
    StateLabels,
    classify,
    label_states,
    negativity,
)
from .separator import (
    SeparatorConfig,
    SeparatorParams,
    baseline_losses,
    forward_batch,
    gradient,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .training import Dataset, TrainConfig, TrainReport, load_qsd, save_qsd, train

__version__ = "0.1.0"

__all__ = [
    "DataFormatError",
    "RejectionLimitError",
    "TrainingDivergedError",
    "StateClass",
    "StateLabels",
    "classify",
    "label_states",
    "negativity",
    "SeparatorConfig",
    "SeparatorParams",
    "baseline_losses",
    "forward_batch",
    "gradient",
    "init_params",
    "load_checkpoint",
    "save_checkpoint",
    "Dataset",
    "TrainConfig",
    "TrainReport",
    "load_qsd",
    "save_qsd",
    "train",
    "__version__",
]
