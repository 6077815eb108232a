"""Ground-truth labels for 3-qubit states.

Entanglement is flagged per bipartition by negativity of the partial
transpose. Discord is flagged per (bipartition, measured side) by the
block criterion: arrange the state with the unmeasured subsystem's index
outermost, cut it into square blocks of the measured side's dimension, and
require every block to be normal and all blocks to commute pairwise.
Classes form the chain Product < NonDiscordant < Separable.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import kron_all, partial_trace, partial_transpose, permute_qubits

NEGATIVITY_TOL = 1e-9  # flag threshold inside classify
ENTANGLED_FILTER_TOL = 1e-6  # dataset filter: accepted entangled records exceed this
PRODUCT_TOL = 1e-8

CUTS = (0, 1, 2)  # single qubit vs the remaining pair
SIDES = ("small", "large")


class StateClass(enum.Enum):
    """The four classes; their order is the class code (0..3) of `class_code`."""

    PRODUCT = "Product"
    NON_DISCORDANT = "NonDiscordant"
    DISCORDANT_SEPARABLE = "DiscordantSeparable"
    ENTANGLED = "Entangled"


STATE_CLASSES = tuple(StateClass)


def class_code(entangled, product, discordant):
    """Index into STATE_CLASSES of the class chain: any entangled cut gives
    Entangled, else a product gives Product, else any discordant check gives
    DiscordantSeparable, else NonDiscordant.

    Takes Python bools (plain-Python arithmetic, cheap per state) or numpy
    bool arrays of one shape (vectorized, returns integer codes).
    """
    return 3 * entangled + (1 - entangled) * (1 - product) * (1 + discordant)


@dataclass
class StateLabel:
    entangled_cut: tuple[bool, bool, bool]
    discordant_check: tuple[bool, bool, bool, bool, bool, bool]
    is_product: bool
    klass: StateClass


def negativity(rho: np.ndarray, cut: int) -> float:
    """Sum of |negative eigenvalues| of the partial transpose over `cut`."""
    if cut not in CUTS:
        raise ValueError(f"cut must be one of {CUTS}")
    w = np.linalg.eigvalsh(partial_transpose(rho, [cut]))
    return float(-w[w < 0.0].sum())


def _commutation_eps(rho: np.ndarray) -> float:
    return max(1e-10, 1e-8 * (1.0 + float(np.abs(rho).max())))


def zero_discord_check(rho: np.ndarray, cut: int, measured_side: str) -> bool:
    """True when rho has zero discord w.r.t. measurements on one side of a cut.

    cut: the single qubit defining the bipartition (that qubit vs the pair).
    measured_side: "small" measures the single qubit, "large" the pair.
    """
    if cut not in CUTS:
        raise ValueError(f"cut must be one of {CUTS}")
    if measured_side not in SIDES:
        raise ValueError("measured_side must be 'small' or 'large'")
    pair = [q for q in CUTS if q != cut]
    if measured_side == "small":
        # blocks indexed by the pair basis, each block 2x2 on the measured qubit
        arranged = permute_qubits(rho, pair + [cut])
        blocks = arranged.reshape(4, 2, 4, 2).transpose(0, 2, 1, 3).reshape(16, 2, 2)
    else:
        # blocks indexed by the single qubit, each block 4x4 on the measured pair
        arranged = permute_qubits(rho, [cut] + pair)
        blocks = arranged.reshape(2, 4, 2, 4).transpose(0, 2, 1, 3).reshape(4, 4, 4)
    eps = _commutation_eps(rho)
    dag = blocks.conj().transpose(0, 2, 1)
    normal_dev = np.abs(blocks @ dag - dag @ blocks).max()
    if normal_dev > eps:
        return False
    prod = np.einsum("iab,jbc->ijac", blocks, blocks)
    comm_dev = np.abs(prod - prod.transpose(1, 0, 2, 3)).max()
    return bool(comm_dev <= eps)


def is_product(rho: np.ndarray, tol: float = PRODUCT_TOL) -> bool:
    """True when rho equals the product of its single-qubit reductions."""
    parts = [partial_trace(rho, keep=[q]) for q in CUTS]
    return bool(np.abs(rho - kron_all(parts)).max() <= tol)


def classify(rho: np.ndarray, known_separable: bool = False) -> StateLabel:
    """Full label: per-cut entanglement, six discord checks, product test, class.

    known_separable=True records construction provenance: it forces the
    entanglement flags to false (overriding partial-transpose noise) but
    leaves the discord checks untouched.
    """
    if known_separable:
        ent = (False, False, False)
    else:
        ent = tuple(negativity(rho, c) > NEGATIVITY_TOL for c in CUTS)
    disc = tuple(
        not zero_discord_check(rho, cut, side) for cut in CUTS for side in SIDES
    )
    prod = is_product(rho)
    klass = STATE_CLASSES[class_code(any(ent), prod, any(disc))]
    return StateLabel(
        entangled_cut=ent, discordant_check=disc, is_product=prod, klass=klass
    )
