"""Ground-truth labels for 3-qubit states.

Entanglement is flagged per bipartition by negativity of the partial
transpose. Discord is flagged per (bipartition, measured side) by the
block criterion: arrange the state with the unmeasured subsystem's index
outermost, cut it into square blocks of the measured side's dimension, and
require every block to be normal and all blocks to commute pairwise.
Classes form the chain Product < NonDiscordant < Separable.

Each criterion exists once, in array form over a stack (N, 8, 8):
`negativities`, `zero_discord_flags` and `product_flags`; `label_states`
combines them. The per-state functions (`negativity`, `zero_discord_check`,
`is_product`, `classify`) are stacks of one.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import partial_trace, partial_transpose, permute_qubits

NEGATIVITY_TOL = 1e-9  # flag threshold inside classify
ENTANGLED_FILTER_TOL = 1e-6  # dataset filter: accepted entangled records exceed this
PRODUCT_TOL = 1e-8

CUTS = (0, 1, 2)  # single qubit vs the remaining pair
SIDES = ("small", "large")
CHECKS = tuple((cut, side) for cut in CUTS for side in SIDES)  # discord check order
LABEL_CHUNK = 512  # states per pass of label_states; bounds the commutator tensors


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


@dataclass
class StateLabels:
    """Labels of a stack of N states, one row per state."""

    negativity: np.ndarray  # (N, 3) per cut; NaN where not computed (known separable)
    entangled_cut: np.ndarray  # (N, 3) bool
    discordant_check: np.ndarray  # (N, 6) bool, in CHECKS order
    is_product: np.ndarray  # (N,) bool
    klass: np.ndarray  # (N,) int8 class codes, indices into STATE_CLASSES

    def assuming_separable(self, known_separable) -> StateLabels:
        """The same labels with the entanglement flags of the `known_separable`
        states forced to false, as if they had been passed to `label_states` so."""
        return _labels(self.negativity, self.discordant_check, self.is_product, known_separable)

    def row(self, i: int) -> StateLabel:
        """State i's labels as Python values."""
        return StateLabel(
            entangled_cut=tuple(bool(x) for x in self.entangled_cut[i]),
            discordant_check=tuple(bool(x) for x in self.discordant_check[i]),
            is_product=bool(self.is_product[i]),
            klass=STATE_CLASSES[int(self.klass[i])],
        )


def _check_cut(cut: int) -> None:
    if cut not in CUTS:
        raise ValueError(f"cut must be one of {CUTS}")


def negativities(rhos: np.ndarray, cuts=CUTS) -> np.ndarray:
    """(N, len(cuts)): sum of |negative eigenvalues| of each partial transpose.

    One `eigvalsh` over (N, len(cuts), 8, 8). The negative eigenvalues lead
    the ascending spectrum; a running sum adds them left to right, the order
    in which `w[w < 0].sum()` adds fewer than eight values, so the result is
    bit-identical to that per-state formula.
    """
    pts = np.empty(rhos.shape[:-2] + (len(cuts),) + rhos.shape[-2:], dtype=rhos.dtype)
    for j, cut in enumerate(cuts):
        pts[..., j, :, :] = partial_transpose(rhos, [cut])
    w = np.linalg.eigvalsh(pts)
    neg = np.where(w < 0.0, w, 0.0)
    return -np.cumsum(neg, axis=-1, out=neg)[..., -1]


def _blocks(rhos: np.ndarray, cut: int, side: str) -> np.ndarray:
    """(N, n_blocks, k, k) blocks of the discord criterion for one check."""
    pair = [q for q in CUTS if q != cut]
    n = len(rhos)
    if side == "small":
        # blocks indexed by the pair basis, each block 2x2 on the measured qubit
        arranged = permute_qubits(rhos, pair + [cut])
        return arranged.reshape(n, 4, 2, 4, 2).transpose(0, 1, 3, 2, 4).reshape(n, 16, 2, 2)
    # blocks indexed by the single qubit, each block 4x4 on the measured pair
    arranged = permute_qubits(rhos, [cut] + pair)
    return arranged.reshape(n, 2, 4, 2, 4).transpose(0, 1, 3, 2, 4).reshape(n, 4, 4, 4)


def _max_abs(x: np.ndarray) -> np.ndarray:
    """max |x| over all but the leading axis."""
    return np.abs(x).reshape(len(x), -1).max(axis=1)


def zero_discord_flags(rhos: np.ndarray, checks=CHECKS) -> np.ndarray:
    """(N, len(checks)) bool: True where a (cut, measured side) check finds zero discord.

    cut: the single qubit defining the bipartition (that qubit vs the pair).
    measured_side: "small" measures the single qubit, "large" the pair.
    Every block must be normal and every pair of blocks must commute, to
    eps = max(1e-10, 1e-8 (1 + max|rho|)). Since rho is Hermitian, the
    adjoint of a block is the mirrored block, so a block commuting with it
    is normal: the pairwise commutators carry both conditions.
    """
    eps = np.maximum(1e-10, 1e-8 * (1.0 + _max_abs(rhos)))
    out = np.empty((len(rhos), len(checks)), dtype=bool)
    for j, (cut, side) in enumerate(checks):
        _check_cut(cut)
        if side not in SIDES:
            raise ValueError("measured_side must be 'small' or 'large'")
        blocks = _blocks(rhos, cut, side)
        # prod[:, i, a, j, c] = (B_i B_j)[a, c]: rows (i, a) of the stacked blocks
        # times columns (j, c) of the blocks laid side by side
        n, m, k = blocks.shape[:3]
        rows = blocks.reshape(n, m * k, k)
        cols = blocks.transpose(0, 2, 1, 3).reshape(n, k, m * k)
        prod = (rows @ cols).reshape(n, m, k, m, k)
        out[:, j] = _max_abs(prod - prod.transpose(0, 3, 2, 1, 4)) <= eps
    return out


def product_flags(rhos: np.ndarray, tol: float = PRODUCT_TOL) -> np.ndarray:
    """(N,) bool: True where rho equals the product of its single-qubit reductions."""
    r0, r1, r2 = (partial_trace(rhos, keep=[q]) for q in CUTS)
    n = len(rhos)
    # the elementwise products of np.kron, with a leading batch axis
    k01 = (r0[:, :, None, :, None] * r1[:, None, :, None, :]).reshape(n, 4, 4)
    k = (k01[:, :, None, :, None] * r2[:, None, :, None, :]).reshape(n, 8, 8)
    return _max_abs(rhos - k) <= tol


def _labels(neg, disc, prod, known_separable) -> StateLabels:
    known = np.broadcast_to(np.asarray(known_separable, dtype=bool), prod.shape)
    ent = (neg > NEGATIVITY_TOL) & ~known[:, None]
    klass = class_code(ent.any(axis=1), prod, disc.any(axis=1)).astype(np.int8)
    return StateLabels(
        negativity=neg, entangled_cut=ent, discordant_check=disc, is_product=prod, klass=klass
    )


def label_states(
    rhos: np.ndarray, known_separable=False, chunk: int = LABEL_CHUNK
) -> StateLabels:
    """Full labels of a stack (N, 8, 8): per-cut negativity and entanglement
    flags, six discord checks, product test and class, `chunk` states per pass.

    known_separable (a bool or an (N,) mask) records construction
    provenance: it forces the entanglement flags of those states to false
    (overriding partial-transpose noise), so their negativity is not
    computed (NaN); it leaves the discord checks untouched.
    """
    rhos = np.asarray(rhos)
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    n = len(rhos)
    known = np.broadcast_to(np.asarray(known_separable, dtype=bool), (n,))
    neg = np.full((n, len(CUTS)), np.nan)
    disc = np.empty((n, len(CHECKS)), dtype=bool)
    prod = np.empty(n, dtype=bool)
    for lo in range(0, n, chunk):
        part = rhos[lo : lo + chunk]
        todo = np.flatnonzero(~known[lo : lo + chunk])
        if len(todo):
            neg[lo + todo] = negativities(part[todo])
        disc[lo : lo + chunk] = ~zero_discord_flags(part)
        prod[lo : lo + chunk] = product_flags(part)
    return _labels(neg, disc, prod, known)


def negativity(rho: np.ndarray, cut: int) -> float:
    """Sum of |negative eigenvalues| of the partial transpose over `cut`."""
    _check_cut(cut)
    return float(negativities(np.asarray(rho)[None], (cut,))[0, 0])


def zero_discord_check(rho: np.ndarray, cut: int, measured_side: str) -> bool:
    """True when rho has zero discord w.r.t. measurements on one side of a cut
    (see `zero_discord_flags`)."""
    return bool(zero_discord_flags(np.asarray(rho)[None], ((cut, measured_side),))[0, 0])


def is_product(rho: np.ndarray, tol: float = PRODUCT_TOL) -> bool:
    """True when rho equals the product of its single-qubit reductions."""
    return bool(product_flags(np.asarray(rho)[None], tol)[0])


def classify(rho: np.ndarray, known_separable: bool = False) -> StateLabel:
    """Full label: per-cut entanglement, six discord checks, product test, class.

    known_separable=True records construction provenance: it forces the
    entanglement flags to false (overriding partial-transpose noise) but
    leaves the discord checks untouched.
    """
    return label_states(np.asarray(rho)[None], known_separable).row(0)
