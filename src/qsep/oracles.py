"""Ground-truth labels for 3-qubit states.

Entanglement is flagged per bipartition by negativity of the partial
transpose. Discord is flagged per (bipartition, measured side) by the
block criterion: arrange the state with the unmeasured subsystem's index
outermost, cut it into square blocks of the measured side's dimension, and
require every block to be normal and all blocks to commute pairwise.
Classes form the chain Product < NonDiscordant < Separable.

Each criterion exists once, in array form over a stack (N, 8, 8):
`negativities`, `zero_discord_flags` and `product_flags`; `label_states`
combines them into `StateLabels`, the one label form, whose properties are
the only code that turns flags into the entangled and discordant answers
and the class. The per-state functions `negativity` and `classify` are
stacks of one.

The commutators of the 2x2 blocks (the single qubit measured) are taken in
closed form: for B = [[a, b], [c, d]] and delta = a - d, [B_i, B_j] is
[[e, f], [g, -e]] with e = b_i c_j - b_j c_i, f = b_j delta_i - b_i delta_j
and g = c_i delta_j - c_j delta_i. The 4x4 blocks (the pair measured) go
through one block product.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace

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
    """The four classes; their order is the class code (0..3) of `StateLabels.klass`."""

    PRODUCT = "Product"
    NON_DISCORDANT = "NonDiscordant"
    DISCORDANT_SEPARABLE = "DiscordantSeparable"
    ENTANGLED = "Entangled"


STATE_CLASSES = tuple(StateClass)


@dataclass
class StateLabels:
    """Labels of a stack of N states, one row per state: the stored flags, and
    the only code that derives answers from them (the properties)."""

    negativity: np.ndarray  # (N, 3) per cut; NaN where not computed (known separable)
    entangled_cut: np.ndarray  # (N, 3) bool
    discordant_check: np.ndarray  # (N, 6) bool, in CHECKS order
    is_product: np.ndarray  # (N,) bool

    @property
    def entangled(self) -> np.ndarray:
        """(N,) bool: some cut is entangled."""
        return self.entangled_cut.any(axis=1)

    @property
    def discordant(self) -> np.ndarray:
        """(N,) bool: some discord check finds discord."""
        return self.discordant_check.any(axis=1)

    @property
    def klass(self) -> np.ndarray:
        """(N,) int8 class codes, indices into STATE_CLASSES: Entangled if
        entangled, else Product if a product, else DiscordantSeparable if
        discordant, else NonDiscordant."""
        ent = self.entangled
        return (3 * ent + (1 - ent) * (1 - self.is_product) * (1 + self.discordant)).astype(np.int8)

    def assuming_separable(self, known_separable: np.ndarray) -> StateLabels:
        """The same labels with the entanglement flags of the states in the
        (N,) mask `known_separable` forced to false."""
        return replace(self, entangled_cut=self.entangled_cut & ~known_separable[:, None])


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


def _small_commutator_max(blocks: np.ndarray) -> np.ndarray:
    """max |[B_i, B_j]| over i < j, per state, for (N, m, 2, 2) blocks, in
    closed form: [B_j, B_i] = -[B_i, B_j] and [B_i, B_i] = 0, and each
    commutator has three distinct entries, its (1, 1) entry being minus
    its (0, 0) entry."""
    b, c = blocks[..., 0, 1], blocks[..., 1, 0]
    delta = blocks[..., 0, 0] - blocks[..., 1, 1]
    i, j = np.triu_indices(blocks.shape[1], 1)
    worst = np.zeros(len(blocks))
    # the entries b_i c_j - b_j c_i, delta_i b_j - delta_j b_i, c_i delta_j - c_j delta_i
    for x, y in ((b, c), (delta, b), (c, delta)):
        entry = x[:, i] * y[:, j]
        entry -= x[:, j] * y[:, i]
        np.maximum(worst, _max_abs(entry), out=worst)
    return worst


def _commutator_max(blocks: np.ndarray) -> np.ndarray:
    """max |[B_i, B_j]| over all block pairs, per state, for (N, m, k, k)
    blocks, from one block product."""
    # prod[:, i, a, j, c] = (B_i B_j)[a, c]: rows (i, a) of the stacked blocks
    # times columns (j, c) of the blocks laid side by side
    n, m, k = blocks.shape[:3]
    rows = blocks.reshape(n, m * k, k)
    cols = blocks.transpose(0, 2, 1, 3).reshape(n, k, m * k)
    prod = (rows @ cols).reshape(n, m, k, m, k)
    return _max_abs(prod - prod.transpose(0, 3, 2, 1, 4))


def zero_discord_flags(rhos: np.ndarray) -> np.ndarray:
    """(N, 6) bool: True where a (cut, measured side) check, in CHECKS order,
    finds zero discord.

    cut: the single qubit defining the bipartition (that qubit vs the pair).
    measured side: "small" measures the single qubit, "large" the pair.
    Every block must be normal and every pair of blocks must commute, to
    eps = max(1e-10, 1e-8 (1 + max|rho|)). Since rho is Hermitian, the
    adjoint of a block is the mirrored block, so a block commuting with it
    is normal: the pairwise commutators carry both conditions. The 16 2x2
    blocks of the "small" side are checked in closed form over their 120
    pairs (see the module docstring), the 4 4x4 blocks of the "large" side
    by a block product.
    """
    eps = np.maximum(1e-10, 1e-8 * (1.0 + _max_abs(rhos)))
    out = np.empty((len(rhos), len(CHECKS)), dtype=bool)
    for j, (cut, side) in enumerate(CHECKS):
        blocks = _blocks(rhos, cut, side)
        worst = _small_commutator_max(blocks) if side == "small" else _commutator_max(blocks)
        out[:, j] = worst <= eps
    return out


def product_flags(rhos: np.ndarray) -> np.ndarray:
    """(N,) bool: True where rho equals the product of its single-qubit
    reductions, to PRODUCT_TOL."""
    r0, r1, r2 = (partial_trace(rhos, keep=[q]) for q in CUTS)
    n = len(rhos)
    # the elementwise products of np.kron, with a leading batch axis
    k01 = (r0[:, :, None, :, None] * r1[:, None, :, None, :]).reshape(n, 4, 4)
    k = (k01[:, :, None, :, None] * r2[:, None, :, None, :]).reshape(n, 8, 8)
    return _max_abs(rhos - k) <= PRODUCT_TOL


def label_states(rhos: np.ndarray, known_separable=False) -> StateLabels:
    """Full labels of a stack (N, 8, 8): per-cut negativity and entanglement
    flags, six discord checks, product test and class, LABEL_CHUNK states per
    pass. Each state's labels are the same whatever else is in the stack.

    known_separable (a bool or an (N,) mask) records construction
    provenance: it forces the entanglement flags of those states to false
    (overriding partial-transpose noise), so their negativity is not
    computed (NaN); it leaves the discord checks untouched.
    """
    rhos = np.asarray(rhos)
    n = len(rhos)
    known = np.broadcast_to(np.asarray(known_separable, dtype=bool), (n,))
    neg = np.full((n, len(CUTS)), np.nan)
    disc = np.empty((n, len(CHECKS)), dtype=bool)
    prod = np.empty(n, dtype=bool)
    for lo in range(0, n, LABEL_CHUNK):
        hi = lo + LABEL_CHUNK
        part = rhos[lo:hi]
        todo = np.flatnonzero(~known[lo:hi])
        if len(todo):
            neg[lo + todo] = negativities(part[todo])
        disc[lo:hi] = ~zero_discord_flags(part)
        prod[lo:hi] = product_flags(part)
    # NaN, the negativity of a known separable state, compares false
    return StateLabels(negativity=neg, entangled_cut=neg > NEGATIVITY_TOL,
                       discordant_check=disc, is_product=prod)


def negativity(rho: np.ndarray, cut: int) -> float:
    """Sum of |negative eigenvalues| of the partial transpose over `cut`."""
    if cut not in CUTS:
        raise ValueError(f"cut must be one of {CUTS}")
    return float(negativities(np.asarray(rho)[None], (cut,))[0, 0])


def classify(rho: np.ndarray, known_separable: bool = False) -> StateLabels:
    """`label_states` of the one state rho: its labels as a stack of one."""
    return label_states(np.asarray(rho)[None], known_separable)
