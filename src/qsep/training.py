"""Datasets and the training loop.

Training data is separable-only (that is the whole premise: the model never
sees a correlated state). The composition mirrors the generation recipe the
evaluation targets assume: ~35.8% pure separable, ~22.6% mixed product,
~18.9% non-product zero-discord, ~22.6% discordant separable. Test sets are
a balanced pure set and a four-class mixed set. Each dataset kind's family
mix is one row of `PLANS`. Records are (8x8 complex matrix, 16-bit label)
pairs, stored in the QSD1 binary format.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import states
from .errors import DataFormatError, RejectionLimitError, TrainingDivergedError
from .linalg import check_density_matrix
# perfbench/layers.py wraps classify and negativity as attributes of this
# module; negativity is imported for that alone
from .oracles import (  # noqa: F401
    ENTANGLED_FILTER_TOL,
    NEGATIVITY_TOL,
    STATE_CLASSES,
    StateClass,
    StateLabels,
    classify,
    label_states,
    negativities,
    negativity,
)
from .separator import (
    DEFAULT_INIT_NOISE,
    SeparatorConfig,
    SeparatorParams,
    atomic_write,
    forward_batch,
    gradient,
    init_params,
    save_checkpoint,
    symmetrize_pair_swap,
)

# --- label bitfield ---------------------------------------------------------
# `pack_labels` and `unpack_labels` are the only code that knows this layout.
# Bits 1-2 are derived from bits 3-11, so a valid bitfield round-trips.

BIT_PRODUCT = 1 << 0
BIT_SEPARABLE = 1 << 1
BIT_ZERO_DISCORD = 1 << 2
ENT_SHIFT = 3  # bits 3..5: entanglement per cut
DISC_SHIFT = 6  # bits 6..11: discord per (cut, measured side)
VALID_LABEL_MASK = (1 << 12) - 1
_ENT_BITS = 1 << (ENT_SHIFT + np.arange(3, dtype=np.uint16))
_DISC_BITS = 1 << (DISC_SHIFT + np.arange(6, dtype=np.uint16))

# Training mix per 530 records; `mixed-sep` is its mixed part.
_TRAIN_MIX = (
    ("pure_separable", 190),
    ("mixed_product", 120),
    ("zero_discord", 100),
    ("discordant_separable", 120),
)
# Every dataset kind's ordered (family, share) mix: `build_dataset` draws the
# families in this order, each with its share of the records.
PLANS = {
    "train": _TRAIN_MIX,
    "val": _TRAIN_MIX,
    "mixed-sep": _TRAIN_MIX[1:],
    "s-pure": (("pure_separable", 1), ("pure_entangled", 1)),
    "s-mixed": (
        ("mixed_product", 13),
        ("zero_discord", 27),
        ("discordant_separable", 27),
        ("mixed_entangled", 33),
    ),
    "pure-sep": (("pure_separable", 1),),
    "pure-ent": (("pure_entangled", 1),),
    "product": (("mixed_product", 1),),
    "zd": (("zero_discord", 1),),
    "mixed-ent": (("mixed_entangled", 1),),
}

SUBSETS = ("Pure", "Prod", "ZD", "Sep", "NPS")
OPTIMIZERS = ("adam", "sgd")
VERIFY_FRACTION = 0.01  # share of records `verify_labels` relabels by default
PURITY_TOL = 1e-8
# Draws a rejection-sampling generator makes for one record before it gives
# up. Each family accepts nearly every draw (2000-3000 records per family all
# took one), so reaching the cap means a broken state source, not bad luck.
MAX_DRAWS = 1000
LOSS_CHUNK = 1024  # states per forward pass of `mean_loss`
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def pack_labels(labels: StateLabels) -> np.ndarray:
    """(N,) uint16 bitfields of a stack of labels."""
    bits = (
        labels.is_product * BIT_PRODUCT
        | ~labels.entangled * BIT_SEPARABLE
        | ~labels.discordant * BIT_ZERO_DISCORD
        | labels.entangled_cut @ _ENT_BITS
        | labels.discordant_check @ _DISC_BITS
    )
    return bits.astype(np.uint16)


def pack_label(labels: StateLabels) -> int:
    """`pack_labels` of a stack of one, as an int."""
    return int(pack_labels(labels)[0])


def unpack_labels(bits: np.ndarray) -> StateLabels:
    """The `StateLabels` of (N,) bitfields; negativity is not stored (NaN).
    Raises DataFormatError if a bitfield sets a reserved bit."""
    bits = np.asarray(bits)
    reserved = np.flatnonzero(bits > VALID_LABEL_MASK)
    if len(reserved):
        raise DataFormatError(
            f"label bitfield {int(bits[reserved[0]]):#06x} has reserved bits set"
        )
    # one row per bit, transposed back: reductions over a record's flags stay fast
    ent = ((bits & _ENT_BITS[:, None]) != 0).T
    return StateLabels(
        negativity=np.full(ent.shape, np.nan), entangled_cut=ent,
        discordant_check=((bits & _DISC_BITS[:, None]) != 0).T,
        is_product=(bits & BIT_PRODUCT) != 0,
    )


@dataclass
class Dataset:
    mats: np.ndarray  # (N, 8, 8) complex128
    labels: np.ndarray  # (N,) uint16
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.labels)

    def klasses(self) -> np.ndarray:
        return unpack_labels(self.labels).klass

    def purities(self) -> np.ndarray:
        return np.einsum("bij,bji->b", self.mats, self.mats).real


# --- QSD1 binary format -----------------------------------------------------

_MAGIC = b"QSD1"
_VERSION = 1
_HEADER = struct.Struct("<4sIBI")  # magic, version u32, n_qubits u8, count u32
_RECORD_DTYPE = np.dtype([("m", "<c16", (64,)), ("label", "<u2")])  # row-major matrix


def save_qsd(path: str, ds: Dataset) -> None:
    n = len(ds)
    rec = np.empty(n, dtype=_RECORD_DTYPE)
    rec["m"] = ds.mats.reshape(n, 64)
    rec["label"] = ds.labels.astype(np.uint16)
    with atomic_write(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, 3, n))
        fh.write(rec.tobytes())


def load_qsd(path: str) -> Dataset:
    """Read a QSD1 file. Raises DataFormatError (exit 3), naming the byte
    offset, on a bad header or body length, on a label whose bits 0-11,
    decoded and packed again, do not give it back (a reserved bit 12-15 set,
    or bits 1-2 that disagree with bits 3-11), and on a record whose matrix
    is not finite, Hermitian and of unit trace (`check_density_matrix`)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise DataFormatError(
            f"{path}: truncated header, {len(raw)} bytes < {_HEADER.size} (byte offset 0)"
        )
    magic, version, n_qubits, count = _HEADER.unpack_from(raw, 0)
    if magic != _MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r} (byte offset 0)")
    if version != _VERSION:
        raise DataFormatError(f"{path}: unsupported version {version} (byte offset 4)")
    if n_qubits != 3:
        raise DataFormatError(f"{path}: n_qubits {n_qubits} != 3 (byte offset 8)")
    body = len(raw) - _HEADER.size
    expected = count * _RECORD_DTYPE.itemsize
    if body != expected:
        off = _HEADER.size + (body // _RECORD_DTYPE.itemsize) * _RECORD_DTYPE.itemsize
        raise DataFormatError(
            f"{path}: body is {body} bytes, expected {expected} for {count} records"
            f" (byte offset {off})"
        )
    rec = np.frombuffer(raw, dtype=_RECORD_DTYPE, offset=_HEADER.size)
    labels = rec["label"].astype(np.uint16)
    bad = np.flatnonzero(pack_labels(unpack_labels(labels & VALID_LABEL_MASK)) != labels)
    if len(bad):
        i = int(bad[0])
        what = ("has reserved bits" if labels[i] > VALID_LABEL_MASK
                else "does not round-trip: its bits 1-2 disagree with bits 3-11")
        off = _HEADER.size + i * _RECORD_DTYPE.itemsize + 128 * 8
        raise DataFormatError(
            f"{path}: record {i} label {labels[i]:#06x} {what} (byte offset {off})"
        )
    mats = rec["m"].reshape(count, 8, 8).copy()  # aligned, contiguous
    fault = check_density_matrix(mats)
    if fault is not None:
        i, what = fault
        off = _HEADER.size + i * _RECORD_DTYPE.itemsize
        raise DataFormatError(f"{path}: record {i} matrix {what} (byte offset {off})")
    return Dataset(mats=mats, labels=labels, meta={"path": path})


def save_qsd_csv(path: str, ds: Dataset) -> None:
    """Plain-text mirror of the binary records (128 floats + label per row)."""
    cols = [f"{p}{i}{j}" for i in range(8) for j in range(8) for p in ("re", "im")]
    with atomic_write(path) as fh:
        fh.write(",".join(cols) + ",label\n")
        parts = ds.mats.reshape(len(ds), 64).view(np.float64)  # re, im interleaved
        for row, lab in zip(parts.tolist(), ds.labels.tolist()):
            fh.write(",".join([f"{x:.17g}" for x in row]) + f",{lab}\n")


# --- per-class generators ---------------------------------------------------
# Each takes (rng, toggle); toggle is the record's index within its family
# and picks the flavor where a family has more than one.


def _sample(family: str, klass: StateClass, draw) -> tuple[np.ndarray, int]:
    """The first state `draw()` returns that one `classify` call labels as the
    family's `klass`, with its packed label. An entangled state must also have
    a cut's negativity above ENTANGLED_FILTER_TOL (above the oracle's flag
    threshold). A draw of None counts as rejected; after MAX_DRAWS draws this
    raises RejectionLimitError."""
    entangled = klass is StateClass.ENTANGLED
    code = STATE_CLASSES.index(klass)
    for _ in range(MAX_DRAWS):
        rho = draw()
        if rho is None:
            continue
        labels = classify(rho, known_separable=not entangled)
        if labels.klass[0] == code and (
            not entangled or labels.negativity.max() > ENTANGLED_FILTER_TOL
        ):
            return rho, pack_label(labels)
    raise RejectionLimitError(
        f"{family}: no acceptable state in {MAX_DRAWS} draws (training.MAX_DRAWS)"
    )


def gen_pure_separable(rng: np.random.Generator, toggle: int = 0):
    """Pure product state: Haar product ket or non-entangling circuit."""
    return _sample("pure_separable", StateClass.PRODUCT, lambda: states.ket_to_dm(
        states.random_separable_pure(rng) if toggle % 2 == 0
        else states.random_circuit_state(rng, entangling=False)
    ))


def gen_mixed_product(rng: np.random.Generator, toggle: int = 0):
    return _sample("mixed_product", StateClass.PRODUCT, lambda: states.random_mixed_product(rng))


def gen_zero_discord(rng: np.random.Generator, toggle: int = 0):
    """Non-product zero-discord state: a two-term antipodal mixture.

    Two of three draws use independent per-qubit bases, the third a basis
    shared by all qubits; the independent flavor is harder to reconstruct
    and gets the larger share. The class is kept to this single structural
    family on purpose: reconstructing correlated classical states requires
    the encoder to factor the mixture instead of falling back to its
    marginals, and that only trains reliably when every zero-discord example
    pulls the channels in the same direction. Mixing in other classical
    constructions dilutes the signal below what a short training run can
    amplify.
    """
    return _sample("zero_discord", StateClass.NON_DISCORDANT, lambda: states.antipodal_classical(
        rng, shared_basis=toggle % 3 == 2
    ))


def gen_discordant_separable(rng: np.random.Generator, toggle: int = 0):
    """Separable but discordant: Dirichlet mixtures of random product kets."""
    return _sample("discordant_separable", StateClass.DISCORDANT_SEPARABLE,
                   lambda: states.random_product_mixture(rng))


def gen_pure_entangled(rng: np.random.Generator, toggle: int = 0):
    return _sample("pure_entangled", StateClass.ENTANGLED, lambda: states.ket_to_dm(
        states.haar_random_pure(3, rng) if toggle % 2 == 0
        else states.random_circuit_state(rng, entangling=True)
    ))


def _near_boundary_entangled(rng: np.random.Generator) -> np.ndarray | None:
    """Entangled ket diluted with a mixed product down to weak negativity.

    Bisects the mixing weight to the entanglement boundary, then backs off
    a random margin toward the entangled side. Returns None when the core
    ket is too weakly entangled to anchor the bisection.
    """
    core = states.ket_to_dm(states.haar_random_pure(3, rng))
    if negativities(core[None]).max() < 0.05:
        return None
    filler = states.random_mixed_product(rng)
    lo, hi = 0.0, 1.0  # lo stays on the PPT side, hi on the entangled side
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if negativities((mid * core + (1.0 - mid) * filler)[None]).max() > NEGATIVITY_TOL:
            hi = mid
        else:
            lo = mid
    lam = min(1.0, hi + rng.uniform(0.05, 0.35))
    return lam * core + (1.0 - lam) * filler


def gen_mixed_entangled(rng: np.random.Generator, toggle: int = 0):
    """Entangled mixed state, three flavors.

    Half the draws dilute an entangled ket to just past the entanglement
    boundary; the rest mix entangled kets or trace a larger Haar state.
    """

    def draw():
        if toggle % 4 < 2:
            return _near_boundary_entangled(rng)
        if toggle % 4 == 2:
            m = int(rng.integers(2, 5))
            kets = [
                states.haar_random_pure(3, rng)
                if rng.uniform() < 0.5
                else states.random_circuit_state(rng, entangling=True)
                for _ in range(m)
            ]
            return states.mix([states.ket_to_dm(k) for k in kets], rng.dirichlet(np.ones(m)))
        return states.reduce_from_larger(int(rng.integers(4, 6)), rng)

    return _sample("mixed_entangled", StateClass.ENTANGLED, draw)


def plan_counts(kind: str, count: int) -> dict[str, int]:
    """Records per family for `count` records of `kind`, in plan order.

    Shares are rounded by the largest-remainder rule: every family gets the
    floor of its share and the largest fractional parts take the rest.
    """
    if kind not in PLANS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {tuple(PLANS)}")
    if kind == "s-pure" and count % 2:
        raise ValueError("s-pure needs an even count (balanced halves)")
    families, shares = zip(*PLANS[kind])
    shares = np.array(shares, dtype=float)
    raw = shares / shares.sum() * count
    counts = np.floor(raw).astype(int)
    order = np.argsort(raw - counts)[::-1]
    counts[order[: count - counts.sum()]] += 1
    return {f: int(n) for f, n in zip(families, counts)}


def build_dataset(kind: str, count: int, seed: int) -> Dataset:
    """`count` records of a dataset kind from one rng seeded with `seed`.

    Families are drawn in plan order; record i of a family is
    `gen_<family>(rng, toggle=i)`, looked up when the family is drawn so a
    replaced module attribute is the one that runs.
    """
    counts = plan_counts(kind, count)
    rng = np.random.default_rng(seed)
    mats = np.empty((count, 8, 8), dtype=complex)
    labels = np.empty(count, dtype=np.uint16)
    row = 0
    for family, n in counts.items():
        gen = globals()[f"gen_{family}"]
        for i in range(n):
            mats[row], labels[row] = gen(rng, toggle=i)
            row += 1
    return Dataset(mats=mats, labels=labels, meta={"kind": kind, "seed": seed, "counts": counts})


def build_separable_set(n: int, seed: int, kind: str = "train") -> Dataset:
    """Training/validation composition: all records separable."""
    return build_dataset(kind, n, seed)


def build_s_pure(n_per_class: int, seed: int) -> Dataset:
    """Balanced pure set: half separable, half entangled, each half split
    between Haar draws and random circuits."""
    return build_dataset("s-pure", 2 * n_per_class, seed)


def build_s_mixed(n: int, seed: int) -> Dataset:
    return build_dataset("s-mixed", n, seed)


def subset_mask(ds: Dataset, subset: str) -> np.ndarray:
    if subset not in SUBSETS:
        raise ValueError(f"subset must be one of {SUBSETS}")
    if subset == "Sep":
        return np.ones(len(ds), dtype=bool)
    if subset == "Pure":
        return ds.purities() >= 1.0 - PURITY_TOL
    labels = unpack_labels(ds.labels)
    if subset == "Prod":
        return labels.is_product
    if subset == "ZD":
        return ~labels.discordant
    return ~labels.is_product  # NPS


def verify_labels(ds: Dataset, fraction: float = VERIFY_FRACTION, seed: int = 0) -> None:
    """Re-derive labels for a sample; raise DataFormatError on any mismatch.

    The sample is labelled in one `label_states` pass. Records stored as
    separable are relabelled trusting that, and their negativity must also
    stay within ENTANGLED_FILTER_TOL on every cut. Errors name the first
    failing record in sample order.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n = len(ds)
    if n == 0:
        return
    rng = np.random.default_rng(seed)
    sample = rng.choice(n, size=max(1, round(fraction * n)), replace=False)
    stored = ds.labels[sample]
    separable = ~unpack_labels(stored).entangled
    # nothing trusted here: every negativity is computed for the check below
    labels = label_states(ds.mats[sample])
    recomputed = pack_labels(labels.assuming_separable(separable))
    max_neg = labels.negativity.max(axis=1)
    mismatch = recomputed != stored
    bad = np.flatnonzero(mismatch | separable & (max_neg > ENTANGLED_FILTER_TOL))
    if len(bad) == 0:
        return
    j = bad[0]
    if mismatch[j]:
        raise DataFormatError(
            f"label mismatch at record {sample[j]}: stored {stored[j]:#06x},"
            f" recomputed {recomputed[j]:#06x}"
        )
    raise DataFormatError(
        f"record {sample[j]} is stored as separable ({stored[j]:#06x})"
        f" but has negativity {max_neg[j]:.3g}"
    )


# --- training loop ----------------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 1e-3
    batch_size: int = 256
    optimizer: str = "adam"
    subset: str = "Sep"
    seed: int = 0
    init_noise: float = DEFAULT_INIT_NOISE

    def __post_init__(self) -> None:
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if self.subset not in SUBSETS:
            raise ValueError(f"subset must be one of {SUBSETS}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.init_noise) and self.init_noise >= 0.0):
            raise ValueError(f"init_noise must be >= 0 and finite, got {self.init_noise}")


@dataclass
class TrainReport:
    train_losses: list[float]
    val_losses: list[float]
    val_loss_init: float
    best_epoch: int
    best_val_loss: float
    params: SeparatorParams
    config: SeparatorConfig


def mean_loss(params: SeparatorParams, config: SeparatorConfig, mats: np.ndarray) -> float:
    """Mean model loss over `mats`, LOSS_CHUNK states per forward pass."""
    total = 0.0
    for i in range(0, len(mats), LOSS_CHUNK):
        losses, _, _ = forward_batch(mats[i : i + LOSS_CHUNK], params, config)
        total += float(losses.sum())
    return total / len(mats)


class _Adam:
    # Elements per pass through the scratch pair: six 128 KiB operand slices
    # stay in cache across the step's dozen elementwise passes, where whole
    # n_k=48 FC arrays (4.7 MB each) would stream through memory each time.
    CHUNK = 1 << 14

    def __init__(self, arrays: list[np.ndarray], cfg: TrainConfig):
        if not all(a.flags.c_contiguous for a in arrays):
            raise ValueError("Adam updates parameters through flat views; they must be C-contiguous")
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.scratch = np.empty((2, self.CHUNK))
        self.t = 0
        self.lr = cfg.learning_rate

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
        a -= lr * (m / b1c) / (sqrt(v / b2c) + eps), with b1, b2 and eps the
        ADAM_* constants, evaluated in that operation order, so bit-identical
        to the plain expressions, in place and chunk by chunk so a step
        allocates no array."""
        self.t += 1
        b1c = 1.0 - ADAM_BETA1**self.t
        b2c = 1.0 - ADAM_BETA2**self.t
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            flat = a.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
            for lo in range(0, a.size, self.CHUNK):
                ac, gc, mc, vc = (x[lo : lo + self.CHUNK] for x in flat)
                u, w = self.scratch[:, : ac.size]
                np.multiply(gc, 1.0 - ADAM_BETA1, out=u)
                mc *= ADAM_BETA1
                mc += u
                np.multiply(gc, 1.0 - ADAM_BETA2, out=u)
                u *= gc
                vc *= ADAM_BETA2
                vc += u
                np.divide(mc, b1c, out=u)
                u *= self.lr
                np.divide(vc, b2c, out=w)
                np.sqrt(w, out=w)
                w += ADAM_EPS
                u /= w
                ac -= u


class _Sgd:
    def __init__(self, arrays: list[np.ndarray], cfg: TrainConfig):
        self.cfg = cfg

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray]) -> None:
        for a, g in zip(arrays, grads):
            a -= self.cfg.learning_rate * g


def train(
    cfg: TrainConfig,
    sep_cfg: SeparatorConfig,
    train_ds: Dataset,
    val_ds: Dataset,
    checkpoint_path: str | None = None,
) -> TrainReport:
    """Unsupervised training with best-validation checkpointing.

    The subset applies to both the training and validation sets so
    epoch selection stays in-regime. Deterministic for a fixed seed. Raises
    TrainingDivergedError as soon as a loss or parameter goes non-finite.
    """
    rng = np.random.default_rng(cfg.seed)
    params = init_params(sep_cfg, rng, noise=cfg.init_noise)
    train_mats = train_ds.mats[subset_mask(train_ds, cfg.subset)]
    val_mats = val_ds.mats[subset_mask(val_ds, cfg.subset)]
    if len(train_mats) == 0 or len(val_mats) == 0:
        raise ValueError(f"subset {cfg.subset!r} leaves an empty train or val set")
    opt_cls = _Adam if cfg.optimizer == "adam" else _Sgd
    opt = opt_cls(params.arrays(), cfg)
    val_loss_init = mean_loss(params, sep_cfg, val_mats)
    train_losses: list[float] = []
    val_losses: list[float] = []
    best_epoch, best_val = 0, np.inf
    best_params = params.copy()
    n = len(train_mats)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        seen, acc = 0, 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            grads, batch_loss = gradient(params, sep_cfg, train_mats[idx])
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(
                    f"non-finite batch loss at epoch {epoch}, step {lo // cfg.batch_size}"
                )
            if sep_cfg.tie_weights:
                grads.kernels = symmetrize_pair_swap(grads.kernels)
            opt.step(params.arrays(), grads.arrays())
            del grads  # free before the next gradient or the validation pass
            acc += batch_loss * len(idx)
            seen += len(idx)
        for a in params.arrays():
            if not np.all(np.isfinite(a)):
                raise TrainingDivergedError(f"non-finite parameters after epoch {epoch}")
        train_losses.append(acc / seen)
        val_loss = mean_loss(params, sep_cfg, val_mats)
        val_losses.append(val_loss)
        if val_loss < best_val:
            best_val, best_epoch = val_loss, epoch
            best_params = params.copy()
    report = TrainReport(
        train_losses=train_losses,
        val_losses=val_losses,
        val_loss_init=val_loss_init,
        best_epoch=best_epoch,
        best_val_loss=best_val,
        params=best_params,
        config=sep_cfg,
    )
    if checkpoint_path is not None:
        save_checkpoint(
            checkpoint_path,
            best_params,
            sep_cfg,
            training_meta={"epoch": best_epoch, "val_loss": best_val, "seed": cfg.seed},
        )
    return report
