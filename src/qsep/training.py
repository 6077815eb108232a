"""Datasets and the training loop.

Training data is separable-only (that is the whole premise: the model never
sees a correlated state). The composition mirrors the generation recipe the
evaluation targets assume: ~35.8% pure separable, ~22.6% mixed product,
~18.9% non-product zero-discord, ~22.6% discordant separable. Test sets are
a balanced pure set and a four-class mixed set. Records are (8x8 complex
matrix, 16-bit label) pairs, stored in the QSD1 binary format.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import states
from .errors import DataFormatError, RejectionLimitError, TrainingDivergedError
from .oracles import (
    CUTS,
    ENTANGLED_FILTER_TOL,
    STATE_CLASSES,
    StateClass,
    StateLabel,
    class_code,
    classify,
    label_states,
    negativity,
)
from .separator import (
    SeparatorConfig,
    SeparatorParams,
    forward_batch,
    gradient,
    init_params,
    save_checkpoint,
    symmetrize_pair_swap,
)

# --- label bitfield ---------------------------------------------------------

BIT_PRODUCT = 1 << 0
BIT_SEPARABLE = 1 << 1
BIT_ZERO_DISCORD = 1 << 2
ENT_SHIFT = 3  # bits 3..5: entanglement per cut
DISC_SHIFT = 6  # bits 6..11: discord per (cut, measured side)
VALID_LABEL_MASK = (1 << 12) - 1

FULL_TRAIN = 530_000
FULL_VAL = 50_000
FULL_S_PURE_PER_CLASS = 15_000
FULL_S_MIXED = 65_000

# training mix per 530 records: pure separable, mixed product, zero discord,
# discordant separable; `qsep gen --kind mixed-sep` draws the mixed part
TRAIN_COUNTS = np.array([190.0, 120.0, 100.0, 120.0])
TRAIN_FRACTIONS = TRAIN_COUNTS / TRAIN_COUNTS.sum()
MIXED_SEP_FRACTIONS = TRAIN_COUNTS[1:] / TRAIN_COUNTS[1:].sum()
S_MIXED_FRACTIONS = {
    StateClass.PRODUCT: 0.13,
    StateClass.NON_DISCORDANT: 0.27,
    StateClass.DISCORDANT_SEPARABLE: 0.27,
    StateClass.ENTANGLED: 0.33,
}

SUBSETS = ("Pure", "Prod", "ZD", "Sep", "NPS")
PURITY_TOL = 1e-8
# Draws a rejection-sampling generator makes for one record before it gives
# up. Each family accepts nearly every draw (2000-3000 records per family all
# took one), so reaching the cap means a broken state source, not bad luck.
MAX_DRAWS = 1000


def pack_label(label: StateLabel) -> int:
    bits = 0
    if label.is_product:
        bits |= BIT_PRODUCT
    if label.klass is not StateClass.ENTANGLED:
        bits |= BIT_SEPARABLE
    if not any(label.discordant_check):
        bits |= BIT_ZERO_DISCORD
    for i, flag in enumerate(label.entangled_cut):
        bits |= int(flag) << (ENT_SHIFT + i)
    for i, flag in enumerate(label.discordant_check):
        bits |= int(flag) << (DISC_SHIFT + i)
    return bits


def unpack_label(bits: int) -> StateLabel:
    if bits & ~VALID_LABEL_MASK:
        raise DataFormatError(f"label bitfield {bits:#06x} has reserved bits set")
    ent = tuple(bool(bits >> (ENT_SHIFT + i) & 1) for i in range(3))
    disc = tuple(bool(bits >> (DISC_SHIFT + i) & 1) for i in range(6))
    prod = bool(bits & BIT_PRODUCT)
    klass = STATE_CLASSES[class_code(any(ent), prod, any(disc))]
    return StateLabel(entangled_cut=ent, discordant_check=disc, is_product=prod, klass=klass)


def klass_of_bits(bits: np.ndarray) -> np.ndarray:
    """Vectorized class codes, indices into STATE_CLASSES."""
    bits = np.asarray(bits)
    ent = ((bits >> ENT_SHIFT) & 0b111) != 0
    disc = ((bits >> DISC_SHIFT) & 0b111111) != 0
    prod = (bits & BIT_PRODUCT) != 0
    return np.asarray(class_code(ent, prod, disc), dtype=np.int8)


KLASS_CODES = {k: i for i, k in enumerate(STATE_CLASSES)}


@dataclass
class Dataset:
    mats: np.ndarray  # (N, 8, 8) complex128
    labels: np.ndarray  # (N,) uint16
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.labels)

    def klasses(self) -> np.ndarray:
        return klass_of_bits(self.labels)

    def purities(self) -> np.ndarray:
        return np.einsum("bij,bji->b", self.mats, self.mats).real


# --- QSD1 binary format -----------------------------------------------------

_MAGIC = b"QSD1"
_VERSION = 1
_HEADER = struct.Struct("<4sIBI")  # magic, version u32, n_qubits u8, count u32
_RECORD_DTYPE = np.dtype([("m", "<f8", (128,)), ("label", "<u2")])


def save_qsd(path: str, ds: Dataset) -> None:
    n = len(ds)
    rec = np.empty(n, dtype=_RECORD_DTYPE)
    flat = ds.mats.reshape(n, 64)
    rec["m"][:, 0::2] = flat.real
    rec["m"][:, 1::2] = flat.imag
    rec["label"] = ds.labels.astype(np.uint16)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, 3, n))
        fh.write(rec.tobytes())


def load_qsd(path: str) -> Dataset:
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
    body = raw[_HEADER.size :]
    expected = count * _RECORD_DTYPE.itemsize
    if len(body) != expected:
        off = _HEADER.size + (len(body) // _RECORD_DTYPE.itemsize) * _RECORD_DTYPE.itemsize
        raise DataFormatError(
            f"{path}: body is {len(body)} bytes, expected {expected} for {count} records"
            f" (byte offset {off})"
        )
    rec = np.frombuffer(body, dtype=_RECORD_DTYPE)
    flat = rec["m"][:, 0::2] + 1j * rec["m"][:, 1::2]
    labels = rec["label"].astype(np.uint16)
    bad = labels & ~np.uint16(VALID_LABEL_MASK)
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        off = _HEADER.size + i * _RECORD_DTYPE.itemsize + 128 * 8
        raise DataFormatError(
            f"{path}: record {i} label {labels[i]:#06x} has reserved bits (byte offset {off})"
        )
    return Dataset(mats=flat.reshape(count, 8, 8).copy(), labels=labels, meta={"path": path})


def save_qsd_csv(path: str, ds: Dataset) -> None:
    """Plain-text mirror of the binary records (128 floats + label per row)."""
    cols = [f"{p}{i}{j}" for i in range(8) for j in range(8) for p in ("re", "im")]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + ",label\n")
        flat = ds.mats.reshape(len(ds), 64)
        for row, lab in zip(flat, ds.labels):
            vals = []
            for z in row:
                vals.append(f"{z.real:.17g}")
                vals.append(f"{z.imag:.17g}")
            fh.write(",".join(vals) + f",{int(lab)}\n")


# --- per-class generators ---------------------------------------------------


def _record(rho: np.ndarray, label: StateLabel) -> tuple[np.ndarray, int]:
    return rho, pack_label(label)


def _draws_exhausted(family: str) -> RejectionLimitError:
    return RejectionLimitError(
        f"{family}: no acceptable state in {MAX_DRAWS} draws (training.MAX_DRAWS)"
    )


def gen_pure_separable(rng: np.random.Generator, toggle: int = 0):
    """Pure product state: Haar product ket or non-entangling circuit."""
    if toggle % 2 == 0:
        psi = states.random_separable_pure(rng)
    else:
        psi = states.random_circuit_state(3, depth=4, entangling=False, rng=rng)
    rho = states.ket_to_dm(psi)
    return _record(rho, classify(rho, known_separable=True))


def gen_mixed_product(rng: np.random.Generator):
    rho = states.random_mixed_product(rng)
    return _record(rho, classify(rho, known_separable=True))


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
    for _ in range(MAX_DRAWS):
        rho = states.antipodal_classical(rng, shared_basis=toggle % 3 == 2)
        label = classify(rho, known_separable=True)
        if label.klass is StateClass.NON_DISCORDANT:
            return _record(rho, label)
    raise _draws_exhausted("zero_discord")


def gen_discordant_separable(rng: np.random.Generator, toggle: int = 0):
    """Separable but discordant: Dirichlet mixtures of random product kets."""
    del toggle  # single flavor; kept for signature parity with the other gens
    for _ in range(MAX_DRAWS):
        rho = states.random_product_mixture(rng)
        label = classify(rho, known_separable=True)
        if label.klass is StateClass.DISCORDANT_SEPARABLE:
            return _record(rho, label)
    raise _draws_exhausted("discordant_separable")


def gen_pure_entangled(rng: np.random.Generator, toggle: int = 0):
    for _ in range(MAX_DRAWS):
        if toggle % 2 == 0:
            psi = states.haar_random_pure(3, rng)
        else:
            psi = states.random_circuit_state(3, depth=4, entangling=True, rng=rng)
        rho = states.ket_to_dm(psi)
        if max(negativity(rho, c) for c in CUTS) > ENTANGLED_FILTER_TOL:
            return _record(rho, classify(rho))
    raise _draws_exhausted("pure_entangled")


def _near_boundary_entangled(rng: np.random.Generator) -> np.ndarray | None:
    """Entangled ket diluted with a mixed product down to weak negativity.

    Bisects the mixing weight to the entanglement boundary, then backs off
    a random margin toward the entangled side. Returns None when the core
    ket is too weakly entangled to anchor the bisection.
    """
    core = states.ket_to_dm(states.haar_random_pure(3, rng))
    if max(negativity(core, c) for c in CUTS) < 0.05:
        return None
    filler = states.random_mixed_product(rng)

    def neg_at(lam: float) -> float:
        rho = lam * core + (1.0 - lam) * filler
        return max(negativity(rho, c) for c in CUTS)

    lo, hi = 0.0, 1.0  # lo stays on the PPT side, hi on the entangled side
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if neg_at(mid) > 1e-9:
            hi = mid
        else:
            lo = mid
    lam = min(1.0, hi + rng.uniform(0.05, 0.35))
    return lam * core + (1.0 - lam) * filler


def gen_mixed_entangled(rng: np.random.Generator, toggle: int = 0):
    """Entangled mixed state, three flavors.

    Half the draws dilute an entangled ket to just past the entanglement
    boundary; the rest mix entangled kets or trace a larger Haar state.
    Accepted only when some cut's negativity clears the filter.
    """
    for _ in range(MAX_DRAWS):
        if toggle % 4 < 2:
            rho = _near_boundary_entangled(rng)
            if rho is None:
                continue
        elif toggle % 4 == 2:
            m = int(rng.integers(2, 5))
            kets = [
                states.haar_random_pure(3, rng)
                if rng.uniform() < 0.5
                else states.random_circuit_state(3, depth=4, entangling=True, rng=rng)
                for _ in range(m)
            ]
            rho = states.mix([states.ket_to_dm(k) for k in kets], rng.dirichlet(np.ones(m)))
        else:
            rho = states.reduce_from_larger(int(rng.integers(4, 6)), rng)
        if max(negativity(rho, c) for c in CUTS) > ENTANGLED_FILTER_TOL:
            label = classify(rho)
            if label.klass is StateClass.ENTANGLED:
                return _record(rho, label)
        toggle += 4  # keep the source type while retrying
    raise _draws_exhausted("mixed_entangled")


def _largest_remainder(total: int, fractions: np.ndarray) -> np.ndarray:
    raw = np.asarray(fractions, dtype=float) * total
    counts = np.floor(raw).astype(int)
    rem = total - counts.sum()
    order = np.argsort(raw - counts)[::-1]
    counts[order[:rem]] += 1
    return counts


def _assemble(records: list[tuple[np.ndarray, int]], meta: dict) -> Dataset:
    mats = np.stack([r[0] for r in records]).astype(complex)
    labels = np.asarray([r[1] for r in records], dtype=np.uint16)
    return Dataset(mats=mats, labels=labels, meta=meta)


def build_separable_set(n: int, seed: int, kind: str = "train") -> Dataset:
    """Training/validation composition: all records separable."""
    rng = np.random.default_rng(seed)
    n_pure, n_prod, n_zd, n_disc = _largest_remainder(n, TRAIN_FRACTIONS)
    records = []
    for i in range(n_pure):
        records.append(gen_pure_separable(rng, toggle=i))
    for _ in range(n_prod):
        records.append(gen_mixed_product(rng))
    for i in range(n_zd):
        records.append(gen_zero_discord(rng, toggle=i))
    for i in range(n_disc):
        records.append(gen_discordant_separable(rng, toggle=i))
    meta = {
        "kind": kind,
        "seed": seed,
        "counts": {
            "pure_separable": int(n_pure),
            "mixed_product": int(n_prod),
            "zero_discord": int(n_zd),
            "discordant_separable": int(n_disc),
        },
    }
    return _assemble(records, meta)


def build_s_pure(n_per_class: int, seed: int) -> Dataset:
    """Balanced pure set: half separable, half entangled, each half split
    between Haar draws and random circuits."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_per_class):
        records.append(gen_pure_separable(rng, toggle=i))
    for i in range(n_per_class):
        records.append(gen_pure_entangled(rng, toggle=i))
    return _assemble(records, {"kind": "s_pure", "seed": seed, "per_class": n_per_class})


def build_s_mixed(n: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    fractions = np.array([S_MIXED_FRACTIONS[k] for k in S_MIXED_FRACTIONS])
    counts = _largest_remainder(n, fractions)
    records = []
    by_class = dict(zip(S_MIXED_FRACTIONS, counts))
    for _ in range(by_class[StateClass.PRODUCT]):
        records.append(gen_mixed_product(rng))
    for i in range(by_class[StateClass.NON_DISCORDANT]):
        records.append(gen_zero_discord(rng, toggle=i))
    for i in range(by_class[StateClass.DISCORDANT_SEPARABLE]):
        records.append(gen_discordant_separable(rng, toggle=i))
    for i in range(by_class[StateClass.ENTANGLED]):
        records.append(gen_mixed_entangled(rng, toggle=i))
    meta = {
        "kind": "s_mixed",
        "seed": seed,
        "counts": {k.value: int(v) for k, v in by_class.items()},
    }
    return _assemble(records, meta)


def build_training_sets(scale: float, seed: int) -> tuple[Dataset, Dataset]:
    train = build_separable_set(round(scale * FULL_TRAIN), seed, kind="train")
    val = build_separable_set(round(scale * FULL_VAL), seed + 1, kind="val")
    return train, val


def build_test_sets(scale: float, seed: int) -> tuple[Dataset, Dataset]:
    s_pure = build_s_pure(round(scale * FULL_S_PURE_PER_CLASS), seed + 2)
    s_mixed = build_s_mixed(round(scale * FULL_S_MIXED), seed + 3)
    return s_pure, s_mixed


def subset_mask(ds: Dataset, subset: str) -> np.ndarray:
    if subset not in SUBSETS:
        raise ValueError(f"subset must be one of {SUBSETS}")
    if subset == "Sep":
        return np.ones(len(ds), dtype=bool)
    if subset == "Pure":
        return ds.purities() >= 1.0 - PURITY_TOL
    if subset == "Prod":
        return (ds.labels & BIT_PRODUCT) != 0
    if subset == "ZD":
        return (ds.labels & BIT_ZERO_DISCORD) != 0
    return (ds.labels & BIT_PRODUCT) == 0  # NPS


def subset_filter(ds: Dataset, subset: str) -> Dataset:
    m = subset_mask(ds, subset)
    return Dataset(mats=ds.mats[m], labels=ds.labels[m], meta=dict(ds.meta, subset=subset))


def verify_labels(ds: Dataset, fraction: float = 0.01, seed: int = 0) -> None:
    """Re-derive labels for a sample; raise DataFormatError on any mismatch.

    The sample is labelled in one `label_states` pass. Records stored as
    separable are relabelled trusting that, and their negativity must also
    stay within ENTANGLED_FILTER_TOL on every cut. Errors name the first
    failing record in sample order.
    """
    n = len(ds)
    if n == 0:
        return
    rng = np.random.default_rng(seed)
    k = max(1, int(round(fraction * n)))
    sample = rng.choice(n, size=min(k, n), replace=False)
    bits = ds.labels[sample]
    separable = klass_of_bits(bits) != KLASS_CODES[StateClass.ENTANGLED]
    # nothing trusted here: every negativity is computed for the check below
    labels = label_states(ds.mats[sample])
    fresh = labels.assuming_separable(separable)
    max_neg = labels.negativity.max(axis=1)
    for j, i in enumerate(sample):
        stored = int(bits[j])
        unpack_label(stored)  # rejects reserved bits
        recomputed = pack_label(fresh.row(j))
        if recomputed != stored:
            raise DataFormatError(
                f"label mismatch at record {i}: stored {stored:#06x},"
                f" recomputed {recomputed:#06x}"
            )
        if separable[j] and max_neg[j] > ENTANGLED_FILTER_TOL:
            raise DataFormatError(
                f"record {i} is stored as separable ({stored:#06x})"
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
    init_noise: float = 0.05
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if self.subset not in SUBSETS:
            raise ValueError(f"subset must be one of {SUBSETS}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")


@dataclass
class TrainReport:
    train_losses: list[float]
    val_losses: list[float]
    val_loss_init: float
    best_epoch: int
    best_val_loss: float
    params: SeparatorParams
    config: SeparatorConfig
    train_config: TrainConfig

    def summary(self) -> dict:
        return {
            "train_losses": self.train_losses,
            "val_losses": self.val_losses,
            "val_loss_init": self.val_loss_init,
            "best_epoch": self.best_epoch,
            "best_val_loss": self.best_val_loss,
            "epochs": self.train_config.epochs,
            "seed": self.train_config.seed,
            "subset": self.train_config.subset,
        }


def mean_loss(
    params: SeparatorParams, config: SeparatorConfig, mats: np.ndarray, chunk: int = 1024
) -> float:
    total = 0.0
    for i in range(0, len(mats), chunk):
        losses, _, _ = forward_batch(mats[i : i + chunk], params, config)
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
        self.cfg = cfg

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
        a -= lr * (m / b1c) / (sqrt(v / b2c) + eps), evaluated in that
        operation order, so bit-identical to the plain expressions, in place
        and chunk by chunk so a step allocates no array."""
        c = self.cfg
        self.t += 1
        b1c = 1.0 - c.adam_beta1**self.t
        b2c = 1.0 - c.adam_beta2**self.t
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            flat = a.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
            for lo in range(0, a.size, self.CHUNK):
                ac, gc, mc, vc = (x[lo : lo + self.CHUNK] for x in flat)
                u, w = self.scratch[:, : ac.size]
                np.multiply(gc, 1.0 - c.adam_beta1, out=u)
                mc *= c.adam_beta1
                mc += u
                np.multiply(gc, 1.0 - c.adam_beta2, out=u)
                u *= gc
                vc *= c.adam_beta2
                vc += u
                np.divide(mc, b1c, out=u)
                u *= c.learning_rate
                np.divide(vc, b2c, out=w)
                np.sqrt(w, out=w)
                w += c.adam_eps
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

    The subset filter applies to both the training and validation sets so
    epoch selection stays in-regime. Deterministic for a fixed seed. Raises
    TrainingDivergedError as soon as a loss or parameter goes non-finite.
    """
    rng = np.random.default_rng(cfg.seed)
    params = init_params(sep_cfg, rng, noise=cfg.init_noise)
    train_mats = subset_filter(train_ds, cfg.subset).mats
    val_mats = subset_filter(val_ds, cfg.subset).mats
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
        train_config=cfg,
    )
    if checkpoint_path is not None:
        save_checkpoint(
            checkpoint_path,
            best_params,
            sep_cfg,
            training_meta={"epoch": best_epoch, "val_loss": best_val, "seed": cfg.seed},
        )
    return report
