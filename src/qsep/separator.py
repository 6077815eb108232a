"""The separator: an autoencoder over 3-qubit density matrices whose decoder
is a normalized sum of single-qubit Kronecker products, so its output is
separable by construction. The reconstruction error (mean absolute entry
difference) is the anomaly score: states the encoder cannot route into
product factors reconstruct poorly.

Encoder: per qubit, n_k 4x4-kernel contractions gather that qubit's 2x2
factor out of the 8x8 matrix (the identity kernel reproduces the partial
trace exactly), one kernel per channel for the real part and one for the
imaginary part, optionally followed by a per-qubit stack of square affine
layers. Decoder: sum over channels of factor_A (x) factor_B (x) factor_C,
normalized by its real trace.

The API is batched only: every stage takes a leading batch axis, and one
state is a batch of one (`forward_batch(rho[None], params, config)`). The
decoder and the L1 loss are shared by the model and the partial-trace
baseline, which is the same decoder fed the three single-qubit reductions as
one channel.

Matmul form: one index table (`_BLOCK_COLUMNS`) names the 16 columns of
x = [Re rho | Im rho] that each path, part and output entry contracts with the
kernels, so the encoder and its kernel gradient are small products over those
blocks of x. Activations are feature-major; tied paths are folded into the
batch, one (w, 3 B) matrix through the shared FC stack, and untied paths are
three stacked products. A forward-only pass needs no encoder output for a
gradient, so it folds the encoder into the first FC layer: one product M x^T,
M (3 w, 128) built through the same table. The two forms only round
differently: losses, outputs and factors agree within 1e-12 absolute on the
initial and trained weights the tests use, and the gap grows as the decoder's
trace shrinks (init noise 0.3, traces down to 0.045: 1.7e-8 absolute, 1.5e-11
of the loss). The decoder forms its products with the batch axis last and sums
the channels in channel order.

All gradients are derived by hand; finite differences are the test oracle,
not part of this module.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "SeparatorConfig",
    "SeparatorParams",
    "init_params",
    "symmetrize_pair_swap",
    "decode",
    "loss",
    "forward_batch",
    "gradient",
    "atomic_write",
    "save_checkpoint",
    "load_checkpoint",
    "export_kernels_csv",
    "checkpoint_sha",
]

QUBIT_PATHS = ("A", "B", "C")

# Row-index maps r(i, k) into the 8x8 input, one per qubit path. Contracting
# X[r(i,k), r(j,q)] against a 4x4 kernel K[k,q] yields a 2x2 output; K = I4
# gives exactly the partial trace onto that qubit.
_INDEX_MAPS = np.array(
    [
        [[4 * i + k for k in range(4)] for i in range(2)],  # A: stride 4
        [[2 * i + 4 * (k // 2) + k % 2 for k in range(4)] for i in range(2)],  # B
        [[i + 2 * k for k in range(4)] for i in range(2)],  # C: dilation 2
    ]
)

# The kernel's 4-valued index packs the two complementary qubits as two bits.
# Swapping those qubits permutes kernel indices 1 and 2; kernels invariant
# under that swap (together with weight tying) make the whole network exactly
# equivariant under all qubit permutations.
_PAIR_SWAP = np.array([0, 2, 1, 3])

TRACE_GUARD = 1e-9
DEFAULT_INIT_NOISE = 0.05
ACTIVATIONS = ("relu", "tanh")
FC_BIAS_SHIFT = 2.0


@dataclass
class SeparatorConfig:
    n_k: int = 24
    use_fc: bool = True
    fc_depth: int = 4
    tie_weights: bool = True
    activation: str = "relu"

    def __post_init__(self) -> None:
        # a checkpoint's config is JSON: 2.0 is not a channel count, "no" not a switch
        types = {"n_k": int, "fc_depth": int, "use_fc": bool, "tie_weights": bool}
        for name, kind in types.items():
            value = getattr(self, name)
            if type(value) is not kind:
                raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
        if self.n_k < 1:
            raise ValueError("n_k must be >= 1")
        if self.use_fc and self.fc_depth < 1:
            raise ValueError("fc_depth must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")

    @property
    def n_paths(self) -> int:
        return 1 if self.tie_weights else 3

    @property
    def fc_width(self) -> int:
        return 8 * self.n_k


@dataclass
class SeparatorParams:
    """kernels: (paths, n_k, 2, 4, 4) with axis 2 = (re-kernel, im-kernel);
    fc_w: (paths, depth, width, width) and fc_b: (paths, depth, width), or None."""

    kernels: np.ndarray
    fc_w: np.ndarray | None = None
    fc_b: np.ndarray | None = None

    def arrays(self) -> list[np.ndarray]:
        out = [self.kernels]
        if self.fc_w is not None:
            out += [self.fc_w, self.fc_b]
        return out

    def shapes(self) -> dict:
        """name -> shape of each array present."""
        named = (("kernels", self.kernels), ("fc_w", self.fc_w), ("fc_b", self.fc_b))
        return {name: a.shape for name, a in named if a is not None}

    def copy(self) -> "SeparatorParams":
        return SeparatorParams(
            kernels=self.kernels.copy(),
            fc_w=None if self.fc_w is None else self.fc_w.copy(),
            fc_b=None if self.fc_b is None else self.fc_b.copy(),
        )


def symmetrize_pair_swap(kernels: np.ndarray) -> np.ndarray:
    """Average kernels with their complementary-pair-swapped conjugates."""
    swapped = kernels[..., _PAIR_SWAP, :][..., :, _PAIR_SWAP]
    return 0.5 * (kernels + swapped)


def init_params(
    config: SeparatorConfig,
    rng: np.random.Generator,
    noise: float = DEFAULT_INIT_NOISE,
) -> SeparatorParams:
    """Identity(-ish) start: kernels = I4 + noise, FC stack = identity + noise.

    In tied mode the kernel noise is symmetrized under the complementary-pair
    swap so qubit-permutation equivariance is exact from the start. In a ReLU
    stack the hidden biases carry a +FC_BIAS_SHIFT offset, exactly compensated
    downstream, so negative factor entries pass unclipped and the model begins
    at the partial-trace solution; tanh biases start at 0, where tanh is
    closest to the identity, so a tanh model begins near that solution.
    """
    p = config.n_paths
    kernels = np.eye(4)[None, None, None] + rng.uniform(
        -noise, noise, size=(p, config.n_k, 2, 4, 4)
    )
    if config.tie_weights:
        kernels = symmetrize_pair_swap(kernels)
    if not config.use_fc:
        return SeparatorParams(kernels=kernels)
    h = config.fc_width
    d = config.fc_depth
    fc_w = np.eye(h)[None, None] + rng.uniform(-noise, noise, size=(p, d, h, h))
    fc_b = np.zeros((p, d, h))
    if d >= 2 and config.activation == "relu":
        shift = FC_BIAS_SHIFT * np.ones(h)
        for t in range(p):
            fc_b[t, 0] = shift
            for l in range(1, d - 1):
                fc_b[t, l] = shift - fc_w[t, l] @ shift
            fc_b[t, d - 1] = -fc_w[t, d - 1] @ shift
    return SeparatorParams(kernels=kernels, fc_w=fc_w, fc_b=fc_b)


def _param_shapes(config: SeparatorConfig) -> dict:
    """The arrays config implies, name -> shape, in checkpoint payload order."""
    shapes = {"kernels": (config.n_paths, config.n_k, 2, 4, 4)}
    if config.use_fc:
        w = config.fc_width
        shapes["fc_w"] = (config.n_paths, config.fc_depth, w, w)
        shapes["fc_b"] = (config.n_paths, config.fc_depth, w)
    return shapes


def _check_shapes(shapes: dict, config: SeparatorConfig) -> None:
    """Raise ValueError unless `shapes` (name -> shape of each array present)
    are exactly those config implies."""
    want = _param_shapes(config)
    for name in ("kernels", "fc_w", "fc_b"):
        if (name in shapes) != (name in want):
            state = "present" if name in shapes else "missing"
            raise ValueError(f"{name} is {state} but use_fc is {config.use_fc}")
        if name in shapes and shapes[name] != want[name]:
            raise ValueError(f"{name} shape {shapes[name]} != {want[name]}")


# The encoder's one index table. Entry (i, j) of channel c's part p (0 re,
# 1 im) on path t sums K_t[c, p, k, q] x[col] over the kernel entries (k, q),
# x = [Re rho | Im rho] (each row-major flattened), col = 64 p + 8 g[4i+k] +
# g[4j+q] with g the path's row-index map; the table holds col at
# [t, p, 2 i + j, 4 k + q]. Per path it is a permutation of 0..127, ascending
# in (k, q) within each block, so a block's 16 terms add in x's column order.
_BLOCK_COLUMNS = np.array([
    [[[64 * p + 8 * g[4 * i + k] + g[4 * j + q] for k in range(4) for q in range(4)]
      for i in range(2) for j in range(2)] for p in range(2)]
    for g in _INDEX_MAPS.reshape(3, 8)
])
_BLOCK_COLUMNS.flags.writeable = False


def _paths_view(a: np.ndarray, n_k: int, n_paths: int) -> np.ndarray:
    """(path, part, entry, channel, state) view of a (3 w, B) feature array.

    Untied paths keep their rows apart, path-major, so the FC stack is three
    stacked (w, B) products. Tied paths interleave path with feature, making
    the array one (w, 3 B) matrix whose columns are the (path, state) pairs, so
    the shared FC stack is one product per layer.
    """
    b = a.size // (24 * n_k)
    if n_paths == 3:
        return a.reshape(3, n_k, 2, 4, b).transpose(0, 2, 3, 1, 4)
    return a.reshape(n_k, 2, 4, 3, b).transpose(3, 1, 2, 0, 4)


def _encode(x: np.ndarray, kernels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h0, the encoder output (3 w, B) in the FC stack's row order, and x's
    blocks, xb[t, p, e] = x[:, _BLOCK_COLUMNS[t, p, e]] (B, 16). The rows of
    h0 for path t, part p and entry e are K_t[:, p] (n_k, 16) @ xb[t, p, e]^T,
    one product each."""
    n_paths, n_k = kernels.shape[:2]
    # each (B, 16) block keeps unit stride along (k, q): with a transposed
    # block, BLAS rounds the kernel gradient's products differently
    xb = np.take(x, _BLOCK_COLUMNS, axis=1).transpose(1, 2, 3, 0, 4)
    h = np.empty((24 * n_k, x.shape[0]))
    k = kernels.reshape(n_paths, n_k, 2, 1, 16).transpose(0, 2, 3, 1, 4)
    np.matmul(k, xb.swapaxes(3, 4), out=_paths_view(h, n_k, n_paths))
    return h, xb


def _folded_encoder(params: SeparatorParams) -> np.ndarray:
    """M (3 w, 128), rows in the FC stack's order and columns in x's, so that
    M x^T is the first FC layer's product W0 h0 without forming h0. Block
    (p, i, j) of path t is W0_t[:, rows 8 c + 4 p + 2 i + j] @ K_t[:, p],
    (w, n_k) @ (n_k, 16), placed in x's columns `_BLOCK_COLUMNS[t, p, 2 i + j]`;
    tied paths share the eight products."""
    kernels = params.kernels
    n_paths, n_k = kernels.shape[:2]
    w = 8 * n_k
    # (path, p, (i, j), row, channel) and (path, p, 1, channel, (k, q)); the
    # copy gives BLAS unit-stride blocks
    w0 = params.fc_w[:, 0].reshape(n_paths, w, n_k, 2, 4).transpose(0, 3, 4, 1, 2)
    w0 = np.ascontiguousarray(w0)
    k = kernels.reshape(n_paths, n_k, 2, 1, 16).transpose(0, 2, 3, 1, 4)
    blocks = np.matmul(w0, k).transpose(0, 3, 1, 2, 4)  # (path, row, p, (i, j), (k, q))
    m = np.empty((3 * w, 128))
    # path t's rows: 3 row + t for tied paths, t w + row for untied ones
    rows = m.reshape(w, 3, 128).transpose(1, 0, 2) if n_paths == 1 else m.reshape(3, w, 128)
    for t in range(3):
        rows[t][:, _BLOCK_COLUMNS[t]] = blocks[t % n_paths]
    return m


def _activate(z: np.ndarray, kind: str) -> None:
    """Apply the hidden-layer activation to z in place."""
    if kind == "relu":
        np.maximum(z, 0.0, out=z)
    else:
        np.tanh(z, out=z)


def _act_prime(h: np.ndarray, kind: str) -> np.ndarray:
    """The activation's derivative, from its output h = act(z)."""
    # subgradient 0 at the ReLU kink: h > 0 exactly where z > 0
    return h > 0.0 if kind == "relu" else 1.0 - h * h


def _decode(factors: np.ndarray):
    """Unnormalized Kronecker sum with its normalization.

    Returns (rho_hat, s, norm, guard, ft): s is the (B, 8, 8) sum over
    channels of factor_A (x) factor_B (x) factor_C, norm its real trace, or
    the channel count where that trace is within TRACE_GUARD of zero (guard);
    ft holds the factors state-last, (n_k, 3, 2, 2, B).

    The products are formed state-last, so every elementwise step runs along
    the batch, and s is accumulated one channel at a time, in channel order:
    it equals the per-channel sum of `linalg.kron_all(factors[b, c])` bit for
    bit. Each channel's factor_A (x) factor_B goes into one reused buffer, so
    the pass holds no per-channel stack beyond ft.
    """
    f = np.asarray(factors)
    b, n_k = f.shape[:2]
    ft = np.ascontiguousarray(f.transpose(1, 2, 3, 4, 0))
    ab = np.empty((2, 2, 2, 2, b), dtype=complex)  # (i, k, j, l, state)
    s = np.zeros((4, 4, 2, 2, b), dtype=complex)  # (ik, jl, m, n, state)
    term = np.empty_like(s)
    for c in range(n_k):
        np.multiply(ft[c, 0, :, None, :, None], ft[c, 1, None, :, None, :], out=ab)
        np.multiply(ab.reshape(4, 4, 1, 1, b), ft[c, 2, None, None], out=term)
        s += term
    del ab, term  # at most two (B, 8, 8) arrays are alive from here on
    s = s.transpose(4, 0, 2, 1, 3).reshape(b, 8, 8)
    tr = np.einsum("bii->b", s).real
    guard = np.abs(tr) <= TRACE_GUARD
    norm = np.where(guard, float(n_k), tr)
    return s / norm[:, None, None], s, norm, guard, ft


def decode(factors: np.ndarray) -> np.ndarray:
    """Batched decoder: (B, n_k, 3, 2, 2) complex factors -> (B, 8, 8).

    Each output is separable by form: a normalized sum of products whatever
    the factors are.
    """
    return _decode(factors)[0]


def loss(rhos: np.ndarray, rho_hats: np.ndarray) -> np.ndarray:
    """Mean absolute entrywise reconstruction error per state, (B,)."""
    return np.abs(rho_hats - rhos).sum(axis=(1, 2)) / 64.0


def forward_batch(
    rhos: np.ndarray,
    params: SeparatorParams,
    config: SeparatorConfig,
    want_cache: bool = False,
):
    """Batched forward pass.

    Returns (losses, rho_hat, factors) and, when want_cache, the intermediate
    tensors needed by `gradient`. Raises ValueError when the params do not
    have the shapes the config implies.

    The encoder is `_encode`, or, without want_cache and with FC layers, its
    fold into the first layer (`_folded_encoder`), which changes rounding
    only: losses, rho_hat and factors agree with the want_cache pass that
    `gradient` runs to 1e-12 absolute on the weights the tests use, and less
    closely as the decoder's trace shrinks. Activations are feature-major,
    (paths, w, 3 B / paths): tied paths are one (w, 3 B) batch through the
    shared FC stack, untied paths three stacked products (`_paths_view`). Without
    want_cache only the current layer's activation is kept, and it is freed
    before the decoder, which forms each channel's factor_A (x) factor_B in
    one reused buffer (`_decode`), so no (n_k, 4, 4, B) stack is made.
    """
    _check_shapes(params.shapes(), config)
    rhos = np.asarray(rhos)
    b, n_k, p = rhos.shape[0], config.n_k, config.n_paths
    x = np.concatenate([rhos.real.reshape(b, 64), rhos.imag.reshape(b, 64)], axis=1)
    # forward only, nothing needs h0: fold the encoder into the first layer
    folded = config.use_fc and not want_cache
    if folded:
        h = _folded_encoder(params) @ x.T
    else:
        h, xb = _encode(x, params.kernels)
    hs = []
    if config.use_fc:
        h = h.reshape(p, config.fc_width, -1)
        for l in range(config.fc_depth):
            if want_cache:
                hs.append(h)
            if l > 0 or not folded:
                h = np.matmul(params.fc_w[:, l], h)
            h += params.fc_b[:, l, :, None]
            if l < config.fc_depth - 1:
                _activate(h, config.activation)
    out = _paths_view(h, n_k, p)
    ft = np.empty((n_k, 3, 4, b), dtype=complex)
    ft.real, ft.imag = out[:, 0].transpose(2, 0, 1, 3), out[:, 1].transpose(2, 0, 1, 3)
    del h, out  # without a cache, free the last activation before decoding
    factors = ft.reshape(n_k, 3, 2, 2, b).transpose(4, 0, 1, 2, 3)
    rho_hat, s, norm, guard, ft = _decode(factors)
    losses = loss(rhos, rho_hat)
    if not want_cache:
        return losses, rho_hat, factors
    cache = {
        "rhos": rhos,
        "xb": xb,
        "hs": hs,
        "ft": ft,
        "s": s,
        "guard": guard,
        "norm": norm,
        "rho_hat": rho_hat,
    }
    return losses, rho_hat, factors, cache


def gradient(
    params: SeparatorParams, config: SeparatorConfig, batch: np.ndarray
) -> tuple[SeparatorParams, float]:
    """Hand-derived gradients of the mean batch loss w.r.t. every weight.

    Non-differentiable points (|.| at zero, ReLU at zero) use subgradient 0.
    Returns (grads shaped like params, mean loss).
    """
    losses, _, _, cache = forward_batch(batch, params, config, want_cache=True)
    b, n_k, p = len(batch), config.n_k, config.n_paths
    s, norm, guard = cache["s"], cache["norm"], cache["guard"]
    diff = cache["rho_hat"] - cache["rhos"]
    absd = np.abs(diff)
    wadj = np.where(absd > 0.0, diff / np.where(absd == 0.0, 1.0, absd), 0.0)
    wadj = wadj / (64.0 * b)
    inner = np.einsum("bij,bij->b", wadj.conj(), s).real
    vc = wadj / norm[:, None, None]
    corr = np.where(guard, 0.0, inner / (norm * norm))
    idx = np.arange(8)
    vc[:, idx, idx] -= corr[:, None]
    # decoder adjoint, state-last: v[ik, jl, m, n, b] = vc[b, (i k m), (j l n)]
    v = np.ascontiguousarray(vc.reshape(b, 4, 2, 4, 2).transpose(1, 3, 2, 4, 0))
    fj = cache["ft"].conj()
    t = np.einsum("qwmnb,cmnb->cqwb", v, fj[:, 2]).reshape(n_k, 2, 2, 2, 2, b)
    gfac = np.empty((3, n_k, 2, 2, b), dtype=complex)
    np.einsum("cikjlb,cklb->cijb", t, fj[:, 1], out=gfac[0])
    np.einsum("cikjlb,cijb->cklb", t, fj[:, 0], out=gfac[1])
    # conj(A) (x) conj(B) is conj(A (x) B) bit for bit; only here is it whole
    abj = (fj[:, 0, :, None, :, None] * fj[:, 1, None, :, None, :]).reshape(n_k, 4, 4, b)
    np.einsum("cqwb,qwmnb->cmnb", abj, v, out=gfac[2])
    gh = np.empty((3 * config.fc_width, b))
    gv = _paths_view(gh, n_k, p)
    gfac = gfac.reshape(3, n_k, 4, b).transpose(0, 2, 1, 3)
    gv[:, 0], gv[:, 1] = gfac.real, gfac.imag
    fc_w = fc_b = None
    if config.use_fc:
        fc_w, fc_b = np.empty_like(params.fc_w), np.empty_like(params.fc_b)
        gh = gh.reshape(p, config.fc_width, -1)
        hs = cache["hs"]
        for l in range(config.fc_depth - 1, -1, -1):
            if l < config.fc_depth - 1:
                gh *= _act_prime(hs[l + 1], config.activation)
            np.matmul(gh, hs[l].transpose(0, 2, 1), out=fc_w[:, l])
            gh.sum(axis=2, out=fc_b[:, l])
            gh = np.matmul(params.fc_w[:, l].transpose(0, 2, 1), gh)
    # kernel gradient: per (path, part, entry) (n_k, B) @ (B, 16), summed
    # over the four entries, then over the tied paths
    ge = np.matmul(_paths_view(gh, n_k, p), cache["xb"]).sum(axis=2)
    ge = ge.reshape(p, 3 // p, 2, n_k, 16).sum(axis=1)
    kernels = ge.transpose(0, 2, 1, 3).reshape(p, n_k, 2, 4, 4)
    return SeparatorParams(kernels=kernels, fc_w=fc_w, fc_b=fc_b), float(losses.mean())


def baseline_losses(rhos: np.ndarray) -> np.ndarray:
    """Losses of the product of the three single-qubit reductions: the
    decoder with one channel whose factors are the partial traces."""
    rhos = np.asarray(rhos)
    t = rhos.reshape(-1, 2, 2, 2, 2, 2, 2)
    parts = [
        np.einsum("bikmjkm->bij", t),
        np.einsum("bkilkjl->bij", t),
        np.einsum("bkliklj->bij", t),
    ]
    return loss(rhos, decode(np.stack(parts, axis=1)[:, None]))


# --- persistence ------------------------------------------------------------


CHECKPOINT_VERSION = 3


def _read_arrays(fh, config: SeparatorConfig) -> dict:
    """The arrays config implies, in payload order, read from the
    little-endian float64 bytes left in the open file `fh` straight into
    writable native float64 arrays. Raises ValueError, before any array is
    allocated, unless those bytes are exactly the arrays' bytes."""
    shapes = _param_shapes(config)
    # math.prod: a header can claim shapes whose np.prod overflows int64
    want = 8 * sum(math.prod(shape) for shape in shapes.values())
    have = os.fstat(fh.fileno()).st_size - fh.tell()
    if have != want:
        raise ValueError(f"payload is {have} bytes, the config's arrays need {want}")
    arrays = {}
    for name, shape in shapes.items():
        a = np.empty(shape, dtype="<f8")
        n = fh.readinto(a)
        if n != a.nbytes:
            raise ValueError(f"payload is {a.nbytes - n} bytes short in {name}")
        arrays[name] = a.astype(np.float64, copy=False)
    return arrays


@contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Open `<path>.tmp` for writing and rename it over `path` once the block
    succeeds, so `path` never holds a partial file; on any failure the temp
    file is removed and `path` is left as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_checkpoint(
    path: str,
    params: SeparatorParams,
    config: SeparatorConfig,
    training_meta: dict | None = None,
) -> None:
    """Write a version-3 checkpoint through `atomic_write`: one line of JSON
    (config, training_meta and each array's shape, in payload order), then
    the arrays' little-endian float64 bytes, written from memory."""
    arrays = [np.ascontiguousarray(a, dtype="<f8") for a in params.arrays()]
    shapes = [{"shape": list(a.shape)} for a in arrays]
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "kernels": shapes[0],
        "fc": None if len(shapes) == 1 else {"weights": shapes[1], "biases": shapes[2]},
        "training_meta": training_meta or {},
    }
    with atomic_write(path, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        for a in arrays:
            fh.write(a)


def load_checkpoint(path: str) -> tuple[SeparatorParams, SeparatorConfig, dict]:
    """Read a version-3 checkpoint: its first line is the JSON header, and the
    arrays' bytes follow it, read by `_read_arrays`.

    Raises DataFormatError (exit 3) unless the header is a JSON object with
    format_version 3, the config is valid, the header's shapes are those the
    config implies, the bytes after the header are exactly those shapes' 8
    bytes per weight (checked against the file's size before any array is
    allocated) and every weight is finite.
    """
    from .errors import DataFormatError

    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError as exc:
            raise DataFormatError(f"checkpoint {path} is not valid JSON: {exc}") from exc
        if not isinstance(header, dict):
            raise DataFormatError(f"checkpoint {path} is not a JSON object")
        version = header.get("format_version")
        # true == 1 and 3.0 == 3 in Python, but neither is a version number
        if type(version) is not int or version != CHECKPOINT_VERSION:
            raise DataFormatError(f"checkpoint {path}: unsupported format_version {version!r}")
        try:
            config = SeparatorConfig(**header["config"])
            fc = header["fc"]
            entries = {"kernels": header["kernels"]}
            if fc is not None:
                entries.update(fc_w=fc["weights"], fc_b=fc["biases"])
            _check_shapes({name: tuple(e["shape"]) for name, e in entries.items()}, config)
            arrays = _read_arrays(fh, config)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"checkpoint {path} is malformed: {exc}") from exc
    params = SeparatorParams(**arrays)
    if not all(np.isfinite(a).all() for a in params.arrays()):
        raise DataFormatError(f"checkpoint {path}: non-finite weights")
    return params, config, header.get("training_meta", {})


def export_kernels_csv(path: str, params: SeparatorParams) -> None:
    """One 4x4 block per (path, channel, part), one kernel row per CSV line."""
    lines = ["path,channel,part,k0,k1,k2,k3"]
    p, n_k = params.kernels.shape[:2]
    names = QUBIT_PATHS[:1] if p == 1 else QUBIT_PATHS
    for t in range(p):
        for c in range(n_k):
            for part, pname in enumerate(("re", "im")):
                for row in params.kernels[t, c, part]:
                    vals = ",".join(f"{x:.17g}" for x in row)
                    lines.append(f"{names[t]},{c},{pname},{vals}")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def checkpoint_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:12]
