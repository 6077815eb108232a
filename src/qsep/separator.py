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

All gradients are derived by hand; finite differences are the test oracle,
not part of this module.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

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
_GATHER = [m.reshape(8) for m in _INDEX_MAPS]

# The kernel's 4-valued index packs the two complementary qubits as two bits.
# Swapping those qubits permutes kernel indices 1 and 2; kernels invariant
# under that swap (together with weight tying) make the whole network exactly
# equivariant under all qubit permutations.
_PAIR_SWAP = np.array([0, 2, 1, 3])

TRACE_GUARD = 1e-9
DEFAULT_INIT_NOISE = 0.05
FC_BIAS_SHIFT = 2.0


@dataclass
class SeparatorConfig:
    n_k: int = 24
    use_fc: bool = True
    fc_depth: int = 4
    tie_weights: bool = True
    activation: str = "relu"

    def __post_init__(self) -> None:
        if self.n_k < 1:
            raise ValueError("n_k must be >= 1")
        if self.use_fc and self.fc_depth < 1:
            raise ValueError("fc_depth must be >= 1")
        if self.activation not in ("relu", "tanh"):
            raise ValueError("activation must be 'relu' or 'tanh'")

    @property
    def n_paths(self) -> int:
        return 1 if self.tie_weights else 3

    @property
    def fc_width(self) -> int:
        return 8 * self.n_k

    def to_dict(self) -> dict:
        return {
            "n_k": self.n_k,
            "use_fc": self.use_fc,
            "fc_depth": self.fc_depth,
            "tie_weights": self.tie_weights,
            "activation": self.activation,
        }


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

    def copy(self) -> "SeparatorParams":
        return SeparatorParams(
            kernels=self.kernels.copy(),
            fc_w=None if self.fc_w is None else self.fc_w.copy(),
            fc_b=None if self.fc_b is None else self.fc_b.copy(),
        )

    def zeros_like(self) -> "SeparatorParams":
        return SeparatorParams(
            kernels=np.zeros_like(self.kernels),
            fc_w=None if self.fc_w is None else np.zeros_like(self.fc_w),
            fc_b=None if self.fc_b is None else np.zeros_like(self.fc_b),
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
    swap so qubit-permutation equivariance is exact from the start. Hidden FC
    biases carry a +FC_BIAS_SHIFT offset, exactly compensated downstream, so
    the ReLU stack acts as the identity on factor entries (which would
    otherwise be clipped when negative) and the whole model begins at the
    partial-trace solution.
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
    if d >= 2:
        shift = FC_BIAS_SHIFT * np.ones(h)
        for t in range(p):
            fc_b[t, 0] = shift
            for l in range(1, d - 1):
                fc_b[t, l] = shift - fc_w[t, l] @ shift
            fc_b[t, d - 1] = -fc_w[t, d - 1] @ shift
    return SeparatorParams(kernels=kernels, fc_w=fc_w, fc_b=fc_b)


def _check_shapes(params: SeparatorParams, config: SeparatorConfig) -> None:
    """Raise ValueError unless params carry exactly the arrays config implies."""
    shapes = {"kernels": (config.n_paths, config.n_k, 2, 4, 4)}
    if config.use_fc:
        w = config.fc_width
        shapes["fc_w"] = (config.n_paths, config.fc_depth, w, w)
        shapes["fc_b"] = (config.n_paths, config.fc_depth, w)
    for name in ("kernels", "fc_w", "fc_b"):
        a, want = getattr(params, name), shapes.get(name)
        if (a is None) != (want is None):
            state = "missing" if a is None else "present"
            raise ValueError(f"{name} is {state} but use_fc is {config.use_fc}")
        if a is not None and a.shape != want:
            raise ValueError(f"{name} shape {a.shape} != {want}")


def _path_index(config: SeparatorConfig, t: int) -> int:
    return 0 if config.tie_weights else t


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def _act_prime(z: np.ndarray, kind: str) -> np.ndarray:
    # subgradient 0 at the ReLU kink
    if kind == "relu":
        return (z > 0.0).astype(float)
    th = np.tanh(z)
    return 1.0 - th * th


def _decode(factors: np.ndarray):
    """Unnormalized Kronecker sum with its normalization.

    Returns (rho_hat, s, norm, guard): s is the (B, 8, 8) sum over channels
    of factor_A (x) factor_B (x) factor_C, norm its real trace, or the channel
    count where that trace is within TRACE_GUARD of zero (guard).
    """
    f = np.asarray(factors)
    b, n_k = f.shape[:2]
    s = np.einsum(
        "bcij,bckl,bcmn->bikmjln", f[:, :, 0], f[:, :, 1], f[:, :, 2]
    ).reshape(b, 8, 8)
    tr = np.einsum("bii->b", s).real
    guard = np.abs(tr) <= TRACE_GUARD
    norm = np.where(guard, float(n_k), tr)
    return s / norm[:, None, None], s, norm, guard


def decode(factors: np.ndarray) -> np.ndarray:
    """Batched decoder: (B, n_k, 3, 2, 2) complex factors -> (B, 8, 8).

    Each output is separable by form: a normalized sum of products whatever
    the factors are.
    """
    return _decode(factors)[0]


def loss(rhos: np.ndarray, rho_hats: np.ndarray) -> np.ndarray:
    """Mean absolute entrywise reconstruction error per state, (B,)."""
    return np.abs(rho_hats - rhos).sum(axis=(1, 2)) / 64.0


def _fc_io(conv_re: np.ndarray, conv_im: np.ndarray) -> np.ndarray:
    # (B, n_k, 2, 2) x2 -> (B, 8 n_k), per channel [re(4), im(4)]
    b, n_k = conv_re.shape[:2]
    return np.concatenate(
        [conv_re.reshape(b, n_k, 4), conv_im.reshape(b, n_k, 4)], axis=2
    ).reshape(b, 8 * n_k)


def _fc_split(vec: np.ndarray, n_k: int) -> tuple[np.ndarray, np.ndarray]:
    b = vec.shape[0]
    v = vec.reshape(b, n_k, 8)
    return v[..., :4].reshape(b, n_k, 2, 2), v[..., 4:].reshape(b, n_k, 2, 2)


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
    """
    _check_shapes(params, config)
    rhos = np.asarray(rhos)
    if rhos.ndim == 2:
        rhos = rhos[None]
    b = rhos.shape[0]
    xre, xim = np.ascontiguousarray(rhos.real), np.ascontiguousarray(rhos.imag)
    gathers, convs, fc_states, factors = [], [], [], []
    for t in range(3):
        g = _GATHER[t]
        tre = xre[:, g[:, None], g[None, :]].reshape(b, 2, 4, 2, 4)
        tim = xim[:, g[:, None], g[None, :]].reshape(b, 2, 4, 2, 4)
        k = params.kernels[_path_index(config, t)]
        conv_re = np.einsum("ckq,bikjq->bcij", k[:, 0], tre)
        conv_im = np.einsum("ckq,bikjq->bcij", k[:, 1], tim)
        gathers.append((tre, tim))
        convs.append((conv_re, conv_im))
        if config.use_fc:
            tp = _path_index(config, t)
            h = _fc_io(conv_re, conv_im)
            hs, zs = [h], []
            for l in range(config.fc_depth):
                z = hs[-1] @ params.fc_w[tp, l].T + params.fc_b[tp, l]
                zs.append(z)
                hs.append(
                    _act(z, config.activation) if l < config.fc_depth - 1 else z
                )
            fc_states.append((hs, zs))
            fre, fim = _fc_split(hs[-1], config.n_k)
        else:
            fc_states.append(None)
            fre, fim = conv_re, conv_im
        factors.append(fre + 1j * fim)
    stacked = np.stack(factors, axis=2)
    rho_hat, s, norm, guard = _decode(stacked)
    losses = loss(rhos, rho_hat)
    if not want_cache:
        return losses, rho_hat, stacked
    cache = {
        "rhos": rhos,
        "gathers": gathers,
        "convs": convs,
        "fc_states": fc_states,
        "factors": factors,
        "s": s,
        "guard": guard,
        "norm": norm,
        "rho_hat": rho_hat,
    }
    return losses, rho_hat, stacked, cache


def gradient(
    params: SeparatorParams, config: SeparatorConfig, batch: np.ndarray
) -> tuple[SeparatorParams, float]:
    """Hand-derived gradients of the mean batch loss w.r.t. every weight.

    Non-differentiable points (|.| at zero, ReLU at zero) use subgradient 0.
    Returns (grads shaped like params, mean loss).
    """
    losses, _, _, cache = forward_batch(batch, params, config, want_cache=True)
    b = cache["rhos"].shape[0]
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
    v7 = vc.reshape(b, 2, 2, 2, 2, 2, 2)
    fa, fb, fc = cache["factors"]
    gfac = [
        np.einsum("bikmjln,bckl,bcmn->bcij", v7, fb.conj(), fc.conj()),
        np.einsum("bikmjln,bcij,bcmn->bckl", v7, fa.conj(), fc.conj()),
        np.einsum("bikmjln,bcij,bckl->bcmn", v7, fa.conj(), fb.conj()),
    ]
    grads = params.zeros_like()
    for t in range(3):
        tp = _path_index(config, t)
        gre, gim = gfac[t].real, gfac[t].imag
        if config.use_fc:
            hs, zs = cache["fc_states"][t]
            gh = _fc_io(gre, gim)
            for l in range(config.fc_depth - 1, -1, -1):
                gz = (
                    gh
                    if l == config.fc_depth - 1
                    else gh * _act_prime(zs[l], config.activation)
                )
                grads.fc_w[tp, l] += gz.T @ hs[l]
                grads.fc_b[tp, l] += gz.sum(axis=0)
                gh = gz @ params.fc_w[tp, l]
            g_conv_re, g_conv_im = _fc_split(gh, config.n_k)
        else:
            g_conv_re, g_conv_im = gre, gim
        tre, tim = cache["gathers"][t]
        grads.kernels[tp, :, 0] += np.einsum("bcij,bikjq->ckq", g_conv_re, tre)
        grads.kernels[tp, :, 1] += np.einsum("bcij,bikjq->ckq", g_conv_im, tim)
    return grads, float(losses.mean())


def baseline_losses(rhos: np.ndarray) -> np.ndarray:
    """Losses of the product of the three single-qubit reductions: the
    decoder with one channel whose factors are the partial traces."""
    rhos = np.asarray(rhos)
    if rhos.ndim == 2:
        rhos = rhos[None]
    t = rhos.reshape(-1, 2, 2, 2, 2, 2, 2)
    parts = [
        np.einsum("bikmjkm->bij", t),
        np.einsum("bkilkjl->bij", t),
        np.einsum("bkliklj->bij", t),
    ]
    return loss(rhos, decode(np.stack(parts, axis=1)[:, None]))


# --- persistence ------------------------------------------------------------


def save_checkpoint(
    path: str,
    params: SeparatorParams,
    config: SeparatorConfig,
    training_meta: dict | None = None,
) -> None:
    payload = {
        "format_version": 1,
        "config": config.to_dict(),
        "kernels": params.kernels.tolist(),
        "fc": None
        if params.fc_w is None
        else {"weights": params.fc_w.tolist(), "biases": params.fc_b.tolist()},
        "training_meta": training_meta or {},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path: str) -> tuple[SeparatorParams, SeparatorConfig, dict]:
    from .errors import DataFormatError

    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if payload.get("format_version") != 1:
        raise DataFormatError(
            f"checkpoint {path}: unsupported format_version {payload.get('format_version')!r}"
        )
    try:
        config = SeparatorConfig(**payload["config"])
        kernels = np.asarray(payload["kernels"], dtype=float)
        fc = payload["fc"]
        if fc is None:
            params = SeparatorParams(kernels=kernels)
        else:
            params = SeparatorParams(
                kernels=kernels,
                fc_w=np.asarray(fc["weights"], dtype=float),
                fc_b=np.asarray(fc["biases"], dtype=float),
            )
        _check_shapes(params, config)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"checkpoint {path} is malformed: {exc}") from exc
    if not all(np.isfinite(a).all() for a in params.arrays()):
        raise DataFormatError(f"checkpoint {path}: non-finite weights")
    return params, config, payload.get("training_meta", {})


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
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def checkpoint_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:12]
