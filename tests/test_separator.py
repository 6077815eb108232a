import base64
import hashlib
import json
import os
import tracemalloc
from dataclasses import asdict
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from qsep.errors import DataFormatError
from qsep.linalg import kron_all, partial_trace, permute_qubits
from qsep.separator import (
    SeparatorConfig,
    SeparatorParams,
    baseline_losses,
    decode,
    forward_batch,
    gradient,
    init_params,
    load_checkpoint,
    loss,
    save_checkpoint,
    symmetrize_pair_swap,
)
from qsep import separator
from qsep.states import haar_random_pure, ket_to_dm, random_mixed_product
from qsep.training import TrainConfig, _Adam, build_dataset
from checkpoints import (OLD_CHECKPOINTS, OLD_TAMPERS, V1_LEAF_TAMPERS, V3_TAMPERS,
                         encode_array, old_checkpoint, split_v3, tampered_old, tampered_v3,
                         v2_payload)
from test_gradient import CONFIGS, make_batch


def ghz_dm():
    k = np.zeros(8, dtype=complex)
    k[0] = k[7] = 2**-0.5
    return np.outer(k, k.conj())


def ket000_dm():
    k = np.zeros(8, dtype=complex)
    k[0] = 1.0
    return np.outer(k, k.conj())


def random_dm(rng):
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = g @ g.conj().T
    return m / np.trace(m)


def random_qubit_dm(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = g @ g.conj().T
    return m / np.trace(m)


def conv_factors(rhos, kernel):
    """Encoder factors (B, 1, 3, 2, 2) of the one-channel no-FC model that
    uses `kernel` for both the re and the im part."""
    params = SeparatorParams(kernels=np.stack([kernel, kernel])[None, None])
    return forward_batch(rhos, params, SeparatorConfig(n_k=1, use_fc=False))[2]


def reference_baseline(rho):
    """Product of the single-qubit reductions, trace-normalized, and its loss."""
    hat = kron_all([partial_trace(rho, keep=[q]) for q in range(3)])
    hat = hat / np.trace(hat).real
    return hat, float(np.abs(hat - rho).sum() / 64.0)


# --- reference: the model as per-path einsums, as written before the matmul form

REF_GATHER = [m.reshape(8) for m in separator._INDEX_MAPS]


def ref_encoder_matrix(kernels):
    """The encoder as one dense (w, 128) matrix per path, (3, w, 128): row
    8 c + 4 p + 2 i + j of path t is the reference's conv entry (i, j) of
    channel c's part p, a kernel entry per column of [Re rho | Im rho]."""
    n_paths, n_k = kernels.shape[:2]
    e = np.zeros((3, 8 * n_k, 128))
    for t in range(3):
        g = REF_GATHER[t]
        for c, p, i, j, k, q in np.ndindex(n_k, 2, 2, 2, 4, 4):
            col = 64 * p + 8 * g[4 * i + k] + g[4 * j + q]
            e[t, 8 * c + 4 * p + 2 * i + j, col] = kernels[t % n_paths, c, p, k, q]
    return e


def ref_fc_io(conv_re, conv_im):
    # (B, n_k, 2, 2) x2 -> (B, 8 n_k), per channel [re(4), im(4)]
    b, n_k = conv_re.shape[:2]
    return np.concatenate(
        [conv_re.reshape(b, n_k, 4), conv_im.reshape(b, n_k, 4)], axis=2
    ).reshape(b, 8 * n_k)


def ref_fc_split(vec, n_k):
    v = vec.reshape(vec.shape[0], n_k, 8)
    return v[..., :4].reshape(-1, n_k, 2, 2), v[..., 4:].reshape(-1, n_k, 2, 2)


def ref_act(z, kind):
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def ref_act_prime(z, kind):
    if kind == "relu":
        return (z > 0.0).astype(float)
    th = np.tanh(z)
    return 1.0 - th * th


def ref_decode(f):
    n_k = f.shape[1]
    s = np.einsum(
        "bcij,bckl,bcmn->bikmjln", f[:, :, 0], f[:, :, 1], f[:, :, 2]
    ).reshape(-1, 8, 8)
    tr = np.einsum("bii->b", s).real
    guard = np.abs(tr) <= separator.TRACE_GUARD
    norm = np.where(guard, float(n_k), tr)
    return s / norm[:, None, None], s, norm, guard


def ref_forward(rhos, params, config):
    """(losses, rho_hat, factors, cache) of the per-path einsum model."""
    b = rhos.shape[0]
    xre, xim = np.ascontiguousarray(rhos.real), np.ascontiguousarray(rhos.imag)
    gathers, fc_states, factors = [], [], []
    for t in range(3):
        g = REF_GATHER[t]
        tre = xre[:, g[:, None], g[None, :]].reshape(b, 2, 4, 2, 4)
        tim = xim[:, g[:, None], g[None, :]].reshape(b, 2, 4, 2, 4)
        tp = 0 if config.tie_weights else t
        k = params.kernels[tp]
        conv_re = np.einsum("ckq,bikjq->bcij", k[:, 0], tre)
        conv_im = np.einsum("ckq,bikjq->bcij", k[:, 1], tim)
        gathers.append((tre, tim))
        if config.use_fc:
            hs, zs = [ref_fc_io(conv_re, conv_im)], []
            for l in range(config.fc_depth):
                z = hs[-1] @ params.fc_w[tp, l].T + params.fc_b[tp, l]
                zs.append(z)
                hs.append(ref_act(z, config.activation) if l < config.fc_depth - 1 else z)
            fc_states.append((hs, zs))
            fre, fim = ref_fc_split(hs[-1], config.n_k)
        else:
            fc_states.append(None)
            fre, fim = conv_re, conv_im
        factors.append(fre + 1j * fim)
    stacked = np.stack(factors, axis=2)
    rho_hat, s, norm, guard = ref_decode(stacked)
    cache = {"gathers": gathers, "fc_states": fc_states, "factors": factors,
             "s": s, "norm": norm, "guard": guard}
    return loss(rhos, rho_hat), rho_hat, stacked, cache


def ref_gradient(params, config, batch):
    """(grads, mean loss) of the per-path einsum model."""
    losses, rho_hat, _, cache = ref_forward(batch, params, config)
    b = batch.shape[0]
    s, norm, guard = cache["s"], cache["norm"], cache["guard"]
    diff = rho_hat - batch
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
    grads = [np.zeros_like(a) for a in params.arrays()]
    for t in range(3):
        tp = 0 if config.tie_weights else t
        gre, gim = gfac[t].real, gfac[t].imag
        if config.use_fc:
            hs, zs = cache["fc_states"][t]
            gh = ref_fc_io(gre, gim)
            for l in range(config.fc_depth - 1, -1, -1):
                gz = gh if l == config.fc_depth - 1 else gh * ref_act_prime(zs[l], config.activation)
                grads[1][tp, l] += gz.T @ hs[l]
                grads[2][tp, l] += gz.sum(axis=0)
                gh = gz @ params.fc_w[tp, l]
            gre, gim = ref_fc_split(gh, config.n_k)
        tre, tim = cache["gathers"][t]
        grads[0][tp, :, 0] += np.einsum("bcij,bikjq->ckq", gre, tre)
        grads[0][tp, :, 1] += np.einsum("bcij,bikjq->ckq", gim, tim)
    return grads, float(losses.mean())


class TestConfig:
    def test_defaults(self):
        cfg = SeparatorConfig()
        assert cfg.n_k == 24
        assert cfg.use_fc and cfg.tie_weights
        assert cfg.fc_depth == 4
        assert cfg.activation == "relu"
        assert cfg.n_paths == 1
        assert cfg.fc_width == 192

    def test_untied_paths(self):
        assert SeparatorConfig(tie_weights=False).n_paths == 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            SeparatorConfig(n_k=0)
        with pytest.raises(ValueError):
            SeparatorConfig(fc_depth=0)
        with pytest.raises(ValueError):
            SeparatorConfig(activation="sigmoid")
        # the types a JSON checkpoint config could get wrong
        for setting, value in [
            ("n_k", 2.0), ("n_k", True), ("n_k", "2"), ("fc_depth", 2.0), ("fc_depth", False),
            ("use_fc", "no"), ("use_fc", 1), ("tie_weights", 0), ("tie_weights", None),
        ]:
            with pytest.raises(ValueError, match=setting):
                SeparatorConfig(**{setting: value})


class TestExtract:
    def test_identity_kernel_is_partial_trace(self):
        rng = np.random.default_rng(0)
        rhos = np.stack([random_dm(rng) for _ in range(4)])
        factors = conv_factors(rhos, np.eye(4))
        for b, rho in enumerate(rhos):
            for q in range(3):
                red = partial_trace(rho, keep=[q])
                assert np.abs(factors[b, 0, q] - red).max() <= 1e-12

    def test_product_state_factor(self):
        rng = np.random.default_rng(1)
        parts = [random_qubit_dm(rng) for _ in range(3)]
        factors = conv_factors(kron_all(parts)[None], np.eye(4))
        for q in range(3):
            assert np.abs(factors[0, 0, q] - parts[q]).max() <= 1e-12

    def test_ghz_qubit_c(self):
        got = conv_factors(ghz_dm()[None], np.eye(4))[0, 0, 2]
        assert np.abs(got.real - np.diag([0.5, 0.5])).max() <= 1e-12
        assert np.abs(got.imag).max() <= 1e-12

    def test_zero_kernel(self):
        rng = np.random.default_rng(2)
        got = conv_factors(random_dm(rng)[None], np.zeros((4, 4)))
        assert np.array_equal(got, np.zeros((1, 1, 3, 2, 2)))


class TestFcForward:
    def test_identity_weights_nonneg_input(self):
        # with relu hidden layers, identity weights and zero bias return the
        # input whenever it is non-negative: a real state with non-negative
        # entries and non-negative kernels give non-negative FC inputs
        cfg = SeparatorConfig(n_k=2)
        w = np.broadcast_to(np.eye(cfg.fc_width), (1, cfg.fc_depth, cfg.fc_width, cfg.fc_width))
        rng = np.random.default_rng(4)
        kernels = rng.uniform(0.0, 1.0, size=(1, 2, 2, 4, 4))
        params = SeparatorParams(
            kernels=kernels,
            fc_w=np.array(w, dtype=float),
            fc_b=np.zeros((1, cfg.fc_depth, cfg.fc_width)),
        )
        v = rng.uniform(0.0, 1.0, size=(3, 8))
        rho = (v.T @ v).astype(complex)
        rho /= np.trace(rho)
        with_fc = forward_batch(rho[None], params, cfg)[2]
        no_fc = forward_batch(
            rho[None], SeparatorParams(kernels=kernels), SeparatorConfig(n_k=2, use_fc=False)
        )[2]
        assert np.abs(with_fc - no_fc).max() <= 1e-15

    def test_zero_input_zero_bias(self):
        cfg = SeparatorConfig(n_k=2)
        rng = np.random.default_rng(5)
        params = SeparatorParams(
            kernels=np.zeros((1, 2, 2, 4, 4)),
            fc_w=rng.normal(size=(1, cfg.fc_depth, cfg.fc_width, cfg.fc_width)),
            fc_b=np.zeros((1, cfg.fc_depth, cfg.fc_width)),
        )
        _, _, factors = forward_batch(random_dm(rng)[None], params, cfg)
        assert np.abs(factors).max() == 0.0

    def test_per_qubit_independence(self):
        # in the untied model, qubit A's factors never depend on the B or C
        # path weights
        cfg = SeparatorConfig(n_k=3, tie_weights=False)
        rng = np.random.default_rng(6)
        params = init_params(cfg, rng, noise=0.05)
        rhos = np.stack([random_dm(rng) for _ in range(3)])
        before = forward_batch(rhos, params, cfg)[2]
        params.kernels[1:] += rng.normal(size=params.kernels[1:].shape)
        params.fc_w[1] += rng.normal(size=params.fc_w[1].shape)
        params.fc_b[2] += 1.0
        after = forward_batch(rhos, params, cfg)[2]
        assert np.array_equal(before[:, :, 0], after[:, :, 0])
        assert not np.array_equal(before[:, :, 1], after[:, :, 1])


class TestDecode:
    def test_single_channel_product(self):
        rng = np.random.default_rng(8)
        batch = [[random_qubit_dm(rng) for _ in range(3)] for _ in range(4)]
        got = decode(np.array(batch)[:, None])
        for b, parts in enumerate(batch):
            assert np.abs(got[b] - kron_all(parts)).max() <= 1e-12
            assert abs(np.trace(got[b]) - 1.0) <= 1e-12

    def test_scaling_invariance(self):
        rng = np.random.default_rng(9)
        f = rng.normal(size=(2, 3, 3, 2, 2)) + 1j * rng.normal(size=(2, 3, 3, 2, 2))
        scaled = f.copy()
        scaled[:, 1, 0] *= 2.0
        scaled[:, 1, 1] *= 3.0
        scaled[:, 1, 2] *= 1.0 / 6.0
        assert np.abs(decode(scaled) - decode(f)).max() <= 1e-12

    def test_duplicate_channel_absorbed(self):
        rng = np.random.default_rng(10)
        f1 = rng.normal(size=(2, 1, 3, 2, 2)) + 1j * rng.normal(size=(2, 1, 3, 2, 2))
        f2 = np.concatenate([f1, f1], axis=1)
        assert np.abs(decode(f2) - decode(f1)).max() <= 1e-12

    def test_separable_by_form(self):
        # brute-force check: each output equals its normalized kron sum
        rng = np.random.default_rng(11)
        f = rng.normal(size=(3, 5, 3, 2, 2)) + 1j * rng.normal(size=(3, 5, 3, 2, 2))
        out = decode(f)
        for b in range(3):
            s = sum(kron_all(list(f[b, c])) for c in range(5))
            assert np.abs(out[b] - s / np.trace(s).real).max() <= 1e-12

    def test_trace_guard(self):
        # traceless factors: normalization falls back to channel count, per
        # row; the second row has a regular trace
        rng = np.random.default_rng(30)
        f = np.zeros((2, 2, 3, 2, 2), dtype=complex)
        f[0, :, :, 0, 1] = 1.0
        f[1] = [[random_qubit_dm(rng) for _ in range(3)] for _ in range(2)]
        out = decode(f)
        sums = [sum(kron_all(list(f[b, c])) for c in range(2)) for b in range(2)]
        assert np.abs(out[0] - sums[0] / 2.0).max() <= 1e-15
        assert np.abs(out[1] - sums[1] / np.trace(sums[1]).real).max() <= 1e-12


class TestLoss:
    def test_zero(self):
        rng = np.random.default_rng(12)
        rhos = np.stack([random_dm(rng) for _ in range(3)])
        assert np.array_equal(loss(rhos, rhos), np.zeros(3))

    def test_frozen_example(self):
        rhos = np.stack([ket000_dm(), np.eye(8, dtype=complex) / 8])
        got = loss(rhos, np.broadcast_to(np.eye(8, dtype=complex) / 8, (2, 8, 8)))
        assert got.shape == (2,)
        assert got[0] == pytest.approx(0.02734375, abs=1e-15)
        assert got[1] == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        a = np.stack([random_dm(rng) for _ in range(3)])
        b = np.stack([random_dm(rng) for _ in range(3)])
        assert np.array_equal(loss(a, b), loss(b, a))


class TestForward:
    def test_identity_init_products(self):
        cfg = SeparatorConfig()
        rng = np.random.default_rng(14)
        params = init_params(cfg, rng, noise=0.0)
        rhos = np.stack([random_mixed_product(rng) for _ in range(5)])
        losses, _, _ = forward_batch(rhos, params, cfg)
        assert losses.max() <= 1e-10

    def test_identity_kernels_match_baseline_everywhere(self):
        # no-FC identity-kernel model IS the partial-trace baseline
        cfg = SeparatorConfig(n_k=1, use_fc=False)
        params = SeparatorParams(kernels=np.stack([np.eye(4), np.eye(4)])[None, None])
        rng = np.random.default_rng(15)
        rhos = np.stack([random_dm(rng) for _ in range(10)])
        losses, hats, _ = forward_batch(rhos, params, cfg)
        assert np.abs(losses - baseline_losses(rhos)).max() <= 1e-12
        for b, rho in enumerate(rhos):
            ref_hat, ref_loss = reference_baseline(rho)
            assert abs(losses[b] - ref_loss) <= 1e-12
            assert np.abs(hats[b] - ref_hat).max() <= 1e-12

    def test_reconstruction_invariant(self):
        cfg = SeparatorConfig()
        rng = np.random.default_rng(16)
        params = init_params(cfg, rng, noise=0.05)
        rhos = np.stack([random_dm(rng) for _ in range(3)])
        losses, hats, factors = forward_batch(rhos, params, cfg)
        assert factors.shape == (3, cfg.n_k, 3, 2, 2)
        assert np.array_equal(hats, decode(factors))
        assert np.array_equal(losses, loss(rhos, hats))

    def test_equivariance_tied(self):
        cfg = SeparatorConfig()
        rng = np.random.default_rng(17)
        params = init_params(cfg, rng, noise=0.05)
        rho = random_dm(rng)
        perms = list(permutations(range(3)))
        batch = np.stack([permute_qubits(rho, list(p)) for p in perms])
        _, hats, _ = forward_batch(batch, params, cfg)
        base = hats[perms.index((0, 1, 2))]
        for perm, got in zip(perms, hats):
            want = permute_qubits(base, list(perm))
            assert np.abs(got - want).max() <= 1e-10

    def test_batch_matches_single(self):
        # a batch row equals the same state run as a batch of one
        cfg = SeparatorConfig()
        rng = np.random.default_rng(18)
        params = init_params(cfg, rng, noise=0.05)
        batch = np.stack([random_dm(rng) for _ in range(4)])
        losses, hats, factors = forward_batch(batch, params, cfg)
        for i in range(4):
            l1, h1, f1 = forward_batch(batch[i][None], params, cfg)
            assert abs(losses[i] - l1[0]) <= 1e-14
            assert np.abs(hats[i] - h1[0]).max() <= 1e-13
            assert np.abs(factors[i] - f1[0]).max() <= 1e-13

    def test_shape_mismatch_rejected(self):
        cfg = SeparatorConfig()
        rng = np.random.default_rng(19)
        rhos = random_dm(rng)[None]
        params = init_params(SeparatorConfig(n_k=8), rng, noise=0.0)
        with pytest.raises(ValueError):
            forward_batch(rhos, params, cfg)
        no_fc = SeparatorConfig(use_fc=False)
        with pytest.raises(ValueError):
            forward_batch(rhos, init_params(SeparatorConfig(n_k=8, use_fc=False), rng), no_fc)
        with pytest.raises(ValueError):
            forward_batch(rhos, init_params(cfg, rng), no_fc)
        params = init_params(cfg, rng)
        params.fc_b = params.fc_b[:, :-1]
        with pytest.raises(ValueError):
            forward_batch(rhos, params, cfg)


class TestSymmetrize:
    def test_idempotent(self):
        rng = np.random.default_rng(20)
        k = rng.normal(size=(1, 4, 2, 4, 4))
        s = symmetrize_pair_swap(k)
        assert np.abs(symmetrize_pair_swap(s) - s).max() <= 1e-15

    def test_identity_fixed(self):
        k = np.broadcast_to(np.eye(4), (1, 2, 2, 4, 4)).copy()
        assert np.abs(symmetrize_pair_swap(k) - k).max() == 0.0


class TestBaseline:
    def test_product_exact(self):
        rng = np.random.default_rng(21)
        rhos = np.stack([random_mixed_product(rng) for _ in range(3)])
        assert baseline_losses(rhos).max() <= 1e-12

    def test_frozen_classical_mixture(self):
        rho = 0.5 * ket000_dm()
        k7 = np.zeros(8, complex)
        k7[7] = 1.0
        rho = rho + 0.5 * np.outer(k7, k7.conj())
        ref_hat, ref_loss = reference_baseline(rho)
        assert np.abs(ref_hat - np.eye(8) / 8).max() <= 1e-12
        assert ref_loss == pytest.approx(0.0234375, abs=1e-15)
        assert baseline_losses(rho[None])[0] == pytest.approx(0.0234375, abs=1e-15)

    def test_ghz_same_as_classical_mixture(self):
        # GHZ has the classical mixture's reductions, so the same
        # reconstruction I/8; only the coherences add to its loss
        ref_hat, ref_loss = reference_baseline(ghz_dm())
        assert np.abs(ref_hat - np.eye(8) / 8).max() <= 1e-12
        assert ref_loss == pytest.approx(0.0390625, abs=1e-15)
        assert baseline_losses(ghz_dm()[None])[0] == pytest.approx(0.0390625, abs=1e-15)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(22)
        batch = np.stack([random_dm(rng) for _ in range(6)])
        losses = baseline_losses(batch)
        for i in range(6):
            assert abs(losses[i] - reference_baseline(batch[i])[1]) <= 1e-13


class TestInit:
    def test_identity_at_zero_noise_with_fc(self):
        # the FC stack must compose to the identity map at zero noise even
        # with relu hidden layers (bias shift trick)
        cfg = SeparatorConfig()
        rng = np.random.default_rng(23)
        params = init_params(cfg, rng, noise=0.0)
        # forward_batch does not check traces, so products of pure qubit
        # states scaled by 3.8 give factor entries 3.8 * rho_q: off-diagonals
        # reach -1.9 in both parts, the edge of the range the shift covers
        minus = np.array([1.0, -1.0]) / 2**0.5
        plus_i = np.array([1.0, 1j]) / 2**0.5
        qubits = [np.outer(k, k.conj()) for k in (minus, plus_i)]
        qubits += [random_qubit_dm(rng) for _ in range(4)]
        rhos = 3.8 * np.stack(
            [kron_all([qubits[(i + q) % 6] for q in range(3)]) for i in range(6)]
        )
        _, _, got = forward_batch(rhos, params, cfg)
        want = conv_factors(rhos, np.eye(4))
        assert np.abs(got - want).max() <= 1e-12
        assert want.real.min() < -1.5 and want.imag.min() < -1.5

    def test_tanh_starts_near_the_partial_trace(self):
        # no bias shift for tanh: tanh(z + 2) saturates, tanh(z) ~ z
        cfg = SeparatorConfig(n_k=8, fc_depth=4, activation="tanh")
        params = init_params(cfg, np.random.default_rng(27), noise=0.0)
        rng = np.random.default_rng(28)
        rhos = np.stack([random_dm(rng) for _ in range(20)])
        losses, _, _ = forward_batch(rhos, params, cfg)
        assert losses.mean() <= 3.0 * baseline_losses(rhos).mean()

    def test_tied_init_is_pair_swap_symmetric(self):
        cfg = SeparatorConfig()
        rng = np.random.default_rng(24)
        params = init_params(cfg, rng, noise=0.05)
        assert np.abs(symmetrize_pair_swap(params.kernels) - params.kernels).max() <= 1e-15

    def test_untied_shapes(self):
        cfg = SeparatorConfig(tie_weights=False, n_k=6)
        rng = np.random.default_rng(25)
        params = init_params(cfg, rng, noise=0.05)
        assert params.kernels.shape == (3, 6, 2, 4, 4)
        assert params.fc_w.shape == (3, 4, 48, 48)

    def test_no_fc(self):
        cfg = SeparatorConfig(use_fc=False)
        rng = np.random.default_rng(26)
        params = init_params(cfg, rng, noise=0.05)
        assert params.fc_w is None and params.fc_b is None


def failing_open(fail_at):
    """`open` whose files store the first 100 bytes of write number `fail_at`,
    then fail."""

    class FailingFile:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == fail_at:
                self.fh.write(memoryview(data).cast("B")[:100])
                raise OSError("disk full")
            return self.fh.write(data)

    return lambda *args, **kwargs: FailingFile(open(*args, **kwargs))


class TestCheckpoint:
    def test_roundtrip_losses(self, tmp_path):
        cfg = SeparatorConfig(n_k=4)
        rng = np.random.default_rng(27)
        params = init_params(cfg, rng, noise=0.05)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, params, cfg, training_meta={"epoch": 3, "val_loss": 0.1, "seed": 1})
        params2, cfg2, meta = load_checkpoint(path)
        assert cfg2 == cfg
        assert meta["epoch"] == 3
        batch = np.stack([random_dm(rng) for _ in range(5)])
        a, _, _ = forward_batch(batch, params, cfg)
        b, _, _ = forward_batch(batch, params2, cfg2)
        assert np.abs(a - b).max() <= 1e-14

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        for text in ("{not json", "[1]"):
            p.write_text(text)
            with pytest.raises(DataFormatError):
                load_checkpoint(str(p))

    def test_bad_version(self, tmp_path):
        p = tmp_path / "v9.json"
        p.write_text('{"format_version": 9}')
        with pytest.raises(DataFormatError):
            load_checkpoint(str(p))
        # a valid v1 or v2 file but for a version that only equals 1 or 2
        for name, version in (("nofc_nk2", 1), ("untied_nk2", 2)):
            payload = json.loads(old_checkpoint(name, version).read_text())
            for fake in (True, float(version)):
                payload["format_version"] = fake
                p.write_text(json.dumps(payload))
                with pytest.raises(DataFormatError, match="unsupported format_version"):
                    load_checkpoint(str(p))

    def test_bad_shape(self, tmp_path):
        cfg = SeparatorConfig(n_k=4, use_fc=False)
        rng = np.random.default_rng(28)
        params = init_params(cfg, rng, noise=0.0)
        payload = v2_payload(params, cfg)
        payload["kernels"] = encode_array(np.zeros((2, 2, 4, 4)))
        p2 = tmp_path / "bad_shape.json"
        p2.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError):
            load_checkpoint(str(p2))

    @pytest.mark.parametrize(
        "tamper",
        [
            "fc_dropped",
            "fc_added",
            "fc_w_shape",
            "fc_b_shape",
            "nan_kernel",
            "inf_fc_weight",
            "bad_base64",
            "truncated",
            "shape_vs_bytes",
            "n_k_float",
            "fc_depth_float",
            "use_fc_string",
            "tie_weights_int",
            "trailing_data",
        ],
    )
    def test_invalid_weights_rejected(self, tmp_path, tamper):
        # version 2: one JSON object whose arrays are base64
        cfg = SeparatorConfig(n_k=2, fc_depth=2)
        params = init_params(cfg, np.random.default_rng(31), noise=0.05)
        payload = v2_payload(params, cfg)
        fc, suffix = payload["fc"], ""
        config_types = {"n_k_float": ("n_k", 2.0), "fc_depth_float": ("fc_depth", 2.0),
                        "use_fc_string": ("use_fc", "no"), "tie_weights_int": ("tie_weights", 1)}
        if tamper in config_types:
            setting, value = config_types[tamper]
            payload["config"][setting] = value
        elif tamper == "fc_dropped":
            payload["fc"] = None
        elif tamper == "fc_added":
            payload["config"]["use_fc"] = False
        elif tamper == "fc_w_shape":
            fc["weights"] = encode_array(params.fc_w[:, :, :8, :8])
        elif tamper == "fc_b_shape":
            fc["biases"] = encode_array(params.fc_b[:, :1])
        elif tamper == "nan_kernel":
            k = params.kernels.copy()
            k[0, 1, 0, 2, 3] = float("nan")
            payload["kernels"] = encode_array(k)
        elif tamper == "inf_fc_weight":
            w = params.fc_w.copy()
            w[0, 1, 4, 5] = float("inf")
            fc["weights"] = encode_array(w)
        elif tamper == "bad_base64":
            # a lenient decoder would skip these and load the same bytes
            f8 = fc["biases"]["f8"]
            fc["biases"]["f8"] = f8[:8] + "*?!#" + f8[8:]
        elif tamper == "truncated":
            # still valid base64 (whole 4-character groups), 6 bytes short
            payload["kernels"]["f8"] = payload["kernels"]["f8"][:-8]
        elif tamper == "trailing_data":
            suffix = "\n[]"
        else:
            # the shape the config wants over the bytes of half the biases
            fc["biases"]["f8"] = encode_array(params.fc_b[:, :1])["f8"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload) + suffix)
        with pytest.raises(DataFormatError, match="checkpoint"):
            load_checkpoint(str(bad))

    @pytest.mark.parametrize("tamper", OLD_TAMPERS)
    def test_misplaced_weights_rejected(self, tmp_path, tamper):
        # every array's count is checked, not only the total
        bad = tmp_path / "bad.json"
        bad.write_text(tampered_old(tamper))
        with pytest.raises(DataFormatError, match="checkpoint"):
            load_checkpoint(str(bad))

    @pytest.mark.parametrize("tamper", V1_LEAF_TAMPERS)
    def test_v1_weight_must_be_a_json_number(self, tmp_path, tamper):
        # numpy would read "0.98" as 0.98 and true as 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(tampered_old(tamper))
        with pytest.raises(DataFormatError, match="checkpoint .* is malformed"):
            load_checkpoint(str(bad))

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("name", sorted(OLD_CHECKPOINTS))
    def test_old_checkpoint_loads_bit_for_bit(self, name, version):
        cfg, meta, sha = OLD_CHECKPOINTS[name]
        loaded, cfg2, meta2 = load_checkpoint(str(old_checkpoint(name, version)))
        assert cfg2 == cfg and meta2 == meta
        raw = b"".join(a.astype("<f8").tobytes() for a in loaded.arrays())
        assert hashlib.sha256(raw).hexdigest() == sha
        for a in loaded.arrays():
            # Adam updates parameters in place
            assert a.dtype == np.float64 and a.dtype.isnative
            assert a.flags.writeable and a.flags.c_contiguous

    def test_v2_layout_is_packed_float64(self, tmp_path):
        for name in OLD_CHECKPOINTS:
            path = old_checkpoint(name, 2)
            payload = json.loads(path.read_text())
            assert payload["format_version"] == 2
            loaded, cfg, meta = load_checkpoint(str(path))
            # the test-side encoder is the version-2 writer: it rewrites the file
            assert json.dumps(v2_payload(loaded, cfg, meta)) == path.read_text()
            fc = payload["fc"]
            stored = [payload["kernels"]] + ([] if fc is None else [fc["weights"], fc["biases"]])
            assert len(stored) == len(loaded.arrays())
            for entry, got in zip(stored, loaded.arrays()):
                want = np.frombuffer(base64.b64decode(entry["f8"]), dtype="<f8")
                assert entry["shape"] == list(got.shape)
                assert np.array_equal(want.reshape(got.shape), got)
            # resaved as version 3, the same bits
            resaved = str(tmp_path / f"{name}.ckpt")
            save_checkpoint(resaved, loaded, cfg, training_meta=meta)
            for got, want in zip(load_checkpoint(resaved)[0].arrays(), loaded.arrays()):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cfg", [
        SeparatorConfig(),
        SeparatorConfig(n_k=3, tie_weights=False),
        SeparatorConfig(n_k=3, use_fc=False),
        SeparatorConfig(n_k=3, fc_depth=2, activation="tanh"),
    ], ids=["default", "untied", "no_fc", "tanh"])
    def test_v3_layout_is_raw_float64(self, tmp_path, cfg):
        params = init_params(cfg, np.random.default_rng(32), noise=0.05)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(p1, params, cfg, training_meta={"epoch": 1})
        save_checkpoint(p2, params, cfg, training_meta={"epoch": 1})
        raw = Path(p1).read_bytes()
        assert raw == Path(p2).read_bytes()
        header, payload = split_v3(raw)
        assert header == {
            "format_version": 3,
            "config": asdict(cfg),
            "kernels": {"shape": list(params.kernels.shape)},
            "fc": None if not cfg.use_fc else {"weights": {"shape": list(params.fc_w.shape)},
                                                "biases": {"shape": list(params.fc_b.shape)}},
            "training_meta": {"epoch": 1},
        }
        assert payload == b"".join(a.astype("<f8").tobytes() for a in params.arrays())
        loaded, cfg2, meta = load_checkpoint(p1)
        assert cfg2 == cfg and meta == {"epoch": 1}
        assert len(loaded.arrays()) == len(params.arrays())
        for got, want in zip(loaded.arrays(), params.arrays()):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert got.dtype == np.float64 and got.dtype.isnative
            assert got.flags.writeable and got.flags.c_contiguous

    @pytest.mark.parametrize("tamper", V3_TAMPERS)
    def test_malformed_v3_rejected(self, tmp_path, tamper):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(tampered_v3(tmp_path, tamper))
        with pytest.raises(DataFormatError, match="checkpoint"):
            load_checkpoint(str(bad))

    @pytest.mark.parametrize("use_fc", [True, False])
    def test_v1_nested_lists_still_load(self, tmp_path, use_fc):
        cfg = SeparatorConfig(n_k=2, fc_depth=2, use_fc=use_fc)
        params = init_params(cfg, np.random.default_rng(33), noise=0.05)
        payload = {
            "format_version": 1,
            "config": asdict(cfg),
            "kernels": params.kernels.tolist(),
            "fc": {"weights": params.fc_w.tolist(), "biases": params.fc_b.tolist()}
            if use_fc
            else None,
            "training_meta": {"epoch": 5},
        }
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(payload))
        loaded, cfg2, meta = load_checkpoint(str(path))
        assert cfg2 == cfg and meta == {"epoch": 5}
        assert len(loaded.arrays()) == len(params.arrays())
        for got, want in zip(loaded.arrays(), params.arrays()):
            assert np.array_equal(got, want)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        cfg = SeparatorConfig(n_k=2, fc_depth=2)
        rng = np.random.default_rng(34)
        path = str(tmp_path / "ck.json")
        save_checkpoint(path, init_params(cfg, rng), cfg, training_meta={"epoch": 1})
        before = Path(path).read_bytes()
        fresh = str(tmp_path / "fresh.json")
        # the header line, the first array's bytes, the last array's bytes
        for fail_at in (1, 2, 4):
            monkeypatch.setattr(separator, "open", failing_open(fail_at), raising=False)
            for target in (path, fresh):
                with pytest.raises(OSError, match="disk full"):
                    save_checkpoint(target, init_params(cfg, rng), cfg, training_meta={"epoch": 2})
            monkeypatch.undo()
            assert Path(path).read_bytes() == before
            assert load_checkpoint(path)[2] == {"epoch": 1}
            assert sorted(os.listdir(tmp_path)) == ["ck.json"]

    def test_size_is_packed_not_decimal(self, tmp_path):
        # 8 bytes per parameter plus a one-line JSON header; base64 would add
        # a third and decimal text at 17 significant digits about double it
        cfg = SeparatorConfig(n_k=48)
        params = init_params(cfg, np.random.default_rng(35))
        n_params = sum(a.size for a in params.arrays())
        path = str(tmp_path / "big.json")
        save_checkpoint(path, params, cfg, training_meta={"epoch": 1})
        assert os.path.getsize(path) <= 8 * n_params + 4096

    def test_kernel_csv_export(self, tmp_path):
        from qsep.separator import export_kernels_csv

        cfg = SeparatorConfig(n_k=2, use_fc=False)
        rng = np.random.default_rng(29)
        params = init_params(cfg, rng, noise=0.05)
        path = str(tmp_path / "k.csv")
        export_kernels_csv(path, params)
        lines = Path(path).read_text().strip().splitlines()
        assert lines[0] == "path,channel,part,k0,k1,k2,k3"
        # 1 path x 2 channels x 2 parts x 4 rows
        assert len(lines) == 1 + 16


class TestParentReference:
    """The matmul-form model against the per-path einsum model above."""

    BATCHES = (1, 32, 600)

    @staticmethod
    def params_for(cfg, trained):
        rng = np.random.default_rng(40)
        params = init_params(cfg, rng)
        if trained:
            opt = _Adam(params.arrays(), TrainConfig())
            data = make_batch(rng, n=256)
            for step in range(100):
                idx = rng.choice(len(data), size=32, replace=False)
                opt.step(params.arrays(), gradient(params, cfg, data[idx])[0].arrays())
        return params

    @pytest.mark.parametrize("trained", [False, True], ids=["init", "adam100"])
    @pytest.mark.parametrize("kwargs", CONFIGS, ids=[str(c) for c in CONFIGS])
    def test_matches_einsum_model(self, kwargs, trained):
        cfg = SeparatorConfig(n_k=8, **kwargs)
        params = self.params_for(cfg, trained)
        rng = np.random.default_rng(41)
        for b in self.BATCHES:
            batch = make_batch(rng, n=b) if b > 1 else random_dm(rng)[None]
            losses, hats, factors = forward_batch(batch, params, cfg)
            want_losses, want_hats, want_factors, _ = ref_forward(batch, params, cfg)
            for got, want in ((losses, want_losses), (hats, want_hats), (factors, want_factors)):
                assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
            grads, mean = gradient(params, cfg, batch)
            want_grads, want_mean = ref_gradient(params, cfg, batch)
            assert abs(mean - want_mean) <= 1e-12 * max(1.0, abs(want_mean))
            for got, want in zip(grads.arrays(), want_grads):
                assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


FOLD_CONFIGS = [
    {"tie_weights": tie, "activation": act, "fc_depth": depth}
    for tie in (True, False) for act in ("relu", "tanh") for depth in (1, 4)
]


class TestFoldedForward:
    """The forward-only pass folds the encoder into the first FC layer; the
    want_cache pass, which `gradient` runs, keeps the two products."""

    @pytest.mark.parametrize("trained", [False, True], ids=["init", "adam100"])
    @pytest.mark.parametrize("kwargs", FOLD_CONFIGS, ids=[str(c) for c in FOLD_CONFIGS])
    def test_matches_cached_pass(self, kwargs, trained):
        cfg = SeparatorConfig(n_k=8, **kwargs)
        params = TestParentReference.params_for(cfg, trained)
        rng = np.random.default_rng(43)
        for b in (1, 32, 600):
            batch = make_batch(rng, n=b) if b > 1 else random_dm(rng)[None]
            folded = forward_batch(batch, params, cfg)
            cached = forward_batch(batch, params, cfg, want_cache=True)[:3]
            for got, want in zip(folded, cached):
                assert np.abs(got - want).max() <= 1e-12, (b, np.abs(got - want).max())

    @pytest.mark.parametrize("tie", [True, False])
    def test_small_decoder_traces_bound_relative(self, tie):
        # init noise 0.3 gives decoder traces down to ~0.045 and losses up to
        # ~1e3: there the gap reaches 1.7e-8 absolute, past the 1e-12 bound
        # above, but stays a rounding change of the loss (at most 1.5e-11 seen)
        mats = build_dataset("s-mixed", 600, 5).mats
        cfg = SeparatorConfig(n_k=8, fc_depth=4, activation="relu", tie_weights=tie)
        for seed in range(6):
            params = init_params(cfg, np.random.default_rng(seed), noise=0.3)
            folded = forward_batch(mats, params, cfg)[0]
            cached = forward_batch(mats, params, cfg, want_cache=True)[0]
            gap = np.abs(folded - cached)
            assert np.all(gap <= 1e-9 * cached), (seed, (gap / cached).max())

    @pytest.mark.parametrize("n_k", [1, 3, 48])
    @pytest.mark.parametrize("tie", [True, False])
    def test_compact_matches_dense_product(self, n_k, tie):
        cfg = SeparatorConfig(n_k=n_k, tie_weights=tie)
        params = init_params(cfg, np.random.default_rng(44), noise=0.3)
        e = ref_encoder_matrix(params.kernels)
        dense = [params.fc_w[t % cfg.n_paths, 0] @ e[t] for t in range(3)]
        # M's rows interleave feature and path when tied, are path-major when not
        dense = np.stack(dense, axis=1 if tie else 0).reshape(-1, 128)
        got = separator._folded_encoder(params)
        assert got.shape == dense.shape
        assert np.abs(got - dense).max() <= 1e-15 * np.abs(dense).max()

    def test_forward_only_never_forms_encoder(self, monkeypatch):
        cfg = SeparatorConfig(n_k=2)
        params = init_params(cfg, np.random.default_rng(45))
        batch = make_batch(np.random.default_rng(46), n=4)
        want = forward_batch(batch, params, cfg, want_cache=True)[0]

        def refuse(x, kernels):
            raise AssertionError("forward-only pass formed the encoder output")

        monkeypatch.setattr(separator, "_encode", refuse)
        assert np.abs(forward_batch(batch, params, cfg)[0] - want).max() <= 1e-12


class TestBlockColumns:
    def test_each_path_is_a_permutation(self):
        cols = separator._BLOCK_COLUMNS
        assert cols.shape == (3, 2, 4, 16)
        for t in range(3):
            assert np.array_equal(np.sort(cols[t].reshape(-1)), np.arange(128))


class TestDecoderExact:
    def test_sum_equals_per_channel_kron_all(self):
        # gate 7's form check at noise 0.3, over 20 parameter draws: the
        # unnormalized sum must be the per-channel kron_all sum bit for bit
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            cfg = SeparatorConfig(n_k=5)
            params = init_params(cfg, rng, noise=0.3)
            rhos = np.stack([ket_to_dm(haar_random_pure(3, rng)) for _ in range(20)])
            factors = forward_batch(rhos, params, cfg)[2]
            s = separator._decode(factors)[1]
            for n in range(len(rhos)):
                want = np.zeros((8, 8), dtype=complex)
                for c in range(cfg.n_k):
                    want += kron_all(factors[n, c])
                assert np.array_equal(s[n], want), (seed, n)


class TestForwardMemory:
    def test_forward_only_peak(self):
        # a forward-only pass keeps only the current layer's activation, and
        # the decoder makes no (n_k, 4, 4, B) product stack (1.3 activations at
        # n_k=48): its traced peak, 2.11 activations, stays within 2.5
        cfg = SeparatorConfig(n_k=48)
        rng = np.random.default_rng(42)
        params = init_params(cfg, rng)
        rhos = np.stack([random_dm(rng) for _ in range(512)])
        forward_batch(rhos[:2], params, cfg)
        tracemalloc.start()
        try:
            forward_batch(rhos, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        activation = 3 * 512 * cfg.fc_width * 8
        assert peak <= 2.5 * activation, f"peak {peak / activation:.2f} activations"
