import base64
import json
import os
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
    init_params,
    load_checkpoint,
    loss,
    save_checkpoint,
    symmetrize_pair_swap,
)
from qsep import separator
from qsep.separator import _encode_array
from qsep.states import random_mixed_product


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

    def test_bad_shape(self, tmp_path):
        cfg = SeparatorConfig(n_k=4, use_fc=False)
        rng = np.random.default_rng(28)
        params = init_params(cfg, rng, noise=0.0)
        path = str(tmp_path / "ok.json")
        save_checkpoint(path, params, cfg)
        payload = json.loads(Path(path).read_text())
        payload["kernels"] = _encode_array(np.zeros((2, 2, 4, 4)))
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
        ],
    )
    def test_invalid_weights_rejected(self, tmp_path, tamper):
        cfg = SeparatorConfig(n_k=2, fc_depth=2)
        params = init_params(cfg, np.random.default_rng(31), noise=0.05)
        path = str(tmp_path / "ok.json")
        save_checkpoint(path, params, cfg)
        payload = json.loads(Path(path).read_text())
        fc = payload["fc"]
        if tamper == "fc_dropped":
            payload["fc"] = None
        elif tamper == "fc_added":
            payload["config"]["use_fc"] = False
        elif tamper == "fc_w_shape":
            fc["weights"] = _encode_array(params.fc_w[:, :, :8, :8])
        elif tamper == "fc_b_shape":
            fc["biases"] = _encode_array(params.fc_b[:, :1])
        elif tamper == "nan_kernel":
            k = params.kernels.copy()
            k[0, 1, 0, 2, 3] = float("nan")
            payload["kernels"] = _encode_array(k)
        elif tamper == "inf_fc_weight":
            w = params.fc_w.copy()
            w[0, 1, 4, 5] = float("inf")
            fc["weights"] = _encode_array(w)
        elif tamper == "bad_base64":
            # a lenient decoder would skip these and load the same bytes
            f8 = fc["biases"]["f8"]
            fc["biases"]["f8"] = f8[:8] + "*?!#" + f8[8:]
        elif tamper == "truncated":
            # still valid base64 (whole 4-character groups), 6 bytes short
            payload["kernels"]["f8"] = payload["kernels"]["f8"][:-8]
        else:
            # the shape the config wants over the bytes of half the biases
            fc["biases"]["f8"] = _encode_array(params.fc_b[:, :1])["f8"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="checkpoint"):
            load_checkpoint(str(bad))

    def test_v2_layout_is_packed_float64(self, tmp_path):
        cfg = SeparatorConfig(n_k=2, fc_depth=2)
        params = init_params(cfg, np.random.default_rng(32), noise=0.05)
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_checkpoint(p1, params, cfg, training_meta={"epoch": 1})
        save_checkpoint(p2, params, cfg, training_meta={"epoch": 1})
        assert Path(p1).read_bytes() == Path(p2).read_bytes()
        payload = json.loads(Path(p1).read_text())
        assert payload["format_version"] == 2
        stored = [payload["kernels"], payload["fc"]["weights"], payload["fc"]["biases"]]
        for entry, want in zip(stored, params.arrays()):
            got = np.frombuffer(base64.b64decode(entry["f8"]), dtype="<f8")
            assert entry["shape"] == list(want.shape)
            assert np.array_equal(got.reshape(want.shape), want)
        loaded, cfg2, meta = load_checkpoint(p1)
        assert cfg2 == cfg and meta == {"epoch": 1}
        for got, want in zip(loaded.arrays(), params.arrays()):
            assert np.array_equal(got, want)
            # Adam updates parameters in place
            assert got.dtype == np.float64 and got.dtype.isnative
            assert got.flags.writeable and got.flags.c_contiguous

    @pytest.mark.parametrize("use_fc", [True, False])
    def test_v1_nested_lists_still_load(self, tmp_path, use_fc):
        cfg = SeparatorConfig(n_k=2, fc_depth=2, use_fc=use_fc)
        params = init_params(cfg, np.random.default_rng(33), noise=0.05)
        payload = {
            "format_version": 1,
            "config": cfg.to_dict(),
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

        def dump_then_fail(obj, fh):
            fh.write(json.dumps(obj)[:100])
            raise OSError("disk full")

        monkeypatch.setattr(separator.json, "dump", dump_then_fail)
        fresh = str(tmp_path / "fresh.json")
        for target in (path, fresh):
            with pytest.raises(OSError, match="disk full"):
                save_checkpoint(target, init_params(cfg, rng), cfg, training_meta={"epoch": 2})
        monkeypatch.undo()
        assert Path(path).read_bytes() == before
        assert load_checkpoint(path)[2] == {"epoch": 1}
        assert sorted(os.listdir(tmp_path)) == ["ck.json"]

    def test_size_is_packed_not_decimal(self, tmp_path):
        # base64 of 8 bytes per parameter plus a small JSON frame; decimal
        # text at 17 significant digits takes about twice this bound
        cfg = SeparatorConfig(n_k=48)
        params = init_params(cfg, np.random.default_rng(35))
        n_params = sum(a.size for a in params.arrays())
        path = str(tmp_path / "big.json")
        save_checkpoint(path, params, cfg, training_meta={"epoch": 1})
        assert os.path.getsize(path) <= 4 / 3 * 8 * n_params + 4096

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
