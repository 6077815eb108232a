"""Dataset builders, the QSD1 binary format, and the training loop."""
import struct
from pathlib import Path

import numpy as np
import pytest

from qsep import states, training
from qsep.errors import DataFormatError, RejectionLimitError, TrainingDivergedError
from qsep.oracles import CUTS, StateClass, classify, negativity
from qsep.separator import SeparatorConfig, load_checkpoint
from qsep.training import (
    BIT_PRODUCT,
    BIT_SEPARABLE,
    BIT_ZERO_DISCORD,
    Dataset,
    TrainConfig,
    _Adam,
    build_s_mixed,
    build_s_pure,
    build_separable_set,
    build_test_sets,
    build_training_sets,
    load_qsd,
    mean_loss,
    pack_label,
    save_qsd,
    save_qsd_csv,
    subset_filter,
    subset_mask,
    train,
    unpack_label,
    verify_labels,
)


@pytest.fixture(scope="module")
def small_train():
    return build_separable_set(400, seed=11)


@pytest.fixture(scope="module")
def small_val():
    return build_separable_set(120, seed=12)


class TestLabels:
    def test_roundtrip(self):
        from qsep.states import ket_to_dm, random_separable_pure

        rng = np.random.default_rng(0)
        for _ in range(20):
            label = classify(ket_to_dm(random_separable_pure(rng)))
            bits = pack_label(label)
            back = unpack_label(bits)
            assert back.is_product == label.is_product
            assert back.entangled_cut == label.entangled_cut
            assert back.discordant_check == label.discordant_check
            assert back.klass is label.klass

    def test_reserved_bits_rejected(self):
        with pytest.raises(DataFormatError):
            unpack_label(1 << 12)

    def test_klass_codes(self, small_train):
        codes = small_train.klasses()
        assert codes.min() >= 0 and codes.max() <= 2  # no entangled in training


class TestQsdFormat:
    def test_roundtrip_bitwise(self, tmp_path, small_val):
        p = str(tmp_path / "a.qsd")
        save_qsd(p, small_val)
        back = load_qsd(p)
        assert np.array_equal(back.mats, small_val.mats)
        assert np.array_equal(back.labels, small_val.labels)

    def test_same_content_same_bytes(self, tmp_path, small_val):
        p1, p2 = str(tmp_path / "a.qsd"), str(tmp_path / "b.qsd")
        save_qsd(p1, small_val)
        save_qsd(p2, small_val)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_record_size(self, tmp_path, small_val):
        p = str(tmp_path / "a.qsd")
        save_qsd(p, small_val)
        raw = Path(p).read_bytes()
        assert len(raw) == 13 + len(small_val) * 1026

    def test_bad_magic_offset_0(self, tmp_path, small_val):
        p = str(tmp_path / "a.qsd")
        save_qsd(p, small_val)
        raw = bytearray(Path(p).read_bytes())
        raw[0:4] = b"XXXX"
        Path(p).write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match=r"byte offset 0"):
            load_qsd(p)

    def test_bad_version_offset_4(self, tmp_path, small_val):
        p = str(tmp_path / "a.qsd")
        save_qsd(p, small_val)
        raw = bytearray(Path(p).read_bytes())
        struct.pack_into("<I", raw, 4, 99)
        Path(p).write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match=r"version 99.*byte offset 4"):
            load_qsd(p)

    def test_bad_qubits_offset_8(self, tmp_path, small_val):
        p = str(tmp_path / "a.qsd")
        save_qsd(p, small_val)
        raw = bytearray(Path(p).read_bytes())
        raw[8] = 5
        Path(p).write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match=r"n_qubits 5.*byte offset 8"):
            load_qsd(p)

    def test_truncated_body(self, tmp_path, small_val):
        p = str(tmp_path / "a.qsd")
        save_qsd(p, small_val)
        raw = Path(p).read_bytes()
        Path(p).write_bytes(raw[:-7])
        with pytest.raises(DataFormatError, match=r"body is"):
            load_qsd(p)

    def test_reserved_label_bits_named_offset(self, tmp_path, small_val):
        p = str(tmp_path / "a.qsd")
        save_qsd(p, small_val)
        raw = bytearray(Path(p).read_bytes())
        i = 3  # corrupt the label of record 3
        off = 13 + i * 1026 + 1024
        struct.pack_into("<H", raw, off, 0xF000)
        Path(p).write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match=rf"record {i}.*byte offset {off}"):
            load_qsd(p)

    def test_csv_mirror(self, tmp_path, small_val):
        p = str(tmp_path / "a.csv")
        save_qsd_csv(p, small_val)
        lines = Path(p).read_text().strip().split("\n")
        assert len(lines) == 1 + len(small_val)
        assert len(lines[1].split(",")) == 129  # 128 floats + label


class TestBuilders:
    def test_small_scale_sizes(self):
        tr, va = build_training_sets(0.002, seed=5)
        assert len(tr) == round(0.002 * 530_000)
        assert len(va) == round(0.002 * 50_000)

    def test_all_separable(self, small_train):
        assert not np.any(small_train.labels >> 3 & 0b111)
        assert np.all(small_train.labels & BIT_SEPARABLE)

    def test_composition_counts(self, small_train):
        counts = np.bincount(small_train.klasses(), minlength=4)
        # ~36/23/19/22 split of 400 via largest remainder
        assert counts[3] == 0
        assert abs(counts[0] - 0.585 * 400) <= 2  # product = pure-sep + mixed product

    def test_determinism(self):
        a = build_separable_set(60, seed=7)
        b = build_separable_set(60, seed=7)
        assert np.array_equal(a.mats, b.mats)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = build_separable_set(60, seed=7)
        b = build_separable_set(60, seed=8)
        assert not np.array_equal(a.mats, b.mats)

    def test_s_pure_balance(self):
        ds = build_s_pure(50, seed=9)
        assert len(ds) == 100
        codes = ds.klasses()
        assert (codes == 3).sum() == 50
        assert (codes < 3).sum() == 50
        assert np.all(ds.purities() >= 1.0 - 1e-8)

    def test_s_mixed_all_classes(self):
        ds = build_s_mixed(80, seed=10)
        assert len(ds) == 80
        assert np.all(np.bincount(ds.klasses(), minlength=4) >= 1)

    def test_s_mixed_entangled_filter(self):
        ds = build_s_mixed(80, seed=10)
        ent = ds.klasses() == 3
        for rho in ds.mats[ent]:
            assert max(negativity(rho, c) for c in CUTS) > 1e-6

    def test_test_sets_shapes(self):
        sp, sm = build_test_sets(0.002, seed=3)
        assert len(sp) == 2 * round(0.002 * 15_000)
        assert len(sm) == round(0.002 * 65_000)

    def test_subset_filters(self, small_train):
        n = len(small_train)
        assert subset_mask(small_train, "Sep").sum() == n
        pure = subset_filter(small_train, "Pure")
        assert np.all(pure.purities() >= 1.0 - 1e-8)
        prod = subset_filter(small_train, "Prod")
        assert np.all(prod.labels & BIT_PRODUCT)
        zd = subset_filter(small_train, "ZD")
        assert np.all(zd.labels & BIT_ZERO_DISCORD)
        nps = subset_filter(small_train, "NPS")
        assert not np.any(nps.labels & BIT_PRODUCT)
        with pytest.raises(ValueError):
            subset_mask(small_train, "Bogus")

    def test_verify_labels_clean(self, small_train):
        verify_labels(small_train, fraction=0.05, seed=1)

    def test_verify_labels_catches_corruption(self, small_train):
        bad = Dataset(
            mats=small_train.mats.copy(),
            labels=small_train.labels.copy(),
            meta=dict(small_train.meta),
        )
        bad.labels[:] ^= BIT_ZERO_DISCORD  # flip one bit everywhere
        with pytest.raises(DataFormatError):
            verify_labels(bad, fraction=0.05, seed=1)

    def test_verify_labels_catches_entangled_stored_separable(self, small_train):
        # GHZ stored with the label it gets when its separability is trusted
        ghz = np.zeros((8, 8), dtype=complex)
        ghz[0, 0] = ghz[0, 7] = ghz[7, 0] = ghz[7, 7] = 0.5
        label = pack_label(classify(ghz, known_separable=True))
        assert label == 0x0FC2
        bad = Dataset(
            mats=np.concatenate([small_train.mats[:9], ghz[None]]),
            labels=np.append(small_train.labels[:9], label).astype(np.uint16),
        )
        with pytest.raises(DataFormatError, match="record 9 is stored as separable"):
            verify_labels(bad, fraction=1.0)


def reject_every_draw(monkeypatch, max_draws=5):
    """Make every state source of the rejection samplers return a product state,
    which none of them accepts, and lower the draw cap; returns a draw counter."""
    draws = []

    def product_ket(n_qubits=3, *args, **kwargs):
        draws.append(1)
        ket = np.zeros(2**n_qubits, dtype=complex)
        ket[0] = 1.0
        return ket

    def product_mixed(*args, **kwargs):
        draws.append(1)
        return np.eye(8, dtype=complex) / 8

    monkeypatch.setattr(states, "haar_random_pure", product_ket)
    monkeypatch.setattr(states, "random_circuit_state", product_ket)
    for name in ("antipodal_classical", "random_product_mixture", "reduce_from_larger"):
        monkeypatch.setattr(states, name, product_mixed)
    monkeypatch.setattr(training, "MAX_DRAWS", max_draws)
    return draws


class TestRejectionCap:
    # one toggle per state source: shared basis, circuit, ket mixture, reduction
    @pytest.mark.parametrize("family,toggle", [
        ("zero_discord", 0), ("zero_discord", 2), ("discordant_separable", 0),
        ("pure_entangled", 0), ("pure_entangled", 1),
        ("mixed_entangled", 0), ("mixed_entangled", 2), ("mixed_entangled", 3),
    ])
    def test_cap_raises_naming_family_and_cap(self, monkeypatch, family, toggle):
        draws = reject_every_draw(monkeypatch)
        gen = getattr(training, f"gen_{family}")
        with pytest.raises(RejectionLimitError, match=f"^{family}: no acceptable state in 5 draws"):
            gen(np.random.default_rng(0), toggle=toggle)
        assert len(draws) >= 5

    def test_each_draw_counts(self, monkeypatch):
        draws = reject_every_draw(monkeypatch, max_draws=7)
        with pytest.raises(RejectionLimitError):
            training.gen_zero_discord(np.random.default_rng(0))
        assert len(draws) == 7


class TestTrainLoop:
    def test_initial_val_loss_on_products(self, small_train, small_val):
        cfg = TrainConfig(epochs=1, subset="Prod", init_noise=0.0, seed=0)
        rep = train(cfg, SeparatorConfig(), small_train, small_val)
        assert rep.val_loss_init <= 1e-3

    def test_report_invariants(self, small_train, small_val):
        cfg = TrainConfig(epochs=3, batch_size=32, learning_rate=3e-4, seed=1)
        rep = train(cfg, SeparatorConfig(n_k=8), small_train, small_val)
        assert len(rep.train_losses) == 3 and len(rep.val_losses) == 3
        assert rep.best_epoch == int(np.argmin(rep.val_losses)) + 1
        assert rep.best_val_loss == min(rep.val_losses)
        assert rep.train_losses[rep.best_epoch - 1] <= rep.train_losses[0]

    def test_determinism(self, small_train, small_val):
        cfg = TrainConfig(epochs=2, batch_size=64, seed=4)
        r1 = train(cfg, SeparatorConfig(n_k=8), small_train, small_val)
        r2 = train(cfg, SeparatorConfig(n_k=8), small_train, small_val)
        assert r1.train_losses == r2.train_losses
        assert r1.val_losses == r2.val_losses

    def test_training_reduces_val_loss(self, small_train, small_val):
        cfg = TrainConfig(epochs=6, batch_size=32, learning_rate=3e-4, seed=2)
        rep = train(cfg, SeparatorConfig(n_k=8), small_train, small_val)
        assert rep.best_val_loss < rep.val_loss_init

    def test_checkpoint_roundtrip(self, tmp_path, small_train, small_val):
        path = str(tmp_path / "ck.json")
        cfg = TrainConfig(epochs=2, batch_size=64, seed=3)
        scfg = SeparatorConfig(n_k=8)
        rep = train(cfg, scfg, small_train, small_val, checkpoint_path=path)
        params, loaded_cfg, meta = load_checkpoint(path)
        assert loaded_cfg == scfg
        assert meta["epoch"] == rep.best_epoch
        got = mean_loss(params, scfg, small_val.mats)
        want = mean_loss(rep.params, scfg, small_val.mats)
        assert abs(got - want) <= 1e-14

    def test_empty_subset_rejected(self, small_val):
        ent_free = subset_filter(small_val, "Prod")
        cfg = TrainConfig(epochs=1, subset="NPS")
        pure_prod = Dataset(
            mats=ent_free.mats, labels=ent_free.labels, meta=dict(ent_free.meta)
        )
        with pytest.raises(ValueError):
            train(cfg, SeparatorConfig(n_k=4), pure_prod, pure_prod)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self, small_val):
        cfg = TrainConfig(
            epochs=2, batch_size=32, optimizer="sgd", learning_rate=1e120, seed=0
        )
        with pytest.raises(TrainingDivergedError):
            train(cfg, SeparatorConfig(n_k=4), small_val, small_val)

    def test_adam_step_matches_plain_formula(self):
        cfg = TrainConfig()
        rng = np.random.default_rng(7)
        # (1, 2, 100, 100) spans two optimizer chunks, the second one partial
        shapes = [(1, 4, 2, 4, 4), (1, 2, 100, 100), (1, 2, 32)]
        params = [rng.normal(size=s) for s in shapes]
        want = [a.copy() for a in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        opt = _Adam(params, cfg)
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        for t in range(1, 31):
            grads = [rng.normal(size=s) * 10.0 ** rng.uniform(-6, 1, size=s) for s in shapes]
            opt.step(params, grads)
            for a, g, mi, vi in zip(want, grads, m, v):
                mi *= b1
                mi += (1.0 - b1) * g
                vi *= b2
                vi += (1.0 - b2) * g * g
                a -= cfg.learning_rate * (mi / (1.0 - b1**t)) / (
                    np.sqrt(vi / (1.0 - b2**t)) + cfg.adam_eps
                )
            for got, ref in zip(params, want):
                assert np.array_equal(got, ref)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(subset="Everything")
        with pytest.raises(ValueError):
            TrainConfig(optimizer="lion")
