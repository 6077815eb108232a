"""Dataset builders, the QSD1 binary format, and the training loop."""
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qsep import states, training
from qsep.errors import DataFormatError, RejectionLimitError, TrainingDivergedError
from qsep.oracles import CUTS, StateClass, class_code, classify, label_states, negativity
from qsep.separator import SeparatorConfig, load_checkpoint
from qsep.training import (
    BIT_PRODUCT,
    BIT_SEPARABLE,
    BIT_ZERO_DISCORD,
    PLANS,
    Dataset,
    TrainConfig,
    _Adam,
    build_dataset,
    build_s_mixed,
    build_s_pure,
    build_separable_set,
    build_training_sets,
    load_qsd,
    mean_loss,
    pack_label,
    pack_labels,
    save_qsd,
    save_qsd_csv,
    subset_mask,
    train,
    unpack_labels,
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
            back = unpack_labels(np.array([bits], dtype=np.uint16))
            for field in ("is_product", "entangled_cut", "discordant_check", "klass"):
                assert np.array_equal(getattr(back, field), getattr(label, field)), field

    def test_reserved_bits_rejected(self):
        with pytest.raises(DataFormatError, match="0x1000 has reserved bits"):
            unpack_labels(np.array([0, 1 << 12]))

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

    def test_signed_zeros_roundtrip(self, tmp_path, small_val):
        # a -0.0 real part beside a +0.0 imaginary part, and a -0.0 imaginary part
        mats = small_val.mats[:2].copy()
        mats[0, 0, 1] = mats[0, 1, 0] = complex(-0.0, 0.0)
        mats[1, 2, 3], mats[1, 3, 2] = complex(0.0, -0.0), complex(0.0, 0.0)
        p = str(tmp_path / "z.qsd")
        save_qsd(p, Dataset(mats=mats, labels=small_val.labels[:2]))
        assert load_qsd(p).mats.tobytes() == mats.tobytes()

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

    def test_one_reserved_bit_on_a_valid_label_refused(self, tmp_path, small_val):
        # bits 0-11 round-trip here, so only the reserved bit 12 can fail the label
        p = str(tmp_path / "a.qsd")
        i = 5
        labels = small_val.labels.copy()
        labels[i] |= 0x1000
        save_qsd(p, Dataset(mats=small_val.mats, labels=labels))
        off = 13 + i * 1026 + 1024
        with pytest.raises(DataFormatError,
                           match=rf"record {i} label {labels[i]:#06x} has reserved bits"
                                 rf" \(byte offset {off}\)"):
            load_qsd(p)

    @pytest.mark.parametrize("fault, what", [
        ("nan", "is not finite"), ("non_hermitian", "is not Hermitian"), ("trace", "has trace 1.5"),
    ])
    def test_unphysical_record_named_offset(self, tmp_path, small_val, fault, what):
        mats = small_val.mats.copy()
        i = 4
        if fault == "nan":
            mats[i, 2, 5] = np.nan
        elif fault == "non_hermitian":
            mats[i, 0, 1] += 0.3
        else:
            mats[i] *= 1.5
        p = str(tmp_path / "a.qsd")
        save_qsd(p, Dataset(mats=mats, labels=small_val.labels))
        off = 13 + i * 1026
        with pytest.raises(DataFormatError, match=rf"record {i} matrix {what}.*byte offset {off}"):
            load_qsd(p)

    @pytest.mark.parametrize("save", [save_qsd, save_qsd_csv])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, small_val, save):
        path = str(tmp_path / "a.qsd")
        save(path, small_val)
        before = Path(path).read_bytes()
        real_open = open

        class DiskFull:
            """A file whose first write stores 100 bytes, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:100])
                raise OSError("disk full")

        monkeypatch.setattr("builtins.open", lambda *a, **k: DiskFull(real_open(*a, **k)))
        fresh = str(tmp_path / "fresh.qsd")
        for target in (path, fresh):
            with pytest.raises(OSError, match="disk full"):
                save(target, small_val)
        monkeypatch.undo()
        assert Path(path).read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["a.qsd"]

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

    def test_subset_filters(self, small_train):
        n = len(small_train)
        assert subset_mask(small_train, "Sep").sum() == n
        pure = subset_mask(small_train, "Pure")
        assert np.all(small_train.purities()[pure] >= 1.0 - 1e-8)
        prod = small_train.labels[subset_mask(small_train, "Prod")]
        assert np.all(prod & BIT_PRODUCT)
        zd = small_train.labels[subset_mask(small_train, "ZD")]
        assert np.all(zd & BIT_ZERO_DISCORD)
        nps = small_train.labels[subset_mask(small_train, "NPS")]
        assert not np.any(nps & BIT_PRODUCT)
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


# --- reference for build_dataset: the per-kind loops it replaced --------------

REF_TRAIN_COUNTS = np.array([190.0, 120.0, 100.0, 120.0])
REF_TRAIN_FRACTIONS = REF_TRAIN_COUNTS / REF_TRAIN_COUNTS.sum()
REF_MIXED_SEP_FRACTIONS = REF_TRAIN_COUNTS[1:] / REF_TRAIN_COUNTS[1:].sum()
REF_S_MIXED_FRACTIONS = np.array([0.13, 0.27, 0.27, 0.33])


def ref_largest_remainder(total, fractions):
    raw = np.asarray(fractions, dtype=float) * total
    counts = np.floor(raw).astype(int)
    rem = total - counts.sum()
    order = np.argsort(raw - counts)[::-1]
    counts[order[:rem]] += 1
    return counts


def ref_dataset(kind, count, seed):
    """(mats, labels) of `count` records of `kind`, one explicit loop per family."""
    rng = np.random.default_rng(seed)
    records = []
    if kind in ("train", "val"):
        n_pure, n_prod, n_zd, n_disc = ref_largest_remainder(count, REF_TRAIN_FRACTIONS)
        for i in range(n_pure):
            records.append(training.gen_pure_separable(rng, toggle=i))
        for _ in range(n_prod):
            records.append(training.gen_mixed_product(rng))
        for i in range(n_zd):
            records.append(training.gen_zero_discord(rng, toggle=i))
        for i in range(n_disc):
            records.append(training.gen_discordant_separable(rng, toggle=i))
    elif kind == "s-pure":
        for i in range(count // 2):
            records.append(training.gen_pure_separable(rng, toggle=i))
        for i in range(count // 2):
            records.append(training.gen_pure_entangled(rng, toggle=i))
    elif kind == "s-mixed":
        n_prod, n_zd, n_disc, n_ent = ref_largest_remainder(count, REF_S_MIXED_FRACTIONS)
        for _ in range(n_prod):
            records.append(training.gen_mixed_product(rng))
        for i in range(n_zd):
            records.append(training.gen_zero_discord(rng, toggle=i))
        for i in range(n_disc):
            records.append(training.gen_discordant_separable(rng, toggle=i))
        for i in range(n_ent):
            records.append(training.gen_mixed_entangled(rng, toggle=i))
    elif kind == "mixed-sep":
        n_prod, n_zd, n_disc = ref_largest_remainder(count, REF_MIXED_SEP_FRACTIONS)
        for _ in range(n_prod):
            records.append(training.gen_mixed_product(rng))
        for i in range(n_zd):
            records.append(training.gen_zero_discord(rng, toggle=i))
        for i in range(n_disc):
            records.append(training.gen_discordant_separable(rng, toggle=i))
    elif kind == "pure-sep":
        for i in range(count):
            records.append(training.gen_pure_separable(rng, toggle=i))
    elif kind == "pure-ent":
        for i in range(count):
            records.append(training.gen_pure_entangled(rng, toggle=i))
    elif kind == "product":
        for _ in range(count):
            records.append(training.gen_mixed_product(rng))
    elif kind == "zd":
        for i in range(count):
            records.append(training.gen_zero_discord(rng, toggle=i))
    elif kind == "mixed-ent":
        for i in range(count):
            records.append(training.gen_mixed_entangled(rng, toggle=i))
    else:
        raise AssertionError(kind)
    mats = np.stack([r[0] for r in records]).astype(complex)
    return mats, np.asarray([r[1] for r in records], dtype=np.uint16)


class TestBuildDataset:
    def test_every_kind_has_a_plan(self):
        assert set(PLANS) == {
            "train", "val", "mixed-sep", "s-pure", "s-mixed",
            "pure-sep", "pure-ent", "product", "zd", "mixed-ent",
        }

    @pytest.mark.parametrize("count", [1, 7, 60])
    @pytest.mark.parametrize("seed", [0, 17])
    @pytest.mark.parametrize("kind", sorted(PLANS))
    def test_matches_reference_loops(self, kind, seed, count):
        if kind == "s-pure" and count % 2:
            with pytest.raises(ValueError, match="even count"):
                build_dataset(kind, count, seed)
            return
        ds = build_dataset(kind, count, seed)
        mats, labels = ref_dataset(kind, count, seed)
        assert np.array_equal(ds.mats, mats)
        assert np.array_equal(ds.labels, labels)
        assert ds.meta["kind"] == kind and ds.meta["seed"] == seed
        counts = ds.meta["counts"]
        assert list(counts) == [family for family, _ in PLANS[kind]]
        assert sum(counts.values()) == len(ds) == count

    def test_named_builders_are_plans(self):
        assert np.array_equal(build_separable_set(20, 3, kind="val").mats,
                              build_dataset("val", 20, 3).mats)
        assert np.array_equal(build_s_pure(5, 3).mats, build_dataset("s-pure", 10, 3).mats)
        assert np.array_equal(build_s_mixed(20, 3).mats, build_dataset("s-mixed", 20, 3).mats)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            build_dataset("bogus", 3, 0)

    def test_generators_looked_up_when_drawn(self, monkeypatch):
        calls = []
        gen = training.gen_mixed_product

        def counting(rng, toggle=0):
            calls.append(toggle)
            return gen(rng, toggle=toggle)

        monkeypatch.setattr(training, "gen_mixed_product", counting)
        build_dataset("product", 4, 0)
        assert calls == [0, 1, 2, 3]


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
    monkeypatch.setattr(states, "random_circuit_state", lambda rng, entangling: product_ket())
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

    def test_product_family_rejects_a_non_product_state(self, monkeypatch):
        # a classical, non-product state from the mixed-product source is never
        # stored under the product label
        classical = np.zeros((8, 8), dtype=complex)
        classical[0, 0] = classical[7, 7] = 0.5
        monkeypatch.setattr(states, "random_mixed_product", lambda rng: classical)
        monkeypatch.setattr(training, "MAX_DRAWS", 3)
        with pytest.raises(RejectionLimitError, match="^mixed_product: no acceptable state in 3"):
            training.gen_mixed_product(np.random.default_rng(0))

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

    def test_epoch_peak_memory(self, small_train, small_val):
        # one epoch holds the weights, Adam's two moments, the best copy and
        # one step's gradient with its temporaries (0.85 sets at batch 32);
        # the filtered data copies add about 0.2. Traced peak: 6.03 parameter
        # sets, within 6.5; keeping the last step's gradient alive adds one.
        cfg = TrainConfig(epochs=1, batch_size=32, seed=0)
        scfg = SeparatorConfig(n_k=48)
        train(cfg, SeparatorConfig(n_k=2), small_train, small_val)
        tracemalloc.start()
        try:
            rep = train(cfg, scfg, small_train, small_val)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        unit = sum(a.nbytes for a in rep.params.arrays())
        assert peak <= 6.5 * unit, f"peak {peak / unit:.2f} parameter sets"

    def test_empty_subset_rejected(self, small_val):
        prod = subset_mask(small_val, "Prod")
        cfg = TrainConfig(epochs=1, subset="NPS")
        products = Dataset(mats=small_val.mats[prod], labels=small_val.labels[prod])
        with pytest.raises(ValueError):
            train(cfg, SeparatorConfig(n_k=4), products, products)

    def test_subset_trains_on_the_masked_records(self, small_train, small_val):
        # training on subset ZD is training on the ZD records with subset Sep
        scfg = SeparatorConfig(n_k=4)
        zd = []
        for ds in (small_train, small_val):
            m = subset_mask(ds, "ZD")
            zd.append(Dataset(mats=ds.mats[m], labels=ds.labels[m]))
        got = train(TrainConfig(epochs=2, batch_size=32, subset="ZD"), scfg,
                    small_train, small_val)
        want = train(TrainConfig(epochs=2, batch_size=32, subset="Sep"), scfg, *zd)
        assert got.train_losses == want.train_losses
        assert got.val_losses == want.val_losses
        for a, b in zip(got.params.arrays(), want.params.arrays()):
            assert np.array_equal(a, b)

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
        b1, b2, eps = training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS
        for t in range(1, 31):
            grads = [rng.normal(size=s) * 10.0 ** rng.uniform(-6, 1, size=s) for s in shapes]
            opt.step(params, grads)
            for a, g, mi, vi in zip(want, grads, m, v):
                mi *= b1
                mi += (1.0 - b1) * g
                vi *= b2
                vi += (1.0 - b2) * g * g
                a -= cfg.learning_rate * (mi / (1.0 - b1**t)) / (
                    np.sqrt(vi / (1.0 - b2**t)) + eps
                )
            for got, ref in zip(params, want):
                assert np.array_equal(got, ref)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        for lr in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=lr)
        for noise in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="init_noise"):
                TrainConfig(init_noise=noise)
        with pytest.raises(ValueError):
            TrainConfig(subset="Everything")
        with pytest.raises(ValueError):
            TrainConfig(optimizer="lion")


# --- reference for the label codec: the hand-shifted decoders it replaced ------


def ref_klasses(bits):
    ent = ((bits >> 3) & 0b111) != 0
    disc = ((bits >> 6) & 0b111111) != 0
    prod = (bits & BIT_PRODUCT) != 0
    return np.asarray(class_code(ent, prod, disc), dtype=np.int8)


def ref_group_masks(bits):
    ent = ((bits >> 3) & 0b111) != 0
    zd = (bits & BIT_ZERO_DISCORD) != 0
    return {
        "separable": (bits & BIT_SEPARABLE) != 0,
        "non_discordant": zd,
        "discordant": ~zd,
        "entangled": ent,
    }


def ref_subset_mask(ds, subset):
    if subset == "Sep":
        return np.ones(len(ds), dtype=bool)
    if subset == "Pure":
        return ds.purities() >= 1.0 - 1e-8
    if subset == "Prod":
        return (ds.labels & BIT_PRODUCT) != 0
    if subset == "ZD":
        return (ds.labels & BIT_ZERO_DISCORD) != 0
    return (ds.labels & BIT_PRODUCT) == 0  # NPS


@pytest.fixture(scope="module")
def every_kind():
    return {kind: build_dataset(kind, 40, 3) for kind in PLANS}


def flip_label_bit(path, record, bit):
    """Flip one bit of a record's label in a saved QSD1 file; its byte offset."""
    raw = bytearray(Path(path).read_bytes())
    off = 13 + record * 1026 + 1024
    struct.pack_into("<H", raw, off, struct.unpack_from("<H", raw, off)[0] ^ (1 << bit))
    Path(path).write_bytes(bytes(raw))
    return off


class TestLabelCodec:
    @pytest.mark.parametrize("kind", sorted(PLANS))
    def test_stored_labels_round_trip(self, every_kind, kind):
        ds = every_kind[kind]
        assert np.array_equal(pack_labels(unpack_labels(ds.labels)), ds.labels)

    @pytest.mark.parametrize("kind", sorted(PLANS))
    def test_relabelled_states_pack_to_stored_bits(self, every_kind, kind):
        ds = every_kind[kind]
        separable = (ds.labels & BIT_SEPARABLE) != 0
        assert np.array_equal(pack_labels(label_states(ds.mats, separable)), ds.labels)

    def test_pack_label_is_pack_labels_of_one(self, every_kind):
        ds = every_kind["s-mixed"]
        labels = label_states(ds.mats)
        assert [pack_label(classify(rho)) for rho in ds.mats] == pack_labels(labels).tolist()

    def test_decoded_labels_match_a_fresh_labelling(self, every_kind):
        ds = every_kind["s-mixed"]
        fresh = label_states(ds.mats, (ds.labels & BIT_SEPARABLE) != 0)
        decoded = unpack_labels(ds.labels)
        for field in ("entangled_cut", "discordant_check", "is_product", "klass"):
            assert np.array_equal(getattr(decoded, field), getattr(fresh, field)), field
        assert np.isnan(decoded.negativity).all()

    @pytest.mark.parametrize("kind", sorted(PLANS))
    def test_decoders_match_hand_shifted_reference(self, every_kind, kind):
        from qsep.evaluation import group_masks

        ds = every_kind[kind]
        assert np.array_equal(ds.klasses(), ref_klasses(ds.labels))
        want = ref_group_masks(ds.labels)
        got = group_masks(ds.labels)
        assert list(got) == list(want)
        for name in want:
            assert np.array_equal(got[name], want[name]), name
        for subset in training.SUBSETS:
            assert np.array_equal(subset_mask(ds, subset), ref_subset_mask(ds, subset)), subset

    @pytest.mark.parametrize("bit", [1, 2])
    def test_inconsistent_derived_bit_named_offset(self, tmp_path, small_val, bit):
        p = str(tmp_path / "a.qsd")
        save_qsd(p, small_val)
        off = flip_label_bit(p, 3, bit)
        with pytest.raises(DataFormatError, match=rf"record 3 .*round-trip.*byte offset {off}"):
            load_qsd(p)


class TestVerifyFraction:
    @pytest.mark.parametrize("fraction", [0.0, -3.0, float("nan"), float("inf"), 1.5])
    def test_fraction_outside_unit_interval_rejected(self, small_val, fraction):
        with pytest.raises(ValueError, match=r"fraction must be in \(0, 1\]"):
            verify_labels(small_val, fraction=fraction)


class TestEntangledGenerators:
    @pytest.mark.parametrize("kind", ["pure-ent", "mixed-ent"])
    def test_one_classify_call_per_draw(self, monkeypatch, kind):
        calls = []
        real = training.classify

        def counting(rho, known_separable=False):
            calls.append(known_separable)
            return real(rho, known_separable)

        monkeypatch.setattr(training, "classify", counting)
        ds = build_dataset(kind, 8, 0)
        assert len(calls) >= len(ds) and not any(calls)
        assert np.all(ds.klasses() == 3)
