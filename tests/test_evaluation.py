"""Threshold sweeps, confusion matrices, class means, and the 2D map."""
from pathlib import Path

import numpy as np
import pytest

from qsep.evaluation import (
    balanced_accuracy_from_counts,
    best_map_iou,
    class_mean_losses,
    confusion_at,
    eval_losses,
    group_masks,
    map_iou,
    positives_for_mode,
    render_map,
    sweep,
    threshold_grid,
    write_class_means_csv,
    write_map_csv,
    write_map_pgm,
    write_sweep_csv,
)
from qsep.separator import SeparatorConfig, baseline_losses, init_params
from qsep.states import ket_to_dm, random_separable_pure
from qsep.training import build_s_mixed


@pytest.fixture(scope="module")
def mixed_set():
    return build_s_mixed(300, seed=21)


@pytest.fixture(scope="module")
def ident_model():
    cfg = SeparatorConfig()
    rng = np.random.default_rng(0)
    return init_params(cfg, rng, noise=0.0), cfg


def read_pgm(path):
    lines = [ln for ln in Path(path).read_text().split("\n") if ln and not ln.startswith("#")]
    tokens = " ".join(lines).split()
    assert tokens[0] == "P2"
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    vals = np.array(tokens[4:], dtype=int)
    return w, h, maxval, vals


class TestPublishedArithmetic:
    def test_entanglement_confusion_counts(self):
        # published confusion matrix at tau=0.0051: TP=20461, FN=942,
        # TN=30696, FP=12901 -> BA = (0.9560 + 0.7041) / 2 = 0.830
        ba = balanced_accuracy_from_counts(tp=20461, fn=942, tn=30696, fp=12901)
        assert abs(ba - 0.830) <= 5e-4

    def test_discord_confusion_counts(self):
        # published confusion matrix at tau=0.0023: positives 38694 with
        # TP=35163, negatives 26306 with TN=25114 -> BA = 0.932
        ba = balanced_accuracy_from_counts(
            tp=35163, fn=38694 - 35163, tn=25114, fp=26306 - 25114
        )
        assert abs(ba - 0.932) <= 5e-4


class TestSweep:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.losses = np.concatenate(
            [rng.uniform(0.001, 0.01, 80), rng.uniform(0.02, 0.9, 40)]
        )
        self.positive = np.concatenate([np.zeros(80, bool), np.ones(40, bool)])

    def test_counts_sum(self):
        sw = sweep(self.losses, self.positive)
        totals = sw.tp + sw.fp + sw.tn + sw.fn
        assert np.all(totals == len(self.losses))

    def test_monotonicity(self):
        sw = sweep(self.losses, self.positive)
        assert np.all(np.diff(sw.recall) <= 1e-12)  # recall non-increasing in tau
        assert np.all(np.diff(sw.tn) >= 0)  # true negatives non-decreasing

    def test_tau_below_all(self):
        sw = sweep(self.losses, self.positive, thresholds=np.array([1e-9]))
        assert sw.recall[0] == 1.0
        assert sw.tn[0] == 0

    def test_tau_above_all(self):
        sw = sweep(self.losses, self.positive, thresholds=np.array([10.0]))
        assert sw.tp[0] == 0
        assert sw.balanced_accuracy[0] == 0.5

    def test_precision_one_at_zero_flagged(self):
        sw = sweep(self.losses, self.positive, thresholds=np.array([10.0]))
        assert sw.precision[0] == 1.0

    def test_perfect_separation_hits_ba_one(self):
        sw = sweep(self.losses, self.positive)
        assert sw.best_balanced_accuracy == 1.0

    def test_ba_invariant_under_positive_duplication(self):
        sw1 = sweep(self.losses, self.positive)
        losses3 = np.concatenate([self.losses, np.tile(self.losses[self.positive], 2)])
        pos3 = np.concatenate([self.positive, np.ones(2 * 40, bool)])
        sw3 = sweep(losses3, pos3)
        assert np.allclose(sw1.balanced_accuracy, sw3.balanced_accuracy, atol=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            sweep(self.losses, np.zeros(120, bool))
        with pytest.raises(ValueError):
            sweep(self.losses, np.ones(120, bool))

    def test_default_grid(self):
        grid = threshold_grid()
        assert len(grid) == 400
        assert np.isclose(grid[0], 1e-5) and np.isclose(grid[-1], 1.0)
        assert np.all(np.diff(grid) > 0)

    def test_label_modes(self, mixed_set):
        disc = positives_for_mode(mixed_set.labels, "discord")
        ent = positives_for_mode(mixed_set.labels, "entanglement")
        assert np.all(ent <= disc)  # entangled is a subset of discordant
        with pytest.raises(ValueError):
            positives_for_mode(mixed_set.labels, "telepathy")


class TestConfusion:
    def test_perfect_separation(self):
        losses = np.array([0.001, 0.002, 0.5, 0.6])
        positive = np.array([False, False, True, True])
        m = confusion_at(losses, positive, 0.01)
        assert m[0, 1] == 0 and m[1, 0] == 0
        assert m[0, 0] == 2 and m[1, 1] == 2

    def test_tau_infinite(self):
        losses = np.array([0.001, 0.002, 0.5, 0.6])
        positive = np.array([False, False, True, True])
        m = confusion_at(losses, positive, np.inf)
        assert m[0, 1] == 0 and m[1, 1] == 0

    def test_matches_sweep_counts(self):
        rng = np.random.default_rng(8)
        losses = rng.uniform(0, 1, 50)
        positive = rng.uniform(size=50) < 0.4
        tau = 0.3
        sw = sweep(losses, positive, thresholds=np.array([tau]))
        m = confusion_at(losses, positive, tau)
        assert m[1, 1] == sw.tp[0] and m[0, 1] == sw.fp[0]
        assert m[0, 0] == sw.tn[0] and m[1, 0] == sw.fn[0]


class TestClassMeans:
    def test_zero_losses(self, mixed_set):
        table = class_mean_losses(np.zeros(len(mixed_set)), mixed_set.labels)
        assert all(v == 0.0 for v in table.values())

    def test_groups_and_means(self, mixed_set):
        losses = np.arange(len(mixed_set), dtype=float)
        table = class_mean_losses(losses, mixed_set.labels)
        assert set(table) == {"separable", "non_discordant", "discordant", "entangled"}
        masks = group_masks(mixed_set.labels)
        for name, mean in table.items():
            assert abs(mean - losses[masks[name]].mean()) <= 1e-12

    def test_discordant_group_includes_entangled(self, mixed_set):
        masks = group_masks(mixed_set.labels)
        assert np.all(masks["entangled"] <= masks["discordant"])
        assert np.all(masks["non_discordant"] <= masks["separable"])

    def test_empty_class_absent(self):
        from qsep.oracles import classify
        from qsep.training import pack_label

        rng = np.random.default_rng(5)
        mats = np.stack([ket_to_dm(random_separable_pure(rng)) for _ in range(6)])
        labels = np.array(
            [pack_label(classify(m, known_separable=True)) for m in mats],
            dtype=np.uint16,
        )
        table = class_mean_losses(np.zeros(6), labels)
        assert "entangled" not in table

    def test_baseline_products_tiny(self):
        rng = np.random.default_rng(6)
        mats = np.stack([ket_to_dm(random_separable_pure(rng)) for _ in range(20)])
        assert baseline_losses(mats).mean() <= 1e-10


class TestEvalLosses:
    def test_threads_match_serial(self, mixed_set, ident_model):
        params, cfg = ident_model
        a = eval_losses(mixed_set.mats, params, cfg, chunk=64, threads=1)
        b = eval_losses(mixed_set.mats, params, cfg, chunk=64, threads=4)
        assert np.array_equal(a, b)

    def test_chunking_invariant(self, mixed_set, ident_model):
        params, cfg = ident_model
        a = eval_losses(mixed_set.mats, params, cfg, chunk=7)
        b = eval_losses(mixed_set.mats, params, cfg, chunk=1000)
        assert np.allclose(a, b, atol=1e-14)


@pytest.fixture(scope="module")
def small_map(ident_model):
    params, cfg = ident_model
    return render_map(params, cfg, grid=21)


class TestMap:

    def test_grid_too_small_rejected(self, ident_model):
        params, cfg = ident_model
        with pytest.raises(ValueError):
            render_map(params, cfg, grid=7)

    def test_all_four_classes(self, small_map):
        assert set(np.unique(small_map.klasses)) == {0, 1, 2, 3}

    def test_point_a_low_loss(self, small_map):
        # the pure-product cell at u = v = 0.5 (grid step 0.1)
        iu = int(round(0.5 / (2.0 / 20)))
        assert small_map.losses[iu, iu] <= 2e-3

    def test_baseline_product_vs_correlated(self, small_map):
        prod = small_map.klasses == 0
        assert prod.any()
        assert small_map.baseline[prod].max() <= 1e-10
        nd_mixed = small_map.klasses == 1
        assert nd_mixed.any()
        assert np.median(small_map.baseline[nd_mixed]) > 1e-3

    def test_iou_bounds(self, small_map):
        v = map_iou(small_map, small_map.baseline, threshold=1e-6)
        assert 0.0 <= v <= 1.0
        best, tau = best_map_iou(small_map, small_map.baseline)
        assert 0.0 <= best <= 1.0
        assert tau > 0

    @pytest.mark.parametrize("chunk", [7, 21 * 21 + 1])
    def test_chunk_invariant(self, ident_model, small_map, chunk):
        # small_map is rendered with the default chunk, 512
        params, cfg = ident_model
        render = render_map(params, cfg, grid=21, chunk=chunk)
        for field in ("losses", "baseline", "klasses", "klass_names"):
            assert np.array_equal(getattr(render, field), getattr(small_map, field)), field

    def test_oracle_iou_perfect_for_oracle_values(self, small_map):
        # a loss field that is 0 exactly on the non-discordant region and 1
        # elsewhere gives IoU 1 at any threshold in between
        synth = np.where((small_map.klasses == 0) | (small_map.klasses == 1), 0.0, 1.0)
        assert map_iou(small_map, synth, threshold=0.5) == 1.0


class TestCsvWriters:
    def test_sweep_csv(self, tmp_path):
        losses = np.array([0.001, 0.002, 0.5, 0.6])
        positive = np.array([False, False, True, True])
        sw = sweep(losses, positive, thresholds=np.array([0.01, 0.1]))
        p = str(tmp_path / "sweep.csv")
        write_sweep_csv(p, sw, seed=7, checkpoint="abc123")
        lines = Path(p).read_text().strip().split("\n")
        assert lines[0] == "# seed=7 checkpoint=abc123"
        assert lines[1] == "tau,tp,fp,tn,fn,pr,rc,ba"
        assert len(lines) == 2 + 2

    def test_class_means_csv(self, tmp_path, mixed_set):
        p = str(tmp_path / "means.csv")
        write_class_means_csv(
            p, np.ones(len(mixed_set)), mixed_set.labels, seed=7, checkpoint="abc123"
        )
        lines = Path(p).read_text().strip().split("\n")
        assert lines[0] == "# seed=7 checkpoint=abc123"
        assert lines[1] == "class,count,mean_loss"
        assert [ln.split(",")[0] for ln in lines[2:]] == [
            "separable",
            "non_discordant",
            "discordant",
            "entangled",
        ]

    def test_map_csv_and_pgm(self, tmp_path, ident_model):
        params, cfg = ident_model
        render = render_map(params, cfg, grid=11)
        pc = str(tmp_path / "map.csv")
        write_map_csv(pc, render, render.losses, seed=3, checkpoint="xyz")
        lines = Path(pc).read_text().strip().split("\n")
        assert lines[0] == "# seed=3 checkpoint=xyz"
        assert lines[1] == "u,v,loss,klass"
        assert len(lines) == 2 + 11 * 11
        first = lines[2].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0

        pp = str(tmp_path / "map.pgm")
        write_map_pgm(pp, render.losses, seed=3, checkpoint="xyz")
        w, h, maxval, vals = read_pgm(pp)
        assert (w, h, maxval) == (11, 11, 255)
        assert len(vals) == 121
        assert vals.min() == 0 and vals.max() == 255  # min-max normalization

    def test_pgm_constant_field(self, tmp_path):
        p = str(tmp_path / "flat.pgm")
        write_map_pgm(p, np.full((11, 11), 0.5), seed=0, checkpoint="c")
        _, _, _, vals = read_pgm(p)
        assert np.all(vals == 0)
