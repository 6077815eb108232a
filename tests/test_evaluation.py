"""Threshold sweeps, confusion matrices, class means, and the 2D map."""
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qsep.evaluation import (
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
from qsep.oracles import STATE_CLASSES, label_states
from qsep.separator import SeparatorConfig, baseline_losses, forward_batch, init_params
from qsep.states import ket_to_dm, map_params, map_states, random_separable_pure
from qsep.training import build_s_mixed


@pytest.fixture(scope="module")
def mixed_set():
    return build_s_mixed(300, seed=21)


@pytest.fixture(scope="module")
def ident_model():
    cfg = SeparatorConfig()
    rng = np.random.default_rng(0)
    return init_params(cfg, rng, noise=0.0), cfg


@pytest.fixture(scope="module")
def noisy_model():
    # n_k=48 at the default init noise, losses 0.03-0.1: its FC products are
    # inexact, so the BLAS blocking shows in the last bits
    cfg = SeparatorConfig(n_k=48)
    return init_params(cfg, np.random.default_rng(0)), cfg


# model losses may move in their last bits with the chunk size, because BLAS
# blocks the FC products by the state count; 5.7e-16 was the largest change seen
CHUNK_TOL = 1e-13


def read_pgm(path):
    lines = [ln for ln in Path(path).read_text().split("\n") if ln and not ln.startswith("#")]
    tokens = " ".join(lines).split()
    assert tokens[0] == "P2"
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    vals = np.array(tokens[4:], dtype=int)
    return w, h, maxval, vals


def balanced_accuracy(tp, fn, tn, fp):
    return 0.5 * (tp / (tp + fn) + tn / (tn + fp))


class TestPublishedArithmetic:
    def test_entanglement_confusion_counts(self):
        # published confusion matrix at tau=0.0051: TP=20461, FN=942,
        # TN=30696, FP=12901 -> BA = (0.9560 + 0.7041) / 2 = 0.830
        ba = balanced_accuracy(tp=20461, fn=942, tn=30696, fp=12901)
        assert abs(ba - 0.830) <= 5e-4

    def test_discord_confusion_counts(self):
        # published confusion matrix at tau=0.0023: positives 38694 with
        # TP=35163, negatives 26306 with TN=25114 -> BA = 0.932
        ba = balanced_accuracy(
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
    """The `--tau` confusion matrix is a one-threshold sweep."""

    def test_perfect_separation(self):
        losses = np.array([0.001, 0.002, 0.5, 0.6])
        positive = np.array([False, False, True, True])
        m = sweep(losses, positive, thresholds=[0.01])
        assert m.fp[0] == 0 and m.fn[0] == 0
        assert m.tn[0] == 2 and m.tp[0] == 2

    def test_tau_infinite(self):
        losses = np.array([0.001, 0.002, 0.5, 0.6])
        positive = np.array([False, False, True, True])
        m = sweep(losses, positive, thresholds=[np.inf])
        assert m.fp[0] == 0 and m.tp[0] == 0

    def test_nan_loss_is_flagged(self):
        # NaN sorts last, above every threshold
        losses = np.array([0.001, np.nan, 0.5, 0.6])
        positive = np.array([False, False, True, True])
        m = sweep(losses, positive, thresholds=[0.01, np.inf])
        assert list(m.fp) == [1, 1] and list(m.tn) == [1, 1]


def class_means(tmp_path, losses, labels):
    """{class: (count, mean loss)} as `write_class_means_csv` writes them."""
    return {name: row[:2] for name, row in class_rows(tmp_path, losses, labels).items()}


def class_rows(tmp_path, losses, labels):
    """{class: (count, mean loss, p5, p50, p95)} as `write_class_means_csv`
    writes them."""
    p = tmp_path / "means.csv"
    write_class_means_csv(str(p), losses, labels, seed=0, checkpoint="x")
    rows = [ln.split(",") for ln in p.read_text().strip().split("\n")[2:]]
    return {name: (int(count), *map(float, stats)) for name, count, *stats in rows}


class TestClassMeans:
    def test_zero_losses(self, tmp_path, mixed_set):
        table = class_means(tmp_path, np.zeros(len(mixed_set)), mixed_set.labels)
        assert all(mean == 0.0 for _, mean in table.values())

    def test_groups_and_means(self, tmp_path, mixed_set):
        losses = np.arange(len(mixed_set), dtype=float)
        table = class_means(tmp_path, losses, mixed_set.labels)
        assert set(table) == {"separable", "non_discordant", "discordant", "entangled"}
        masks = group_masks(mixed_set.labels)
        for name, (count, mean) in table.items():
            assert count == masks[name].sum()
            assert mean == losses[masks[name]].mean()

    def test_quantiles(self, tmp_path, mixed_set):
        rng = np.random.default_rng(9)
        losses = rng.uniform(0.0, 0.1, size=len(mixed_set))
        masks = group_masks(mixed_set.labels)
        for name, (_, _, *quantiles) in class_rows(tmp_path, losses, mixed_set.labels).items():
            # written with 17 digits: each reads back as the float it was
            want = np.percentile(losses[masks[name]], [5, 50, 95])
            assert quantiles == want.tolist()
            assert quantiles == sorted(quantiles)

    def test_discordant_group_includes_entangled(self, mixed_set):
        masks = group_masks(mixed_set.labels)
        assert np.all(masks["entangled"] <= masks["discordant"])
        assert np.all(masks["non_discordant"] <= masks["separable"])

    def test_empty_class_absent(self, tmp_path):
        from qsep.oracles import classify
        from qsep.training import pack_label

        rng = np.random.default_rng(5)
        mats = np.stack([ket_to_dm(random_separable_pure(rng)) for _ in range(6)])
        labels = np.array(
            [pack_label(classify(m, known_separable=True)) for m in mats],
            dtype=np.uint16,
        )
        table = class_means(tmp_path, np.zeros(6), labels)
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

    @pytest.mark.parametrize("chunk", [1, 7, 512])
    def test_noisy_model_threads_exact_chunks_close(self, mixed_set, noisy_model, chunk):
        params, cfg = noisy_model
        serial = eval_losses(mixed_set.mats, params, cfg, chunk=chunk)
        for threads in (2, 4):
            got = eval_losses(mixed_set.mats, params, cfg, chunk=chunk, threads=threads)
            assert np.array_equal(got, serial), threads
        whole = eval_losses(mixed_set.mats, params, cfg, chunk=len(mixed_set))
        assert np.abs(serial - whole).max() <= CHUNK_TOL


@pytest.fixture(scope="module")
def small_map(ident_model):
    params, cfg = ident_model
    return render_map(params, cfg, grid=21)


def ref_render_map(params, cfg, grid, chunk=512):
    """The map computed for every cell, duplicate parameters included:
    (losses, baseline, klasses) in grid order."""
    us = np.linspace(0.0, 2.0, grid)
    table = map_params(*np.meshgrid(us, us))
    mats = map_states(table)
    spans = range(0, len(mats), chunk)
    losses = np.concatenate([forward_batch(mats[i:i + chunk], params, cfg)[0] for i in spans])
    labels = label_states(mats, table[:, 3] == 0.0)
    g = (grid, grid)
    return losses.reshape(g), baseline_losses(mats).reshape(g), labels.klass.reshape(g)


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
        for tau in threshold_grid():
            assert 0.0 <= map_iou(small_map, small_map.baseline, tau) <= 1.0

    @pytest.mark.parametrize("chunk", [7, 21 * 21 + 1])
    def test_chunk_invariant(self, ident_model, small_map, chunk):
        # small_map is rendered with the default chunk, 512
        params, cfg = ident_model
        render = render_map(params, cfg, grid=21, chunk=chunk)
        for field in ("losses", "baseline", "klasses"):
            assert np.array_equal(getattr(render, field), getattr(small_map, field)), field

    @pytest.mark.parametrize("chunk", [7, 512])
    @pytest.mark.parametrize("threads", [2, 4])
    def test_threads_match_serial(self, ident_model, small_map, threads, chunk):
        # small_map is the serial render (threads 1, chunk 512), and
        # test_chunk_invariant renders serially at other chunks
        params, cfg = ident_model
        render = render_map(params, cfg, grid=21, chunk=chunk, threads=threads)
        for field in ("losses", "baseline", "klasses"):
            assert np.array_equal(getattr(render, field), getattr(small_map, field)), field

    @pytest.mark.parametrize("grid", [21, 41])
    def test_distinct_states_match_every_cell(self, noisy_model, grid):
        # grid 41 holds cells whose top eigenvalue is degenerate before the boost
        params, cfg = noisy_model
        render = render_map(params, cfg, grid=grid, threads=2)
        losses, base, klasses = ref_render_map(params, cfg, grid)
        assert np.abs(render.losses - losses).max() <= CHUNK_TOL
        assert np.array_equal(render.baseline, base)
        assert render.klasses.dtype == np.int8 and np.array_equal(render.klasses, klasses)

    def test_duplicate_cells_hold_equal_values(self, noisy_model):
        params, cfg = noisy_model
        grid = 41
        render = render_map(params, cfg, grid=grid, chunk=100)
        us = np.linspace(0.0, 2.0, grid)
        table = map_params(*np.meshgrid(us, us))
        _, first, inverse = np.unique(table, axis=0, return_index=True, return_inverse=True)
        rep = first[inverse.ravel()]  # each cell's first cell with its parameters
        assert (rep != np.arange(grid * grid)).sum() > grid * grid // 4
        for field in ("losses", "baseline", "klasses"):
            vals = getattr(render, field).ravel()
            assert np.array_equal(vals, vals[rep]), field

    @pytest.mark.parametrize("chunk", [7, 100, 512])
    def test_noisy_model_threads_exact_chunks_close(self, noisy_model, chunk):
        params, cfg = noisy_model
        serial = render_map(params, cfg, grid=21, chunk=chunk)
        for threads in (2, 4):
            render = render_map(params, cfg, grid=21, chunk=chunk, threads=threads)
            for field in ("losses", "baseline", "klasses"):
                assert np.array_equal(getattr(render, field), getattr(serial, field)), field
        whole = render_map(params, cfg, grid=21, chunk=21 * 21)
        assert np.abs(serial.losses - whole.losses).max() <= CHUNK_TOL
        for field in ("baseline", "klasses"):
            assert np.array_equal(getattr(serial, field), getattr(whole, field)), field

    def test_peak_memory(self):
        # a unit is one complex array of all grid states; the 6,685 distinct
        # states are never built at once: each span task builds its 512 (0.05
        # units), and two workers hold two spans. A forward pass over one span
        # at n_k=48 peaks near 0.95 units, so when both workers' model passes
        # peak together the traced peak reads 2.05 units (highest of 30
        # renders), within 2.5
        cfg = SeparatorConfig(n_k=48)
        params = init_params(cfg, np.random.default_rng(0))
        grid = 101
        render_map(params, cfg, grid=11, threads=2)
        tracemalloc.start()
        try:
            render_map(params, cfg, grid=grid, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        unit = grid * grid * 64 * 16
        assert peak <= 2.5 * unit, peak / unit

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
        assert lines[1] == "class,count,mean_loss,p5,p50,p95"
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

    def test_map_csv_bytes_match_per_cell_format(self, tmp_path, noisy_model):
        params, cfg = noisy_model
        render = render_map(params, cfg, grid=21)
        klass = [[STATE_CLASSES[k].value for k in row] for row in render.klasses]
        for values in (render.losses, render.baseline):
            want = "# seed=5 checkpoint=abc\nu,v,loss,klass\n" + "".join(
                f"{u:.17g},{v:.17g},{values[j, i]:.17g},{klass[j][i]}\n"
                for j, v in enumerate(render.vs)
                for i, u in enumerate(render.us)
            )
            p = tmp_path / "map.csv"
            write_map_csv(str(p), render, values, seed=5, checkpoint="abc")
            assert p.read_bytes() == want.encode()

    def test_pgm_constant_field(self, tmp_path):
        p = str(tmp_path / "flat.pgm")
        write_map_pgm(p, np.full((11, 11), 0.5), seed=0, checkpoint="c")
        _, _, _, vals = read_pgm(p)
        assert np.all(vals == 0)
