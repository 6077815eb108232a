"""Evaluation: loss sweeps, detection metrics, and the 2-D map rendering.

The detector is a threshold on reconstruction loss: a state is flagged as
correlated when its loss exceeds tau. Metrics are computed across a log-spaced
grid of thresholds and reported per class group. Groups overlap on purpose
("discordant" contains the entangled states; discord is the superset notion).
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

# classify and map_state are unused here: perfbench/layers.py wraps them by attribute
from .oracles import STATE_CLASSES, StateClass, classify, label_states  # noqa: F401
from .separator import (
    SeparatorConfig,
    SeparatorParams,
    atomic_write,
    baseline_losses,
    forward_batch,
)
from .states import map_params, map_state, map_states  # noqa: F401
from .training import unpack_labels

DEFAULT_THRESHOLDS = 400
THRESHOLD_RANGE = (1e-5, 1.0)
GROUPS = ("separable", "non_discordant", "discordant", "entangled")
LABEL_MODES = ("discord", "entanglement")
DEFAULT_CHUNK = 512  # states per model/oracle pass
DEFAULT_GRID = 101  # map points per axis
MIN_GRID = 11
QUANTILES = (5, 50, 95)  # per-group loss percentiles in the means CSV


def threshold_grid() -> np.ndarray:
    """DEFAULT_THRESHOLDS log-spaced thresholds over THRESHOLD_RANGE."""
    lo, hi = THRESHOLD_RANGE
    return np.logspace(np.log10(lo), np.log10(hi), DEFAULT_THRESHOLDS)


def _spans(n: int, chunk: int) -> list[tuple[int, int]]:
    """The (lo, hi) bounds of n states in spans of `chunk`."""
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def _run_tasks(tasks: list, threads: int) -> list:
    """Results of the zero-argument `tasks`, in task order, from one pool of
    max(1, threads) workers, which takes them in order."""
    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        return list(pool.map(lambda task: task(), tasks))


def _model_losses(
    rhos: np.ndarray, params: SeparatorParams, config: SeparatorConfig
) -> np.ndarray:
    return forward_batch(rhos, params, config)[0]


def eval_losses(
    mats: np.ndarray,
    params: SeparatorParams,
    config: SeparatorConfig,
    chunk: int = DEFAULT_CHUNK,
    threads: int = 1,
) -> np.ndarray:
    """Model reconstruction loss per state, from forward-only passes.

    Threading only distributes chunks; the per-chunk math and the output order
    are identical for any thread count, so it never changes a bit. The chunk
    size can: BLAS blocks the FC products by the chunk's state count, which
    moves a loss in its last bits (a rounding change, relative to the loss: at
    most 8e-15 at n_k=48 and the default init between chunks 1 and 512). So
    does the forward-only pass itself, which folds the encoder into the first
    FC layer (`separator.forward_batch`): its losses are within 1e-12 absolute
    of the unfolded pass `gradient` runs on the weights the tests use, and the
    gap grows as the decoder's trace shrinks."""
    tasks = [partial(_model_losses, mats[lo:hi], params, config)
             for lo, hi in _spans(len(mats), chunk)]
    parts = _run_tasks(tasks, threads)
    return np.concatenate(parts) if parts else np.zeros(0)


def group_masks(labels: np.ndarray) -> dict[str, np.ndarray]:
    """Membership of each of GROUPS, from the decoded label bitfields."""
    decoded = unpack_labels(labels)
    ent, disc = decoded.entangled, decoded.discordant
    return {"separable": ~ent, "non_discordant": ~disc, "discordant": disc, "entangled": ent}


def positives_for_mode(labels: np.ndarray, label_mode: str) -> np.ndarray:
    if label_mode not in LABEL_MODES:
        raise ValueError(f"label_mode must be one of {LABEL_MODES}")
    masks = group_masks(labels)
    return masks["discordant"] if label_mode == "discord" else masks["entangled"]


@dataclass
class SweepResult:
    thresholds: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    tn: np.ndarray
    fn: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    balanced_accuracy: np.ndarray
    best_index: int

    @property
    def best_threshold(self) -> float:
        return float(self.thresholds[self.best_index])

    @property
    def best_balanced_accuracy(self) -> float:
        return float(self.balanced_accuracy[self.best_index])

    @property
    def accuracy(self) -> np.ndarray:
        return (self.tp + self.tn) / (self.tp + self.fp + self.tn + self.fn)


def sweep(
    losses: np.ndarray, positive: np.ndarray, thresholds: np.ndarray | None = None
) -> SweepResult:
    """Threshold sweep for the detector "loss > tau means positive".

    `positive` is the ground-truth flag per state. Precision is defined as 1
    when nothing is flagged (no claims, no false claims).
    """
    losses = np.asarray(losses, dtype=float)
    positive = np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = int((~positive).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("sweep needs both positive and negative examples")
    if thresholds is None:
        thresholds = threshold_grid()
    thresholds = np.asarray(thresholds, dtype=float)
    # one sort instead of a dense (n_tau, n_state) predicate matrix
    pos_sorted = np.sort(losses[positive])
    neg_sorted = np.sort(losses[~positive])
    tp = n_pos - np.searchsorted(pos_sorted, thresholds, side="right")
    fp = n_neg - np.searchsorted(neg_sorted, thresholds, side="right")
    fn = n_pos - tp
    tn = n_neg - fp
    recall = tp / n_pos
    flagged = tp + fp
    precision = np.ones(len(thresholds))
    nz = flagged > 0
    precision[nz] = tp[nz] / flagged[nz]
    ba = 0.5 * (recall + tn / n_neg)
    return SweepResult(
        thresholds=thresholds,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        precision=precision,
        recall=recall,
        balanced_accuracy=ba,
        best_index=int(np.argmax(ba)),
    )


def write_sweep_csv(path: str, result: SweepResult, seed, checkpoint: str) -> None:
    with atomic_write(path) as fh:
        fh.write(f"# seed={seed} checkpoint={checkpoint}\n")
        fh.write("tau,tp,fp,tn,fn,pr,rc,ba\n")
        for i, tau in enumerate(result.thresholds):
            fh.write(
                f"{tau:.17g},{result.tp[i]},{result.fp[i]},{result.tn[i]},{result.fn[i]},"
                f"{result.precision[i]:.17g},{result.recall[i]:.17g},"
                f"{result.balanced_accuracy[i]:.17g}\n"
            )


def write_class_means_csv(
    path: str, losses: np.ndarray, labels: np.ndarray, seed, checkpoint: str
) -> None:
    """Count, mean loss and the QUANTILES percentiles of the loss (numpy's
    default linear interpolation) of each group in GROUPS; empty groups are
    omitted."""
    masks = group_masks(labels)
    with atomic_write(path) as fh:
        fh.write(f"# seed={seed} checkpoint={checkpoint}\n")
        fh.write("class,count,mean_loss," + ",".join(f"p{q}" for q in QUANTILES) + "\n")
        for name in GROUPS:
            mask = masks[name]
            if mask.any():
                group = losses[mask]
                stats = [group.mean(), *np.percentile(group, QUANTILES)]
                fh.write(f"{name},{int(mask.sum())}," + ",".join(f"{x:.17g}" for x in stats) + "\n")


def write_confusion_csv(path: str, conf: list, seed, checkpoint: str) -> None:
    """The counts [[tn, fp], [fn, tp]] of a one-threshold `sweep`, rows = true label."""
    with atomic_write(path) as fh:
        fh.write(f"# seed={seed} checkpoint={checkpoint}\n")
        fh.write(",pred_negative,pred_positive\n")
        fh.write(f"true_negative,{conf[0][0]},{conf[0][1]}\n")
        fh.write(f"true_positive,{conf[1][0]},{conf[1][1]}\n")


# --- 2-D map rendering ------------------------------------------------------


@dataclass
class MapRender:
    us: np.ndarray  # (G,)
    vs: np.ndarray  # (G,)
    losses: np.ndarray  # (G, G) model loss, row = v index, col = u index
    baseline: np.ndarray  # (G, G)
    klasses: np.ndarray  # (G, G) int8 class codes, indices into STATE_CLASSES


def _distinct_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of `table` in order of first occurrence, and the
    index of each row of `table` among them."""
    _, first, inverse = np.unique(table, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return table[first[order]], np.argsort(order)[inverse.ravel()]


def _render_span(
    table: np.ndarray, params: SeparatorParams, config: SeparatorConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Model losses, baseline losses and class codes of the states of the
    `map_params` rows `table`, built here and dropped on return."""
    mats = map_states(table)
    losses, base = _model_losses(mats, params, config), baseline_losses(mats)
    # unboosted rows (column 3, c_boost, is 0) are two-term mixtures of
    # product kets: separable by construction
    return losses, base, label_states(mats, table[:, 3] == 0.0).klass


def render_map(
    params: SeparatorParams,
    config: SeparatorConfig,
    grid: int = DEFAULT_GRID,
    chunk: int = DEFAULT_CHUNK,
    threads: int = 1,
) -> MapRender:
    """Evaluate the model and the factored-reduction baseline over the
    two-parameter state family on a regular grid of [0, 2] x [0, 2], and
    label each state with the oracle.

    Mirror cells and the bands where the parameters saturate repeat another
    cell's (p, a, phi, c_boost) (3,516 of 10,201 cells at grid 101), and
    `map_states` gives equal rows equal matrices, so only the distinct rows,
    in order of first occurrence, are built and evaluated; each cell then
    takes its row's results. Each `chunk`-sized span of the distinct rows is
    one task (`_render_span`) that builds its states, then runs the model,
    the baseline and the oracle on them; the tasks queue on one pool of
    `threads` workers, so no more than `threads` spans of states exist at
    once. `map_states` builds each row bit-identically whatever else is in
    the call, so the span bounds change no state, and the thread count never
    changes a bit. The baseline and the labels do not depend on the chunk
    either; the model losses can move in their last bits with it and come
    from the folded forward-only pass, whose gap to the unfolded one is
    bounded as in `eval_losses`. Raises ValueError when grid is below MIN_GRID.
    """
    if grid < MIN_GRID:
        raise ValueError(f"grid must be >= {MIN_GRID}")
    us = np.linspace(0.0, 2.0, grid)
    vs = np.linspace(0.0, 2.0, grid)
    distinct, cell = _distinct_rows(map_params(*np.meshgrid(us, vs)))
    tasks = [partial(_render_span, distinct[lo:hi], params, config)
             for lo, hi in _spans(len(distinct), chunk)]
    losses, base, codes = (np.concatenate(r) for r in zip(*_run_tasks(tasks, threads)))
    g = (grid, grid)
    return MapRender(
        us=us,
        vs=vs,
        losses=losses[cell].reshape(g),
        baseline=base[cell].reshape(g),
        klasses=codes[cell].reshape(g),
    )


def write_map_csv(
    path: str, render: MapRender, values: np.ndarray, seed, checkpoint: str
) -> None:
    """Per-cell (u, v, loss, klass) rows, klass as the class name; `values`
    picks model or baseline."""
    names = [k.value for k in STATE_CLASSES]
    with atomic_write(path) as fh:
        fh.write(f"# seed={seed} checkpoint={checkpoint}\n")
        fh.write("u,v,loss,klass\n")
        us = [f"{u:.17g}" for u in render.us.tolist()]
        rows = zip(render.vs.tolist(), values.tolist(), render.klasses.tolist())
        for v, row, codes in rows:
            v = f"{v:.17g}"
            fh.write("".join([f"{u},{v},{x:.17g},{names[k]}\n" for u, x, k in zip(us, row, codes)]))


def write_map_pgm(path: str, values: np.ndarray, seed, checkpoint: str) -> None:
    """Plain-text PGM (P2), min-max normalized to 0..255. Row 0 is v = 0."""
    lo = float(values.min())
    hi = float(values.max())
    span = hi - lo
    if span <= 0:
        pix = np.zeros(values.shape, dtype=int)
    else:
        pix = np.rint((values - lo) / span * 255).astype(int)
    h, w = values.shape
    with atomic_write(path) as fh:
        fh.write("P2\n")
        fh.write(f"# seed={seed} checkpoint={checkpoint}\n")
        fh.write(f"{w} {h}\n255\n")
        for row in pix:
            fh.write(" ".join(str(int(p)) for p in row) + "\n")


def region_iou(mask_a: np.ndarray, mask_b: np.ndarray) -> float:
    union = (mask_a | mask_b).sum()
    if union == 0:
        return 1.0
    return float((mask_a & mask_b).sum() / union)


def map_iou(render: MapRender, values: np.ndarray, threshold: float) -> float:
    """IoU between the sub-threshold region of `values` and the oracle's
    non-discordant region (products included) on the map."""
    oracle = np.isin(render.klasses, [STATE_CLASSES.index(StateClass.PRODUCT),
                                      STATE_CLASSES.index(StateClass.NON_DISCORDANT)])
    predicted = values <= threshold
    return region_iou(predicted, oracle)

