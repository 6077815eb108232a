"""Evaluation: loss sweeps, detection metrics, and the 2-D map rendering.

The detector is a threshold on reconstruction loss: a state is flagged as
correlated when its loss exceeds tau. Metrics are computed across a log-spaced
grid of thresholds and reported per class group. Groups overlap on purpose
("discordant" contains the entangled states; discord is the superset notion).
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# classify and map_state are unused here: perfbench/layers.py wraps them by attribute
from .oracles import STATE_CLASSES, classify, label_states  # noqa: F401
from .separator import SeparatorConfig, SeparatorParams, baseline_losses, forward_batch
from .states import map_point, map_state, map_states  # noqa: F401
from .training import BIT_SEPARABLE, BIT_ZERO_DISCORD, ENT_SHIFT

DEFAULT_THRESHOLDS = 400
THRESHOLD_RANGE = (1e-5, 1.0)
GROUPS = ("separable", "non_discordant", "discordant", "entangled")
LABEL_MODES = ("discord", "entanglement")


def threshold_grid(
    n: int = DEFAULT_THRESHOLDS, lo: float = THRESHOLD_RANGE[0], hi: float = THRESHOLD_RANGE[1]
) -> np.ndarray:
    return np.logspace(np.log10(lo), np.log10(hi), n)


def eval_losses(
    mats: np.ndarray,
    params: SeparatorParams,
    config: SeparatorConfig,
    chunk: int = 512,
    threads: int = 1,
) -> np.ndarray:
    """Model reconstruction loss per state. Threading only distributes chunks; the
    per-chunk math and the output order are identical for any thread count."""
    spans = [(i, min(i + chunk, len(mats))) for i in range(0, len(mats), chunk)]

    def run(span: tuple[int, int]) -> np.ndarray:
        losses, _, _ = forward_batch(mats[span[0] : span[1]], params, config)
        return losses

    if threads <= 1 or len(spans) <= 1:
        parts = [run(s) for s in spans]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, spans))
    return np.concatenate(parts) if parts else np.zeros(0)


def group_masks(labels: np.ndarray) -> dict[str, np.ndarray]:
    labels = np.asarray(labels)
    ent = ((labels >> ENT_SHIFT) & 0b111) != 0
    zd = (labels & BIT_ZERO_DISCORD) != 0
    return {
        "separable": (labels & BIT_SEPARABLE) != 0,
        "non_discordant": zd,
        "discordant": ~zd,
        "entangled": ent,
    }


def positives_for_mode(labels: np.ndarray, label_mode: str) -> np.ndarray:
    if label_mode not in LABEL_MODES:
        raise ValueError(f"label_mode must be one of {LABEL_MODES}")
    masks = group_masks(labels)
    return masks["discordant"] if label_mode == "discord" else masks["entangled"]


def class_mean_losses(losses: np.ndarray, labels: np.ndarray) -> dict[str, float]:
    """Mean loss per group; groups with no members are omitted."""
    out = {}
    for name, mask in group_masks(labels).items():
        if mask.any():
            out[name] = float(losses[mask].mean())
    return out


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
    def tpr(self) -> np.ndarray:
        return self.recall

    @property
    def fpr(self) -> np.ndarray:
        return self.fp / (self.fp + self.tn)

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


def confusion_at(losses: np.ndarray, positive: np.ndarray, threshold: float) -> np.ndarray:
    """2x2 counts, rows = true label (negative, positive), columns = predicted."""
    losses = np.asarray(losses, dtype=float)
    positive = np.asarray(positive, dtype=bool)
    pred = losses > threshold
    return np.array(
        [
            [int((~positive & ~pred).sum()), int((~positive & pred).sum())],
            [int((positive & ~pred).sum()), int((positive & pred).sum())],
        ]
    )


def balanced_accuracy_from_counts(tp: int, fn: int, tn: int, fp: int) -> float:
    return 0.5 * (tp / (tp + fn) + tn / (tn + fp))


def write_sweep_csv(path: str, result: SweepResult, seed, checkpoint: str) -> None:
    with open(path, "w") as fh:
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
    masks = group_masks(labels)
    with open(path, "w") as fh:
        fh.write(f"# seed={seed} checkpoint={checkpoint}\n")
        fh.write("class,count,mean_loss\n")
        for name in GROUPS:
            mask = masks[name]
            if mask.any():
                fh.write(f"{name},{int(mask.sum())},{float(losses[mask].mean()):.17g}\n")


# --- 2-D map rendering ------------------------------------------------------


@dataclass
class MapRender:
    us: np.ndarray  # (G,)
    vs: np.ndarray  # (G,)
    losses: np.ndarray  # (G, G) model loss, row = v index, col = u index
    baseline: np.ndarray  # (G, G)
    klasses: np.ndarray  # (G, G) int8 class codes, indices into STATE_CLASSES
    klass_names: np.ndarray  # (G, G) object array of class value strings


def render_map(
    params: SeparatorParams,
    config: SeparatorConfig,
    grid: int = 101,
    chunk: int = 512,
    threads: int = 1,
) -> MapRender:
    """Evaluate the model and the factored-reduction baseline over the
    two-parameter state family on a regular grid of [0, 2] x [0, 2], and
    label each state with the oracle, `chunk` states per oracle pass."""
    if grid < 11:
        raise ValueError("grid must be >= 11")
    us = np.linspace(0.0, 2.0, grid)
    vs = np.linspace(0.0, 2.0, grid)
    pts = [map_point(u, v) for v in vs for u in us]
    mats = map_states(pts)
    losses = eval_losses(mats, params, config, chunk=chunk, threads=threads)
    base = baseline_losses(mats)
    # unboosted cells are two-term mixtures of product kets: separable by construction
    known_separable = np.array([pt.c_boost == 0.0 for pt in pts])
    codes = label_states(mats, known_separable, chunk=chunk).klass
    names = np.array([k.value for k in STATE_CLASSES], dtype=object)[codes]
    g = (grid, grid)
    return MapRender(
        us=us,
        vs=vs,
        losses=losses.reshape(g),
        baseline=base.reshape(g),
        klasses=codes.reshape(g),
        klass_names=names.reshape(g),
    )


def write_map_csv(
    path: str, render: MapRender, values: np.ndarray, seed, checkpoint: str
) -> None:
    """Per-cell (u, v, loss, klass) rows; `values` picks model or baseline."""
    with open(path, "w") as fh:
        fh.write(f"# seed={seed} checkpoint={checkpoint}\n")
        fh.write("u,v,loss,klass\n")
        for j, v in enumerate(render.vs):
            for i, u in enumerate(render.us):
                fh.write(
                    f"{u:.17g},{v:.17g},{values[j, i]:.17g},{render.klass_names[j, i]}\n"
                )


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
    with open(path, "w") as fh:
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
    oracle = (render.klasses == 0) | (render.klasses == 1)  # Product or NonDiscordant
    predicted = values <= threshold
    return region_iou(predicted, oracle)


def best_map_iou(
    render: MapRender, values: np.ndarray, thresholds: np.ndarray | None = None
) -> tuple[float, float]:
    """Best achievable IoU over a threshold grid; returns (iou, threshold)."""
    if thresholds is None:
        thresholds = threshold_grid()
    best_iou, best_tau = -1.0, float(thresholds[0])
    for tau in thresholds:
        iou = map_iou(render, values, float(tau))
        if iou > best_iou:
            best_iou, best_tau = iou, float(tau)
    return best_iou, best_tau
