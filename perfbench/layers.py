"""Layer boundaries the traced run wraps, and the per-layer metrics derived
from its spans.

The layers are the modules of `src/qsep`. Each boundary is wrapped where a
caller in another module (or the benchmark itself) looks the function up,
for example `qsep.training.gradient` rather than `qsep.separator.gradient`,
so calls inside a module stay inside their caller's span.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tracing import SpanTable, Tracer, self_time

FAMILIES = (
    "pure_separable",
    "mixed_product",
    "zero_discord",
    "discordant_separable",
    "pure_entangled",
    "mixed_entangled",
)
ORACLE_SPANS = {"oracles.classify", "oracles.negativity"}
LINALG_FUNCS = ("kron_all", "partial_trace", "partial_transpose", "permute_qubits")
BATCH_BUCKET = 512  # forward_batch spans split at this batch size
WRITERS = ("write_sweep_csv", "write_class_means_csv", "write_map_csv", "write_map_pgm")

# (name, unit, better, end-to-end metric it should move, workload)
PER_LAYER = [
    ("separator.gradient.calls", "count", "lower", "states_per_s", "train"),
    ("separator.gradient.busy_s", "s", "lower", "states_per_s", "train"),
    ("separator.gradient.ms_p50", "ms", "lower", "states_per_s", "train"),
    ("separator.gradient.ms_p99", "ms", "lower", "states_per_s", "train"),
    ("separator.gradient.gflops_computed", "GFLOP/s", "higher", "states_per_s", "train"),
    ("separator.forward_batch.le512.calls", "count", "lower", "states_per_s round_s", "score"),
    ("separator.forward_batch.le512.busy_s", "s", "lower", "states_per_s round_s", "score"),
    ("separator.forward_batch.le512.ms_p50", "ms", "lower", "states_per_s round_s", "score"),
    ("separator.forward_batch.gt512.calls", "count", "lower", "states_per_s", "train"),
    ("separator.forward_batch.gt512.busy_s", "s", "lower", "states_per_s", "train"),
    ("separator.forward_batch.gt512.ms_p50", "ms", "lower", "states_per_s", "train"),
    ("separator.baseline_losses.busy_s", "s", "lower", "states_per_s round_s", "score"),
    ("separator.save_checkpoint.s", "s", "lower", "states_per_s", "train"),
    ("separator.checkpoint_bytes", "bytes", "lower", "states_per_s setup_s", "train score"),
    ("separator.load_checkpoint.s", "s", "lower", "setup_s", "score"),
    ("training.train.self_s", "s", "lower", "states_per_s", "train"),
    ("training.load_qsd.s", "s", "lower", "setup_s", "train score"),
    ("training.qsd_bytes", "bytes", "lower", "setup_s", "train score"),
    ("training.save_qsd.s", "s", "lower", "states_per_s", "gen"),
]
for _family in FAMILIES:
    PER_LAYER += [
        (f"training.gen.{_family}.ms_per_record", "ms", "lower", "states_per_s", "gen"),
        (f"training.gen.{_family}.self_ms_per_record", "ms", "lower", "states_per_s", "gen"),
        (f"training.gen.{_family}.oracle_calls_per_record", "calls/record", "lower",
         "states_per_s", "gen"),
    ]
PER_LAYER += [
    ("oracles.classify.calls", "count", "lower", "states_per_s round_s", "gen score"),
    ("oracles.classify.busy_s", "s", "lower", "states_per_s round_s", "gen score"),
    ("oracles.classify.us_p50", "us", "lower", "states_per_s round_s", "gen score"),
    ("oracles.negativity.calls", "count", "lower", "states_per_s round_s", "gen score"),
    ("oracles.negativity.busy_s", "s", "lower", "states_per_s round_s", "gen score"),
    ("linalg.calls", "count", "lower", "states_per_s round_s", "gen score"),
    ("linalg.busy_s", "s", "lower", "states_per_s round_s", "gen score"),
    ("states.map_state.busy_s", "s", "lower", "round_s", "score"),
    ("evaluation.eval_losses.s", "s", "lower", "states_per_s", "score"),
    ("evaluation.sweep.s", "s", "lower", "states_per_s", "score"),
    ("evaluation.render_map.self_s", "s", "lower", "round_s", "score"),
    ("evaluation.write.s", "s", "lower", "states_per_s round_s", "score"),
    ("trace.spans", "count", "lower", "-", "all"),
    ("trace.overhead_s", "s", "lower", "-", "all"),
    ("trace.overhead_frac", "ratio", "lower", "-", "all"),
    ("trace.accounted_frac", "ratio", "higher", "-", "all"),
]
PER_LAYER_UNITS = {name: unit for name, unit, *_ in PER_LAYER}


def _arg(args, kwargs, i: int, key: str):
    return args[i] if len(args) > i else kwargs[key]


def _forward_name(args, kwargs) -> str:
    n = len(_arg(args, kwargs, 0, "rhos"))
    return f"separator.forward_batch.{'le' if n <= BATCH_BUCKET else 'gt'}{BATCH_BUCKET}"


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from qsep import evaluation, oracles, separator, states, training

    batch_len = lambda args, kwargs: len(_arg(args, kwargs, 2, "batch"))  # noqa: E731
    rhos_len = lambda args, kwargs: len(_arg(args, kwargs, 0, "rhos"))  # noqa: E731
    tracer.wrap(training, "gradient", "separator.gradient", size=batch_len)
    for module in (training, evaluation):
        tracer.wrap(module, "forward_batch", _forward_name, size=rhos_len)
    for module in (separator, evaluation):
        tracer.wrap(module, "baseline_losses", "separator.baseline_losses")
    tracer.wrap(training, "save_checkpoint", "separator.save_checkpoint")
    tracer.wrap(separator, "load_checkpoint", "separator.load_checkpoint")
    for attr in ("train", "load_qsd", "save_qsd", "build_s_mixed", "build_separable_set",
                 "build_s_pure"):
        tracer.wrap(training, attr, f"training.{attr}")
    for family in FAMILIES:
        tracer.wrap(training, f"gen_{family}", f"training.gen.{family}")
    for module in (training, evaluation):
        tracer.wrap(module, "classify", "oracles.classify")
    for module in (training, oracles):
        tracer.wrap(module, "negativity", "oracles.negativity")
    for module in (oracles, states):
        for func in LINALG_FUNCS:
            if hasattr(module, func):
                tracer.wrap(module, func, f"linalg.{func}")
    tracer.wrap(evaluation, "map_state", "states.map_state")
    for attr in ("eval_losses", "sweep", "render_map"):
        tracer.wrap(evaluation, attr, f"evaluation.{attr}")
    for attr in WRITERS:
        tracer.wrap(evaluation, attr, "evaluation.write")


def gradient_flops(batch: int, n_k: int, use_fc: bool, fc_depth: int) -> float:
    """Flops one `gradient` call computes in the encoder and the FC stack.

    Encoder: 3 paths x (re, im) contractions of B x n_k x 4 outputs x 16
    terms, forward and kernel-gradient. FC: 3 paths x depth (B x w) @ (w x w)
    matmuls forward and two per layer backward, w = 8 n_k.
    """
    enc = 2 * (3 * 2 * batch * n_k * 4 * 16 * 2)
    fc = 3 * 3 * fc_depth * 2 * batch * (8 * n_k) ** 2 if use_fc else 0
    return float(enc + fc)


@dataclass
class TraceContext:
    """Where the phases of the traced run sit among the span rows."""

    setup_rows: tuple[int, int]  # the in-process set-up
    round_rows: list[tuple[int, int]]  # one (lo, hi) per traced round
    untraced_round_s: list[float]  # wall of the same rounds run untraced
    traced_round_s: list[float]
    n_k: int
    use_fc: bool
    fc_depth: int
    checkpoint_bytes: int
    qsd_bytes: int


def _rows(ranges: list[tuple[int, int]]) -> np.ndarray:
    return np.concatenate([np.arange(lo, hi) for lo, hi in ranges] + [np.zeros(0, dtype=int)])


def _pct(values: np.ndarray, q: float, scale: float) -> float:
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def derive(spans: SpanTable, ctx: TraceContext) -> dict[str, float]:
    """Every PER_LAYER metric, per traced round unless its name says otherwise."""
    dur = spans.duration
    kids = spans.children()
    round_rows, setup_rows = _rows(ctx.round_rows), _rows([ctx.setup_rows])
    per_round = 1.0 / len(ctx.round_rows)

    def rows(name: str) -> np.ndarray:
        return spans.select(name, round_rows)

    def busy(name: str) -> float:
        return float(dur[rows(name)].sum()) * per_round

    def total_self(name: str) -> float:
        return sum(self_time(spans, int(i), kids) for i in rows(name)) * per_round

    m: dict[str, float] = {}
    grad = rows("separator.gradient")
    m["separator.gradient.calls"] = len(grad) * per_round
    m["separator.gradient.busy_s"] = busy("separator.gradient")
    m["separator.gradient.ms_p50"] = _pct(dur[grad], 50, 1e3)
    m["separator.gradient.ms_p99"] = _pct(dur[grad], 99, 1e3)
    flops = sum(
        gradient_flops(int(b), ctx.n_k, ctx.use_fc, ctx.fc_depth) for b in spans.size[grad]
    )
    grad_s = float(dur[grad].sum())
    m["separator.gradient.gflops_computed"] = flops / grad_s / 1e9 if grad_s > 0 else 0.0
    for bucket in (f"le{BATCH_BUCKET}", f"gt{BATCH_BUCKET}"):
        name = f"separator.forward_batch.{bucket}"
        fwd = rows(name)
        m[f"{name}.calls"] = len(fwd) * per_round
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.ms_p50"] = _pct(dur[fwd], 50, 1e3)
    m["separator.baseline_losses.busy_s"] = busy("separator.baseline_losses")
    m["separator.save_checkpoint.s"] = busy("separator.save_checkpoint")
    m["separator.checkpoint_bytes"] = float(ctx.checkpoint_bytes)
    setup_load = spans.select("separator.load_checkpoint", setup_rows)
    m["separator.load_checkpoint.s"] = float(dur[setup_load].sum())

    m["training.train.self_s"] = total_self("training.train")
    setup_qsd = spans.select("training.load_qsd", setup_rows)
    m["training.load_qsd.s"] = float(dur[setup_qsd].sum())
    m["training.qsd_bytes"] = float(ctx.qsd_bytes)
    m["training.save_qsd.s"] = busy("training.save_qsd")
    for family in FAMILIES:
        gen = rows(f"training.gen.{family}")
        n = len(gen)
        prefix = f"training.gen.{family}"
        own = sum(self_time(spans, int(i), kids, only=ORACLE_SPANS) for i in gen)
        calls = sum(
            sum(1 for k in kids.get(int(i), ()) if spans.names[spans.name[k]] in ORACLE_SPANS)
            for i in gen
        )
        m[f"{prefix}.ms_per_record"] = float(dur[gen].sum()) / n * 1e3 if n else 0.0
        m[f"{prefix}.self_ms_per_record"] = own / n * 1e3 if n else 0.0
        m[f"{prefix}.oracle_calls_per_record"] = calls / n if n else 0.0

    cls = rows("oracles.classify")
    m["oracles.classify.calls"] = len(cls) * per_round
    m["oracles.classify.busy_s"] = busy("oracles.classify")
    m["oracles.classify.us_p50"] = _pct(dur[cls], 50, 1e6)
    m["oracles.negativity.calls"] = len(rows("oracles.negativity")) * per_round
    m["oracles.negativity.busy_s"] = busy("oracles.negativity")
    lin = spans.select_prefix("linalg.", round_rows)
    members = set(lin.tolist())
    outer = [i for i in lin.tolist() if not spans.has_ancestor_in(i, members)]
    m["linalg.calls"] = len(lin) * per_round
    m["linalg.busy_s"] = float(dur[outer].sum()) * per_round
    m["states.map_state.busy_s"] = busy("states.map_state")

    ev = rows("evaluation.eval_losses")
    m["evaluation.eval_losses.s"] = float(dur[ev[spans.parent[ev] < 0]].sum()) * per_round
    m["evaluation.sweep.s"] = busy("evaluation.sweep")
    m["evaluation.render_map.self_s"] = total_self("evaluation.render_map")
    m["evaluation.write.s"] = busy("evaluation.write")

    untraced = np.asarray(ctx.untraced_round_s)
    overhead = np.asarray(ctx.traced_round_s) - untraced
    top_s = []
    for lo, hi in ctx.round_rows:
        top = np.arange(lo, hi)
        top = top[(spans.parent[top] < 0) & (spans.thread[top] == 0)]
        top_s.append(float(dur[top].sum()))
    m["trace.spans"] = len(round_rows) * per_round
    m["trace.overhead_s"] = float(np.median(overhead))
    m["trace.overhead_frac"] = float(np.median(overhead / untraced))
    m["trace.accounted_frac"] = float(np.median((np.asarray(top_s) - overhead) / untraced))
    return m
