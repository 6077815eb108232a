"""Smoke test of the benchmark harness.

Runs every workload at a tiny size, untraced and traced, and checks the
result line against BENCHMARK.json; checks the self-time arithmetic on
hand-built span trees. Run with `python3 -m pytest perfbench/tests`.
"""
import io
import json
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import SpanTable, covered, self_time  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(argv, sizes=workloads.TINY)
    return code, buf.getvalue().strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_tiny(workload, trace):
    code, lines = _run(
        ["--workload", workload, "--seed", "3", "--seconds", "0.05", "--trace", str(trace)]
    )
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert isinstance(metric["value"], float) and np.isfinite(metric["value"])
    units = {m["name"]: m["unit"] for m in spec}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    info = json.loads(next(ln for ln in lines if ln.startswith("info "))[5:])
    assert info["failed_frac"] == 0.0
    assert all(NAME.fullmatch(key) for key in info)
    for entry in info["inputs"]:
        assert len(entry["sha256"]) == 64 and entry["records"] >= 1
    assert info["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_per_layer_table_matches_benchmark_json():
    table = [{"name": n, "unit": u, "better": b} for n, u, b, *_ in layers.PER_LAYER]
    assert table == SPEC["per_layer"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)
    for name, _, _, moves, on in layers.PER_LAYER:
        assert NAME.fullmatch(name), name
        assert on == "all" or set(on.split()) <= set(run.WORKLOAD_NAMES), name
        assert moves == "-" or set(moves.split()) <= {m["name"] for m in SPEC["end_to_end"]}


def _table(rows, names):
    """rows: (name, start, end, parent, thread, size)."""
    cols = list(zip(*rows))
    return SpanTable(
        names=names,
        name=np.array([names.index(n) for n in cols[0]]),
        start=np.array(cols[1], dtype=float),
        end=np.array(cols[2], dtype=float),
        parent=np.array(cols[3]),
        thread=np.array(cols[4]),
        size=np.array(cols[5]),
    )


def test_covered_merges_and_clips():
    assert covered([], 0.0, 1.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(6.0)
    assert covered([(-1.0, 0.5), (0.5, 0.75)], 0.0, 1.0) == pytest.approx(0.75)


def test_self_time_on_hand_built_tree():
    names = ["root", "a", "b", "c"]
    spans = _table(
        [
            ("root", 0.0, 10.0, -1, 0, 1),
            ("a", 1.0, 3.0, 0, 0, 1),
            ("b", 2.0, 5.0, 0, 1, 1),  # pool thread, overlaps a
            ("c", 8.0, 12.0, 0, 0, 1),  # runs past its parent: clipped
            ("a", 1.5, 2.0, 1, 0, 1),  # grandchild: not subtracted from root
        ],
        names,
    )
    kids = spans.children()
    assert self_time(spans, 0, kids) == pytest.approx(10.0 - 4.0 - 2.0)
    assert self_time(spans, 0, kids, only={"a"}) == pytest.approx(8.0)
    assert self_time(spans, 1, kids) == pytest.approx(1.5)
    assert self_time(spans, 2, kids) == pytest.approx(3.0)


def test_derive_on_hand_built_round():
    names = ["training.train", "separator.gradient", "separator.forward_batch.gt512",
             "separator.save_checkpoint", "training.gen.zero_discord", "oracles.classify",
             "linalg.kron_all", "linalg.partial_trace"]
    spans = _table(
        [
            ("training.train", 0.0, 10.0, -1, 0, 1),
            ("separator.gradient", 1.0, 3.0, 0, 0, 32),
            ("separator.forward_batch.gt512", 4.0, 5.0, 0, 0, 600),
            ("separator.save_checkpoint", 6.0, 9.0, 0, 0, 1),
            ("training.gen.zero_discord", 10.0, 12.0, -1, 0, 1),
            ("oracles.classify", 10.5, 11.0, 4, 0, 1),
            ("linalg.kron_all", 11.2, 11.6, 4, 0, 1),
            ("linalg.partial_trace", 11.3, 11.4, 6, 0, 1),
        ],
        names,
    )
    ctx = layers.TraceContext(
        setup_rows=(8, 8), round_rows=[(0, 8)], untraced_round_s=[11.0],
        traced_round_s=[12.0], n_k=48, use_fc=True, fc_depth=4, checkpoint_bytes=10,
        qsd_bytes=20,
    )
    m = layers.derive(spans, ctx)
    assert set(m) == {n for n, *_ in layers.PER_LAYER}
    assert m["training.train.self_s"] == pytest.approx(10.0 - 2.0 - 1.0 - 3.0)
    assert m["separator.gradient.calls"] == 1
    assert m["separator.gradient.gflops_computed"] == pytest.approx(
        layers.gradient_flops(32, 48, True, 4) / 2.0 / 1e9)
    assert m["training.gen.zero_discord.ms_per_record"] == pytest.approx(2000.0)
    # only the oracle child is subtracted: the linalg work is the states layer's own
    assert m["training.gen.zero_discord.self_ms_per_record"] == pytest.approx(1500.0)
    assert m["training.gen.zero_discord.oracle_calls_per_record"] == 1.0
    assert m["linalg.calls"] == 2 and m["linalg.busy_s"] == pytest.approx(0.4)
    assert m["trace.overhead_s"] == pytest.approx(1.0)
    assert m["trace.accounted_frac"] == pytest.approx((12.0 - 1.0) / 11.0)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *json.loads((ROOT / "BENCHMARK.json").read_text())["command"][1:],
         "--workload", "train", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
