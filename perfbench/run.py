"""Benchmark of the qsep pipeline: train, gen and score workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload train|gen|score|all --seed N \
        --seconds S --trace 0|1

Each workload runs in its own process with BLAS pinned to one thread. With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics derived
from spans recorded at the module boundaries. `--workload all` runs the
three workloads one after another, each in a fresh process, and prints a
table of every metric. See perfbench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train", "gen", "score")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
M_ARENA_MAX = -8  # glibc mallopt parameter
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "states_per_s": "1/s", "round_s": "s"}


def pin_malloc_arenas() -> None:
    """One glibc malloc arena, set before any thread starts.

    With an arena per pool thread, which thread frees which eval/map chunk
    decides whether later large arrays reuse freed memory, and the `score`
    peak RSS lands at random on one of two levels ~25 MB apart. A no-op
    where the C library has no `mallopt`.
    """
    try:
        ctypes.CDLL(None).mallopt(M_ARENA_MAX, 1)
    except (OSError, AttributeError):
        pass


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")
    return args


def measure(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple[dict, dict]:
    """Run one workload; return (result line, info line)."""
    import layers
    import workloads
    from tracing import Tracer, write_spans_csv

    sizes = sizes or workloads.FULL
    workdir = ROOT / ".bench_out" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[name](ROOT, workdir, seed, sizes)
    tracer = Tracer()
    if trace:
        layers.install(tracer)
    try:
        inputs = wl.make_inputs()
        attempted = failed = 0

        def tally(counts: tuple[int, int]) -> None:
            nonlocal attempted, failed
            attempted, failed = attempted + int(counts[0]), failed + int(counts[1])

        # The in-process set-up gives the workload its state and, traced, the
        # per-layer load figures; setup_s is timed in fresh interpreters.
        setup_lo = tracer.mark()
        tracer.enabled = trace
        wl.setup()
        tracer.enabled = False
        setup_rows = (setup_lo, tracer.mark())
        setup_times = []

        def timed_setups(due: int) -> None:
            while len(setup_times) < due:
                setup_times.append(workloads.time_setup(ROOT, name, seed, workdir, sizes))

        timed_setups(1)
        rounds, untraced, round_rows, measured = [], [], [], 0.0
        while measured < seconds or not rounds:
            i = len(rounds)
            if trace:  # the same round untraced first, to measure tracing overhead
                untraced.append(wl.run_round(i).wall)
            lo = tracer.mark()
            tracer.enabled = trace
            r = wl.run_round(i)
            tracer.enabled = False
            round_rows.append((lo, tracer.mark()))
            rounds.append(r)
            measured += r.wall
            tally(wl.check_round(r))
            r.outputs = None  # keep peak memory independent of the round count
            # set-ups spread over the run see the same phases of the host as the rounds
            timed_setups(int(sizes.setups * min(measured / seconds, 1.0)))
        timed_setups(sizes.setups)
        tally(wl.final_check())
    finally:
        tracer.unwrap_all()

    if trace:
        spans = tracer.table()
        write_spans_csv(str(workdir / "spans.csv"), spans)
        ctx = layers.TraceContext(
            setup_rows=setup_rows,
            round_rows=round_rows,
            untraced_round_s=untraced,
            traced_round_s=[r.wall for r in rounds],
            n_k=wl.sep_cfg.n_k,
            use_fc=wl.sep_cfg.use_fc,
            fc_depth=wl.sep_cfg.fc_depth,
            checkpoint_bytes=wl.checkpoint_bytes(),
            qsd_bytes=wl.qsd_bytes(),
        )
        values = layers.derive(spans, ctx)
        units = layers.PER_LAYER_UNITS
    else:
        values = dict(wl.end_to_end(rounds))
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = E2E_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(rounds),
        "measured_s": measured,
        "round_walls": [r.wall for r in rounds],
        "round_stages": [r.stages for r in rounds],
        "setup_times": setup_times,
        "failed_frac": failed / attempted,
        "inputs": inputs,
        "environment": workloads.environment(ROOT, BLAS_THREAD_VARS),
        **wl.report(rounds),
    }
    return result, info


def print_metrics(workload: str, metrics: dict, notes: dict | None = None) -> None:
    for key, m in metrics.items():
        note = f"  -> {notes[key]}" if notes else ""
        print(f"{workload:<6} {key:<48} {m['value']:>16.6g} {m['unit']}{note}")


def run_all(args) -> int:
    """Each workload in a fresh process, then one table of every metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        info = json.loads(next(ln for ln in lines if ln.startswith("info "))[5:])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
        print_metrics(name, result["metrics"])
        print(f"{name:<6} {'failed_frac':<48} {info['failed_frac']:>16.6g} ratio")
    print(json.dumps(combined))
    return 0


def main(argv=None, sizes=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    pin_malloc_arenas()
    src = ROOT / "src"
    if not (src / "qsep" / "__init__.py").is_file():
        print(f"no qsep sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import qsep

    if Path(qsep.__file__).resolve().parent != (src / "qsep").resolve():
        print(f"imported qsep from {qsep.__file__}, not from {src}", file=sys.stderr)
        return 2
    result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    notes = None
    if args.trace:
        import layers

        notes = {name: f"{moves} on {on}" for name, _, _, moves, on in layers.PER_LAYER}
    print_metrics(args.workload, result["metrics"], notes)
    print(f"{args.workload:<6} {'failed_frac':<48} {info['failed_frac']:>16.6g} ratio")
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
