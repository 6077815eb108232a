"""The benchmark's workloads: train, gen and score.

Each drives the public functions of `qsep` in the order the matching CLI
subcommand calls them, so it measures what a `qsep train`, `qsep gen` or
`qsep eval` + `qsep map` user pays. Inputs come from the seed through the
public generators and are made before any clock starts; output checks run
between rounds with the clock stopped.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from qsep import evaluation, linalg, oracles, separator, training

THREADS = 2  # eval/map pool size: the CPU count of the machine the sizes were set on
CHUNK = 512
EVAL_REPS = 4  # eval stages per score round: more samples of the short stage per map
EPOCHS = 1  # a round is one pass, so its record count is the train set size
LEARNING_RATE = 1e-3
BATCH = 32
# Finite-difference settings of tests/test_acceptance.py.
FD_EPS = 1e-5
FD_REL_TOL = 1e-4
BASELINE_TOL = 1e-12


@dataclass(frozen=True)
class Sizes:
    train_n: int = 1280
    val_n: int = 600  # one forward_batch of 600 (> 512) per val pass
    n_k: int = 48
    gen_s_mixed: int = 300
    gen_separable: int = 300
    gen_s_pure_per_class: int = 75
    eval_n: int = 2000
    grid: int = 101
    setups: int = 16  # fresh-interpreter set-ups per run, spread over its rounds
    fd_coords: int = 12
    baseline_sample: int = 32


FULL = Sizes()
TINY = Sizes(
    train_n=64, val_n=16, n_k=4, gen_s_mixed=12, gen_separable=12, gen_s_pure_per_class=3,
    eval_n=64, grid=11, setups=2, fd_coords=3, baseline_sample=4,
)


@dataclass
class Round:
    wall: float
    records: int
    stages: dict[str, float] = field(default_factory=dict)
    outputs: object = None


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def time_setup(root: Path, name: str, seed: int, workdir: Path, sizes: Sizes) -> float:
    """Seconds of one set-up of a workload in a fresh interpreter (setup_probe.py)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    out = subprocess.run(
        [sys.executable, str(probe), name, str(seed), str(workdir), json.dumps(asdict(sizes))],
        env=env, cwd=root, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


def environment(root: Path, blas_thread_vars) -> dict:
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": build.get("name"), "version": build.get("version")}
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = {"name": None, "version": None}
    git_sha = None
    if (root / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        git_sha = out.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "qsep").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in blas_thread_vars},
        "eval_map_threads": THREADS,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def _finite_count_bad(values) -> int:
    return int(np.count_nonzero(~np.isfinite(np.asarray(values, dtype=float))))


class Workload:
    """One workload: inputs, a timed set-up, repeated timed rounds, checks."""

    name = ""

    def __init__(self, root: Path, workdir: Path, seed: int, sizes: Sizes) -> None:
        self.root, self.workdir, self.seed, self.sizes = root, workdir, seed, sizes
        self.sep_cfg = separator.SeparatorConfig(n_k=sizes.n_k)

    def make_inputs(self) -> list[dict]:
        return []

    def setup(self) -> None:
        """Loads what the CLI subcommand loads before its work starts."""

    def run_round(self, i: int) -> Round:
        raise NotImplementedError

    def check_round(self, r: Round) -> tuple[int, int]:
        """(outputs checked, outputs failed) for one round."""
        raise NotImplementedError

    def final_check(self) -> tuple[int, int]:
        return 0, 0

    def end_to_end(self, rounds: list[Round]) -> dict[str, float]:
        raise NotImplementedError

    def report(self, rounds: list[Round]) -> dict:
        """Workload-specific figures for the info line."""
        return {}

    def _input(self, path: Path, records: int) -> dict:
        return {
            "file": str(path.relative_to(self.root)),
            "sha256": sha256_of(path),
            "records": records,
            "bytes": path.stat().st_size,
        }

    def qsd_bytes(self) -> int:
        return 0

    def checkpoint_bytes(self) -> int:
        return 0


class TrainWorkload(Workload):
    """`qsep train`: one epoch of the desk recipe, checkpoint written."""

    name = "train"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.train_path = self.workdir / "train.qsd"
        self.val_path = self.workdir / "val.qsd"
        self.ckpt_path = self.workdir / "model.json"
        self.train_cfg = training.TrainConfig(
            epochs=EPOCHS, batch_size=BATCH, learning_rate=LEARNING_RATE,
            seed=self.seed,
        )

    def make_inputs(self) -> list[dict]:
        s = self.sizes
        training.save_qsd(str(self.train_path),
                          training.build_separable_set(s.train_n, self.seed, kind="train"))
        training.save_qsd(str(self.val_path),
                          training.build_separable_set(s.val_n, self.seed + 1, kind="val"))
        return [self._input(self.train_path, s.train_n), self._input(self.val_path, s.val_n)]

    def setup(self) -> None:
        self.train_ds = training.load_qsd(str(self.train_path))
        self.val_ds = training.load_qsd(str(self.val_path))
        # the model initialisation `train` pays before its first step
        separator.init_params(self.sep_cfg, np.random.default_rng(self.seed))

    def run_round(self, i: int) -> Round:
        t0 = time.perf_counter()
        report = training.train(
            self.train_cfg, self.sep_cfg, self.train_ds, self.val_ds,
            checkpoint_path=str(self.ckpt_path),
        )
        wall = time.perf_counter() - t0
        self.last_report = report
        return Round(wall=wall, records=len(self.train_ds), outputs=report)

    def check_round(self, r: Round) -> tuple[int, int]:
        rep = r.outputs
        values = [*rep.train_losses, *rep.val_losses, rep.val_loss_init, rep.best_val_loss]
        return len(values), _finite_count_bad(values)

    def final_check(self) -> tuple[int, int]:
        """Checkpoint round trip and a finite-difference check of `gradient`."""
        rep = self.last_report
        loaded, _, _ = separator.load_checkpoint(str(self.ckpt_path))
        pairs = list(zip(loaded.arrays(), rep.params.arrays()))
        failed = sum(
            not (a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b))
            for a, b in pairs
        )
        errors = fd_errors(rep.params.copy(), rep.config, self.train_ds.mats[:8],
                           self.sizes.fd_coords, np.random.default_rng(self.seed))
        failed += sum(e > FD_REL_TOL for e in errors)
        self.fd_worst = max(errors)
        return len(pairs) + len(errors), failed

    def end_to_end(self, rounds: list[Round]) -> dict[str, float]:
        round_s = float(np.median([r.wall for r in rounds]))
        return {"states_per_s": rounds[0].records / round_s, "round_s": round_s}

    def report(self, rounds: list[Round]) -> dict:
        return {
            "train_states_per_s": self.end_to_end(rounds)["states_per_s"],
            "best_val_loss": format(self.last_report.best_val_loss, ".17g"),
            "val_loss_init": format(self.last_report.val_loss_init, ".17g"),
            "fd_worst_rel_error": self.fd_worst,
        }

    def qsd_bytes(self) -> int:
        return self.train_path.stat().st_size + self.val_path.stat().st_size

    def checkpoint_bytes(self) -> int:
        return self.ckpt_path.stat().st_size


def fd_errors(params, config, batch, n_coords: int, rng: np.random.Generator) -> list[float]:
    """Relative error of `gradient` against central differences on sampled coordinates."""
    grads, _ = separator.gradient(params, config, batch)
    arrays, garrays = params.arrays(), grads.arrays()
    errors = []
    for _ in range(n_coords):
        ai = int(rng.integers(len(arrays)))
        a, g = arrays[ai], garrays[ai]
        idx = tuple(int(rng.integers(n)) for n in a.shape)
        orig = a[idx]
        a[idx] = orig + FD_EPS
        lp = float(separator.forward_batch(batch, params, config)[0].mean())
        a[idx] = orig - FD_EPS
        lm = float(separator.forward_batch(batch, params, config)[0].mean())
        a[idx] = orig
        fd = (lp - lm) / (2 * FD_EPS)
        errors.append(abs(g[idx] - fd) / max(abs(g[idx]), abs(fd), 1e-8))
    return errors


class GenWorkload(Workload):
    """`qsep gen` for the s-mixed, train and s-pure kinds, each saved as QSD1."""

    name = "gen"

    def run_round(self, i: int) -> Round:
        s = self.sizes
        seeds = [int(x) for x in np.random.SeedSequence([self.seed, i]).generate_state(3)]
        jobs = [
            ("s_mixed", lambda: training.build_s_mixed(s.gen_s_mixed, seeds[0])),
            ("train", lambda: training.build_separable_set(s.gen_separable, seeds[1])),
            ("s_pure", lambda: training.build_s_pure(s.gen_s_pure_per_class, seeds[2])),
        ]
        paths, records = [], 0
        t0 = time.perf_counter()
        for kind, build in jobs:
            ds = build()
            path = self.workdir / f"{kind}.qsd"
            training.save_qsd(str(path), ds)
            paths.append(path)
            records += len(ds)
        wall = time.perf_counter() - t0
        return Round(wall=wall, records=records, outputs=paths)

    def check_round(self, r: Round) -> tuple[int, int]:
        """Re-derive every record's label bits from the saved file.

        `known_separable` is used only for records stored as separable, and
        those must also have no negativity above ENTANGLED_FILTER_TOL on any
        cut, so a wrong separable label cannot pass.
        """
        attempted = failed = 0
        for path in r.outputs:
            ds = training.load_qsd(str(path))
            for rho, bits in zip(ds.mats, ds.labels.tolist()):
                stored_sep = bool(bits & training.BIT_SEPARABLE)
                fresh = training.pack_label(oracles.classify(rho, known_separable=stored_sep))
                bad = fresh != bits
                if stored_sep:
                    neg = max(oracles.negativity(rho, c) for c in oracles.CUTS)
                    bad = bad or neg > oracles.ENTANGLED_FILTER_TOL
                attempted += 1
                failed += bad
        return attempted, failed

    def end_to_end(self, rounds: list[Round]) -> dict[str, float]:
        return {
            "states_per_s": float(np.median([r.records / r.wall for r in rounds])),
            "round_s": float(np.median([r.wall for r in rounds])),
        }

    def report(self, rounds: list[Round]) -> dict:
        return {
            "gen_states_per_s": self.end_to_end(rounds)["states_per_s"],
            "records_per_round": rounds[0].records,
        }


class ScoreWorkload(Workload):
    """`qsep eval` (discord mode) followed by `qsep map` at grid 101."""

    name = "score"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.data_path = self.workdir / "smixed.qsd"
        self.ckpt_path = self.workdir / "init.json"
        self.prefix = str(self.workdir / "out")

    def make_inputs(self) -> list[dict]:
        s = self.sizes
        training.save_qsd(str(self.data_path), training.build_s_mixed(s.eval_n, self.seed))
        # Init weights suffice: inference cost does not depend on their values.
        params = separator.init_params(self.sep_cfg, np.random.default_rng(self.seed))
        separator.save_checkpoint(str(self.ckpt_path), params, self.sep_cfg)
        self.sha = separator.checkpoint_sha(str(self.ckpt_path))
        n_params = sum(a.size for a in params.arrays())
        return [self._input(self.data_path, s.eval_n), self._input(self.ckpt_path, n_params)]

    def setup(self) -> None:
        self.ds = training.load_qsd(str(self.data_path))
        self.params, self.cfg, _ = separator.load_checkpoint(str(self.ckpt_path))

    def run_round(self, i: int) -> Round:
        start = time.perf_counter()
        evals = [self._eval_stage() for _ in range(EVAL_REPS)]
        p, seed, sha = self.prefix, self.seed, self.sha
        t0 = time.perf_counter()
        render = evaluation.render_map(self.params, self.cfg, grid=self.sizes.grid, chunk=CHUNK,
                                       threads=THREADS)
        evaluation.write_map_csv(f"{p}.model.csv", render, render.losses, seed, sha)
        evaluation.write_map_pgm(f"{p}.model.pgm", render.losses, seed, sha)
        evaluation.write_map_csv(f"{p}.baseline.csv", render, render.baseline, seed, "baseline")
        evaluation.write_map_pgm(f"{p}.baseline.pgm", render.baseline, seed, "baseline")
        t1 = time.perf_counter()
        return Round(
            wall=t1 - start,
            records=len(self.ds),
            stages={"eval": [e[0] for e in evals], "map": t1 - t0},
            outputs=(i, [e[1:] for e in evals], render),
        )

    def _eval_stage(self):
        ds, p, seed, sha = self.ds, self.prefix, self.seed, self.sha
        t0 = time.perf_counter()
        losses = evaluation.eval_losses(ds.mats, self.params, self.cfg, chunk=CHUNK,
                                        threads=THREADS)
        base = separator.baseline_losses(ds.mats)
        positive = evaluation.positives_for_mode(ds.labels, "discord")
        result = evaluation.sweep(losses, positive)
        evaluation.write_sweep_csv(f"{p}.sweep.csv", result, seed, sha)
        evaluation.write_class_means_csv(f"{p}.means.csv", losses, ds.labels, seed, sha)
        return time.perf_counter() - t0, losses, base, positive, result

    def check_round(self, r: Round) -> tuple[int, int]:
        i, evals, render = r.outputs
        attempted = failed = 0
        rng = np.random.default_rng([self.seed, i])
        for losses, base, positive, result in evals:
            attempted += len(losses)
            failed += int(np.count_nonzero(~(np.isfinite(losses) & (losses >= 0.0))))
            sample = rng.choice(len(base), size=min(self.sizes.baseline_sample, len(base)),
                                replace=False)
            for j in sample:
                ref = reference_baseline_loss(self.ds.mats[j])
                attempted += 1
                failed += not abs(ref - base[j]) <= BASELINE_TOL
            attempted += len(result.thresholds)
            failed += int(np.count_nonzero(result.tp + result.fn != np.count_nonzero(positive)))
        g = (self.sizes.grid, self.sizes.grid)
        for arr, finite in ((render.losses, True), (render.baseline, True),
                            (render.klasses, False)):
            attempted += 1
            failed += arr.shape != g or (finite and _finite_count_bad(arr) > 0)
        return attempted, failed

    def end_to_end(self, rounds: list[Round]) -> dict[str, float]:
        eval_s = float(np.median([t for r in rounds for t in r.stages["eval"]]))
        return {
            "states_per_s": rounds[0].records / eval_s,
            "round_s": float(np.median([r.stages["eval"][-1] + r.stages["map"]
                                        for r in rounds])),
        }

    def report(self, rounds: list[Round]) -> dict:
        return {
            "eval_states_per_s": self.end_to_end(rounds)["states_per_s"],
            "map_s": float(np.median([r.stages["map"] for r in rounds])),
        }

    def qsd_bytes(self) -> int:
        return self.data_path.stat().st_size

    def checkpoint_bytes(self) -> int:
        return self.ckpt_path.stat().st_size


def reference_baseline_loss(rho: np.ndarray) -> float:
    """Partial-trace baseline loss from the linalg primitives, one state at a time."""
    hat = linalg.kron_all([linalg.partial_trace(rho, keep=[q]) for q in range(3)])
    tr = float(np.trace(hat).real)
    if abs(tr) > separator.TRACE_GUARD:
        hat = hat / tr
    return float(np.abs(hat - rho).sum() / 64.0)


WORKLOADS = {w.name: w for w in (TrainWorkload, GenWorkload, ScoreWorkload)}
