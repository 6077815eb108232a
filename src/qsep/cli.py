"""Command-line entry point.

Subcommands: gen, train, eval, map, kernels, verify. One table, `COMMANDS`,
declares each subcommand's settings with their defaults and flag options;
the parser is built from it and `main` resolves every setting in one place:
CLI > config file (--config, JSON object keyed by setting name) > default.
Every run except verify writes a manifest JSON echoing the resolved
settings. Exit codes: 0 success, 2 usage error, 3 data format error,
4 training divergence, 5 a dataset generator hit its rejection-sampling cap.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import evaluation, training
from .errors import DataFormatError, RejectionLimitError, TrainingDivergedError
from .oracles import STATE_CLASSES
from .separator import (
    ACTIVATIONS,
    SeparatorConfig,
    atomic_write,
    baseline_losses,
    checkpoint_sha,
    export_kernels_csv,
    load_checkpoint,
)
from .training import OPTIMIZERS, SUBSETS, TrainConfig

REQUIRED = object()  # default of a setting that must be given


def _flag(setting: str) -> str:
    return "--" + setting.replace("_", "-")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise DataFormatError(f"config file {path} must contain a JSON object")
    return cfg


def _resolve(args: argparse.Namespace, settings: dict) -> dict:
    """Each setting from its flag, else the config file, else its default.
    A config value is converted and checked as the flag's would be; a null
    one counts as unset."""
    config = _load_config(args.config)
    out = {}
    for key, (default, opts) in settings.items():
        flag = _flag(key)
        value = getattr(args, key)
        if value is None and config.get(key) is not None:
            try:
                value = opts.get("type", lambda v: v)(config[key])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"config value for {flag}: {exc}") from exc
            if value not in opts.get("choices", (value,)):
                raise ValueError(f"{flag} must be one of {opts['choices']}")
        if value is None:
            value = default
        if default is REQUIRED and value in (REQUIRED, ""):
            raise ValueError(f"{flag} is required")
        out[key] = value
    return out


def _threads(value) -> int:
    """--threads, else QSEP_THREADS (an empty value counts as unset), else the
    cpu count. An error names where the bad value came from."""
    source = "--threads"
    if value is None:
        value, source = os.environ.get("QSEP_THREADS") or None, "QSEP_THREADS"
    if value is None:
        return os.cpu_count() or 1
    try:
        n = int(value)
    except ValueError:
        raise ValueError(f"{source} must be an integer, got {value!r}") from None
    if n < 1:
        raise ValueError(f"{source} must be >= 1, got {n}")
    return n


def _check_fraction(r: dict, key: str) -> None:
    """A share of records to verify, checked before any file is read."""
    if not 0.0 < r[key] <= 1.0:
        raise ValueError(f"{_flag(key)} must be in (0, 1], got {r[key]}")


def _write_manifest(path: str, resolved: dict) -> None:
    with atomic_write(path) as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- handlers: each takes the resolved settings --------------------------------


def cmd_gen(r: dict) -> int:
    if r["count"] < 1:
        raise ValueError("--count must be a positive integer")
    ds = training.build_dataset(r["kind"], r["count"], r["seed"])
    training.save_qsd(r["out"], ds)
    if r["csv"]:
        training.save_qsd_csv(r["out"] + ".csv", ds)
    manifest = dict(r, command="gen", records=len(ds), meta=ds.meta)
    _write_manifest(r["out"] + ".manifest.json", manifest)
    print(f"wrote {len(ds)} records to {r['out']}")
    return 0


def cmd_train(r: dict) -> int:
    _check_fraction(r, "verify_fraction")
    # both configs check their settings before any data is read
    sep_cfg = SeparatorConfig(
        n_k=r["nk"],
        use_fc=not r["no_fc"],
        fc_depth=r["fc_depth"],
        tie_weights=not r["untie"],
        activation=r["activation"],
    )
    train_cfg = TrainConfig(
        epochs=r["epochs"],
        learning_rate=r["lr"],
        batch_size=r["batch"],
        optimizer=r["optimizer"],
        subset=r["subset"],
        seed=r["seed"],
        init_noise=r["init_noise"],
    )
    train_ds = training.load_qsd(r["train"])
    val_ds = training.load_qsd(r["val"])
    for ds in (train_ds, val_ds):
        training.verify_labels(ds, fraction=r["verify_fraction"], seed=r["seed"])
    report = training.train(train_cfg, sep_cfg, train_ds, val_ds, checkpoint_path=r["out"])
    sha = checkpoint_sha(r["out"])
    with atomic_write(r["out"] + ".losses.csv") as fh:
        fh.write(f"# seed={r['seed']} checkpoint={sha}\n")
        fh.write("epoch,train_loss,val_loss\n")
        fh.write(f"0,nan,{report.val_loss_init:.17g}\n")
        for e, (tl, vl) in enumerate(zip(report.train_losses, report.val_losses), start=1):
            fh.write(f"{e},{tl:.17g},{vl:.17g}\n")
    manifest = dict(
        r,
        command="train",
        separator=sep_cfg.to_dict(),
        best_epoch=report.best_epoch,
        best_val_loss=report.best_val_loss,
        checkpoint_sha=sha,
    )
    _write_manifest(r["out"] + ".manifest.json", manifest)
    print(
        f"trained {r['epochs']} epochs; best epoch {report.best_epoch}"
        f" (val loss {report.best_val_loss:.6g}); checkpoint {r['out']}"
    )
    return 0


def cmd_eval(r: dict) -> int:
    ds = training.load_qsd(r["data"])
    if r["model"] == "baseline":
        losses, sha = baseline_losses(ds.mats), "baseline"
    elif not r["ckpt"]:
        raise ValueError("--ckpt is required unless --model baseline")
    else:
        params, sep_cfg, _ = load_checkpoint(r["ckpt"])
        threads = _threads(r["threads"])
        losses = evaluation.eval_losses(ds.mats, params, sep_cfg, chunk=r["chunk"], threads=threads)
        sha = checkpoint_sha(r["ckpt"])
    positive = evaluation.positives_for_mode(ds.labels, r["label"])
    result = evaluation.sweep(losses, positive)
    prefix, seed = r["out_prefix"], r["seed"]
    evaluation.write_sweep_csv(f"{prefix}.sweep.csv", result, seed, sha)
    evaluation.write_class_means_csv(f"{prefix}.means.csv", losses, ds.labels, seed, sha)
    summary = {
        "best_threshold": result.best_threshold,
        "best_balanced_accuracy": result.best_balanced_accuracy,
    }
    if r["tau"] is not None:
        conf = evaluation.confusion_at(losses, positive, r["tau"])
        evaluation.write_confusion_csv(f"{prefix}.confusion.csv", conf, seed, sha)
        summary["tau"] = r["tau"]
        summary["confusion"] = conf.tolist()
    manifest = dict(r, command="eval", checkpoint_sha=sha, **summary)
    _write_manifest(f"{prefix}.manifest.json", manifest)
    print(
        f"label={r['label']} model={r['model']}: best BA"
        f" {result.best_balanced_accuracy:.4f} at tau {result.best_threshold:.4g}"
    )
    return 0


def cmd_map(r: dict) -> int:
    params, sep_cfg, _ = load_checkpoint(r["ckpt"])
    sha = checkpoint_sha(r["ckpt"])
    threads = _threads(r["threads"])
    render = evaluation.render_map(
        params, sep_cfg, grid=r["grid"], chunk=r["chunk"], threads=threads
    )
    prefix, seed = r["out_prefix"], r["seed"]
    evaluation.write_map_csv(f"{prefix}.model.csv", render, render.losses, seed, sha)
    evaluation.write_map_pgm(f"{prefix}.model.pgm", render.losses, seed, sha)
    evaluation.write_map_csv(f"{prefix}.baseline.csv", render, render.baseline, seed, "baseline")
    evaluation.write_map_pgm(f"{prefix}.baseline.pgm", render.baseline, seed, "baseline")
    _write_manifest(f"{prefix}.manifest.json", dict(r, command="map", checkpoint_sha=sha))
    print(f"rendered {r['grid']}x{r['grid']} map to {prefix}.model.csv / .pgm (+ baseline)")
    return 0


def cmd_kernels(r: dict) -> int:
    params, _, _ = load_checkpoint(r["ckpt"])
    export_kernels_csv(r["out"], params)
    manifest = dict(r, command="kernels", checkpoint_sha=checkpoint_sha(r["ckpt"]))
    _write_manifest(r["out"] + ".manifest.json", manifest)
    print(f"wrote kernels to {r['out']}")
    return 0


def cmd_verify(r: dict) -> int:
    _check_fraction(r, "fraction")
    ds = training.load_qsd(r["data"])
    training.verify_labels(ds, fraction=r["fraction"], seed=r["seed"])
    counts = np.bincount(ds.klasses(), minlength=len(STATE_CLASSES))
    breakdown = ", ".join(f"{k.value}={c}" for k, c in zip(STATE_CLASSES, counts))
    print(f"{r['data']}: {len(ds)} records verified ({breakdown})")
    return 0


# --- the settings table ----------------------------------------------------------
# subcommand -> (help, handler, {setting: (default, add_argument options)}); a
# setting's flag is `_flag(setting)`. Every subcommand also takes --config.

INT, FLOAT, SWITCH = {"type": int}, {"type": float}, {"action": "store_true"}
SEED = {"seed": (0, INT)}
SCORING = {"threads": (None, INT), "chunk": (evaluation.DEFAULT_CHUNK, INT)}

COMMANDS = {
    "gen": ("generate a labeled dataset (QSD1)", cmd_gen, {
        **SEED,
        "kind": (REQUIRED, {"choices": tuple(training.PLANS)}),
        "count": (REQUIRED, INT),
        "out": (REQUIRED, {}),
        "csv": (False, {**SWITCH, "help": "also write a CSV mirror"}),
    }),
    "train": ("train the separator", cmd_train, {
        **SEED,
        "train": (REQUIRED, {"help": "training dataset (QSD1)"}),
        "val": (REQUIRED, {"help": "validation dataset (QSD1)"}),
        "out": (REQUIRED, {"help": "checkpoint output path (JSON)"}),
        "epochs": (TrainConfig.epochs, INT),
        "nk": (SeparatorConfig.n_k, {**INT, "help": "channel count"}),
        "lr": (TrainConfig.learning_rate, FLOAT),
        "batch": (TrainConfig.batch_size, INT),
        "subset": (TrainConfig.subset, {"choices": SUBSETS}),
        "no_fc": (not SeparatorConfig.use_fc, SWITCH),
        "untie": (not SeparatorConfig.tie_weights, SWITCH),
        "optimizer": (TrainConfig.optimizer, {"choices": OPTIMIZERS}),
        "init_noise": (TrainConfig.init_noise, FLOAT),
        "fc_depth": (SeparatorConfig.fc_depth, INT),
        "activation": (SeparatorConfig.activation, {"choices": ACTIVATIONS}),
        "verify_fraction": (training.VERIFY_FRACTION, FLOAT),
    }),
    "eval": ("threshold sweep + metrics on a dataset", cmd_eval, {
        **SEED,
        "ckpt": (None, {}),
        "data": (REQUIRED, {}),
        "label": ("discord", {"choices": evaluation.LABEL_MODES}),
        "model": ("separator", {"choices": ("separator", "baseline")}),
        "tau": (None, {**FLOAT, "help": "also emit a confusion matrix"}),
        "out_prefix": (REQUIRED, {}),
        **SCORING,
    }),
    "map": ("render the 2-D state-family map", cmd_map, {
        **SEED,
        "ckpt": (REQUIRED, {}),
        "grid": (evaluation.DEFAULT_GRID, INT),
        "out_prefix": (REQUIRED, {}),
        **SCORING,
    }),
    "kernels": ("export kernels from a checkpoint to CSV", cmd_kernels, {
        **SEED,
        "ckpt": (REQUIRED, {}),
        "out": (REQUIRED, {}),
    }),
    "verify": ("re-derive labels for a dataset sample", cmd_verify, {
        **SEED,
        "data": (REQUIRED, {}),
        "fraction": (training.VERIFY_FRACTION, FLOAT),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qsep",
        description="Separable-decoder autoencoder for flagging quantum correlations.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_, _, settings) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", help="JSON config file (flags override it)")
        for key, (_, opts) in settings.items():
            sp.add_argument(_flag(key), default=None, **opts)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _, handler, settings = COMMANDS[args.command]
    try:
        return handler(_resolve(args, settings))
    except DataFormatError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return 3
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 4
    except RejectionLimitError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return 5
    except (ValueError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
