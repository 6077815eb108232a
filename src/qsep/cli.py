"""Command-line entry point.

Subcommands: gen, train, eval, map, kernels, verify. One table, `COMMANDS`,
declares each subcommand's settings as argparse options; the parser is built
from it and converts and checks every setting, whether it comes from a flag or
from a config file (--config, JSON object keyed by setting name). `main` turns
the command's config values into flags put ahead of the user's, so a flag
beats its config value and a setting set by neither takes its default. A
handler returns its manifest extras (None for verify) and its success line;
`main` writes `<out or out_prefix>.manifest.json` (settings, command, extras)
after every other output, then prints the line. Exit codes: 0 success, 2 usage
error, 3 data format error, 4 training divergence, 5 a dataset generator hit
its rejection-sampling cap.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

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


def _flag(setting: str) -> str:
    return "--" + setting.replace("_", "-")


def _config_flags(command: str, path: str) -> list[str]:
    """The command's settings in the config file at `path` as flag tokens.
    null leaves a setting unset; true gives a switch and false leaves it off.
    Keys of other commands are ignored."""
    try:
        with open(path, "rb") as fh:
            config = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise DataFormatError(f"config file {path} must contain a JSON object")
    tokens = []
    for key, opts in COMMANDS[command][2].items():
        value, flag = config.get(key), _flag(key)
        switch = opts.get("action") == "store_true"
        if value is None or (switch and value is False):
            continue
        if switch != isinstance(value, bool) or isinstance(value, (list, dict)):
            wanted = "true or false" if switch else "a string or a number"
            raise ValueError(f"config value for {flag} must be {wanted}, got {json.dumps(value)}")
        tokens.append(flag if switch else f"{flag}={value}")
    return tokens


# --- handlers: parsed settings in, (manifest extras or None, success line) out


def cmd_gen(r: dict) -> tuple[dict, str]:
    ds = training.build_dataset(r["kind"], r["count"], r["seed"])
    training.save_qsd(r["out"], ds)
    if r["csv"]:
        training.save_qsd_csv(r["out"] + ".csv", ds)
    return {"records": len(ds), "meta": ds.meta}, f"wrote {len(ds)} records to {r['out']}"


def cmd_train(r: dict) -> tuple[dict, str]:
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
    extras = {"separator": asdict(sep_cfg), "best_epoch": report.best_epoch,
              "best_val_loss": report.best_val_loss, "checkpoint_sha": sha}
    return extras, (
        f"trained {r['epochs']} epochs; best epoch {report.best_epoch}"
        f" (val loss {report.best_val_loss:.6g}); checkpoint {r['out']}"
    )


def cmd_eval(r: dict) -> tuple[dict, str]:
    baseline = r["model"] == "baseline"
    if baseline and r["ckpt"]:
        raise ValueError("--ckpt cannot be used with --model baseline")
    if not baseline and not r["ckpt"]:
        raise ValueError("--ckpt is required unless --model baseline")
    ds = training.load_qsd(r["data"])
    if baseline:
        losses, sha = baseline_losses(ds.mats), "baseline"
    else:
        params, sep_cfg, _ = load_checkpoint(r["ckpt"])
        losses = evaluation.eval_losses(
            ds.mats, params, sep_cfg, chunk=r["chunk"], threads=r["threads"]
        )
        sha = checkpoint_sha(r["ckpt"])
    positive = evaluation.positives_for_mode(ds.labels, r["label"])
    result = evaluation.sweep(losses, positive)
    prefix, seed = r["out_prefix"], r["seed"]
    evaluation.write_sweep_csv(f"{prefix}.sweep.csv", result, seed, sha)
    evaluation.write_class_means_csv(f"{prefix}.means.csv", losses, ds.labels, seed, sha)
    extras = {
        "checkpoint_sha": sha,
        "best_threshold": result.best_threshold,
        "best_balanced_accuracy": result.best_balanced_accuracy,
    }
    if r["tau"] is not None:
        at_tau = evaluation.sweep(losses, positive, [r["tau"]])
        conf = [[int(at_tau.tn[0]), int(at_tau.fp[0])], [int(at_tau.fn[0]), int(at_tau.tp[0])]]
        evaluation.write_confusion_csv(f"{prefix}.confusion.csv", conf, seed, sha)
        extras.update(tau=r["tau"], confusion=conf)
    return extras, (
        f"label={r['label']} model={r['model']}: best BA"
        f" {result.best_balanced_accuracy:.4f} at tau {result.best_threshold:.4g}"
    )


def cmd_map(r: dict) -> tuple[dict, str]:
    params, sep_cfg, _ = load_checkpoint(r["ckpt"])
    sha = checkpoint_sha(r["ckpt"])
    render = evaluation.render_map(
        params, sep_cfg, grid=r["grid"], chunk=r["chunk"], threads=r["threads"]
    )
    prefix, seed = r["out_prefix"], r["seed"]
    evaluation.write_map_csv(f"{prefix}.model.csv", render, render.losses, seed, sha)
    evaluation.write_map_pgm(f"{prefix}.model.pgm", render.losses, seed, sha)
    evaluation.write_map_csv(f"{prefix}.baseline.csv", render, render.baseline, seed, "baseline")
    evaluation.write_map_pgm(f"{prefix}.baseline.pgm", render.baseline, seed, "baseline")
    return {"checkpoint_sha": sha}, (
        f"rendered {r['grid']}x{r['grid']} map to {prefix}.model.csv / .pgm (+ baseline)"
    )


def cmd_kernels(r: dict) -> tuple[dict, str]:
    params, _, _ = load_checkpoint(r["ckpt"])
    export_kernels_csv(r["out"], params)
    return {"checkpoint_sha": checkpoint_sha(r["ckpt"])}, f"wrote kernels to {r['out']}"


def cmd_verify(r: dict) -> tuple[None, str]:
    ds = training.load_qsd(r["data"])
    training.verify_labels(ds, fraction=r["fraction"], seed=r["seed"])
    counts = np.bincount(ds.klasses(), minlength=len(STATE_CLASSES))
    breakdown = ", ".join(f"{k.value}={c}" for k, c in zip(STATE_CLASSES, counts))
    return None, f"{r['data']}: {len(ds)} records verified ({breakdown})"


# --- the settings table: argparse runs each `type` on every value, flag or config


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def grid_size(text: str) -> int:
    """Map points per axis, at least evaluation.MIN_GRID."""
    n = int(text)
    if n < evaluation.MIN_GRID:
        raise argparse.ArgumentTypeError(f"must be >= {evaluation.MIN_GRID}, got {n}")
    return n


def finite_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {x}")
    return x


def fraction(text: str) -> float:
    """A share of records, in (0, 1]."""
    x = float(text)
    if not 0.0 < x <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {x}")
    return x


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def nonempty(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


# subcommand -> (help, handler, {setting: add_argument options}); a setting's
# flag is `_flag(setting)`. Every subcommand also takes --config.

INT, FLOAT, SWITCH = {"type": int}, {"type": float}, {"action": "store_true"}
PATH = {"type": nonempty, "required": True}
SEED = {"seed": {**INT, "default": 0}}
SCORING = {
    "threads": {"type": positive_int, "default": usable_cpus()},
    "chunk": {"type": positive_int, "default": evaluation.DEFAULT_CHUNK},
}

COMMANDS = {
    "gen": ("generate a labeled dataset (QSD1)", cmd_gen, {
        **SEED,
        "kind": {"choices": tuple(training.PLANS), "required": True},
        "count": {"type": positive_int, "required": True},
        "out": PATH,
        "csv": {**SWITCH, "help": "also write a CSV mirror"},
    }),
    "train": ("train the separator", cmd_train, {
        **SEED,
        "train": {**PATH, "help": "training dataset (QSD1)"},
        "val": {**PATH, "help": "validation dataset (QSD1)"},
        "out": {**PATH, "help": "checkpoint output path"},
        "epochs": {**INT, "default": TrainConfig.epochs},
        "nk": {**INT, "default": SeparatorConfig.n_k, "help": "channel count"},
        "lr": {**FLOAT, "default": TrainConfig.learning_rate},
        "batch": {**INT, "default": TrainConfig.batch_size},
        "subset": {"choices": SUBSETS, "default": TrainConfig.subset},
        "no_fc": {**SWITCH, "default": not SeparatorConfig.use_fc},
        "untie": {**SWITCH, "default": not SeparatorConfig.tie_weights},
        "optimizer": {"choices": OPTIMIZERS, "default": TrainConfig.optimizer},
        "init_noise": {**FLOAT, "default": TrainConfig.init_noise},
        "fc_depth": {**INT, "default": SeparatorConfig.fc_depth},
        "activation": {"choices": ACTIVATIONS, "default": SeparatorConfig.activation},
        "verify_fraction": {"type": fraction, "default": training.VERIFY_FRACTION},
    }),
    "eval": ("threshold sweep + metrics on a dataset", cmd_eval, {
        **SEED,
        "ckpt": {},
        "data": PATH,
        "label": {"choices": evaluation.LABEL_MODES, "default": "discord"},
        "model": {"choices": ("separator", "baseline"), "default": "separator"},
        "tau": {"type": finite_float, "help": "also emit a confusion matrix"},
        "out_prefix": PATH,
        **SCORING,
    }),
    "map": ("render the 2-D state-family map", cmd_map, {
        **SEED,
        "ckpt": PATH,
        "grid": {"type": grid_size, "default": evaluation.DEFAULT_GRID},
        "out_prefix": PATH,
        **SCORING,
    }),
    "kernels": ("export kernels from a checkpoint to CSV", cmd_kernels, {
        **SEED,
        "ckpt": PATH,
        "out": PATH,
    }),
    "verify": ("re-derive labels for a dataset sample", cmd_verify, {
        **SEED,
        "data": PATH,
        "fraction": {"type": fraction, "default": training.VERIFY_FRACTION},
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
        for key, opts in settings.items():
            sp.add_argument(_flag(key), **opts)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    pre = argparse.ArgumentParser(prog="qsep", add_help=False)
    pre.add_argument("--config")
    try:
        config = pre.parse_known_args(argv)[0].config
        if config is not None and argv[0] in COMMANDS:
            # after the command name, ahead of the user's flags: the last value wins
            argv = argv[:1] + _config_flags(argv[0], config) + argv[1:]
        settings = vars(build_parser().parse_args(argv))
        del settings["config"]
        command = settings.pop("command")
        extras, message = COMMANDS[command][1](settings)
        if extras is not None:
            out = settings["out"] if "out" in settings else settings["out_prefix"]
            with atomic_write(out + ".manifest.json") as fh:
                json.dump(dict(settings, command=command, **extras), fh, indent=2, sort_keys=True)
                fh.write("\n")
        print(message)
        return 0
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
