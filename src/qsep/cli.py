"""Command-line entry point.

Subcommands: gen, train, eval, map, kernels, verify. Every run writes a
manifest JSON echoing the fully resolved configuration. Flag precedence is
CLI > config file (--config, JSON object) > built-in defaults. Exit codes:
0 success, 2 usage error, 3 data format error, 4 training divergence,
5 a dataset generator hit its rejection-sampling cap.
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
    SeparatorConfig,
    checkpoint_sha,
    export_kernels_csv,
    load_checkpoint,
)

GEN_KINDS = (
    "pure-sep",
    "pure-ent",
    "mixed-sep",
    "mixed-ent",
    "zd",
    "product",
    "s-pure",
    "s-mixed",
    "train",
    "val",
)


def _resolve(args: argparse.Namespace, config_file: dict, defaults: dict) -> dict:
    """CLI flags override config-file values override defaults."""
    out = {}
    for key, default in defaults.items():
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            out[key] = cli_val
        elif key in config_file:
            out[key] = config_file[key]
        else:
            out[key] = default
    return out


def _load_config_file(path: str | None) -> dict:
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


def _resolve_threads(value) -> int:
    if value is None:
        value = os.environ.get("QSEP_THREADS")
    if value is None:
        return os.cpu_count() or 1
    n = int(value)
    if n < 1:
        raise ValueError("--threads must be >= 1")
    return n


def _write_manifest(path: str, resolved: dict) -> None:
    with open(path, "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- gen ---------------------------------------------------------------------


def _gen_dataset(kind: str, count: int, seed: int) -> training.Dataset:
    rng = np.random.default_rng(seed)
    if kind == "train":
        return training.build_separable_set(count, seed, kind="train")
    if kind == "val":
        return training.build_separable_set(count, seed, kind="val")
    if kind == "s-pure":
        if count % 2:
            raise ValueError("s-pure needs an even count (balanced halves)")
        return training.build_s_pure(count // 2, seed)
    if kind == "s-mixed":
        return training.build_s_mixed(count, seed)
    records = []
    if kind == "pure-sep":
        for i in range(count):
            records.append(training.gen_pure_separable(rng, toggle=i))
    elif kind == "pure-ent":
        for i in range(count):
            records.append(training.gen_pure_entangled(rng, toggle=i))
    elif kind == "product":
        for _ in range(count):
            records.append(training.gen_mixed_product(rng))
    elif kind == "zd":
        for i in range(count):
            records.append(training.gen_zero_discord(rng, toggle=i))
    elif kind == "mixed-ent":
        for i in range(count):
            records.append(training.gen_mixed_entangled(rng, toggle=i))
    elif kind == "mixed-sep":
        n_prod, n_zd, n_disc = training._largest_remainder(count, training.MIXED_SEP_FRACTIONS)
        for _ in range(n_prod):
            records.append(training.gen_mixed_product(rng))
        for i in range(n_zd):
            records.append(training.gen_zero_discord(rng, toggle=i))
        for i in range(n_disc):
            records.append(training.gen_discordant_separable(rng, toggle=i))
    else:
        raise ValueError(f"unknown kind {kind!r}, expected one of {GEN_KINDS}")
    return training._assemble(records, {"kind": kind, "seed": seed})


def cmd_gen(args: argparse.Namespace) -> int:
    cfg_file = _load_config_file(args.config)
    resolved = _resolve(
        args, cfg_file, {"kind": None, "count": None, "seed": 0, "out": None, "csv": False}
    )
    if resolved["kind"] not in GEN_KINDS:
        raise ValueError(f"--kind must be one of {GEN_KINDS}")
    if not resolved["count"] or resolved["count"] < 1:
        raise ValueError("--count must be a positive integer")
    if not resolved["out"]:
        raise ValueError("--out is required")
    ds = _gen_dataset(resolved["kind"], int(resolved["count"]), int(resolved["seed"]))
    training.save_qsd(resolved["out"], ds)
    if resolved["csv"]:
        training.save_qsd_csv(resolved["out"] + ".csv", ds)
    manifest = dict(resolved, command="gen", records=len(ds), meta=ds.meta)
    _write_manifest(resolved["out"] + ".manifest.json", manifest)
    print(f"wrote {len(ds)} records to {resolved['out']}")
    return 0


# --- train -------------------------------------------------------------------

_TRAIN_DEFAULTS = {
    "train": None,
    "val": None,
    "out": None,
    "epochs": 20,
    "nk": 24,
    "lr": 1e-3,
    "batch": 256,
    "subset": "Sep",
    "no_fc": False,
    "untie": False,
    "seed": 0,
    "optimizer": "adam",
    "init_noise": 0.05,
    "fc_depth": 4,
    "activation": "relu",
    "verify_fraction": 0.01,
}


def cmd_train(args: argparse.Namespace) -> int:
    cfg_file = _load_config_file(args.config)
    r = _resolve(args, cfg_file, _TRAIN_DEFAULTS)
    for key in ("train", "val", "out"):
        if not r[key]:
            raise ValueError(f"--{key} is required")
    train_ds = training.load_qsd(r["train"])
    val_ds = training.load_qsd(r["val"])
    training.verify_labels(train_ds, fraction=float(r["verify_fraction"]), seed=int(r["seed"]))
    training.verify_labels(val_ds, fraction=float(r["verify_fraction"]), seed=int(r["seed"]))
    sep_cfg = SeparatorConfig(
        n_k=int(r["nk"]),
        use_fc=not r["no_fc"],
        fc_depth=int(r["fc_depth"]),
        tie_weights=not r["untie"],
        activation=r["activation"],
    )
    train_cfg = training.TrainConfig(
        epochs=int(r["epochs"]),
        learning_rate=float(r["lr"]),
        batch_size=int(r["batch"]),
        optimizer=r["optimizer"],
        subset=r["subset"],
        seed=int(r["seed"]),
        init_noise=float(r["init_noise"]),
    )
    report = training.train(train_cfg, sep_cfg, train_ds, val_ds, checkpoint_path=r["out"])
    sha = checkpoint_sha(r["out"])
    losses_path = r["out"] + ".losses.csv"
    with open(losses_path, "w") as fh:
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


# --- eval --------------------------------------------------------------------

_EVAL_DEFAULTS = {
    "ckpt": None,
    "data": None,
    "label": "discord",
    "model": "separator",
    "tau": None,
    "out_prefix": None,
    "seed": 0,
    "threads": None,
    "chunk": 512,
}


def _model_losses(r: dict, mats: np.ndarray) -> tuple[np.ndarray, str]:
    from .separator import baseline_losses

    if r["model"] == "baseline":
        return baseline_losses(mats), "baseline"
    if not r["ckpt"]:
        raise ValueError("--ckpt is required unless --model baseline")
    params, sep_cfg, _ = load_checkpoint(r["ckpt"])
    threads = _resolve_threads(r["threads"])
    losses = evaluation.eval_losses(
        mats, params, sep_cfg, chunk=int(r["chunk"]), threads=threads
    )
    return losses, checkpoint_sha(r["ckpt"])


def cmd_eval(args: argparse.Namespace) -> int:
    cfg_file = _load_config_file(args.config)
    r = _resolve(args, cfg_file, _EVAL_DEFAULTS)
    if r["model"] not in ("separator", "baseline"):
        raise ValueError("--model must be 'separator' or 'baseline'")
    if not r["data"] or not r["out_prefix"]:
        raise ValueError("--data and --out-prefix are required")
    ds = training.load_qsd(r["data"])
    losses, sha = _model_losses(r, ds.mats)
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
        conf = evaluation.confusion_at(losses, positive, float(r["tau"]))
        with open(f"{prefix}.confusion.csv", "w") as fh:
            fh.write(f"# seed={seed} checkpoint={sha}\n")
            fh.write(",pred_negative,pred_positive\n")
            fh.write(f"true_negative,{conf[0, 0]},{conf[0, 1]}\n")
            fh.write(f"true_positive,{conf[1, 0]},{conf[1, 1]}\n")
        summary["tau"] = float(r["tau"])
        summary["confusion"] = conf.tolist()
    manifest = dict(r, command="eval", checkpoint_sha=sha, **summary)
    _write_manifest(f"{prefix}.manifest.json", manifest)
    print(
        f"label={r['label']} model={r['model']}: best BA"
        f" {result.best_balanced_accuracy:.4f} at tau {result.best_threshold:.4g}"
    )
    return 0


# --- map ---------------------------------------------------------------------

_MAP_DEFAULTS = {
    "ckpt": None,
    "grid": 101,
    "out_prefix": None,
    "seed": 0,
    "threads": None,
    "chunk": 512,
}


def cmd_map(args: argparse.Namespace) -> int:
    cfg_file = _load_config_file(args.config)
    r = _resolve(args, cfg_file, _MAP_DEFAULTS)
    if not r["ckpt"] or not r["out_prefix"]:
        raise ValueError("--ckpt and --out-prefix are required")
    params, sep_cfg, _ = load_checkpoint(r["ckpt"])
    sha = checkpoint_sha(r["ckpt"])
    threads = _resolve_threads(r["threads"])
    render = evaluation.render_map(
        params, sep_cfg, grid=int(r["grid"]), chunk=int(r["chunk"]), threads=threads
    )
    prefix, seed = r["out_prefix"], r["seed"]
    evaluation.write_map_csv(f"{prefix}.model.csv", render, render.losses, seed, sha)
    evaluation.write_map_pgm(f"{prefix}.model.pgm", render.losses, seed, sha)
    evaluation.write_map_csv(f"{prefix}.baseline.csv", render, render.baseline, seed, "baseline")
    evaluation.write_map_pgm(f"{prefix}.baseline.pgm", render.baseline, seed, "baseline")
    manifest = dict(r, command="map", checkpoint_sha=sha)
    _write_manifest(f"{prefix}.manifest.json", manifest)
    print(f"rendered {r['grid']}x{r['grid']} map to {prefix}.model.csv / .pgm (+ baseline)")
    return 0


# --- kernels / verify ----------------------------------------------------------


def cmd_kernels(args: argparse.Namespace) -> int:
    cfg_file = _load_config_file(args.config)
    r = _resolve(args, cfg_file, {"ckpt": None, "out": None})
    if not r["ckpt"] or not r["out"]:
        raise ValueError("--ckpt and --out are required")
    params, _, _ = load_checkpoint(r["ckpt"])
    export_kernels_csv(r["out"], params)
    _write_manifest(
        r["out"] + ".manifest.json",
        dict(r, command="kernels", checkpoint_sha=checkpoint_sha(r["ckpt"])),
    )
    print(f"wrote kernels to {r['out']}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg_file = _load_config_file(args.config)
    r = _resolve(args, cfg_file, {"data": None, "fraction": 0.01, "seed": 0})
    if not r["data"]:
        raise ValueError("--data is required")
    ds = training.load_qsd(r["data"])
    training.verify_labels(ds, fraction=float(r["fraction"]), seed=int(r["seed"]))
    counts = np.bincount(ds.klasses(), minlength=len(STATE_CLASSES))
    breakdown = ", ".join(f"{k.value}={c}" for k, c in zip(STATE_CLASSES, counts))
    print(f"{r['data']}: {len(ds)} records verified ({breakdown})")
    return 0


# --- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qsep",
        description="Separable-decoder autoencoder for flagging quantum correlations.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON config file (flags override it)")
        sp.add_argument("--seed", type=int, default=None)

    g = sub.add_parser("gen", help="generate a labeled dataset (QSD1)")
    add_common(g)
    g.add_argument("--kind", choices=GEN_KINDS)
    g.add_argument("--count", type=int)
    g.add_argument("--out")
    g.add_argument("--csv", action="store_true", default=None, help="also write a CSV mirror")
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train the separator")
    add_common(t)
    t.add_argument("--train", help="training dataset (QSD1)")
    t.add_argument("--val", help="validation dataset (QSD1)")
    t.add_argument("--out", help="checkpoint output path (JSON)")
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--nk", type=int, default=None, help="channel count")
    t.add_argument("--lr", type=float, default=None)
    t.add_argument("--batch", type=int, default=None)
    t.add_argument("--subset", choices=training.SUBSETS, default=None)
    t.add_argument("--no-fc", dest="no_fc", action="store_true", default=None)
    t.add_argument("--untie", action="store_true", default=None)
    t.add_argument("--optimizer", choices=("adam", "sgd"), default=None)
    t.add_argument("--init-noise", dest="init_noise", type=float, default=None)
    t.add_argument("--fc-depth", dest="fc_depth", type=int, default=None)
    t.add_argument("--activation", choices=("relu", "tanh"), default=None)
    t.add_argument("--verify-fraction", dest="verify_fraction", type=float, default=None)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="threshold sweep + metrics on a dataset")
    add_common(e)
    e.add_argument("--ckpt")
    e.add_argument("--data")
    e.add_argument("--label", choices=evaluation.LABEL_MODES, default=None)
    e.add_argument("--model", choices=("separator", "baseline"), default=None)
    e.add_argument("--tau", type=float, default=None, help="also emit a confusion matrix")
    e.add_argument("--out-prefix", dest="out_prefix")
    e.add_argument("--threads", type=int, default=None)
    e.add_argument("--chunk", type=int, default=None)
    e.set_defaults(func=cmd_eval)

    m = sub.add_parser("map", help="render the 2-D state-family map")
    add_common(m)
    m.add_argument("--ckpt")
    m.add_argument("--grid", type=int, default=None)
    m.add_argument("--out-prefix", dest="out_prefix")
    m.add_argument("--threads", type=int, default=None)
    m.add_argument("--chunk", type=int, default=None)
    m.set_defaults(func=cmd_map)

    k = sub.add_parser("kernels", help="export kernels from a checkpoint to CSV")
    add_common(k)
    k.add_argument("--ckpt")
    k.add_argument("--out")
    k.set_defaults(func=cmd_kernels)

    v = sub.add_parser("verify", help="re-derive labels for a dataset sample")
    add_common(v)
    v.add_argument("--data")
    v.add_argument("--fraction", type=float, default=None)
    v.set_defaults(func=cmd_verify)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
