"""End-to-end command-line interface tests (all through main())."""
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsep import cli, states, training
from qsep.cli import main, usable_cpus
from qsep.separator import SeparatorConfig, init_params, load_checkpoint, save_checkpoint
from qsep.training import TrainConfig, build_dataset, load_qsd
from checkpoints import V3_TAMPERS, join_v3, split_v3, tampered_v3


def run(*argv):
    """main's exit code, or the code of the SystemExit argparse raises on a
    usage error."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def product_qsd(workdir):
    path = str(workdir / "prod.qsd")
    assert run("gen", "--kind", "product", "--count", "100", "--seed", "1", "--out", path) == 0
    return path


@pytest.fixture(scope="module")
def train_qsd(workdir):
    path = str(workdir / "train.qsd")
    assert run("gen", "--kind", "train", "--count", "300", "--seed", "2", "--out", path) == 0
    return path


@pytest.fixture(scope="module")
def val_qsd(workdir):
    path = str(workdir / "val.qsd")
    assert run("gen", "--kind", "val", "--count", "100", "--seed", "3", "--out", path) == 0
    return path


@pytest.fixture(scope="module")
def mixed_qsd(workdir):
    path = str(workdir / "mixed.qsd")
    assert run("gen", "--kind", "s-mixed", "--count", "200", "--seed", "4", "--out", path) == 0
    return path


@pytest.fixture(scope="module")
def ckpt(workdir, train_qsd, val_qsd):
    path = str(workdir / "model.json")
    code = run(
        "train", "--train", train_qsd, "--val", val_qsd, "--out", path,
        "--epochs", "1", "--nk", "6", "--batch", "64", "--seed", "5",
    )
    assert code == 0
    return path


class TestGen:
    def test_product_kind_labels(self, product_qsd):
        ds = load_qsd(product_qsd)
        assert len(ds) == 100
        assert np.all(ds.klasses() == 0)

    def test_s_pure_balance(self, workdir):
        path = str(workdir / "sp.qsd")
        assert run("gen", "--kind", "s-pure", "--count", "200", "--seed", "6", "--out", path) == 0
        ds = load_qsd(path)
        codes = ds.klasses()
        assert (codes == 3).sum() == 100 and (codes < 3).sum() == 100

    def test_s_pure_odd_count_rejected(self, workdir):
        path = str(workdir / "spodd.qsd")
        assert run("gen", "--kind", "s-pure", "--count", "99", "--seed", "6", "--out", path) == 2

    def test_seed_reproducibility_bytes(self, workdir):
        p1, p2 = str(workdir / "r1.qsd"), str(workdir / "r2.qsd")
        assert run("gen", "--kind", "zd", "--count", "40", "--seed", "9", "--out", p1) == 0
        assert run("gen", "--kind", "zd", "--count", "40", "--seed", "9", "--out", p2) == 0
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    @pytest.mark.parametrize("kind,count", [("zd", 3), ("mixed-sep", 10)])
    def test_zero_discord_draws_shared_basis_flavour(self, kind, count, monkeypatch):
        # every third zero-discord record uses one basis for all qubits,
        # as in build_separable_set; mixed-sep at count 10 holds 3 of them
        shared = []
        draw = states.antipodal_classical

        def recording(rng, shared_basis=False):
            shared.append(shared_basis)
            return draw(rng, shared_basis=shared_basis)

        monkeypatch.setattr(states, "antipodal_classical", recording)
        build_dataset(kind, count, 9)
        assert shared.count(True) == 1

    def test_manifest_written(self, product_qsd):
        mf = json.loads(Path(product_qsd + ".manifest.json").read_text())
        assert mf["command"] == "gen"
        assert mf["records"] == 100
        assert mf["seed"] == 1

    def test_csv_mirror_flag(self, workdir):
        path = str(workdir / "csvm.qsd")
        assert run(
            "gen", "--kind", "product", "--count", "10", "--seed", "1", "--out", path, "--csv"
        ) == 0
        lines = Path(path + ".csv").read_text().strip().split("\n")
        assert len(lines) == 11

    def test_rejection_cap_exit_5(self, workdir, monkeypatch, capsys):
        # a zero-discord source that only yields product states is never accepted
        monkeypatch.setattr(states, "antipodal_classical", lambda rng, shared_basis=False:
                            np.eye(8, dtype=complex) / 8)
        monkeypatch.setattr(training, "MAX_DRAWS", 4)
        path = str(workdir / "capped.qsd")
        assert run("gen", "--kind", "zd", "--count", "3", "--out", path) == 5
        err = capsys.readouterr().err
        assert "zero_discord: no acceptable state in 4 draws" in err
        assert "Traceback" not in err
        assert not os.path.exists(path)

    def test_bad_kind_rejected(self, workdir, capsys):
        code = run("gen", "--kind", "product", "--count", "0", "--seed", "1",
                   "--out", str(workdir / "x.qsd"))
        assert code == 2


# every TrainConfig and SeparatorConfig field: the train flags that set it, and
# the value they give it (never the field's default)
TRAIN_SETTINGS = {
    "epochs": (["--epochs", "3"], 3),
    "learning_rate": (["--lr", "0.002"], 0.002),
    "batch_size": (["--batch", "60"], 60),
    "optimizer": (["--optimizer", "sgd"], "sgd"),
    "subset": (["--subset", "Prod"], "Prod"),
    "seed": (["--seed", "9"], 9),
    "init_noise": (["--init-noise", "0.01"], 0.01),
    "n_k": (["--nk", "3"], 3),
    "use_fc": (["--no-fc"], False),
    "fc_depth": (["--fc-depth", "2"], 2),
    "tie_weights": (["--untie"], False),
    "activation": (["--activation", "tanh"], "tanh"),
}


class TestTrain:
    def test_every_config_field_is_a_setting(self, workdir, train_qsd, val_qsd, monkeypatch):
        fields = [f.name for cls in (TrainConfig, SeparatorConfig)
                  for f in dataclasses.fields(cls)]
        assert sorted(fields) == sorted(TRAIN_SETTINGS)
        defaults = {**vars(TrainConfig()), **vars(SeparatorConfig())}
        assert all(defaults[name] != value for name, (_, value) in TRAIN_SETTINGS.items())
        seen = {}

        class Stop(Exception):
            pass

        def fake_train(cfg, sep_cfg, *args, **kwargs):
            seen.update(vars(cfg), **vars(sep_cfg))
            raise Stop

        monkeypatch.setattr(training, "train", fake_train)
        argv = [arg for flags, _ in TRAIN_SETTINGS.values() for arg in flags]
        with pytest.raises(Stop):
            run("train", "--train", train_qsd, "--val", val_qsd,
                "--out", str(workdir / "never4.json"), *argv)
        assert seen == {name: value for name, (_, value) in TRAIN_SETTINGS.items()}

    @pytest.mark.parametrize("flag,value,field", [
        ("--lr", "nan", "learning_rate"), ("--lr", "inf", "learning_rate"),
        ("--lr", "0", "learning_rate"), ("--init-noise", "nan", "init_noise"),
        ("--init-noise", "inf", "init_noise"), ("--init-noise", "-0.5", "init_noise"),
    ])
    def test_bad_setting_exit_2_before_reading_data(self, workdir, flag, value, field, capsys):
        garbage = workdir / "garbage.qsd"
        garbage.write_bytes(b"XXXX")  # exit 3 once read
        out = str(workdir / "never5.json")
        code = run("train", "--train", str(garbage), "--val", str(garbage), "--out", out,
                   flag, value)
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {field} must be" in err and "Traceback" not in err
        assert not os.path.exists(out)

    def test_checkpoint_loadable(self, ckpt):
        params, cfg, meta = load_checkpoint(ckpt)
        assert cfg.n_k == 6
        assert params.kernels.shape[1] == 6
        assert "epoch" in meta and "val_loss" in meta

    def test_losses_csv(self, ckpt):
        lines = Path(ckpt + ".losses.csv").read_text().strip().split("\n")
        assert lines[0].startswith("# seed=5 checkpoint=")
        assert lines[1] == "epoch,train_loss,val_loss"
        assert lines[2].split(",")[0] == "0" and lines[2].split(",")[1] == "nan"
        assert len(lines) == 3 + 1  # epoch 0 + 1 trained epoch

    def test_manifest(self, ckpt):
        mf = json.loads(Path(ckpt + ".manifest.json").read_text())
        assert mf["command"] == "train"
        assert mf["best_epoch"] == 1
        assert len(mf["checkpoint_sha"]) == 12

    def test_missing_input_exit_2(self, workdir):
        out = str(workdir / "never.json")
        code = run("train", "--train", str(workdir / "nope.qsd"),
                   "--val", str(workdir / "nope.qsd"), "--out", out, "--epochs", "1")
        assert code == 2
        assert not os.path.exists(out)

    @pytest.mark.parametrize("fraction", ["0", "-3", "nan", "inf", "1.5"])
    def test_verify_fraction_outside_unit_interval_exit_2(self, workdir, train_qsd, val_qsd,
                                                          fraction, capsys):
        out = str(workdir / "never3.json")
        code = run("train", "--train", train_qsd, "--val", val_qsd, "--out", out,
                   "--epochs", "1", "--verify-fraction", fraction)
        assert code == 2
        err = capsys.readouterr().err
        assert "argument --verify-fraction: must be in (0, 1]" in err and "Traceback" not in err
        assert not os.path.exists(out)

    def test_config_file_equals_flags(self, tmp_path, train_qsd, val_qsd, monkeypatch):
        """The same run from flags and from a config file writes the same bytes."""
        flags = ["--train", train_qsd, "--val", val_qsd, "--out", "model.json",
                 "--epochs", "1", "--nk", "3", "--batch", "64", "--seed", "5",
                 "--lr", "0.002", "--untie"]
        config = {"train": train_qsd, "val": val_qsd, "out": "model.json", "epochs": 1,
                  "nk": 3, "batch": 64, "seed": 5, "lr": 0.002, "untie": True,
                  "no_fc": False, "init_noise": None, "grid": 9}  # grid: not a train setting
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        for name, argv in (("flags", flags), ("config", ["--config", "../cfg.json"])):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert run("train", *argv) == 0
        for suffix in ("", ".losses.csv", ".manifest.json"):
            written = [(tmp_path / name / f"model.json{suffix}").read_bytes()
                       for name in ("flags", "config")]
            assert written[0] == written[1]

    def test_corrupt_dataset_exit_3(self, workdir, product_qsd):
        bad = str(workdir / "bad.qsd")
        raw = bytearray(Path(product_qsd).read_bytes())
        raw[0:4] = b"XXXX"
        Path(bad).write_bytes(bytes(raw))
        out = str(workdir / "never2.json")
        code = run("train", "--train", bad, "--val", bad, "--out", out, "--epochs", "1")
        assert code == 3
        assert not os.path.exists(out)


class TestEval:
    def test_outputs(self, workdir, ckpt, mixed_qsd):
        prefix = str(workdir / "ev")
        code = run("eval", "--ckpt", ckpt, "--data", mixed_qsd, "--out-prefix", prefix)
        assert code == 0
        sweep_lines = Path(prefix + ".sweep.csv").read_text().strip().split("\n")
        assert sweep_lines[1] == "tau,tp,fp,tn,fn,pr,rc,ba"
        assert len(sweep_lines) == 2 + 400
        means_lines = Path(prefix + ".means.csv").read_text().strip().split("\n")
        assert means_lines[1] == "class,count,mean_loss,p5,p50,p95"
        mf = json.loads(Path(prefix + ".manifest.json").read_text())
        assert 0.0 <= mf["best_balanced_accuracy"] <= 1.0

    def test_deterministic_rerun(self, workdir, ckpt, mixed_qsd):
        p1, p2 = str(workdir / "d1"), str(workdir / "d2")
        assert run("eval", "--ckpt", ckpt, "--data", mixed_qsd, "--out-prefix", p1) == 0
        assert run("eval", "--ckpt", ckpt, "--data", mixed_qsd, "--out-prefix", p2) == 0
        for ext in (".sweep.csv", ".means.csv"):
            assert Path(p1 + ext).read_text() == Path(p2 + ext).read_text()
        m1 = json.loads(Path(p1 + ".manifest.json").read_text())
        m2 = json.loads(Path(p2 + ".manifest.json").read_text())
        m1.pop("out_prefix"), m2.pop("out_prefix")
        assert m1 == m2  # identical apart from where the caller pointed it

    def test_tau_confusion(self, workdir, ckpt, mixed_qsd):
        prefix = str(workdir / "evt")
        code = run("eval", "--ckpt", ckpt, "--data", mixed_qsd,
                   "--out-prefix", prefix, "--tau", "0.01")
        assert code == 0
        lines = Path(prefix + ".confusion.csv").read_text().strip().split("\n")
        assert lines[1] == ",pred_negative,pred_positive"
        assert lines[2].startswith("true_negative,")
        assert lines[3].startswith("true_positive,")
        counts = [int(x) for ln in lines[2:4] for x in ln.split(",")[1:]]
        assert sum(counts) == 200

    def test_baseline_model(self, workdir, mixed_qsd):
        prefix = str(workdir / "evb")
        code = run("eval", "--data", mixed_qsd, "--model", "baseline",
                   "--out-prefix", prefix, "--label", "entanglement")
        assert code == 0
        first = Path(prefix + ".sweep.csv").read_text().splitlines()[0]
        assert first.strip().endswith("checkpoint=baseline")

    def test_single_class_exit_2(self, workdir, product_qsd):
        prefix = str(workdir / "evs")
        code = run("eval", "--data", product_qsd, "--model", "baseline",
                   "--out-prefix", prefix, "--label", "entanglement")
        assert code == 2

    def test_threads_config(self, workdir, ckpt, mixed_qsd, tmp_path):
        # --threads from a config file; the thread count never changes a loss
        base = str(workdir / "dt1")
        argv = ["--ckpt", ckpt, "--data", mixed_qsd]
        assert run("eval", *argv, "--out-prefix", base, "--threads", "1") == 0
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"threads": 3}))
        p1 = str(workdir / "dt")
        assert run("eval", *argv, "--out-prefix", p1, "--config", str(cfgp)) == 0
        assert Path(p1 + ".sweep.csv").read_text() == Path(base + ".sweep.csv").read_text()
        assert json.loads(Path(p1 + ".manifest.json").read_text())["threads"] == 3

    @pytest.mark.parametrize("command", ["eval", "map"])
    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_threads_config_names_flag(self, workdir, ckpt, mixed_qsd, tmp_path, capsys,
                                           command, value):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"threads": value}))
        prefix = str(workdir / f"badcfg_{command}_{value}")
        argv = ["--ckpt", ckpt, "--out-prefix", prefix, "--config", str(cfgp)]
        argv += ["--data", mixed_qsd] if command == "eval" else ["--grid", "11"]
        assert run(command, *argv) == 2
        err = capsys.readouterr().err
        assert "argument --threads:" in err and "Traceback" not in err
        assert not os.path.exists(prefix + ".manifest.json")

    def test_null_threads_config_is_unset(self, workdir, ckpt, mixed_qsd, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"threads": None}))
        prefix = str(workdir / "nullcfg")
        assert run("eval", "--ckpt", ckpt, "--data", mixed_qsd, "--out-prefix", prefix,
                   "--config", str(cfgp)) == 0
        mf = json.loads(Path(prefix + ".manifest.json").read_text())
        assert mf["threads"] == usable_cpus()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_default_threads_count_usable_cpus(self):
        # a process allowed one CPU defaults to one worker, whatever the machine has
        code = ("import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                "from qsep import cli; print(cli.SCORING['threads']['default'])")
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "1"

    def test_bad_threads_flag_names_flag(self, workdir, ckpt, mixed_qsd, capsys):
        prefix = str(workdir / "badflag")
        code = run("eval", "--ckpt", ckpt, "--data", mixed_qsd, "--out-prefix", prefix,
                   "--threads", "0")
        assert code == 2
        err = capsys.readouterr().err
        assert "argument --threads: must be >= 1, got 0" in err and "Traceback" not in err
        assert not os.path.exists(prefix + ".manifest.json")

    @pytest.mark.parametrize("flag", ["--chunk", "--threads"])
    def test_baseline_bad_count_exit_2(self, workdir, mixed_qsd, flag, capsys):
        # checked by the parser, so on the baseline path too, which uses neither
        prefix = str(workdir / "evbase_bad")
        assert run("eval", "--model", "baseline", "--data", mixed_qsd, "--out-prefix", prefix,
                   flag, "0") == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be >= 1, got 0" in err and "Traceback" not in err
        assert not os.path.exists(prefix + ".sweep.csv")

    @pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
    def test_tau_not_finite_exit_2(self, workdir, mixed_qsd, tau, capsys):
        prefix = str(workdir / "evtau")
        assert run("eval", "--model", "baseline", "--data", mixed_qsd, "--out-prefix", prefix,
                   f"--tau={tau}") == 2
        err = capsys.readouterr().err
        assert "argument --tau: must be finite" in err and "Traceback" not in err
        assert not os.path.exists(prefix + ".manifest.json")

    @pytest.mark.parametrize("exists", [True, False])
    def test_baseline_with_ckpt_exit_2(self, workdir, ckpt, mixed_qsd, exists, capsys):
        # the baseline reads no checkpoint, so naming one is a mistake
        prefix = str(workdir / "evbase_ckpt")
        path = ckpt if exists else str(workdir / "nonexist.json")
        assert run("eval", "--model", "baseline", "--ckpt", path, "--data", mixed_qsd,
                   "--out-prefix", prefix) == 2
        err = capsys.readouterr().err
        assert "--ckpt cannot be used with --model baseline" in err and "Traceback" not in err
        assert not os.path.exists(prefix + ".manifest.json")

    @pytest.mark.parametrize("chunk", ["0", "-1"])
    def test_bad_chunk_exit_2(self, workdir, ckpt, mixed_qsd, chunk, capsys):
        prefix = str(workdir / "evchunk")
        assert run("eval", "--ckpt", ckpt, "--data", mixed_qsd, "--out-prefix", prefix,
                   "--chunk", chunk) == 2
        err = capsys.readouterr().err
        assert f"argument --chunk: must be >= 1, got {chunk}" in err and "Traceback" not in err
        assert not os.path.exists(prefix + ".means.csv")


class TestMapCmd:
    def test_outputs(self, workdir, ckpt):
        prefix = str(workdir / "map")
        code = run("map", "--ckpt", ckpt, "--grid", "11", "--out-prefix", prefix)
        assert code == 0
        for suffix in (".model.csv", ".model.pgm", ".baseline.csv", ".baseline.pgm"):
            assert os.path.exists(prefix + suffix)
        lines = Path(prefix + ".model.csv").read_text().strip().split("\n")
        assert len(lines) == 2 + 121
        klasses = {ln.split(",")[3] for ln in lines[2:]}
        assert "Product" in klasses and len(klasses) >= 3
        pgm = [ln for ln in Path(prefix + ".model.pgm").read_text().split("\n")
               if ln and not ln.startswith("#")]
        assert pgm[0] == "P2" and pgm[1] == "11 11"

    @pytest.mark.parametrize("grid", ["5", "10", "-1"])
    def test_bad_grid_exit_2_before_reading(self, workdir, grid, capsys):
        # the parser rejects it: the checkpoint it names is never opened
        prefix = str(workdir / "mapgrid")
        assert run("map", "--ckpt", str(workdir / "nonexist.json"), "--grid", grid,
                   "--out-prefix", prefix) == 2
        err = capsys.readouterr().err
        assert f"argument --grid: must be >= 11, got {grid}" in err and "Traceback" not in err
        assert not os.path.exists(prefix + ".manifest.json")

    @pytest.mark.parametrize("chunk", ["0", "-1"])
    def test_bad_chunk_exit_2(self, workdir, ckpt, chunk, capsys):
        prefix = str(workdir / "mapchunk")
        assert run("map", "--ckpt", ckpt, "--grid", "11", "--out-prefix", prefix,
                   "--chunk", chunk) == 2
        err = capsys.readouterr().err
        assert f"argument --chunk: must be >= 1, got {chunk}" in err and "Traceback" not in err
        assert not os.path.exists(prefix + ".model.csv")


class TestKernelsCmd:
    def test_export(self, workdir, ckpt):
        out = str(workdir / "kernels.csv")
        assert run("kernels", "--ckpt", ckpt, "--out", out) == 0
        lines = Path(out).read_text().strip().split("\n")
        assert lines[0] == "path,channel,part,k0,k1,k2,k3"
        # tied model: 1 path x 6 channels x 2 parts x 4 rows
        assert len(lines) == 1 + 1 * 6 * 2 * 4

    def test_export_untied(self, tmp_path):
        cfg = SeparatorConfig(n_k=3, fc_depth=2, tie_weights=False, activation="tanh")
        params = init_params(cfg, np.random.default_rng(37))
        path, out = str(tmp_path / "untied.ckpt"), str(tmp_path / "kernels.csv")
        save_checkpoint(path, params, cfg)
        assert run("kernels", "--ckpt", path, "--out", out) == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "path,channel,part,k0,k1,k2,k3"
        # 3 paths x 3 channels x 2 parts x 4 rows, in the kernels' own order
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[:3] for r in rows] == [[t, str(c), part] for t in "ABC" for c in range(3)
                                         for part in ("re", "im") for _ in range(4)]
        # the .17g text parses back to the saved float64 bits
        values = np.array([[float(x) for x in r[3:]] for r in rows])
        assert values.tobytes() == params.kernels.reshape(-1, 4).tobytes()


class TestCheckpointFiles:
    """Every checkpoint-reading command on malformed and old-version checkpoints."""

    @staticmethod
    def argv(command, ckpt, out, mixed_qsd):
        return {
            "eval": ["--ckpt", ckpt, "--data", mixed_qsd, "--out-prefix", out],
            "map": ["--ckpt", ckpt, "--grid", "11", "--out-prefix", out],
            "kernels": ["--ckpt", ckpt, "--out", out],
        }[command]

    @pytest.mark.parametrize("tamper", V3_TAMPERS)
    @pytest.mark.parametrize("command", ["eval", "map", "kernels"])
    def test_malformed_v3_exit_3(self, tmp_path, mixed_qsd, command, tamper, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(tampered_v3(tmp_path, tamper))
        out = str(tmp_path / "out")
        assert run(command, *self.argv(command, str(bad), out, mixed_qsd)) == 3
        err = capsys.readouterr().err
        assert "checkpoint" in err and "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == sorted(["bad.ckpt", f"ok_{tamper}.ckpt"])

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("command", ["eval", "map", "kernels"])
    def test_old_version_exit_3(self, tmp_path, mixed_qsd, command, version, capsys):
        cfg = SeparatorConfig(n_k=2, fc_depth=2)
        path = tmp_path / "old.ckpt"
        save_checkpoint(str(path), init_params(cfg, np.random.default_rng(38)), cfg)
        header, payload = split_v3(path.read_bytes())
        header["format_version"] = version
        path.write_bytes(join_v3(header, payload))
        out = str(tmp_path / "out")
        assert run(command, *self.argv(command, str(path), out, mixed_qsd)) == 3
        err = capsys.readouterr().err
        assert f"unsupported format_version {version}" in err and "Traceback" not in err
        assert os.listdir(tmp_path) == ["old.ckpt"]


class TestVerifyCmd:
    def test_clean(self, product_qsd, capsys):
        assert run("verify", "--data", product_qsd, "--fraction", "0.2") == 0
        out = capsys.readouterr().out
        assert "100 records verified" in out
        assert "Product=100" in out

    @pytest.mark.parametrize("fraction", ["0", "-3", "nan", "inf", "1.5"])
    def test_fraction_outside_unit_interval_exit_2(self, product_qsd, fraction, capsys):
        assert run("verify", "--data", product_qsd, "--fraction", fraction) == 2
        err = capsys.readouterr().err
        assert "argument --fraction: must be in (0, 1]" in err and "Traceback" not in err

    @pytest.mark.parametrize("bit", [1, 2])
    def test_inconsistent_derived_bit_exit_3(self, workdir, product_qsd, bit, capsys):
        path = str(workdir / f"flip{bit}.qsd")
        raw = bytearray(Path(product_qsd).read_bytes())
        off = 13 + 3 * 1026 + 1024  # the label of record 3
        raw[off] ^= 1 << bit
        Path(path).write_bytes(bytes(raw))
        assert run("verify", "--data", path, "--fraction", "1.0") == 3
        assert "record 3 label" in capsys.readouterr().err

    def test_corrupted_labels_exit_3(self, workdir, product_qsd):
        from qsep.training import load_qsd as _load, save_qsd as _save, Dataset

        ds = _load(product_qsd)
        bad = Dataset(mats=ds.mats.copy(), labels=ds.labels.copy(), meta=dict(ds.meta))
        bad.labels[:] |= 1 << 3  # claim entanglement on product states
        path = str(workdir / "badlab.qsd")
        _save(path, bad)
        assert run("verify", "--data", path, "--fraction", "0.2") == 3

    def test_entangled_stored_separable_exit_3(self, workdir, product_qsd, capsys):
        from qsep.oracles import classify
        from qsep.training import Dataset, pack_label, save_qsd

        ds = load_qsd(product_qsd)
        ghz = np.zeros((8, 8), dtype=complex)
        ghz[0, 0] = ghz[0, 7] = ghz[7, 0] = ghz[7, 7] = 0.5
        label = pack_label(classify(ghz, known_separable=True))
        bad = Dataset(
            mats=np.concatenate([ds.mats[:4], ghz[None]]),
            labels=np.append(ds.labels[:4], label).astype(np.uint16),
        )
        path = str(workdir / "ghz_as_sep.qsd")
        save_qsd(path, bad)
        assert run("verify", "--data", path, "--fraction", "1.0") == 3
        assert "stored as separable" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["nan", "off_diagonal"])
    def test_unphysical_record_exit_3(self, workdir, product_qsd, fault, capsys):
        # a NaN record used to reach the oracle's eigensolver (exit 2)
        from qsep.training import Dataset, save_qsd

        ds = load_qsd(product_qsd)
        mats = ds.mats[:5].copy()
        if fault == "nan":
            mats[3, 2, 2] = np.nan
        else:
            mats[3, 0, 1] += 0.3
        path = str(workdir / f"{fault}.qsd")
        save_qsd(path, Dataset(mats=mats, labels=ds.labels[:5]))
        assert run("verify", "--data", path, "--fraction", "1.0") == 3
        err = capsys.readouterr().err
        assert "record 3 matrix" in err and f"byte offset {13 + 3 * 1026}" in err


class TestConfigPrecedence:
    def test_cli_beats_config_beats_default(self, workdir):
        cfgp = str(workdir / "cfg.json")
        Path(cfgp).write_text(json.dumps({"count": 7, "kind": "product", "seed": 30}))
        out = str(workdir / "cfgd.qsd")
        # kind/count from config file, seed overridden on the CLI
        assert run("gen", "--config", cfgp, "--out", out, "--seed", "31") == 0
        ds = load_qsd(out)
        assert len(ds) == 7
        mf = json.loads(Path(out + ".manifest.json").read_text())
        assert mf["seed"] == 31
        assert mf["kind"] == "product"

    def test_bad_config_file_exit_3(self, workdir):
        cfgp = str(workdir / "bad.json")
        Path(cfgp).write_text("[1, 2, 3]")
        out = str(workdir / "cfgbad.qsd")
        code = run("gen", "--config", cfgp, "--kind", "product",
                   "--count", "5", "--out", out)
        assert code == 3

    @pytest.mark.parametrize("content", [b'{"epochs": 1,', b'{"out": "m\xe9.json"}',
                                         b"\xff\xfe\xfd"], ids=["truncated", "latin-1", "binary"])
    def test_config_not_json_exit_3(self, workdir, capsys, content):
        # bytes that are not UTF-8 JSON are a data format error, like bad JSON
        cfgp = workdir / "notjson.json"
        cfgp.write_bytes(content)
        assert run("train", "--config", str(cfgp)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data format error: config file {cfgp} is not valid JSON")


# --- the settings contract of every subcommand ---------------------------------
# (command, setting, value): the value differs from the setting's default.
PRECEDENCE = [
    ("gen", "seed", 31),
    ("train", "batch", 60),
    ("eval", "chunk", 200),
    ("map", "chunk", 200),
    ("kernels", "ckpt", None),  # None: the trained checkpoint
    ("verify", "fraction", 0.5),
]
REQUIRED = [
    ("gen", "kind"), ("gen", "count"), ("gen", "out"),
    ("train", "train"), ("train", "val"), ("train", "out"),
    ("eval", "data"), ("eval", "out-prefix"), ("eval", "ckpt"),
    ("map", "ckpt"), ("map", "out-prefix"),
    ("kernels", "ckpt"), ("kernels", "out"),
    ("verify", "data"),
]


# (command, output suffix): every output the subcommands write besides the
# QSD files and checkpoints, which test_training and test_separator cover
OUTPUTS = [
    ("gen", ".manifest.json"),
    ("train", ".losses.csv"), ("train", ".manifest.json"),
    ("eval", ".sweep.csv"), ("eval", ".means.csv"), ("eval", ".confusion.csv"),
    ("eval", ".manifest.json"),
    ("map", ".model.csv"), ("map", ".model.pgm"), ("map", ".baseline.csv"),
    ("map", ".baseline.pgm"), ("map", ".manifest.json"),
    ("kernels", ""), ("kernels", ".manifest.json"),
]


class DiskFull:
    """A file whose first write stores 100 bytes, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:100])
        raise OSError("disk full")


def _without(argv, flag):
    """argv with `flag` and the value after it removed."""
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


class TestSettingsContract:
    @pytest.fixture
    def command_argv(self, tmp_path, ckpt, train_qsd, val_qsd, mixed_qsd, product_qsd):
        """Every required setting of a command given by flag, plus where its
        manifest lands."""
        out = str(tmp_path / "out")

        def argv(command):
            return {
                "gen": (["--kind", "product", "--count", "5", "--out", out + ".qsd"],
                        out + ".qsd.manifest.json"),
                "train": (["--train", train_qsd, "--val", val_qsd, "--out", out + ".json",
                           "--epochs", "1", "--nk", "4"], out + ".json.manifest.json"),
                "eval": (["--ckpt", ckpt, "--data", mixed_qsd, "--out-prefix", out,
                          "--tau", "0.01"], out + ".manifest.json"),
                "map": (["--ckpt", ckpt, "--grid", "11", "--out-prefix", out],
                        out + ".manifest.json"),
                "kernels": (["--ckpt", ckpt, "--out", out + ".csv"], out + ".csv.manifest.json"),
                "verify": (["--data", product_qsd], None),
            }[command]

        return argv

    @staticmethod
    def _resolved(command, argv, manifest, monkeypatch):
        """The settings a successful run resolved: its manifest, or for
        `verify` (no manifest) the arguments it verified with."""
        seen = {}
        if command == "verify":
            monkeypatch.setattr(training, "verify_labels",
                                lambda ds, fraction, seed: seen.update(fraction=fraction))
        assert run(command, *argv) == 0
        return seen if manifest is None else json.loads(Path(manifest).read_text())

    @pytest.mark.parametrize("source", ["config", "flag"])
    @pytest.mark.parametrize("command,setting,value", PRECEDENCE)
    def test_precedence(self, source, command, setting, value, command_argv, tmp_path, ckpt,
                        monkeypatch):
        """A config-file value beats the default; a flag beats the config file."""
        value = ckpt if value is None else value
        argv, manifest = command_argv(command)
        flag = "--" + setting.replace("_", "-")
        if flag in argv:
            argv = _without(argv, flag)
        config_value = value
        if source == "flag":
            config_value = str(tmp_path / "missing.json") if isinstance(value, str) else 2 * value
            argv = argv + [flag, str(value)]
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({setting: config_value}))
        got = self._resolved(command, argv + ["--config", str(cfgp)], manifest, monkeypatch)
        assert got[setting] == value

    @pytest.mark.parametrize("command,flag", REQUIRED)
    def test_missing_required_exit_2(self, command, flag, command_argv, capsys):
        argv, _ = command_argv(command)
        assert run(command, *_without(argv, "--" + flag)) == 2
        err = capsys.readouterr().err
        assert "--" + flag in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,setting,value", [
        ("gen", "count", "many"), ("train", "optimizer", "lbfgs"), ("eval", "model", "oracle"),
        # no truncation, no bool for a number, no truthy string for a switch
        ("train", "nk", 2.7), ("train", "epochs", True), ("gen", "csv", "yes"),
        ("gen", "out", ["a"]), ("map", "chunk", 0),
    ])
    def test_bad_config_value_exit_2(self, command, setting, value, command_argv, tmp_path,
                                     capsys):
        # config values are converted and checked as the flag's would be
        argv, _ = command_argv(command)
        flag = "--" + setting
        if flag in argv:
            argv = _without(argv, flag)
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({setting: value}))
        assert run(command, *argv, "--config", str(cfgp)) == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_unknown_config_key_exit_2(self, command_argv, tmp_path, capsys):
        # a misspelt setting must not fall back silently to its default
        argv, _ = command_argv("train")
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"epoch": 3}))
        assert run("train", *argv, "--config", str(cfgp)) == 2
        err = capsys.readouterr().err
        assert f"config file {cfgp}: no command has a setting 'epoch'" in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_other_commands_config_keys_ignored(self, command_argv, tmp_path):
        argv, manifest = command_argv("kernels")
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"grid": 5, "epochs": 0, "kind": "nope"}))
        assert run("kernels", *argv, "--config", str(cfgp)) == 0
        assert "grid" not in json.loads(Path(manifest).read_text())

    @pytest.mark.parametrize("command,flag", [
        ("gen", "out"), ("train", "out"), ("train", "val"), ("eval", "out-prefix"),
        ("eval", "data"), ("map", "out-prefix"), ("kernels", "out"), ("verify", "data"),
    ])
    def test_empty_path_exit_2(self, command, flag, command_argv, tmp_path, monkeypatch,
                               capsys):
        # an empty prefix would write ".sweep.csv" and the like into the working directory
        argv, _ = command_argv(command)
        work = tmp_path / "cwd"
        work.mkdir()
        monkeypatch.chdir(work)
        assert run(command, *_without(argv, "--" + flag), "--" + flag, "") == 2
        err = capsys.readouterr().err
        assert f"argument --{flag}: must not be empty" in err
        assert os.listdir(tmp_path) == ["cwd"] and os.listdir(work) == []

    @pytest.mark.parametrize("command,suffix", OUTPUTS)
    def test_failed_write_keeps_previous_output(self, command, suffix, command_argv,
                                                monkeypatch):
        argv, manifest = command_argv(command)
        path = manifest[: -len(".manifest.json")] + suffix
        real_open = open

        def failing_open(file, *args, **kwargs):
            fh = real_open(file, *args, **kwargs)
            return DiskFull(fh) if file == path + ".tmp" else fh

        def fails_to_write():
            monkeypatch.setattr("builtins.open", failing_open)
            with pytest.raises(OSError, match="disk full"):
                run(command, *argv)
            monkeypatch.undo()
            assert not os.path.exists(path + ".tmp")

        fails_to_write()
        assert not os.path.exists(path)
        assert run(command, *argv) == 0
        before = Path(path).read_bytes()
        fails_to_write()
        assert Path(path).read_bytes() == before

    @pytest.mark.parametrize("command", ["gen", "train", "eval", "map", "kernels"])
    def test_failed_manifest_write_prints_no_success_line(self, command, command_argv,
                                                          monkeypatch, capsys):
        # the manifest is the last output: its failure is the command's failure
        argv, manifest = command_argv(command)
        real_open = open

        def failing_open(file, *args, **kwargs):
            fh = real_open(file, *args, **kwargs)
            return DiskFull(fh) if file == manifest + ".tmp" else fh

        capsys.readouterr()
        monkeypatch.setattr("builtins.open", failing_open)
        with pytest.raises(OSError, match="disk full"):
            run(command, *argv)
        monkeypatch.undo()
        assert capsys.readouterr().out == ""
        assert not os.path.exists(manifest) and not os.path.exists(manifest + ".tmp")

    def test_verify_writes_no_manifest(self, tmp_path, product_qsd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        data_dir = os.path.dirname(product_qsd)
        before = set(os.listdir(data_dir))
        assert run("verify", "--data", product_qsd, "--fraction", "0.1") == 0
        assert set(os.listdir(data_dir)) == before
        assert os.listdir(tmp_path) == []
