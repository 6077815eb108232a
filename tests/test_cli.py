"""End-to-end command-line interface tests (all through main())."""
import json
import os
from pathlib import Path

import numpy as np
import pytest

from qsep import states, training
from qsep.cli import _gen_dataset, main
from qsep.separator import _encode_array, load_checkpoint
from qsep.training import load_qsd


def run(*argv):
    return main(list(argv))


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
        _gen_dataset(kind, count, 9)
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


class TestTrain:
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
        assert means_lines[1] == "class,count,mean_loss"
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

    def test_threads_env(self, workdir, ckpt, mixed_qsd, monkeypatch):
        monkeypatch.setenv("QSEP_THREADS", "3")
        p1 = str(workdir / "dt")
        assert run("eval", "--ckpt", ckpt, "--data", mixed_qsd, "--out-prefix", p1) == 0
        base = str(workdir / "d1")
        assert (
            Path(p1 + ".sweep.csv").read_text() == Path(base + ".sweep.csv").read_text()
        )


    @pytest.mark.parametrize("tamper", ["fc_vs_use_fc", "fc_shape", "nan_kernel"])
    def test_invalid_checkpoint_exit_3(self, workdir, ckpt, mixed_qsd, tamper, capsys):
        payload = json.loads(Path(ckpt).read_text())
        params = load_checkpoint(ckpt)[0]
        if tamper == "fc_vs_use_fc":
            payload["config"]["use_fc"] = False
        elif tamper == "fc_shape":
            payload["fc"]["weights"] = _encode_array(params.fc_w[..., :-1])
        else:
            params.kernels[0, 0, 0, 0, 0] = float("nan")
            payload["kernels"] = _encode_array(params.kernels)
        bad = str(workdir / f"bad_{tamper}.json")
        Path(bad).write_text(json.dumps(payload))
        prefix = str(workdir / f"evbad_{tamper}")
        assert run("eval", "--ckpt", bad, "--data", mixed_qsd, "--out-prefix", prefix) == 3
        assert "checkpoint" in capsys.readouterr().err
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


class TestKernelsCmd:
    def test_export(self, workdir, ckpt):
        out = str(workdir / "kernels.csv")
        assert run("kernels", "--ckpt", ckpt, "--out", out) == 0
        lines = Path(out).read_text().strip().split("\n")
        assert lines[0] == "path,channel,part,k0,k1,k2,k3"
        # tied model: 1 path x 6 channels x 2 parts x 4 rows
        assert len(lines) == 1 + 1 * 6 * 2 * 4


class TestVerifyCmd:
    def test_clean(self, product_qsd, capsys):
        assert run("verify", "--data", product_qsd, "--fraction", "0.2") == 0
        out = capsys.readouterr().out
        assert "100 records verified" in out
        assert "Product=100" in out

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
