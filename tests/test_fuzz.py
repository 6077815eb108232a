"""Seeded corruptions of a small QSD file and a small version-3 checkpoint.

Every corrupted file either loads or is refused with DataFormatError, and the
CLI on it exits 0 or 3: no corruption may reach another exception or exit
code. The corruptions come from a fixed numpy seed, a quarter of each kind:
truncation, one header byte changed, one payload byte changed, and one to
eight random bytes inserted anywhere.
"""
from pathlib import Path

import numpy as np
import pytest

from qsep.cli import main
from qsep.errors import DataFormatError
from qsep.separator import SeparatorConfig, init_params, load_checkpoint, save_checkpoint
from qsep.training import build_dataset, load_qsd, save_qsd

N_CORRUPTIONS = 1200  # per file
CLI_EVERY = 6  # every 6th corruption also goes through the CLI
QSD_HEADER = 13


def corruptions(raw: bytes, header_size: int, n: int, seed: int) -> list[bytes]:
    """n corrupted copies of `raw`, whose first `header_size` bytes are its
    header, cycling through the four kinds of corruption."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        data = bytearray(raw)
        kind = i % 4
        if kind == 0:
            del data[int(rng.integers(len(raw))):]
        elif kind in (1, 2):
            lo, hi = (0, header_size) if kind == 1 else (header_size, len(raw))
            data[int(rng.integers(lo, hi))] ^= int(rng.integers(1, 256))
        else:
            at = int(rng.integers(len(raw) + 1))
            data[at:at] = rng.integers(256, size=int(rng.integers(1, 9)), dtype=np.uint8).tobytes()
        out.append(bytes(data))
    return out


def qsd_file(tmp_path: Path) -> tuple[bytes, int]:
    path = str(tmp_path / "ok.qsd")
    save_qsd(path, build_dataset("s-mixed", 8, seed=5))
    return Path(path).read_bytes(), QSD_HEADER


def checkpoint_file(tmp_path: Path) -> tuple[bytes, int]:
    config = SeparatorConfig(n_k=2, fc_depth=2)
    path = str(tmp_path / "ok.ckpt")
    save_checkpoint(path, init_params(config, np.random.default_rng(9)), config, {"seed": 9})
    raw = Path(path).read_bytes()
    return raw, raw.index(b"\n") + 1


FORMATS = {
    # format: (file builder, loader, CLI argv that reads the file at `path`)
    "qsd": (qsd_file, load_qsd, lambda path: ["verify", "--data", path, "--fraction", "1.0"]),
    "checkpoint": (checkpoint_file, load_checkpoint,
                   lambda path: ["kernels", "--ckpt", path, "--out", path + ".csv"]),
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_corrupted_file_loads_or_is_data_format_error(tmp_path, capsys, fmt):
    build, load, argv = FORMATS[fmt]
    raw, header_size = build(tmp_path)
    path = str(tmp_path / "bad")
    outcomes = {"loaded": 0, "refused": 0}
    for i, data in enumerate(corruptions(raw, header_size, N_CORRUPTIONS, seed=22)):
        Path(path).write_bytes(data)
        try:
            load(path)
            outcomes["loaded"] += 1
        except DataFormatError:
            outcomes["refused"] += 1
        if i % CLI_EVERY == 0:
            code = main(argv(path))
            err = capsys.readouterr().err
            assert code in (0, 3), (i, code, err)
    # both outcomes occur, so the corruptions reach past the first check
    assert min(outcomes.values()) > 0, outcomes
