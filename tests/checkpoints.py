"""Checkpoint files for the tests: the version-2 writer, which the package no
longer has, to build tampered version-2 files, tampered copies of the old
files (`tampered_old`), and the split of a version-3 file into its header and
payload, to build tampered version-3 files (`tampered_v3`).

`tests/data/` holds small version-1 and version-2 checkpoints of the same
weights, written by the writers of those versions; `OLD_CHECKPOINTS` names
them with their configs, training metadata and the sha256 of their arrays'
little-endian float64 bytes in payload order.
"""
import base64
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from qsep.separator import SeparatorConfig, init_params, save_checkpoint

DATA = Path(__file__).parent / "data"

OLD_CHECKPOINTS = {
    "untied_nk2": (
        SeparatorConfig(n_k=2, fc_depth=2, tie_weights=False, activation="tanh"),
        {"epoch": 3, "val_loss": 0.012345678901234567, "seed": 7},
        "3fc6dbf476c5b41218dcec1fb4844b009122973315fb092095b10f904baed518",
    ),
    "nofc_nk2": (
        SeparatorConfig(n_k=2, use_fc=False),
        {"epoch": 1, "seed": 8},
        "aa221089a7d2898d9568a5b8d3a2e911493fd16141fd213f17e592182545ae47",
    ),
}


def old_checkpoint(name: str, version: int) -> Path:
    return DATA / f"v{version}_{name}.json"


def encode_array(a: np.ndarray) -> dict:
    """A version-2 array entry: its shape and the base64 of its little-endian
    float64 bytes."""
    raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return {"shape": list(a.shape), "f8": base64.b64encode(raw).decode("ascii")}


def v2_payload(params, config, training_meta=None) -> dict:
    """The JSON object of a version-2 checkpoint; `json.dumps` of it is the
    file's text."""
    return {
        "format_version": 2,
        "config": asdict(config),
        "kernels": encode_array(params.kernels),
        "fc": None
        if params.fc_w is None
        else {"weights": encode_array(params.fc_w), "biases": encode_array(params.fc_b)},
        "training_meta": training_meta or {},
    }


# version-1 and -2 files that must not load, though each holds the right
# number of weights: a v2 file whose kernels are 8 bytes short and whose FC
# weights are 8 bytes long, and a v1 file with one kernel row of five entries
# and one of three
OLD_TAMPERS = ["v2_bytes_shifted", "v1_ragged"]
# version-1 files whose first kernel weight is not a JSON number (a numeric
# string, a boolean), or is an integer too large for a float64
V1_LEAF_TAMPERS = {"v1_string_weight": "0.98", "v1_bool_weight": True, "v1_huge_int": 10**400}


def tampered_old(tamper: str) -> str:
    """The text of the `untied_nk2` checkpoint with one `OLD_TAMPERS` or
    `V1_LEAF_TAMPERS` fault."""
    if tamper in V1_LEAF_TAMPERS:
        payload = json.loads(old_checkpoint("untied_nk2", 1).read_text())
        payload["kernels"][0][0][0][0][0] = V1_LEAF_TAMPERS[tamper]
    elif tamper == "v2_bytes_shifted":
        payload = json.loads(old_checkpoint("untied_nk2", 2).read_text())
        kernels, weights = payload["kernels"], payload["fc"]["weights"]
        k, w = (base64.b64decode(e["f8"]) for e in (kernels, weights))
        kernels["f8"] = base64.b64encode(k[:-8]).decode("ascii")
        weights["f8"] = base64.b64encode(k[-8:] + w).decode("ascii")
    else:
        payload = json.loads(old_checkpoint("untied_nk2", 1).read_text())
        rows = payload["kernels"][0][0][0]
        rows[0].append(rows[1].pop())
    return json.dumps(payload)


def split_v3(raw: bytes) -> tuple[dict, bytes]:
    """A version-3 file's header object and the payload bytes after it."""
    line, payload = raw.split(b"\n", 1)
    return json.loads(line), payload


def join_v3(header: dict, payload: bytes) -> bytes:
    return json.dumps(header).encode("ascii") + b"\n" + payload


# version-3 files that must not load: header, payload and weight faults
V3_TAMPERS = [
    "header_not_json", "header_not_object", "unknown_version", "shape_vs_config",
    "fc_vs_use_fc", "one_byte_short", "trailing_byte", "nan_weight",
]


def tampered_v3(tmp_path: Path, tamper: str) -> bytes:
    """A small version-3 checkpoint with one `V3_TAMPERS` fault."""
    config = SeparatorConfig(n_k=2, fc_depth=2)
    path = str(tmp_path / f"ok_{tamper}.ckpt")
    save_checkpoint(path, init_params(config, np.random.default_rng(36)), config)
    header, payload = split_v3(Path(path).read_bytes())
    if tamper == "header_not_json":
        return b"{not json\n" + payload
    if tamper == "header_not_object":
        return b"[3]\n" + payload
    if tamper == "unknown_version":
        header["format_version"] = 4
    elif tamper == "shape_vs_config":
        header["kernels"]["shape"][1] = 3  # n_k 3 against the config's 2
    elif tamper == "fc_vs_use_fc":
        header["config"]["use_fc"] = False
    elif tamper == "one_byte_short":
        payload = payload[:-1]
    elif tamper == "trailing_byte":
        payload += b"\0"
    else:
        payload = payload[:-8] + np.array([np.nan], dtype="<f8").tobytes()
    return join_v3(header, payload)
