"""Checkpoint files for the tests: the split of a version-3 file into its
header and payload and their join, to build tampered version-3 files
(`tampered_v3`)."""
import json
from pathlib import Path

import numpy as np

from qsep.separator import SeparatorConfig, init_params, save_checkpoint


def split_v3(raw: bytes) -> tuple[dict, bytes]:
    """A version-3 file's header object and the payload bytes after it."""
    line, payload = raw.split(b"\n", 1)
    return json.loads(line), payload


def join_v3(header: dict, payload: bytes) -> bytes:
    return json.dumps(header).encode("ascii") + b"\n" + payload


# config entries of the wrong JSON type: 2.0 is not a count, "no" not a switch
CONFIG_TYPE_TAMPERS = {
    "n_k_float": ("n_k", 2.0), "fc_depth_float": ("fc_depth", 2.0),
    "use_fc_string": ("use_fc", "no"), "tie_weights_int": ("tie_weights", 1),
}
# version-3 files that must not load: header, config, shape, payload and
# weight faults
V3_TAMPERS = [
    "header_not_json", "header_not_object", "unknown_version", "version_true",
    "version_float", *CONFIG_TYPE_TAMPERS, "shape_vs_config", "fc_vs_use_fc", "fc_dropped",
    "fc_w_shape", "fc_b_shape", "huge_fc_depth", "one_byte_short", "trailing_byte",
    "nan_weight", "nan_kernel", "inf_fc_weight",
]


def set_weight(payload: bytes, index: int, value: float) -> bytes:
    """The payload with its float64 number `index` replaced by `value`."""
    a = np.frombuffer(payload, dtype="<f8").copy()
    a[index] = value
    return a.tobytes()


def tampered_v3(tmp_path: Path, tamper: str) -> bytes:
    """A small version-3 checkpoint (n_k 2, FC depth 2, tied) with one
    `V3_TAMPERS` fault."""
    config = SeparatorConfig(n_k=2, fc_depth=2)
    path = str(tmp_path / f"ok_{tamper}.ckpt")
    save_checkpoint(path, init_params(config, np.random.default_rng(36)), config)
    header, payload = split_v3(Path(path).read_bytes())
    fc = header["fc"]
    if tamper == "header_not_json":
        return b"{not json\n" + payload
    if tamper == "header_not_object":
        return b"[3]\n" + payload
    if tamper == "unknown_version":
        header["format_version"] = 4
    elif tamper == "version_true":
        header["format_version"] = True
    elif tamper == "version_float":
        header["format_version"] = 3.0
    elif tamper in CONFIG_TYPE_TAMPERS:
        setting, value = CONFIG_TYPE_TAMPERS[tamper]
        header["config"][setting] = value
    elif tamper == "shape_vs_config":
        header["kernels"]["shape"][1] = 3  # n_k 3 against the config's 2
    elif tamper == "fc_vs_use_fc":
        header["config"]["use_fc"] = False
    elif tamper == "fc_dropped":
        header["fc"] = None
    elif tamper == "fc_w_shape":
        fc["weights"]["shape"][2:] = [8, 8]
    elif tamper == "fc_b_shape":
        fc["biases"]["shape"][1] = 1
    elif tamper == "huge_fc_depth":
        # consistent shapes whose 2 TB of weights the 5 kB file does not hold
        depth = 10**9
        header["config"]["fc_depth"] = depth
        fc["weights"]["shape"][1] = fc["biases"]["shape"][1] = depth
    elif tamper == "one_byte_short":
        payload = payload[:-1]
    elif tamper == "trailing_byte":
        payload += b"\0"
    elif tamper == "nan_weight":
        payload = set_weight(payload, -1, np.nan)  # the last FC bias
    elif tamper == "nan_kernel":
        payload = set_weight(payload, 13, np.nan)
    else:
        # an FC weight: the first 64 numbers are the kernels
        payload = set_weight(payload, 64 + 21, np.inf)
    return join_v3(header, payload)
