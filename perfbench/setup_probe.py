"""Time one set-up of a workload in a fresh interpreter, as a CLI user pays
it: `import qsep`, then the workload's loads. Prints the seconds.

Usage: setup_probe.py <workload> <seed> <workdir> <sizes as JSON>, with
`src` on PYTHONPATH and the workload's inputs already in <workdir>.
"""
import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> None:
    t0 = time.perf_counter()
    import qsep  # noqa: F401  (the import is what is timed)

    import_s = time.perf_counter() - t0
    import workloads

    name, seed, workdir, sizes = argv[0], int(argv[1]), Path(argv[2]), json.loads(argv[3])
    root = Path(__file__).resolve().parent.parent
    wl = workloads.WORKLOADS[name](root, workdir, seed, workloads.Sizes(**sizes))
    t0 = time.perf_counter()
    wl.setup()
    print(import_s + time.perf_counter() - t0)


if __name__ == "__main__":
    main(sys.argv[1:])
