"""Set-up time of one workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Times importing hbvm from the checkout's src/ plus the problem, tableau and
splitting builds a user pays before the first step, and prints the seconds.
run.py starts several of these and reports the median as setup_s; it sets the
BLAS thread pin in the environment they inherit.
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports hbvm)


def main(argv):
    name, seed = argv[1], int(argv[2])
    workloads.build(name, seed).prebuild()
    print(time.perf_counter() - T0)


if __name__ == "__main__":
    main(sys.argv)
