"""Set-up process of the benchmark: write one workload's inputs into a directory.

run.py starts this script several times and times each start to exit, so
setup_s covers interpreter start, imports, input generation and the training
of any model the workload reads.

    python3 bench/prepare.py --workload score-batch --seed 0 --out DIR
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, prepare  # noqa: E402

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    prepare(WORKLOADS[args.workload], args.seed, args.out)
