"""Print the benchmark's readable report for every workload.

    python3 bench/report.py --seed 1 --seconds 20 [--trace 1]

With ``--trace 0`` this prints all six end-to-end metrics of every workload
in ``workloads.py``, with units, sample counts and failures by type; with
``--trace 1`` it prints each workload's per-layer table.  This includes
``solve-hard-m16`` and ``sweep-m8``, which BENCHMARK.json leaves out because
some of their ops fail at present (``BasisTooSmall`` on about one
solve-hard-m16 input in 30; most sweep-m8 ops stall at small epsilon).
"""

import argparse
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=BENCH.parent, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("detail ")))
        if proc.returncode != 0:
            print(f"workload {name}: benchmark failed with code {proc.returncode}\n"
                  f"{proc.stderr[-2000:]}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
