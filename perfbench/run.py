"""Desk benchmark of morphdet: corpus generation, training and scoring.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus|train --seed N \
        --seconds S --trace 0|1

It starts one worker process (perfbench/worker.py) with the command line
unchanged and the BLAS thread variables set in that worker's environment
only. The worker validates the options, runs the workload through the
public CLI and prints two lines: the machine facts and, last, the JSON
result. This script prints those two lines and exits with the worker's
code. See perfbench/README.md.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread, which no machine lacks: at the desk batch size of 28 a
# step is faster with one thread than with two, the output bytes are the
# same, and a single thread keeps the run steady on a small shared machine.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKER_TIMEOUT_S = 170


def main(argv):
    if not (ROOT / "src" / "morphdet" / "cli.py").is_file():
        print(f"error: no morphdet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    command = [sys.executable, str(ROOT / "perfbench" / "worker.py"), *argv]
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if done.returncode != 0:
        return done.returncode
    for line in done.stdout.strip().splitlines()[-2:]:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
