"""Record the seed-0 reference digests that the benchmark checks outputs against.

    python3 perfbench/record_reference.py

Runs the `train` workload once at seed 0, which runs every stage, and writes
perfbench/reference_seed0.json together with the numeric platform (NumPy
build, SIMD level, BLAS build) it was recorded on. Output bytes must not
change under a speed-up, so re-record only for a change that is meant to
alter outputs, and say so where the change is described.
"""

import json
import sys

import worker


def main():
    bench = worker.Bench("train", 0, 0.0, False, work=worker.WORK_ROOT / "record-reference")
    bench.execute()
    if bench.failed:
        print(f"error: outputs did not repeat: {bench.runner.failures}", file=sys.stderr)
        return 1
    with open(worker.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "config": worker.DESK, "platform": worker.numeric_platform(),
                   "digests": bench.runner.digests},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    bench.write_artifacts(bench.result(), {})
    return 0


if __name__ == "__main__":
    sys.exit(main())
