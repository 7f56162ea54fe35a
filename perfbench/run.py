"""Run the bodywave benchmark.

    python3 perfbench/run.py --workload converge-small --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another
    python3 perfbench/run.py --self-check 1 2          # two seeds must do identical work

Run from a checkout of the repository; the package is imported from its
``src/`` directory, never from an installed copy.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics of BENCHMARK.json (``--trace 0``) or its per-layer
metrics (``--trace 1``).  Result files (with a provenance block) and the
spans of traced runs go to ``.perfbench_out/`` at the checkout root.
"""

import os
import sys
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "bodywave" / "__init__.py").is_file():
        print(f"perfbench: no bodywave sources under {src}; run from a repository checkout",
              file=sys.stderr)
        return 1
    for var in BLAS_VARS:  # single-threaded BLAS, set before numpy loads
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import bench

    return bench.main(argv)


if __name__ == "__main__":
    sys.exit(main())
