"""ts1mc benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload gauss500-solve --seed 1 --seconds 30 --trace 0

It imports ts1mc from ``src/`` next to this directory, with BLAS pinned to
one thread before numpy loads, and exits with status 2 if that source tree
is missing.  See harness.py for what is measured.
"""

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "ts1mc" / "__init__.py").is_file():
        print(f"perfbench: no ts1mc source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import ts1mc
    if Path(ts1mc.__file__).resolve().parent != SRC / "ts1mc":
        print(f"perfbench: imported ts1mc from {ts1mc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness
    return harness.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
