"""Entry point of the gasplab benchmark; the work is in bench.py.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Benchmarks the sources under `src/` of the checkout this file sits in,
never an installed copy, and exits with code 2 when they are missing.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "gasplab", "cli.py")):
        print(f"perfbench: no gasplab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import gasplab.cli
    if not os.path.abspath(gasplab.cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported gasplab from {gasplab.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import bench
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
