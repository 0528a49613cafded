"""Print what every perfbench op answers, for a diff between two commits.

    python3 tools/same_outputs.py > outputs.txt

For seeds 1-3 it builds each perfbench workload with the code of the
checkout this file sits in (`src/` and `perfbench/`), into a temporary
directory, and runs every op once in-process through `gasplab.cli.main`.
It prints one JSON line per op: workload, seed, the argv with the work
directory masked, the exit code, the stdout without its wall time
(`verdicts.normalize`) and the stderr.  After each build's ops it prints
the number of files the build wrote and one SHA-256 over their names and
bytes.

Run it at two commits and diff the outputs; an empty diff means every op
answered alike, witness and counters included.  It changes nothing in
perfbench and writes nothing outside the temporary directory.
"""

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import bench  # noqa: E402
from verdicts import normalize  # noqa: E402
from workloads import build  # noqa: E402

SEEDS = (1, 2, 3)
MASK = "<work>"


def files_digest(workdir):
    """(file count, SHA-256 over the sorted file names and their bytes)."""
    digest = hashlib.sha256()
    names = sorted(os.listdir(workdir))
    for name in names:
        digest.update(name.encode() + b"\0")
        with open(os.path.join(workdir, name), "rb") as fh:
            digest.update(fh.read() + b"\0")
    return len(names), digest.hexdigest()


def main():
    for workload in bench.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(prefix="same-outputs-") as workdir:
                wl = build(workload, seed, workdir)
                session = bench.Session(seed, wl)
                for op in wl.ops:
                    _, code, out, err = session.call(op.argv)
                    argv = [arg.replace(workdir, MASK) for arg in op.argv]
                    print(json.dumps([workload, seed, argv, code,
                                      normalize(out).replace(workdir, MASK),
                                      err.replace(workdir, MASK)]))
                count, digest = files_digest(workdir)
                print(json.dumps([workload, seed, "files", count, digest]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
