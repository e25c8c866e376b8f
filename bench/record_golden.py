#!/usr/bin/env python3
"""Record the golden outputs the benchmark checks every golden job against.

    python3 bench/record_golden.py [WORKLOAD ...]

Each workload runs once on its golden inputs (package seed 0) and the part of
its output that the check pins down is written to ``bench/golden``.  Record
only from a commit whose outputs are trusted: a refactor must match these to
``workloads.GOLDEN_RTOL``.
"""

import json
import shutil
import sys

import run  # sets the single-thread environment before numpy is imported


def main(argv: list[str]) -> int:
    run.import_package()
    import workloads

    names = argv or list(workloads.WORKLOADS)
    workdir = run.OUT_DIR / "record-golden"
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        inputs = workloads.BUILDERS[name](workloads.GOLDEN_SEED, workdir)
        output = workloads.golden_view(name, inputs.reduce(inputs.job()))
        path = workloads.golden_path(name)
        path.write_text(json.dumps(output) + "\n")
        print(f"wrote {path}")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
