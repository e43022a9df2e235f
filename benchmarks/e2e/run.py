#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see README.md beside this file).

    python3 benchmarks/e2e/run.py --workload point_hot --seed 1 --seconds 12 --trace 0
    python3 benchmarks/e2e/run.py --seed 1 --traced --out results.json
    python3 benchmarks/e2e/run.py --compare A.json B.json
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "repro").is_dir():
        sys.exit(f"{SRC}/repro not found: the benchmark runs the repo's own code")
    # Replace the script directory on the path: its modules are the package
    # ``e2e`` (and its trace.py must not shadow the standard library's).
    sys.path[0] = str(SRC)
    sys.path.insert(1, str(HERE.parent))
    from e2e.cli import main

    sys.exit(main())
