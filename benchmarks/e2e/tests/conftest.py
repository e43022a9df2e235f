"""Path set-up for the harness self-tests.

Run from the repo root: ``python -m pytest benchmarks/e2e/tests -q`` (the
tier-1 ``testpaths`` does not include this directory).
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
for entry in (E2E.parents[1] / "src", E2E.parent):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
