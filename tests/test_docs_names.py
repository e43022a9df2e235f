"""Every dotted ``repro.…`` name docs/api.md puts in backticks must exist.

The page is the map of the public surface; a deletion that forgets it
leaves an entry pointing at nothing.  Each backticked name that starts
with ``repro.`` is resolved the way a reader would use it: import the
longest module prefix, then ``getattr`` down the rest.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

API_MD = Path(__file__).resolve().parents[1] / "docs" / "api.md"

#: A backtick, then ``repro`` and at least one more dotted component;
#: whatever follows (a call signature, `` / other``) is not part of it.
DOTTED_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")


def resolve(dotted: str):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            target = getattr(target, attribute)
        return target
    raise ModuleNotFoundError(dotted)


def test_every_documented_name_resolves():
    names = sorted(set(DOTTED_NAME.findall(API_MD.read_text())))
    assert len(names) > 30  # the pattern still finds the page's entries
    missing = {}
    for dotted in names:
        try:
            resolve(dotted)
        except (ModuleNotFoundError, AttributeError) as error:
            missing[dotted] = str(error)
    assert not missing, f"docs/api.md names things that do not exist: {missing}"
