"""Every dotted ``repro.…`` name the docs put in backticks must exist.

docs/api.md is the map of the public surface and docs/internals.md the
walk through it; a deletion that forgets either leaves an entry pointing
at nothing.  Each backticked name that starts
with ``repro.`` is resolved the way a reader would use it: import the
longest module prefix, then ``getattr`` down the rest.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

DOCS = Path(__file__).resolve().parents[1] / "docs"

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


def unresolved(page: str, at_least: int) -> dict[str, str]:
    """The backticked ``repro.…`` names of ``docs/<page>`` that do not exist."""
    names = sorted(set(DOTTED_NAME.findall((DOCS / page).read_text())))
    assert len(names) >= at_least  # the pattern still finds the page's entries
    missing = {}
    for dotted in names:
        try:
            resolve(dotted)
        except (ModuleNotFoundError, AttributeError) as error:
            missing[dotted] = str(error)
    return missing


def test_every_documented_name_resolves():
    missing = unresolved("api.md", 31)
    assert not missing, f"docs/api.md names things that do not exist: {missing}"


def test_every_name_in_the_internals_walkthrough_resolves():
    missing = unresolved("internals.md", 9)
    assert not missing, f"docs/internals.md names what does not exist: {missing}"
