"""Size and public surface of ``src/rftag``: what each public name is used by.

    python tests/surface.py

First the lines of each module under ``src/rftag`` (newline characters, as
``wc -l`` counts them) and their total.  Then every public top-level name of
those modules, a ``def``, ``class`` or assigned name that does not start
with ``_``, with its reference counts in ``src/``, ``bench/`` and
``tests/``: how often it appears as a whole word (``\\b`` boundaries) in the
``.py`` files of that tree.  The ``src/`` count leaves out the name's own
definition.  The counts are textual, so a name bound by its string (as
``bench/tracer.py`` binds the functions it wraps) counts, and so does a
mention in a comment or a docstring.  A name that nothing in ``src/`` or
``bench/`` references is flagged, and the flagged names are listed again at
the end.  This file is not collected by pytest (its name does not start
with ``test_``) and uses the standard library only.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rftag"
TREES = ("src", "bench", "tests")


def public_names(source: str) -> list:
    """The public top-level names a module defines, in source order."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def main() -> int:
    modules = sorted(PACKAGE.glob("*.py"))
    texts = {tree: [p.read_text() for p in sorted((ROOT / tree).rglob("*.py"))] for tree in TREES}

    print("src/rftag lines")
    total = 0
    for path in modules:
        lines = path.read_text().count("\n")
        total += lines
        print(f"  {path.name:16s} {lines:5d}")
    print(f"  {'total':16s} {total:5d}")

    print(f"\n{'public name':40s} {'src':>5s} {'bench':>5s} {'tests':>5s}")
    flagged = []
    for path in modules:
        for name in public_names(path.read_text()):
            word = re.compile(rf"\b{re.escape(name)}\b")
            counts = {tree: sum(len(word.findall(text)) for text in texts[tree]) for tree in TREES}
            counts["src"] -= 1
            qualified = f"{path.stem}.{name}"
            unused = not counts["src"] and not counts["bench"]
            if unused:
                flagged.append(qualified)
            print(f"  {qualified:38s} {counts['src']:5d} {counts['bench']:5d} {counts['tests']:5d}"
                  + ("  no reference in src/ or bench/" if unused else ""))

    print(f"\nno reference in src/ or bench/ ({len(flagged)}):")
    for qualified in flagged:
        print(f"  {qualified}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
