"""Mutation sampling: how many first-order mutants of ``src/rftag`` tier-1 kills.

    python tests/mutants.py --seed 7 --per-module 25
    python tests/mutants.py --seed 7 --module evaluation --per-module 40
    python tests/mutants.py --lines evaluation:160-190 --lines dsp:100-120 --per-module 99
    python tests/mutants.py --diff HEAD~1 --per-module 99

Each mutant changes one node of one module's syntax tree:

- a comparison operator swapped (``<`` and ``<=``, ``>`` and ``>=``, ``==``
  and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``);
- ``+`` turned into ``-`` or the reverse, or ``*`` into ``/``, in an
  expression or an augmented assignment;
- ``and`` and ``or`` swapped;
- 1 added to an int literal.

Per module, the sites are listed in tree order and a sample of
``--per-module`` of them is drawn with ``random.Random(f"{seed}:{module}")``,
so a seed names the same sample as long as the module's tree is unchanged.
The checkout's ``src``, ``tests``, ``bench`` and ``pyproject.toml`` are
copied into a temporary directory; each mutant is written there as the
unparsed tree (comments and layout are lost, behaviour is not) and tier-1
runs against it with ``-x``.  A mutant is killed when pytest fails or runs
past ``TIMEOUT``.  The unmutated copy runs first and must pass.  Every
module under ``src/rftag`` is sampled, or only those named by ``--module``
(repeatable); a module's sample does not depend on which others are named.
``--lines MODULE:START-END`` (repeatable) names MODULE too, and keeps only
the sites of MODULE whose node starts on a line of one of its spans
(inclusive); the sample is drawn from them by the same seed rule.  A
module named only by ``--module`` keeps every site.  ``--diff REV`` adds
one span per run of lines that ``git diff -U0 REV -- src/rftag`` adds or
changes in a module (the working tree against REV); a hunk that only
deletes lines adds none, and a run whose diff changes no module line
samples nothing.  However many spans and modules a run covers, the
unmutated copy runs once.

The report gives killed/total per module, then the file, line and change of
every killed mutant with why it died: the first failing test id as pytest
prints it, ``timeout``, or ``exit N`` when pytest fails without naming a
test.  Then it counts the kills by reason and lists every survivor.  A
kill by ``timeout`` may come from a loaded host rather than a check.
Equivalent mutants are reported like any other survivor: telling them
apart is left to the reader.  This file is not collected by pytest (its
name does not start with ``test_``) and uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "rftag"

COMPARE_SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
                 ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
                 ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}
ARITH_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div}
BOOL_SWAPS = {ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
           ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.And: "and", ast.Or: "or"}
# Seconds one tier-1 run may take: a mutated loop bound may never end, and
# such a mutant counts as killed.
TIMEOUT = 300.0


def sites(tree: ast.AST) -> list:
    """Every (node, slot) a mutant can change, in ``ast.walk`` order; slot is
    the comparison's operator index, or None."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            found += [(node, i) for i, op in enumerate(node.ops) if type(op) in COMPARE_SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in ARITH_SWAPS:
            found.append((node, None))
        elif isinstance(node, ast.BoolOp):
            found.append((node, None))
        elif (isinstance(node, ast.Constant) and type(node.value) is int):
            found.append((node, None))
    return found


def mutate(node: ast.AST, slot) -> str:
    """Apply the one change of a site in place; returns what it did."""
    if isinstance(node, ast.Compare):
        old = type(node.ops[slot])
        node.ops[slot] = COMPARE_SWAPS[old]()
        return f"{SYMBOLS[old]} -> {SYMBOLS[COMPARE_SWAPS[old]]}"
    if isinstance(node, ast.Constant):
        node.value += 1
        return f"{node.value - 1} -> {node.value}"
    swaps = BOOL_SWAPS if isinstance(node, ast.BoolOp) else ARITH_SWAPS
    old = type(node.op)
    node.op = swaps[old]()
    return f"{SYMBOLS[old]} -> {SYMBOLS[swaps[old]]}"


def line_span(text: str) -> tuple:
    """``"MODULE:START-END"`` as (MODULE, START, END), with 1 <= START <= END."""
    module, _, lines = text.partition(":")
    start, _, end = lines.partition("-")
    try:
        span = module, int(start), int(end)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MODULE:START-END, got {text!r}") from None
    if not 1 <= span[1] <= span[2]:
        raise argparse.ArgumentTypeError(f"expected 1 <= START <= END, got {text!r}")
    return span


def diff_spans(text: str) -> list:
    """(MODULE, START, END) of the new-side lines of every hunk of a
    ``git diff -U0`` text, for each file under ``src/rftag``: a header
    ``@@ -a,b +START,COUNT @@`` (COUNT 1 when left out) spans START to
    START + COUNT - 1, and a COUNT of 0 (a deletion) spans nothing."""
    spans, module = [], None
    for line in text.splitlines():
        if line.startswith("+++ "):
            path = Path(line[4:].removeprefix("b/"))
            module = path.stem if path.parent == PACKAGE and path.suffix == ".py" else None
        elif line.startswith("@@ ") and module:
            start, _, count = line.split()[2].removeprefix("+").partition(",")
            start, count = int(start), int(count or 1)
            if count:
                spans.append((module, start, start + count - 1))
    return spans


def tier1(work: Path) -> tuple:
    """(why tier-1 with -x failed in ``work``, or None if it passed; seconds).

    The reason is the first test id in pytest's FAILED/ERROR summary lines,
    ``timeout`` past ``TIMEOUT``, or ``exit N`` when no test is named."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
                               "-p", "no:cacheprovider", "--continue-on-collection-errors"],
                              cwd=work, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return None, seconds
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0], seconds
    return f"exit {proc.returncode}", seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--per-module", type=int, default=25)
    names = sorted(p.stem for p in (ROOT / PACKAGE).glob("*.py") if p.stem != "__init__")
    parser.add_argument("--module", action="append", choices=names, metavar="NAME",
                        help="sample only this module (repeatable); default every module")
    parser.add_argument("--lines", type=line_span, action="append", default=[],
                        metavar="MODULE:START-END",
                        help="sample only sites on these lines of MODULE (repeatable)")
    parser.add_argument("--diff", metavar="REV",
                        help="sample only sites on the module lines changed since REV")
    args = parser.parse_args(argv)
    spans = {}
    for module, start, end in args.lines:
        if module not in names:
            parser.error(f"--lines: unknown module {module!r}")
        spans.setdefault(module, []).append((start, end))
    if args.diff is not None:
        proc = subprocess.run(["git", "diff", "-U0", "--no-color", "--no-ext-diff",
                               "--src-prefix=a/", "--dst-prefix=b/", args.diff, "--",
                               str(PACKAGE)], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode:
            parser.error(f"--diff: git diff {args.diff} failed: {proc.stderr.strip()}")
        changed = [span for span in diff_spans(proc.stdout) if span[0] in names]
        for module, start, end in changed:
            spans.setdefault(module, []).append((start, end))
        print(f"--diff {args.diff}: " + (" ".join(f"{m}:{a}-{b}" for m, a, b in changed)
                                         or "no module line changed"), flush=True)
    chosen = set(args.module or ()) | spans.keys()
    if chosen or args.diff is not None:
        names = [name for name in names if name in chosen]

    work = Path(tempfile.mkdtemp(prefix="rftag-mutants-"))
    try:
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".rftag_bench"))
        shutil.copy(ROOT / "pyproject.toml", work)
        reason, seconds = tier1(work)
        if reason:
            print(f"tier-1 fails on the unmutated checkout: {reason}", file=sys.stderr)
            return 2
        print(f"unmutated tier-1 passed in {seconds:.1f} s", flush=True)

        killed_total = total = 0
        kills = []
        survivors = []
        for name in names:
            path = work / PACKAGE / f"{name}.py"
            source = path.read_text()
            found = sites(ast.parse(source))
            keep = spans.get(name)
            span = [i for i, (node, _) in enumerate(found)
                    if keep is None or any(a <= node.lineno <= b for a, b in keep)]
            picks = sorted(random.Random(f"{args.seed}:{name}").sample(
                span, min(args.per_module, len(span))))
            killed = 0
            try:
                for index in picks:
                    tree = ast.parse(source)
                    node, slot = sites(tree)[index]
                    change = mutate(node, slot)
                    path.write_text(ast.unparse(tree) + "\n")
                    reason, _ = tier1(work)
                    site = f"{PACKAGE / name}.py:{node.lineno}: {change}"
                    if reason:
                        killed += 1
                        kills.append((site, reason))
                    else:
                        survivors.append(site)
            finally:
                path.write_text(source)
            print(f"{name:12s} {killed}/{len(picks)} killed", flush=True)
            killed_total += killed
            total += len(picks)
        share = f" ({100 * killed_total / total:.0f} %)" if total else ""
        print(f"{'total':12s} {killed_total}/{total} killed{share}")
        for site, reason in kills:
            print(f"killed {site} by {reason}")
        for reason, count in Counter(reason for _, reason in kills).most_common():
            print(f"reason {count:4d} {reason}")
        for line in survivors:
            print(f"survivor {line}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
