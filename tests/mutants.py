"""Mutation sampling: how many first-order mutants of ``src/rftag`` tier-1 kills.

    python tests/mutants.py --seed 7 --per-module 25

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
module under ``src/rftag`` is sampled.

The report gives killed/total per module and the file, line and change of
every survivor.  Equivalent mutants are reported like any other survivor:
telling them apart is left to the reader.  This file is not collected by
pytest (its name does not start with ``test_``) and uses the standard
library only.
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


def tier1(work: Path) -> tuple[bool, float]:
    """(passed, seconds) of tier-1 with -x in ``work``; a timeout fails."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               "--continue-on-collection-errors"],
                              cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT)
        passed = proc.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--per-module", type=int, default=25)
    args = parser.parse_args(argv)
    names = sorted(p.stem for p in (ROOT / PACKAGE).glob("*.py") if p.stem != "__init__")

    work = Path(tempfile.mkdtemp(prefix="rftag-mutants-"))
    try:
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".rftag_bench"))
        shutil.copy(ROOT / "pyproject.toml", work)
        passed, seconds = tier1(work)
        if not passed:
            print("tier-1 fails on the unmutated checkout", file=sys.stderr)
            return 2
        print(f"unmutated tier-1 passed in {seconds:.1f} s", flush=True)

        killed_total = total = 0
        survivors = []
        for name in names:
            path = work / PACKAGE / f"{name}.py"
            source = path.read_text()
            count = len(sites(ast.parse(source)))
            picks = sorted(random.Random(f"{args.seed}:{name}").sample(
                range(count), min(args.per_module, count)))
            killed = 0
            try:
                for index in picks:
                    tree = ast.parse(source)
                    node, slot = sites(tree)[index]
                    change = mutate(node, slot)
                    path.write_text(ast.unparse(tree) + "\n")
                    passed, _ = tier1(work)
                    killed += not passed
                    if passed:
                        survivors.append(f"{PACKAGE / name}.py:{node.lineno}: {change}")
            finally:
                path.write_text(source)
            print(f"{name:12s} {killed}/{len(picks)} killed", flush=True)
            killed_total += killed
            total += len(picks)
        share = f" ({100 * killed_total / total:.0f} %)" if total else ""
        print(f"{'total':12s} {killed_total}/{total} killed{share}")
        for line in survivors:
            print(f"survivor {line}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
