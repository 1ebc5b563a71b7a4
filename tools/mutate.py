"""Comparison-operator mutation testing, in a throwaway copy of the repo.

    python3 tools/mutate.py MODULE[,MODULE...] --tests TEST[,TEST...] [--rev REV]
    make mutate MODULE=<path>[,<path>...] TESTS=<path>[,<path>...] [REV=<rev>]

Extracts ``git archive REV`` into a temporary directory — by default the
tracked files as they stand in the working tree (``git stash create``,
which records uncommitted and staged changes without touching the tree;
``HEAD`` when there are none) — and never writes to the working tree.

For every comparison in each MODULE (a path under the repo root, e.g.
``src/repro/core/goodput.py``) it makes one mutant per operator,
swapping ``<`` with ``<=``, ``>`` with ``>=`` and ``==`` with ``!=``, one
at a time. Each mutant runs ``python -m pytest -x -q TESTS`` in the copy
(``PYTHONPATH=src``, no bytecode written, so no stale ``.pyc`` outlives
its mutant). A mutant the tests still pass on *survives*: the line is
printed as ``path:line  'op' -> 'op'  source  [tests]``, then the tally
``survived S of N mutants``; redirect standard output to keep them. A run
that exceeds five times the unmutated run (plus 30 s) counts as killed.

Stdlib only (``ast``, ``tokenize``, ``subprocess``). The unmutated tests
must pass first; otherwise nothing is mutated and the exit status is 1.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import pathlib
import subprocess
import sys
import tempfile
import time
import tokenize

from bench_ab import ROOT, archive

SWAPS = {
    ast.Lt: ("<", "<="),
    ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="),
    ast.NotEq: ("!=", "=="),
}


def snapshot_rev() -> str:
    """The working tree's tracked files as a commit, or HEAD if clean."""
    made = subprocess.run(
        ["git", "stash", "create"], cwd=ROOT, check=True,
        capture_output=True, text=True,
    ).stdout.strip()
    return made or "HEAD"


def _char_col(lines, lineno: int, byte_col: int) -> int:
    """An ``ast`` UTF-8 byte offset as a character column."""
    return len(lines[lineno - 1].encode("utf-8")[:byte_col].decode("utf-8"))


def mutants(source: str):
    """``(line, column, old, new)`` for every comparison operator."""
    lines = source.splitlines(keepends=True)
    ops = [
        tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.OP
    ]
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            swap = SWAPS.get(type(op))
            if swap is None:
                continue
            left, right = operands[index], operands[index + 1]
            after = (left.end_lineno,
                     _char_col(lines, left.end_lineno, left.end_col_offset))
            before = (right.lineno,
                      _char_col(lines, right.lineno, right.col_offset))
            starts = [
                tok.start for tok in ops
                if tok.string == swap[0] and after <= tok.start
                and tok.end <= before
            ]
            if not starts and after[0] == before[0]:
                # Inside an f-string the tokenizer yields one STRING
                # token; the operator is the text between the operands.
                gap = lines[after[0] - 1][after[1] : before[1]]
                if gap.strip() == swap[0]:
                    starts = [(after[0], after[1] + gap.index(swap[0]))]
            (start,) = starts
            found.append((*start, *swap))
    return sorted(found)


def apply(source: str, line: int, col: int, old: str, new: str) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    assert text[col : col + len(old)] == old
    lines[line - 1] = text[:col] + new + text[col + len(old) :]
    return "".join(lines)


def passes(tree: pathlib.Path, tests, timeout=None) -> bool:
    """Do ``tests`` pass in ``tree`` within ``timeout`` seconds?"""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q",
               "-p", "no:cacheprovider", *tests]
    try:
        result = subprocess.run(
            command, cwd=tree, env=env, capture_output=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def _split(values):
    return [part for value in values for part in value.split(",") if part]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+")
    parser.add_argument("--tests", nargs="+", required=True)
    parser.add_argument("--rev", default=None)
    args = parser.parse_args(argv)
    modules, tests = _split(args.modules), _split(args.tests)
    rev = args.rev or snapshot_rev()

    with tempfile.TemporaryDirectory(prefix="mutate-") as workdir:
        tree = pathlib.Path(workdir)
        archive(rev, tree)
        started = time.perf_counter()
        if not passes(tree, tests):
            print(f"the unmutated tests fail at {rev}; nothing mutated")
            return 1
        timeout = 5 * (time.perf_counter() - started) + 30

        survivors, total = [], 0
        for module in modules:
            path = tree / module
            source = path.read_text(encoding="utf-8")
            try:
                for line, col, old, new in mutants(source):
                    total += 1
                    path.write_text(apply(source, line, col, old, new), "utf-8")
                    if passes(tree, tests, timeout):
                        text = source.splitlines()[line - 1].strip()
                        survivors.append(
                            f"{module}:{line}  {old!r} -> {new!r}  {text}"
                            f"  [{' '.join(tests)}]"
                        )
                        print(survivors[-1], flush=True)
            finally:
                path.write_text(source, "utf-8")
    print(f"survived {len(survivors)} of {total} mutants ({rev[:12]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
