"""Mutation check: apply each mutant of catalog.py to a copy of the tree
and run the tests that must catch it.

    python3 mutants/run.py [--only NAME ...] [--workdir DIR]

Run it from anywhere; the tree is the checkout this file sits in.  It
copies src/, tests/, perfbench/ and pyproject.toml into a temporary
directory (under --workdir if given) and never writes to the checkout.
The named tests first run on the unmutated copy, where they must pass.
Then each mutant is applied alone, its tests run with pytest -x, and the
mutant is restored.  A mutant is killed when pytest reports a failing
test (exit status 1), survives when its tests pass, and is an error when
pytest cannot run them or the old text is stale.  The exit status is 0
only when every mutant was killed.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

from catalog import MUTANTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


def pytest(tree: str, node_ids: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def check(tree: str, mutant: dict) -> str:
    """killed, survived, stale or error (pytest's exit status)."""
    path = os.path.join(tree, mutant["file"])
    with open(path) as fh:
        source = fh.read()
    if source.count(mutant["old"]) != 1:
        return "stale"
    try:
        with open(path, "w") as fh:
            fh.write(source.replace(mutant["old"], mutant["new"]))
        status = pytest(tree, mutant["tests"])
    finally:
        with open(path, "w") as fh:
            fh.write(source)
    return {0: "survived", 1: "killed"}.get(status, f"error ({status})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run these mutants alone")
    parser.add_argument("--workdir", default=None, help="where the copy of the tree goes")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.only or m["name"] in args.only]
    if args.only and len(chosen) != len(set(args.only)):
        parser.error(f"unknown mutant among {args.only}")

    with tempfile.TemporaryDirectory(dir=args.workdir) as tree:
        for name in COPIED:
            source = os.path.join(ROOT, name)
            if os.path.isdir(source):
                shutil.copytree(source, os.path.join(tree, name),
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, tree)
        tests = sorted({t for m in chosen for t in m["tests"]})
        if pytest(tree, tests) != 0:
            print("the tests fail on the unmutated tree:", *tests, sep="\n  ")
            return 1
        outcomes = {}
        for mutant in chosen:
            outcomes[mutant["name"]] = check(tree, mutant)
            print(f"{outcomes[mutant['name']]:<10} {mutant['name']}: {mutant['why']}", flush=True)
    left = [name for name, outcome in outcomes.items() if outcome != "killed"]
    print(f"{len(outcomes) - len(left)} of {len(outcomes)} mutants killed"
          + (f"; not killed: {', '.join(left)}" if left else ""))
    return 1 if left else 0


if __name__ == "__main__":
    sys.exit(main())
