#!/usr/bin/env python3
"""List the functions of src/dforge that no in-process run enters.

    python3 scripts/unreached.py

Under one `sys.setprofile` hook (standard library only), this runs in one
process:
- the tier-1 suite, `pytest.main` on tests/;
- one round of each gated workload of perfbench (cm, isogeny, orbits) at
  seed 1, every output checked by the workload's own checker;
- `dforge example35 --q 3, 5, 7, 9, 11` through `cli.main`.
It then prints every function and method defined in src/dforge/*.py that
was never entered, one per line as `file:line qualname`, and a count on
stderr.

The hook sees only this process.  The tests run some commands through a
subprocess (`run_cli` in tests/test_cli.py), so a function that only
those reach appears in the list although a test covers it.  Under the
hook the suite runs two to three times slower than without it.  This is
a probe for deleting dead code, not a test: it is not part of tier-1.
"""
from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "dforge")
WORKLOADS = ("cm", "isogeny", "orbits")


def defined():
    """(path, first line, qualname) of every function in the package; the
    first line is that of the first decorator, as in co_firstlineno."""
    out = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno]
                           + [d.lineno for d in child.decorator_list])
                out.append((path, line, prefix + child.name))
                visit(child, path, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path) as handle:
                visit(ast.parse(handle.read()), path, "")
    return out


def run_workloads():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import wl_certify
    import wl_isogeny
    import wl_orbits

    modules = {"cm": wl_certify, "isogeny": wl_isogeny, "orbits": wl_orbits}
    for name in WORKLOADS:
        mod = modules[name]
        with tempfile.TemporaryDirectory() as workdir:
            if name == "isogeny":
                cases = mod.setup(name, 1, workdir)
            else:
                cases = mod.setup(name, 1)
            for case in cases:
                reason = mod.check(case, mod.run(case))
                if reason is not None:
                    print(f"unreached: {name}: {reason}", file=sys.stderr)


def run_example35():
    from dforge import cli

    for q in (3, 5, 7, 9, 11):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["example35", "--q", str(q)])
        if code != 0:
            print(f"unreached: example35 --q {q} exited {code}",
                  file=sys.stderr)


def main():
    import pytest

    # the suite's subprocesses import the package from here too
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    entered = set()
    prefix = PACKAGE + os.sep

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
        run_workloads()
        run_example35()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    if status != 0:
        print(f"unreached: the suite exited {status}", file=sys.stderr)
    missed = [(path, line, name) for path, line, name in defined()
              if (path, line) not in entered]
    for path, line, name in missed:
        print(f"{os.path.relpath(path, ROOT)}:{line} {name}")
    print(f"unreached: {len(missed)} functions never entered",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
