"""Package statements that no benchmark request, self-check, CLI command or
demo reaches.

Under `sys.settrace` it runs, in one process:
- every workload that BENCHMARK.json names, at seeds 1 and 2: each request
  that `perfbench/workloads.py` builds, its `run` and then its `check`;
- `selfcheck.run_all`;
- each CLI command on the files of demos/data, in text and in json;
- the demos, demos/0*.py.

It then prints each statement of src/nodalcover that none of them reached,
as `path:line: first source line`, in file and line order.  A statement
counts as reached when a line of its own (not of a nested statement) ran,
or when a statement nested in it was reached.  Raise statements are left
out: an unreached raise is a guard that these inputs do not trip.  So are
constant expressions such as docstrings, and `global` and `nonlocal`,
which compile to no code.

Usage, from the root of the repository:

    python3 tools/reach.py

Standard library only; it writes nothing.
"""

import argparse
import ast
import contextlib
import io
import json
import os
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nodalcover"
DATA = ROOT / "demos" / "data"
SEEDS = (1, 2)
FORMATS = ("text", "json")
# one invocation of each command, run in demos/data under each format
COMMANDS = (
    ["pi1", "nodal_cubic.json"],
    ["cover", "rank1_rep.json"],
    ["--max-len", "4", "free", "rank1_rep.json"],
    ["--max-len", "3", "domain", "rank2_rep.json"],
    ["--max-len", "3", "domain", "rank2_rep.json", "--word", "z1^2 * g1:1 * z1 * g1:1"],
    ["descend", "rank1_rep.json"],
    ["descend", "rank2_rep.json"],
    ["strat", "hom", "rank2_rep.json", "--mode", "K"],
    ["strat", "hom", "rank2_rep.json", "--mode", "S"],
    ["strat", "tensor", "rank1_rep.json", "rank1_filegroup_rep.json"],
    ["square", "z2_sign.json", "cycle3.json"],
    ["square", "s3_2dim.json", "nodal_cubic.json"],
    ["hull", "z4.json"],
    ["hull", "--tower", "z2.json", "z4.json", "z8.json"],
    ["rep", "check", "rank2_rep.json"],
    ["selftest"],
)
SKIPPED = (ast.Raise, ast.Global, ast.Nonlocal)


def _children(node: ast.AST) -> list:
    """The statements directly nested in node, except-clause bodies included."""
    out = []
    for name in ("body", "orelse", "finalbody", "handlers"):
        for child in getattr(node, name, ()):
            out.extend(child.body if isinstance(child, ast.ExceptHandler) else [child])
    return out


def _span(node: ast.stmt) -> range:
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return range(start, node.end_lineno + 1)


def unreached(source: str, hit: set) -> list:
    """The first lines, in order, of the statements of `source` that the
    executed lines `hit` do not reach, leaving out raise, global and
    nonlocal statements and constant expressions."""
    found = []

    def walk(node: ast.stmt) -> bool:
        children = _children(node)
        own = set(_span(node)).difference(*[_span(c) for c in children])
        reached = [walk(c) for c in children]
        if any(reached) or not own.isdisjoint(hit):
            return True
        skip = isinstance(node, SKIPPED) or (
            isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
        if not skip:
            found.append(_span(node).start)
        return False

    for node in ast.parse(source).body:
        walk(node)
    return sorted(found)


def run_everything() -> None:
    """Import the package and run every workload, check, command and demo."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from nodalcover import cli, selfcheck
    lib = workloads.import_library()
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    for seed in SEEDS:
        for name in names:
            for req in workloads.build(name, lib, seed, ROOT).requests:
                req.check(req.run())
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        selfcheck.run_all()
        cwd = os.getcwd()
        os.chdir(DATA)
        try:
            for fmt in FORMATS:
                for argv in COMMANDS:
                    cli.main(["--format", fmt, *argv])
        finally:
            os.chdir(cwd)
        for demo in sorted((ROOT / "demos").glob("0*.py")):
            runpy.run_path(str(demo), run_name="__main__")


def main() -> int:
    argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    prefix = str(PACKAGE) + os.sep
    hit: dict = {}

    def line(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name.startswith(prefix):
            hit.setdefault(name, set())
            return line
        return None

    sys.settrace(call)
    try:
        run_everything()
    finally:
        sys.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for lineno in unreached(source, hit.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
