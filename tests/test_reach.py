"""`tools/reach.py`'s statement filter, on a probe source, and its argument
parsing; nothing is traced."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''\
"""module docstring"""
import os


def used(x):
    """docstring"""
    global COUNT
    if x:
        return 1
    elif x is None:
        raise ValueError(
            "never")
    try:
        y = (x +
             1)
    except TypeError:
        y = 0
    return y


def unused():
    return 2


@staticmethod
def decorated():
    pass


while True:
    break
'''


def load_reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unreached_lists_statements_without_an_executed_line():
    """A statement is reached by a line of its own or by a nested statement
    that is; raises, docstrings and `global` are never listed, and a
    statement spanning lines counts every line it owns."""
    reach = load_reach()
    # the import and both defs ran; in `used`, the `if` test, the second line
    # of the assignment to y and the return
    hit = {2, 5, 8, 15, 18, 21, 25, 30}
    assert reach.unreached(PROBE, hit) == [9, 10, 17, 22, 27, 31]
    # a compound statement counts as reached through its body alone: `used`,
    # its `if`, the `try` and the `while` own no hit line here; a decorated
    # def is listed at its decorator
    assert reach.unreached(PROBE, {9, 14, 31}) == [2, 10, 17, 18, 21, 22, 25, 27]
    assert reach.unreached(PROBE, set(range(1, 40))) == []


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--seed", "1"], 2)],
                         ids=["help", "unknown-option"])
def test_arguments_are_parsed_before_anything_is_traced(argv, code):
    """`--help` prints the usage and exits 0, any other argument exits 2, and
    neither runs the trace, which would print its statement list."""
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "reach.py"), *argv],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == code
    assert (out.stdout if code == 0 else out.stderr).startswith("usage: reach.py")
    assert re.search(r"^src/nodalcover/\w+\.py:\d+: ", out.stdout, re.M) is None
