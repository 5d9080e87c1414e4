"""Byte-identical JSON reports: CLI commands on demos/data against goldens.

Each case runs ``cli.main`` in-process with ``--format json`` from inside
``demos/data`` and compares the exit code and the exact stdout with
``tests/golden/<name>.json``.  A golden stores the parsed report, so a diff
of the golden files shows each intended report change field by field; the
test renders it back in the canonical form (sorted keys, no spaces) and
compares bytes.

To rewrite the goldens after an intended report change:

    python tests/test_reports.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    # the README worked example
    "readme_pi1": ["pi1", "nodal_cubic.json"],
    "readme_square": ["square", "z2_sign.json", "cycle3.json"],
    "readme_descend": ["descend", "rank2_rep.json"],
    # one of each remaining command
    "cover": ["cover", "rank1_rep.json"],
    "free": ["--max-len", "4", "free", "rank1_rep.json"],
    "domain": ["--max-len", "3", "domain", "rank2_rep.json"],
    "descend": ["descend", "rank1_rep.json"],
    "strat_hom_K": ["strat", "hom", "rank2_rep.json", "--mode", "K"],
    "strat_hom_S": ["strat", "hom", "rank2_rep.json", "--mode", "S"],
    "strat_tensor": ["strat", "tensor", "rank1_rep.json", "rank1_filegroup_rep.json"],
    "rep_check": ["rep", "check", "rank2_rep.json"],
    "hull": ["hull", "z4.json"],
    "hull_tower": ["hull", "--tower", "z2.json", "z4.json", "z8.json"],
    "square_s3": ["square", "s3_2dim.json", "nodal_cubic.json"],
}


def run_report(argv):
    """Exit code and stdout of ``nodalcover --format json *argv`` run in DATA."""
    from nodalcover.cli import main  # late, so the script form can put src/ first

    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(["--format", "json", *argv])
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


def canonical(report) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert golden["argv"] == CASES[name]
    code, out = run_report(CASES[name])
    assert code == golden["exit_code"]
    assert out == canonical(golden["report"])


def write_goldens():
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, out = run_report(argv)
        golden = {"argv": argv, "exit_code": code, "report": json.loads(out)}
        assert canonical(golden["report"]) == out, f"{name}: stdout is not canonical"
        (GOLDEN / f"{name}.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {name}.json (exit {code})")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    write_goldens()
