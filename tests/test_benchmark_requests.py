"""Every benchmark request runs and passes its check at seed 1.

`perfbench/workloads.py` calls library functions by name (`enumerate_components`,
`cover_witness`, `commuting_square_check`, `cli.main`, ...) and checks each
verdict against an answer it knows independently.  A library change that
drops or reshapes one of those calls would otherwise surface only when the
benchmark runs.  This test sends each workload's requests once, untimed, and
once more with `perfbench/tracing.py`'s `Tracer` installed, whose
after-callbacks read fields of the results (`strategy`, `checks`,
`pairs_checked`, `words_checked`).  It changes nothing under `perfbench/`.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _workload_names() -> list[str]:
    """The keys of `WORKLOADS`, read from the source without importing it."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WORKLOADS"]:
            return [key.value for key in node.value.keys]
    raise AssertionError("perfbench/workloads.py defines no WORKLOADS")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("workloads", "oracle", "tracing"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", _workload_names())
def test_every_request_passes_its_check(workloads, name):
    wl = workloads.build(name, workloads.import_library(), 1, ROOT)
    assert wl.requests
    for req in wl.requests:
        ok, verdict = req.check(req.run())
        assert ok, verdict


@pytest.mark.parametrize("name", _workload_names())
def test_every_request_passes_its_check_traced(workloads, name):
    """The same requests under the tracer: every check passes, and the
    metrics name every per-layer metric the benchmark declares."""
    tracing = importlib.import_module("tracing")
    lib = workloads.import_library()
    wl = workloads.build(name, lib, 1, ROOT)
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        for k, req in enumerate(wl.requests):
            tracer.begin_request(k + 1)
            ok, verdict = req.check(req.run())
            assert ok, verdict
    finally:
        tracer.uninstall()
    assert set(tracer.metrics(1.0)) == {metric for metric, _ in tracing.METRICS}
