"""`tools/pair_bench.py --summary`: it reads the BENCH files and runs nothing."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_pair_bench():
    spec = importlib.util.spec_from_file_location("pair_bench", ROOT / "tools" / "pair_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_prints_change_medians_by_pr_number_and_runs_nothing(tmp_path, monkeypatch,
                                                                     capsys):
    """The change-side medians of each row, BENCH_9 before BENCH_10, then
    the files without rows as skipped; no tree is built and no benchmark
    run, and --out is not required."""
    pair_bench = load_pair_bench()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    row = {"workload": "transport_general", "seed": 1, "metrics": {
        "verdicts_per_s": {"change_median": 301.25}, "setup_s": {"change_median": 0.125}}}
    (tmp_path / "BENCH_10.json").write_text(json.dumps({"rows": [row]}))
    (tmp_path / "BENCH_9.json").write_text(json.dumps({"rows": [dict(row, seed=2)]}))
    (tmp_path / "BENCH_8.json").write_text(json.dumps({"method": "no rows"}))
    monkeypatch.setattr(pair_bench, "ROOT", tmp_path)
    for name in ("git", "archive_tree", "tracked_tree", "run_once"):
        monkeypatch.setattr(pair_bench, name,
                            lambda *args, name=name: pytest.fail(f"--summary called {name}"))
    assert pair_bench.main(["--summary"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "BENCH_9 transport_general seed 2: verdicts_per_s 301.25, setup_s 0.125",
        "BENCH_10 transport_general seed 1: verdicts_per_s 301.25, setup_s 0.125",
        "skipped, no rows: BENCH_8.json"]


def test_out_is_required_without_summary():
    with pytest.raises(SystemExit) as refused:
        load_pair_bench().main([])
    assert refused.value.code == 2
