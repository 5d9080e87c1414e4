"""`tools/pair_bench.py`: `--summary` reads the BENCH files and runs nothing,
and the claim rule reads paired values."""

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


PARENT = [100.0] * 5 + [101.0] * 5  # median 100.5, inclusive quartiles 100 and 101


@pytest.mark.parametrize("change,wins,met", [
    ([102.0] * 5 + [103.0] * 4 + [100.0], 9, True),
    ([102.0] * 5 + [103.0] * 3 + [100.0] * 2, 8, False),
    ([p + 1.0 for p in PARENT], 10, False),
], ids=["nine-wins-above-the-iqr", "eight-wins", "ten-wins-at-the-iqr"])
def test_claim_needs_nine_wins_in_ten_and_a_gain_above_the_parent_iqr(change, wins, met):
    """A claim is met by 9 or more wins in 10 pairs and a median gain
    strictly above the parent's interquartile distance (here 1.0): 9 wins
    with a gain of 1.5 meet it, 8 wins with the same gain do not, and 10
    wins with a gain of exactly the IQR do not.  Mirrored values give the
    same verdict for a metric where lower is better."""
    pair_bench = load_pair_bench()
    m = pair_bench.compare(PARENT, change, "higher")
    assert (m["parent_median"], m["parent_iqr"], m["change_wins"]) == (100.5, 1.0, wins)
    assert m["change_worse_by"] < 0
    assert pair_bench.claim_met(m, "higher") is met
    mirrored = pair_bench.compare([200.0 - p for p in PARENT], [200.0 - c for c in change],
                                  "lower")
    assert (mirrored["parent_iqr"], mirrored["change_wins"]) == (1.0, wins)
    assert mirrored["change_worse_by"] < 0
    assert pair_bench.claim_met(mirrored, "lower") is met
