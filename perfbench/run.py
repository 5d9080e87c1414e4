"""Certificate-verdict benchmark for nodalcover.

One run measures one workload with one client in a closed loop: the next
certificate request is sent only after the previous verdict, in one process
and one thread.  The run sends whole passes over the workload's generated
requests and checks every verdict against an independently known answer.
The number of passes is ``--seconds`` divided by the workload's nominal pass
time, so that a run measures about ``--seconds`` on the reference machine
and every run of a workload, on every commit, does the same work.

A calibration probe runs after each request and set-up (``calibrate.py``).
Every reported time is the measured time divided by the host factor the
probes around it give, i.e. scaled to the reference machine's typical speed.
The raw times are kept in the record line.

    python3 perfbench/run.py --workload words_free --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload, one table
    python3 perfbench/run.py --self-check --seed 1   # determinism and bypass checks

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of one
traced pass (see ``tracing.py``).  The line before it records the seed, Python
version, CPU count, source commit and the tail percentile used.  Results and
span files also go to ``perfbench/results/``.  See BENCHMARK.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
SETUP_REPEATS = 9
SETUP_PROBES = 3  # calibration probes before and after each set-up
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
END_TO_END = (("verdicts_per_s", "1/s"), ("verdict_p50_s", "s"), ("verdict_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def source_commit() -> str:
    """The checkout's git commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Digest of the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "nodalcover").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    return {"seed": seed, "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": source_commit(), "source_digest": source_digest()}


def fresh_import():
    """Import nodalcover from src/ as if for the first time in the process."""
    for name in [m for m in sys.modules if m == "nodalcover" or m.startswith("nodalcover.")]:
        del sys.modules[name]
    return workloads.import_library()


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least 10 samples beyond it."""
    n = len(latencies)
    pct = next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10), None)
    if pct is None:
        return max(latencies), 100.0
    q = statistics.quantiles(latencies, n=1000, method="inclusive")
    return q[round(pct * 10) - 1], pct


def run_pass(requests, on_result, tracer=None, after=None):
    """Send every request once, in order, each after the previous verdict.
    ``after`` runs once the verdict is recorded (the calibration probe)."""
    for k, req in enumerate(requests):
        if tracer is not None:
            tracer.begin_request(k + 1)
        start = time.perf_counter()
        try:
            out = req.run()
        except Exception as exc:  # an unexpected raise is a failed verdict
            elapsed = time.perf_counter() - start
            ok, verdict = False, (req.kind, f"raised {type(exc).__name__}: {exc}")
        else:
            elapsed = time.perf_counter() - start
            try:
                ok, verdict = req.check(out)
            except Exception as exc:
                ok, verdict = False, (req.kind, f"check raised {type(exc).__name__}: {exc}")
        on_result(req, elapsed, ok, verdict)
        if after is not None:
            after()


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.failures: list[str] = []
        self.verdicts: list[str] = []

    def __call__(self, req, elapsed, ok, verdict):
        self.latencies.append(elapsed)
        self.verdicts.append(json.dumps(verdict))
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(json.dumps(verdict))


def timed_run(name: str, seed: int, seconds: float) -> tuple[dict, dict, Tally]:
    setup, setup_factors = [], []
    for _ in range(SETUP_REPEATS):
        probes = [calibrate.probe() for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        lib = fresh_import()
        wl = workloads.build(name, lib, seed, ROOT)
        setup.append(time.perf_counter() - start)
        probes += [calibrate.probe() for _ in range(SETUP_PROBES)]
        setup_factors.append(statistics.median(probes) / calibrate.NOMINAL_S)
    tally = Tally()
    probes = []
    passes = max(1, round(seconds / workloads.NOMINAL_PASS_S[name]))
    start = time.perf_counter()
    for _ in range(passes):
        run_pass(wl.requests, tally, after=lambda: probes.append(calibrate.probe()))
    wall = time.perf_counter() - start
    n = len(tally.latencies)
    host = calibrate.factors(probes)
    scaled = [t / f for t, f in zip(tally.latencies, host)]
    tail_value, tail_pct = tail(scaled)
    values = {
        "verdicts_per_s": n / sum(scaled),
        "verdict_p50_s": statistics.median(scaled),
        "verdict_tail_s": tail_value,
        "setup_s": statistics.median([t / f for t, f in zip(setup, setup_factors)]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {"verdicts_per_s": n / sum(tally.latencies),
           "verdict_p50_s": statistics.median(tally.latencies),
           "verdict_tail_s": tail(tally.latencies)[0], "setup_s": statistics.median(setup)}
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    meta = {"passes": passes, "samples": n, "wall_s": wall,
            "tail_percentile": tail_pct, "tail_samples_beyond": n - round(n * tail_pct / 100),
            "error_rate": tally.failed / n, "setup_runs_s": setup,
            "host_factor": statistics.median(host), "setup_host_factor": statistics.median(setup_factors),
            "raw": raw, "inputs": wl.fingerprint()}
    return metrics, meta, tally


def traced_run(name: str, seed: int) -> tuple[dict, dict, Tally]:
    import tracing

    lib = workloads.import_library()
    wl = workloads.build(name, lib, seed, ROOT)
    plain = Tally()
    start = time.perf_counter()
    run_pass(wl.requests, plain)
    untraced = time.perf_counter() - start

    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        tracer.begin_request(0)  # request 0 is set-up: generating the inputs again
        wl = tracer.span("setup", workloads.build)(name, lib, seed, ROOT)
        tally = Tally()
        start = time.perf_counter()
        run_pass(wl.requests, tally, tracer=tracer)
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    RESULTS.mkdir(exist_ok=True)
    tracer.write_spans(RESULTS / f"spans-{name}-seed{seed}.json.gz")
    tally.failed += plain.failed
    tally.failures += plain.failures
    meta = {"samples": len(tally.latencies), "untraced_pass_s": untraced, "traced_pass_s": traced,
            "spans": len(tracer.spans), "spans_dropped": tracer.dropped,
            "error_rate": tally.failed / (len(tally.latencies) + len(plain.latencies)),
            "inputs": wl.fingerprint(), "verdicts": sorted(tally.verdicts)}
    return tracer.metrics(traced / untraced), meta, tally


def run_one(args) -> int:
    if not (SRC / "nodalcover" / "__init__.py").is_file():
        print(f"error: no nodalcover sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.trace:
        metrics, meta, tally = traced_run(args.workload, args.seed)
    else:
        metrics, meta, tally = timed_run(args.workload, args.seed, args.seconds)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              **environment(args.seed), **meta, "failures": tally.failures}
    result = {"correct": tally.failed == 0, "attempted": len(tally.latencies),
              "failed": tally.failed, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**record, "result": result}, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


def child(workload: str, seed: int, seconds: float, trace_flag: int) -> tuple[dict, dict]:
    """Run one workload in its own process (so peak RSS is its own)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace_flag)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_all(args) -> int:
    """Every workload, untraced, with every end-to-end metric by name."""
    bad = 0
    for name in WORKLOAD_NAMES:
        record, result = child(name, args.seed, args.seconds, 0)
        print(f"{name}  (seed {record['seed']}, python {record['python']}, "
              f"nproc {record['nproc']}, commit {record['commit'][:12]})")
        for metric, m in result["metrics"].items():
            extra = ""
            if metric == "verdict_tail_s":
                extra = (f"  (p{record['tail_percentile']:g}, {record['samples']} samples, "
                         f"{record['tail_samples_beyond']} beyond)")
            print(f"  {metric:16s} {m['value']:12.6g} {m['unit']}{extra}")
        print(f"  {'error_rate':16s} {record['error_rate']:12.6g} ratio"
              f"  ({result['failed']} of {result['attempted']})")
        bad += result["failed"]
    return 0 if bad == 0 else 1


def self_check(args) -> int:
    """Traced counts repeat exactly for one seed; the bypassing workloads
    really bypass; a second seed changes the inputs but no verdict."""
    problems = []
    for name in WORKLOAD_NAMES:
        rec1, res1 = child(name, args.seed, args.seconds, 1)
        rec2, res2 = child(name, args.seed, args.seconds, 1)
        rec3, _ = child(name, args.seed + 1, args.seconds, 1)
        counts1 = {k: v["value"] for k, v in res1["metrics"].items() if v["unit"] != "s"}
        counts2 = {k: v["value"] for k, v in res2["metrics"].items() if v["unit"] != "s"}
        counts1.pop("trace.overhead_ratio")
        counts2.pop("trace.overhead_ratio")
        diff = sorted(k for k in counts1 if counts1[k] != counts2[k])
        if diff:
            problems.append(f"{name}: traced counts differ between runs: {diff}")
        if rec1["inputs"] == rec3["inputs"]:
            problems.append(f"{name}: seeds {args.seed} and {args.seed + 1} gave the same inputs")
        if rec1["verdicts"] != rec3["verdicts"]:
            problems.append(f"{name}: verdicts changed with the seed")
        if not (res1["correct"] and res2["correct"]):
            problems.append(f"{name}: wrong verdicts: {rec1['failures']}")
        if name == "words_free" and counts1["field.make_rf.calls"] != 0:
            problems.append("words_free: field.make_rf.calls is not 0")
        if name == "square_cli" and counts1["field.pgcd.calls"] != 0:
            problems.append("square_cli: field.pgcd.calls is not 0")
        print(f"{name}: {len(counts1)} counts repeat={not diff}, inputs {rec1['inputs']} "
              f"vs {rec3['inputs']}, overhead x{res1['metrics']['trace.overhead_ratio']['value']:.2f}")
    for p in problems:
        print("FAIL", p)
    print("self-check", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload untraced")
    ap.add_argument("--self-check", action="store_true", dest="self_check")
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.self_check:
        return self_check(args)
    if args.workload is None:
        ap.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
