"""quotrel benchmark: fixed CLI scripts of the paper's constructions.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is one closed-loop client: passes run one after another, each in a
fresh worker process (``worker.py``), and inside a pass each case starts
after the previous one finished.  The seed only permutes the case order
within the workload; the inputs and their goldens are fixed.

``--trace 0`` runs plain passes for at least ``--seconds`` (and at least
three) and reports the end-to-end metrics, each the median over passes:

* ``run_ref``: time to execute every case once (declarations included), in
  units of a fixed reference loop sampled while the pass runs (see
  ``worker.SpeedProbe``), so that the machine's drifting speed cancels;
* ``setup_s``: seconds from before ``import quotrel`` until every case is
  parsed, rescaled by the same samples to the reference loop's nominal
  speed (``worker.REFERENCE_S``);
* ``peak_rss_mb``: peak resident memory over set-up plus the pass;
* ``ok_ratio``: commands whose block matched its golden over commands run.

The raw wall and CPU seconds of a pass and of set-up (``run_s``, ``cpu_s``,
``setup_raw_s``) go to standard error with their quartiles; on a shared
machine they drift too much between runs to gate on.

``--trace 1`` reports the per-layer metrics of ``tracing.LAYER_METRICS``:
two counting passes first (their counts must repeat exactly), then plain and
traced passes in alternation.  Timings are medians over traced passes, and
``trace.overhead_s`` is the median over pairs of traced ``run_s`` minus
plain ``run_s``.  The spans of the last traced pass are written to
``.bench_trace/<workload>.spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import REPO_ROOT, SRC_DIR, WORKLOADS, case_orders  # noqa: E402

WORKER = BENCH_DIR / "worker.py"
TRACE_DIR = REPO_ROOT / ".bench_trace"
MIN_PASSES = 3
# A run must end within 180 s even when a pass hangs.
RUN_LIMIT_S = 170.0

# Reported as metrics, each the median over passes.
END_TO_END = [
    ("run_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# Summarized on standard error only: too unsteady on a shared machine.
RAW_TIMES = ["run_s", "cpu_s", "setup_raw_s"]


class WorkerError(RuntimeError):
    """A pass ended without a result."""


class BenchRun:
    """Starts the workers of one run and keeps its totals."""

    def __init__(self, workload: str, started: float):
        self.workload = workload
        self.deadline = started + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0

    def run_pass(self, order: list[str], mode: str, spans_out=None) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerError("no time left for another pass")
        spec = {"workload": self.workload, "order": order, "mode": mode,
                "spans_out": str(spans_out) if spans_out else None}
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), json.dumps(spec)],
                capture_output=True, text=True, timeout=timeout, cwd=REPO_ROOT,
            )
        except subprocess.TimeoutExpired:
            raise WorkerError(f"{mode} pass did not end within {timeout:.0f} s")
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        for failure in result["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
        return result


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"median {statistics.median(values):.6g} (n={len(values)})"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  (n={len(values)})"


def end_to_end(bench: BenchRun, seed: int, seconds: float, started: float):
    orders = case_orders(bench.workload, seed)
    passes = []
    while len(passes) < MIN_PASSES or time.monotonic() - started < seconds:
        passes.append(bench.run_pass(next(orders), "plain"))
    for name in RAW_TIMES:
        print(f"{name}: {_spread([p[name] for p in passes])}", file=sys.stderr)
    metrics = {}
    for name, unit in END_TO_END:
        values = [p[name] for p in passes]
        print(f"{name}: {_spread(values)}", file=sys.stderr)
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    ok = (bench.attempted - bench.failed) / bench.attempted
    metrics["ok_ratio"] = {"value": ok, "unit": "ratio"}
    return metrics, True


def per_layer(bench: BenchRun, seed: int, seconds: float, started: float):
    order = next(case_orders(bench.workload, seed))
    counted = [bench.run_pass(order, "count")["counts"] for _ in range(2)]
    repeat = counted[0] == counted[1]
    if not repeat:
        print(f"counts differ between passes: {counted}", file=sys.stderr)

    TRACE_DIR.mkdir(exist_ok=True)
    spans_out = TRACE_DIR / f"{bench.workload}.spans.jsonl"
    plain, traced = [], []
    while not traced or time.monotonic() - started < seconds:
        plain.append(bench.run_pass(order, "plain"))
        traced.append(bench.run_pass(order, "traced", spans_out))
    # Each traced pass runs right after its plain twin, so their difference
    # is taken pair by pair before the median.
    overhead = statistics.median(t["run_s"] - p["run_s"] for p, t in zip(plain, traced))
    print(f"plain run_s: {_spread([p['run_s'] for p in plain])}", file=sys.stderr)
    print(f"traced run_s: {_spread([p['run_s'] for p in traced])}", file=sys.stderr)

    metrics = {}
    for name, unit, _better in LAYER_METRICS:
        if name in counted[0]:
            value = counted[0][name]
        elif name == "trace.overhead_s":
            value = overhead
        else:
            value = statistics.median(p["layers"][name] for p in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC_DIR / "quotrel" / "__init__.py").is_file():
        print(f"error: no quotrel sources under {SRC_DIR}", file=sys.stderr)
        return 2
    started = time.monotonic()
    bench = BenchRun(args.workload, started)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, counts_repeat = measure(bench, args.seed, args.seconds, started)
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bench.failed == 0 and counts_repeat,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
