"""One pass of a workload in a fresh interpreter.

Usage: ``python3 bench/worker.py '<json spec>'`` with the spec keys
``workload``, ``order`` (case names, in run order), ``mode`` (``plain``,
``traced`` or ``count``) and, for ``traced``, ``spans_out`` (a file for the
raw spans).  ``run.py`` starts one worker per pass, so every pass pays its
own import and parse like a command-line run, and no cache survives from one
pass to the next.

The worker times set-up (from before ``import quotrel`` until every case is
parsed), then runs each case through ``quotrel.cli.run_script``, renders the
report and compares each command's block with its golden.  A plain pass also
samples the machine's speed with :class:`SpeedProbe` and reports
``run_ref``, the pass's wall time divided by the mean time of the reference
loop, and ``setup_s``, the set-up time rescaled to the nominal speed
``REFERENCE_S`` of that loop (the measured set-up seconds are
``setup_raw_s``).  The worker prints one JSON object as
its last line of output.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import CallCounter, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    MAX_DEGREE,
    SRC_DIR,
    load_cases,
    load_goldens,
    split_blocks,
)


# Nominal duration of reference_loop, a round figure near its time on the
# machine the benchmark was built on.  setup_s is reported at that speed.
REFERENCE_S = 0.005


def reference_loop() -> float:
    """Wall seconds of a fixed pure-Python loop of about 5 ms: tuple, dict,
    modular int and Fraction arithmetic, the operations quotrel spends its
    time in.  Garbage collection is off inside the loop, so objects quotrel
    keeps alive cannot slow the yardstick.
    """
    from fractions import Fraction

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table: dict = {}
        for i in range(3000):
            key = tuple(x + y for x, y in zip((i % 7, i // 7 % 5, i % 3), (1, 2, 3)))
            table[key] = (table.get(key, 0) + 31 * i) % 32003
        total = Fraction(0)
        for i in range(1, 180):
            total += Fraction(1, i % 97 + 1)
        sorted(table.items())
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples the machine's speed while a pass runs.

    Other tenants change the speed of a shared machine by tens of percent
    within a second.  Inside the ``with`` block a SIGALRM every
    ``PERIOD_S`` seconds interrupts quotrel between two bytecodes and times
    ``reference_loop``; one more sample is taken on entry and on exit.  The
    pass time without the samples, divided by the mean sample, is steady
    where either time alone is not.  An inactive probe samples nothing.
    """

    PERIOD_S = 0.1

    def __init__(self, active: bool):
        self.active = active
        self.samples: list[float] = []
        self.spent = 0.0  # wall seconds inside samples so far
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = perf_counter()
        self.samples.append(reference_loop())
        self.spent += perf_counter() - start

    def __enter__(self):
        if self.active:
            self._sample()
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._sample()


def _compare(blocks: list[str], golden: list[str]) -> tuple[int, str | None]:
    """Failed commands of one case, and a description of the first."""
    bad = [i for i, g in enumerate(golden) if i >= len(blocks) or blocks[i] != g]
    if bad:
        first = golden[bad[0]].splitlines()[0]
        return len(bad), f"block {bad[0] + 1} differs from its golden: {first}"
    if len(blocks) != len(golden):
        return 1, f"{len(blocks)} blocks where {len(golden)} expected"
    return 0, None


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    workload, order, mode = spec["workload"], spec["order"], spec["mode"]
    scripts = load_cases(workload)
    goldens = load_goldens(workload)
    sys.path.insert(0, str(SRC_DIR))

    t0 = perf_counter()
    import quotrel.cli
    import quotrel.script

    tracer = Tracer() if mode == "traced" else None
    counter = CallCounter() if mode == "count" else None
    for instrument in (tracer, counter):
        if instrument is not None:
            instrument.install()
    parsed = {case: quotrel.script.parse_script(scripts[case]) for case in order}
    setup_s = perf_counter() - t0

    # The attributes run_script reads; the CLI defaults except the degree.
    options = SimpleNamespace(max_degree=MAX_DEGREE, primes=(2, 3, 5),
                              mode="scheme", budget=None)
    texts: dict[str, str | None] = {}
    run_s = cpu_s = 0.0
    with SpeedProbe(active=mode == "plain") as probe:
        pass_start = perf_counter()
        for case in order:
            probed = probe.spent
            wall0, cpu0 = perf_counter(), process_time()
            try:
                texts[case] = quotrel.cli.run_script(parsed[case], options).render_text()
            except Exception:  # a failing case must not stop the pass
                traceback.print_exc()
                texts[case] = None
            probed = probe.spent - probed
            run_s += perf_counter() - wall0 - probed
            cpu_s += process_time() - cpu0 - probed
        pass_end = perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = failed = 0
    failures = []
    for case in order:
        golden = goldens[case]
        attempted += len(golden)
        if texts[case] is None:
            n, why = len(golden), "raised"
        else:
            n, why = _compare(split_blocks(texts[case]), golden)
        if n:
            failed += n
            failures.append(f"{workload}/{case}: {why}")

    out = {
        "setup_raw_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    if probe.active:
        speed = statistics.mean(probe.samples)
        out["run_ref"] = run_s / speed
        out["setup_s"] = setup_s * REFERENCE_S / speed
    if tracer is not None:
        out["layers"] = tracer.layer_stats(pass_start, pass_end)
        if spec.get("spans_out"):
            tracer.write(spec["spans_out"], t0)
    if counter is not None:
        out["counts"] = counter.stats()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
