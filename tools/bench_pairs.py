"""Paired benchmark runs: a parent revision against this checkout.

Usage::

    python3 tools/bench_pairs.py --parent REV --out BENCH_N.json
    python3 tools/bench_pairs.py --parent REV --out BENCH_N.json --larger

For each workload that ``BENCHMARK.json`` declares it runs
``bench/run.py --workload W --seed I --seconds S --trace 0`` for
I = 1..10, S the ``run_seconds`` of ``BENCHMARK.json``, alternating the
parent and this checkout, the parent first on odd I, so that a drift of the
machine's speed hits both sides alike; then one ``--trace 1`` run of each
side, seed 1, as long, for the per-layer counts.

Both sides run from sibling temporary directories, removed at the end, as
a fresh checkout would: ``parent`` holds the committed files of REV, from
``git archive``, and ``change`` a copy of this checkout's working tree (its
tracked files and the untracked ones git does not ignore).  Run from the
repository itself, the same code reads a different ``peak_rss_mb``.
Unlike a ``git worktree``, the parent leaves nothing registered in ``.git``
when a run is cut short.

The ``workloads`` section of ``--out`` is written in the layout of the
committed ``BENCH_*.json`` files, and any other section already in the file
is kept.  Per workload, ``trace0`` holds every run's result (the last line
``bench/run.py`` prints) under ``parent`` and ``change``, and a ``summary``
per end-to-end metric: both medians, both quartiles (``statistics.quantiles``,
inclusive method), ``change_better_pairs``, the pairs in which the change
is strictly better in the direction ``BENCHMARK.json`` gives, and
``pairs``.  ``trace1`` holds one result per side.

With ``--larger`` it runs no workload and writes the ``larger_inputs``
section instead: one Groebner basis per input of ``LARGER`` (cyclic and
katsura systems over FF(32003) and QQ, grevlex) and one script per input
of ``LARGER_SCRIPTS`` (the paper's constructions past the workloads'
degree bound), each run in a fresh process in either checkout,
``LARGER_PAIRS`` pairs alternating as above.  Per Groebner input it records
both sides' seconds (``perf_counter`` around ``groebner_basis``) and their
medians, the S-polynomials built (counted by wrapping
``groebner.s_polynomial``), the basis size, and the distinct sha256
prefixes of the rendered reduced basis.  Per script it records both sides'
seconds (``perf_counter`` around ``parse_script``, ``run_script`` at the
input's ``--max-degree`` and the rendering of the text report) and their
medians, and the distinct sha256 prefixes of that report.

Only the standard library is used.  The script writes nothing but
``--out``; ``bench/run.py --trace 1`` leaves its spans in ``.bench_trace/``
of each checkout.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from contextlib import contextmanager
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
LARGER_PAIRS = 5
# name -> (system, n, field) of the --larger inputs
LARGER = {
    "cyclic6-ff32003": ("cyclic", 6, "FF(32003)"),
    "katsura6-ff32003": ("katsura", 6, "FF(32003)"),
    "katsura7-ff32003": ("katsura", 7, "FF(32003)"),
    "katsura6-qq": ("katsura", 6, "QQ"),
    "cyclic6-qq": ("cyclic", 6, "QQ"),
}
# name -> (script, max degree) of the --larger script inputs
LARGER_SCRIPTS = {
    "s3-orbit-kernel-probe-d14": ("""
ring X3 = QQ[x, y, z];
action S3 on X3 = (x, y, z | y, x, z | z, y, x | x, z, y | y, z, x | z, x, y);
relation ORB on X3 = from-action S3;
kernel-basis ORB;
probe ORB;
""", 14),
    "s3-orbit-kernel-probe-d20": ("""
ring X3 = QQ[x, y, z];
action S3 on X3 = (x, y, z | y, x, z | z, y, x | x, z, y | y, z, x | z, x, y);
relation ORB on X3 = from-action S3;
kernel-basis ORB;
probe ORB;
""", 20),
    # the symmetric polynomials again, from the relation of a map: this
    # kernel is read off a normal-form table, which no workload runs
    "s3-fibre-kernel-probe-d14": ("""
ring X3 = QQ[x, y, z];
relation SYM on X3 = from-map (x + y + z, x*y + x*z + y*z, x*y*z);
kernel-basis SYM;
probe SYM;
""", 14),
    "cusp-pinch-verify-d40": ("""
ring P = QQ[u, v];
pinchinput CUSP in P = ideal (u) sub (v^2, v^3) module (v);
pinch CUSP;
verify-pushout CUSP;
""", 40),
    "cusp-pinch-verify-d80": ("""
ring P = QQ[u, v];
pinchinput CUSP in P = ideal (u) sub (v^2, v^3) module (v);
pinch CUSP;
verify-pushout CUSP;
""", 80),
    "c3-orbit-verify-d6": ("""
ring X3 = QQ[x, y, z];
action C3 on X3 = (x, y, z | y, z, x | z, x, y);
relation ORB on X3 = from-action C3;
verify-relation ORB;
""", 6),
    "d4-orbit-verify-d6": ("""
ring SQ = QQ[a, b, c, d];
action D4 on SQ = (a, b, c, d | b, c, d, a | c, d, a, b | d, a, b, c
                 | d, c, b, a | b, a, d, c | a, d, c, b | c, b, a, d);
relation ORB on SQ = from-action D4;
verify-relation ORB;
""", 6),
    "d4-invariants-d16": ("""
ring SQ = QQ[a, b, c, d];
action D4 on SQ = (a, b, c, d | b, c, d, a | c, d, a, b | d, a, b, c
                 | d, c, b, a | b, a, d, c | a, d, c, b | c, b, a, d);
invariant-basis D4;
""", 16),
    # S5 as its 120 permutations of a..e, checked on its generators' closure
    "s5-invariants-d3": ("""
ring P5 = QQ[a, b, c, d, e];
action S5 on P5 = (""" + " | ".join(map(", ".join, itertools.permutations("abcde"))) + """);
invariant-basis S5;
""", 3),
}
# One --larger script run, executed by ``python3 -c`` in a checkout with the
# script text and the degree bound as arguments; it prints one JSON line.
SCRIPT_RUN = """
import hashlib, json, sys, time
sys.path.insert(0, "src")
from quotrel.cli import _Options, run_script
from quotrel.script import parse_script

text, degree = sys.argv[1], int(sys.argv[2])
start = time.perf_counter()
report = run_script(parse_script(text), _Options(max_degree=degree)).render_text()
seconds = time.perf_counter() - start
print(json.dumps({"seconds": seconds,
                  "report_sha256_16": hashlib.sha256(report.encode()).hexdigest()[:16]}))
"""
# One --larger run, executed by ``python3 -c`` in a checkout with the
# system, n and field as arguments; it prints one JSON line.
LARGER_RUN = """
import hashlib, json, sys, time
sys.path.insert(0, "src")
from quotrel import groebner
from quotrel.fields import GF, QQ
from quotrel.poly import PolyRing

system, n, field = sys.argv[1], int(sys.argv[2]), sys.argv[3]
if system == "cyclic":
    names = [f"x{i}" for i in range(n)]
    gens = [" + ".join("*".join(names[(i + j) % n] for j in range(d)) for i in range(n))
            for d in range(1, n)] + ["*".join(names) + " - 1"]
else:
    names = [f"u{i}" for i in range(n + 1)]
    gens = [" + ".join([names[0]] + [f"2*{v}" for v in names[1:]]) + " - 1"]
    gens += [" + ".join(f"{names[abs(i)]}*{names[abs(m - i)]}" for i in range(-n, n + 1)
                        if abs(m - i) <= n) + f" - {names[m]}" for m in range(n)]
ring = PolyRing(QQ if field == "QQ" else GF(int(field[3:-1])), names)
polys = [ring.parse(g) for g in gens]
built = [0]
s_polynomial = groebner.s_polynomial

def counted(*args):
    built[0] += 1
    return s_polynomial(*args)

groebner.s_polynomial = counted
start = time.perf_counter()
basis = groebner.groebner_basis(polys)
seconds = time.perf_counter() - start
text = "\\n".join(ring.render(g) for g in basis)
print(json.dumps({"seconds": seconds, "s_polynomials": built[0], "basis_size": len(basis),
                  "basis_sha256_16": hashlib.sha256(text.encode()).hexdigest()[:16]}))
"""


def git(*args: str, cwd: Path = REPO_ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


@contextmanager
def checkouts(rev: str):
    """Sibling temporary directories ``parent``, the committed files of
    ``rev``, and ``change``, a copy of the working tree."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent, change = Path(tmp, "parent"), Path(tmp, "change")
        archive = subprocess.run(["git", "archive", rev], cwd=REPO_ROOT, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent)
        for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
            # a tracked file deleted from the working tree is left out
            if name and (REPO_ROOT / name).is_file():
                (change / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(REPO_ROOT / name, change / name)
        yield parent, change


def bench_run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one ``bench/run.py`` run in ``checkout``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(cmd)} in {checkout} exited with {proc.returncode}:\n"
            + proc.stderr[-2000:])
    return json.loads(lines[-1])


def _fresh_run(checkout: Path, what: str, program: str, *args) -> dict:
    """The JSON line that ``program`` prints, run by ``python3 -c`` with
    ``args`` in a fresh process in ``checkout``."""
    cmd = [sys.executable, "-c", program, *map(str, args)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{what} in {checkout} exited with "
                           f"{proc.returncode}:\n" + proc.stderr[-2000:])
    return json.loads(proc.stdout.splitlines()[-1])


def larger_run(checkout: Path, system: str, n: int, field: str) -> dict:
    """The result of one ``LARGER_RUN`` in a fresh process in ``checkout``."""
    return _fresh_run(checkout, f"{system}-{n} over {field}", LARGER_RUN, system, n, field)


def script_run(checkout: Path, text: str, degree: int) -> dict:
    """The result of one ``SCRIPT_RUN`` in a fresh process in ``checkout``."""
    return _fresh_run(checkout, f"a script at degree {degree}", SCRIPT_RUN, text, degree)


def summarize_larger(parent: list[dict], change: list[dict]) -> dict:
    """Both sides' seconds and medians of one input's results, and the rest
    of them: for a Groebner input (``larger_run``) the S-polynomial counts,
    basis size and basis hashes, for a script (``script_run``) the report
    hashes."""
    runs = {"parent": parent, "change": change}
    out = {}
    for side, rs in runs.items():
        out[f"{side}_median_s"] = round(statistics.median(r["seconds"] for r in rs), 5)
    for side, rs in runs.items():
        out[f"{side}_s"] = [round(r["seconds"], 5) for r in rs]
    both = parent + change
    if "report_sha256_16" in parent[0]:
        out["report_sha256_16"] = sorted({r["report_sha256_16"] for r in both})
        out["outputs_equal"] = len(out["report_sha256_16"]) == 1
        return out
    for side, rs in runs.items():
        out[f"{side}_s_polynomials"] = rs[0]["s_polynomials"]
    out["basis_size"] = sorted({r["basis_size"] for r in both})
    out["basis_sha256_16"] = sorted({r["basis_sha256_16"] for r in both})
    out["outputs_equal"] = len(out["basis_sha256_16"]) == 1
    return out


def quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Medians, quartiles and pairs won per end-to-end metric; ``better``
    maps each metric to ``"lower"`` or ``"higher"``."""
    out = {}
    for name, direction in better.items():
        ours = [r["metrics"][name]["value"] for r in change]
        theirs = [r["metrics"][name]["value"] for r in parent]
        wins = sum((c < p) if direction == "lower" else (c > p) for c, p in zip(ours, theirs))
        out[name] = {
            "parent_median": statistics.median(theirs),
            "change_median": statistics.median(ours),
            "parent_quartiles": quartiles(theirs),
            "change_quartiles": quartiles(ours),
            "change_better_pairs": wins,
            "pairs": len(ours),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent revision, e.g. HEAD~1")
    ap.add_argument("--out", required=True, help="JSON file whose workloads section is written")
    ap.add_argument("--larger", action="store_true",
                    help="time the LARGER and LARGER_SCRIPTS inputs and write the "
                         "larger_inputs section instead")
    args = ap.parse_args(argv)

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    out_path = Path(args.out)
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    doc.update({
        "what": "bench/run.py result lines at the parent commit and at this change",
        "parent_commit": git("rev-parse", args.parent),
        "python": platform.python_version(),
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs; "
                   "run_ref divides out the machine's drifting speed",
        "trace0_command": f"python3 bench/run.py --workload W --seed I --seconds {seconds:g} "
                          f"--trace 0, I = 1..{PAIRS}, parent and change alternating, "
                          "parent first on odd I",
        "trace1_command": f"python3 bench/run.py --workload W --seed 1 --seconds {seconds:g} "
                          "--trace 1",
    })
    with checkouts(args.parent) as (parent_dir, change_dir):
        where = {"parent": parent_dir, "change": change_dir}
        if args.larger:
            cases = doc.setdefault("larger_inputs", {}).setdefault("cases", {})
            doc["larger_inputs"]["how"] = (
                "tools/bench_pairs.py --larger: groebner_basis of each Groebner input, or "
                "parse_script and run_script of each script input at its degree bound, in a "
                f"fresh process, perf_counter around the call; {LARGER_PAIRS} pairs "
                "alternating, parent first on odd pairs; S-polynomials counted by wrapping "
                "groebner.s_polynomial; sha256 prefix of the rendered reduced basis or report")
            jobs = {name: (larger_run, inputs) for name, inputs in LARGER.items()}
            jobs.update((name, (script_run, inputs)) for name, inputs in LARGER_SCRIPTS.items())
            for name, (run, inputs) in jobs.items():
                runs = {"parent": [], "change": []}
                for pair in range(1, LARGER_PAIRS + 1):
                    for side in ["parent", "change"] if pair % 2 else ["change", "parent"]:
                        runs[side].append(run(where[side], *inputs))
                        print(f"{name} pair {pair} {side}: {runs[side][-1]['seconds']:.3f} s",
                              file=sys.stderr)
                cases[name] = summarize_larger(runs["parent"], runs["change"])
                out_path.write_text(json.dumps(doc, indent=2) + "\n")
            return 0
        results = doc.setdefault("workloads", {})
        for w in [workload["name"] for workload in spec["workloads"]]:
            runs = {"parent": [], "change": []}
            for seed in range(1, PAIRS + 1):
                sides = ["parent", "change"] if seed % 2 else ["change", "parent"]
                for side in sides:
                    r = bench_run(where[side], w, seed, seconds, 0)
                    runs[side].append(r)
                    print(f"{w} seed {seed} {side}: "
                          f"run_ref {r['metrics']['run_ref']['value']:.4g}", file=sys.stderr)
            trace1 = {side: bench_run(where[side], w, 1, seconds, 1)
                      for side in ("parent", "change")}
            results[w] = {
                "trace0": {"summary": summarize(runs["parent"], runs["change"], better), **runs},
                "trace1": trace1,
            }
            out_path.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
