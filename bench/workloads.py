"""The benchmark's workloads: fixed quotrel scripts and their goldens.

Each workload is an ordered list of self-contained cases.  A case is one
script under ``cases/<workload>/<case>.qs`` that declares everything it uses,
so a failing statement drops only the rest of its own case.  Next to it,
``<case>.out`` holds the golden report: exactly what

    quotrel cases/<workload>/<case>.qs --max-degree 6

prints.  The benchmark compares every command's rendered block against it
byte for byte.
"""

from __future__ import annotations

import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CASES_DIR = BENCH_DIR / "cases"
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

# Options shared by every case; the CLI defaults except the degree bound.
MAX_DEGREE = 6

WORKLOADS = {
    # Buchberger "write" path: one large grevlex basis per ideal over a
    # prime field; no linalg, quotient or ring work.
    "gb-ideals": ["cyclic5", "katsura5"],
    # "Read" path over QQ: many normal forms against small fixed bases,
    # plus linalg, RingMap.apply_poly and Fraction arithmetic.
    "paper-constructions": [
        "involution",
        "s3-orbit",
        "d4-invariants",
        "cocycle",
        "cusp-pinch",
    ],
    # Prime-field membership: 11 MembershipSieve builds in block orders,
    # 4 of them over the same generators inside one command.
    "frobenius-sieves": [
        "frobenius-ff3",
        "frobenius-ff2",
        "frobenius-ff5-none",
        "subalgebra-member",
        "present",
    ],
}


def script_path(workload: str, case: str) -> Path:
    return CASES_DIR / workload / f"{case}.qs"


def golden_path(workload: str, case: str) -> Path:
    return CASES_DIR / workload / f"{case}.out"


def load_cases(workload: str) -> dict[str, str]:
    """Script text of every case of a workload, by case name."""
    return {c: script_path(workload, c).read_text() for c in WORKLOADS[workload]}


def split_blocks(report_text: str) -> list[str]:
    """Split a rendered text report into one block per command.

    Every block starts at a ``$ `` line; joining the blocks gives the report
    back.
    """
    blocks: list[str] = []
    for line in report_text.splitlines(keepends=True):
        if line.startswith("$ ") or not blocks:
            blocks.append(line)
        else:
            blocks[-1] += line
    return blocks


def load_goldens(workload: str) -> dict[str, list[str]]:
    """Golden blocks of every case of a workload, by case name."""
    return {
        c: split_blocks(golden_path(workload, c).read_text())
        for c in WORKLOADS[workload]
    }


def case_orders(workload: str, seed: int):
    """Endless sequence of case orders for one run, fixed by ``seed``.

    The inputs never change, only the order in which cases run, so the
    goldens stay valid while gains that depend on order (warm caches) show
    up as spread between seeds.
    """
    rng = random.Random(f"{workload}:{seed}")
    cases = list(WORKLOADS[workload])
    while True:
        yield rng.sample(cases, len(cases))
