"""Write the golden report of every benchmark case.

Usage: ``python3 bench/record_goldens.py``.  Each ``cases/<workload>/<case>.qs``
is run through the ``quotrel`` command line with ``--max-degree 6`` and its
standard output is stored as ``<case>.out``.  Goldens are recorded once and
only re-recorded when an output change is intended; a case that ends in an
error (exit code 2 or 3) is refused.
"""

from __future__ import annotations

import contextlib
import io
import sys

from workloads import MAX_DEGREE, SRC_DIR, WORKLOADS, golden_path, script_path

sys.path.insert(0, str(SRC_DIR))

from quotrel.cli import main as quotrel_main  # noqa: E402


def record() -> int:
    for workload, cases in WORKLOADS.items():
        for case in cases:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = quotrel_main(
                    [str(script_path(workload, case)), "--max-degree", str(MAX_DEGREE)]
                )
            if code not in (0, 1):
                print(f"{workload}/{case}: exit code {code}", file=sys.stderr)
                return 1
            golden_path(workload, case).write_text(out.getvalue())
            print(f"{workload}/{case}: recorded")
    return 0


if __name__ == "__main__":
    sys.exit(record())
