"""Every name the bench instrumentation wraps exists in ``quotrel``.

``bench/tracing.py`` rebinds functions and methods by name; a name that was
renamed or deleted would only fail the traced bench pass.  This runs the
file's source (reading it, writing nothing next to it) for its ``SPANS`` and
``COUNTS`` tables and resolves each entry the way its wrappers do.
"""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_names():
    tables = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tables)
    names = list(tables["SPANS"].values())
    names += [(module, attr) for module, attrs in tables["COUNTS"].values()
              for attr in attrs]
    return names


@pytest.mark.parametrize("module, attr", _traced_names())
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"quotrel.{module}")
    if "." in attr:
        # a method is wrapped on the class that defines it
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))
