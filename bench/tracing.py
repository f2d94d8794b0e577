"""Outside-in instrumentation of quotrel for the traced and counting passes.

Nothing here edits the package.  A span wrapper replaces a public function
by rebinding its name in every ``quotrel.*`` module that holds it (for
example ``normal_form`` is bound in ``groebner``, ``eqrel``, ``effectivity``,
``pinch``, ``quotient`` and ``ring``), and a method by replacing it on its
class.  Code that reaches a function through its module globals, such as
``_buchberger`` calling ``normal_form``, then goes through the wrapper.

Two kinds of instrumentation never run together:

* :class:`Tracer` records one span per call of the functions in ``SPANS``:
  name, parent span, start and end.  Spans stay in memory and are written
  out after the pass.  A span's self time is its duration minus the
  durations of its child spans.
* :class:`CallCounter` only counts calls of the hot leaves in ``COUNTS``
  (field arithmetic, monomial-order keys, ``mul_monomial``), which run
  10^5-10^6 times per pass and would swamp the traced timings.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# span name -> (module, attribute); "Class.method" wraps a method.
SPANS = {
    "groebner.groebner_basis": ("groebner", "groebner_basis"),
    "groebner.normal_form": ("groebner", "normal_form"),
    "groebner.s_polynomial": ("groebner", "s_polynomial"),
    "groebner.MembershipSieve.build": ("groebner", "MembershipSieve.__init__"),
    "groebner.ideal_intersect": ("groebner", "ideal_intersect"),
    "groebner.eliminate": ("groebner", "eliminate"),
    "linalg.RowSpace.insert": ("linalg", "RowSpace.insert"),
    "linalg.nullspace": ("linalg", "nullspace"),
    "ring.RingMap.apply_poly": ("ring", "RingMap.apply_poly"),
    "ring.AmbientRing.nf": ("ring", "AmbientRing.nf"),
    "ring.subalgebra_member_ring": ("ring", "subalgebra_member_ring"),
    "eqrel.relation_from_group_action": ("eqrel", "relation_from_group_action"),
    "eqrel.verify_relation": ("eqrel", "verify_relation"),
    "quotient.coequalizer_kernel_basis": ("quotient", "coequalizer_kernel_basis"),
    "invariants.invariant_basis": ("invariants", "invariant_basis"),
    "effectivity.effectivity_test": ("effectivity", "effectivity_test"),
    "pinch.pinch_generators": ("pinch", "pinch_generators"),
    "pinch.verify_pushout": ("pinch", "verify_pushout"),
    "frobenius.frobenius_exponent": ("frobenius", "frobenius_exponent"),
    "script.parse_script": ("script", "parse_script"),
}

# counter name -> (module, methods counted together)
COUNTS = {
    "fields.add": ("fields", ("RationalField.add", "PrimeField.add")),
    "fields.sub": ("fields", ("RationalField.sub", "PrimeField.sub")),
    "fields.mul": ("fields", ("RationalField.mul", "PrimeField.mul")),
    "fields.inv": ("fields", ("RationalField.inv", "PrimeField.inv")),
    "poly.order_key": (
        "poly",
        ("LexOrder.key", "GrevlexOrder.key", "BlockOrder.key"),
    ),
    "poly.mul_monomial": ("poly", ("Polynomial.mul_monomial",)),
}

# The per-layer metrics a traced run reports: (name, unit, better).
LAYER_METRICS = [
    ("groebner.groebner_basis.calls", "count", "lower"),
    ("groebner.groebner_basis.self_s", "s", "lower"),
    ("groebner.normal_form.calls", "count", "lower"),
    ("groebner.normal_form.self_s", "s", "lower"),
    ("groebner.s_polynomial.calls", "count", "lower"),
    ("groebner.spair_zero_ratio", "ratio", "lower"),
    ("groebner.MembershipSieve.build.calls", "count", "lower"),
    ("groebner.MembershipSieve.build.total_s", "s", "lower"),
    ("groebner.ideal_intersect.total_s", "s", "lower"),
    ("groebner.eliminate.total_s", "s", "lower"),
    ("linalg.RowSpace.insert.calls", "count", "lower"),
    ("linalg.RowSpace.insert.self_s", "s", "lower"),
    ("linalg.insert_growth_ratio", "ratio", "higher"),
    ("linalg.nullspace.calls", "count", "lower"),
    ("linalg.nullspace.total_s", "s", "lower"),
    ("linalg.nullspace.rows", "count", "lower"),
    ("linalg.nullspace.cols", "count", "lower"),
    ("ring.RingMap.apply_poly.calls", "count", "lower"),
    ("ring.RingMap.apply_poly.self_s", "s", "lower"),
    ("ring.AmbientRing.nf.calls", "count", "lower"),
    ("ring.subalgebra_member_ring.total_s", "s", "lower"),
    ("eqrel.relation_from_group_action.total_s", "s", "lower"),
    ("eqrel.verify_relation.total_s", "s", "lower"),
    ("quotient.coequalizer_kernel_basis.calls", "count", "lower"),
    ("quotient.coequalizer_kernel_basis.total_s", "s", "lower"),
    ("invariants.invariant_basis.self_s", "s", "lower"),
    ("invariants.invariant_basis.total_s", "s", "lower"),
    ("effectivity.effectivity_test.total_s", "s", "lower"),
    ("pinch.pinch_generators.total_s", "s", "lower"),
    ("pinch.verify_pushout.total_s", "s", "lower"),
    ("frobenius.frobenius_exponent.total_s", "s", "lower"),
    ("script.parse_script.total_s", "s", "lower"),
    ("fields.add.calls", "count", "lower"),
    ("fields.sub.calls", "count", "lower"),
    ("fields.mul.calls", "count", "lower"),
    ("fields.inv.calls", "count", "lower"),
    ("poly.order_key.calls", "count", "lower"),
    ("poly.mul_monomial.calls", "count", "lower"),
    ("trace.span_coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]


def _rebind(module: str, attr: str, make_wrapper) -> None:
    """Replace ``module.attr`` by ``make_wrapper(original)`` wherever quotrel
    holds it: on its class for a method, else in every quotrel module."""
    owner = sys.modules[f"quotrel.{module}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        setattr(cls, meth, make_wrapper(cls.__dict__[meth]))
        return
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if name == "quotrel" or name.startswith("quotrel."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


class Tracer:
    """Spans of every call into the functions of ``SPANS``, plus the few
    counts that need a call's arguments or result."""

    def __init__(self):
        # [name, parent index or -1, start, end, outermost of its name]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self.spair_reduced = 0
        self.spair_zero = 0
        self._last_spoly = None
        self.inserts_grown = 0
        self.nullspace_rows = 0
        self.nullspace_cols = 0

    def install(self) -> None:
        hooks = {
            "groebner.s_polynomial": self._after_s_polynomial,
            "groebner.normal_form": self._after_normal_form,
            "linalg.RowSpace.insert": self._after_insert,
            "linalg.nullspace": self._after_nullspace,
        }
        for name, (module, attr) in SPANS.items():
            _rebind(module, attr,
                    lambda fn, n=name: self._wrap(n, fn, hooks.get(n)))

    def _wrap(self, name, fn, after):
        spans, stack, open_ = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0,
                    open_[name] == 0]
            stack.append(len(spans))
            spans.append(span)
            open_[name] += 1
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
                open_[name] -= 1
            if after is not None:
                after(args, result)
            return result

        return traced

    # _buchberger reduces each S-polynomial right after building it.
    def _after_s_polynomial(self, args, result):
        self._last_spoly = result

    def _after_normal_form(self, args, result):
        if args[0] is self._last_spoly:
            self._last_spoly = None
            self.spair_reduced += 1
            self.spair_zero += result.is_zero()

    def _after_insert(self, args, result):
        self.inserts_grown += result is not None

    def _after_nullspace(self, args, result):
        self.nullspace_rows += len(args[0])
        self.nullspace_cols += len(args[1])

    def layer_stats(self, pass_start: float, pass_end: float) -> dict:
        """calls, self_s and total_s per span name, the derived ratios, and
        the share of the pass covered by root spans."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {f"{n}.{s}": 0 for n in SPANS for s in ("calls", "self_s", "total_s")}
        covered = 0.0
        for i, (name, parent, start, end, outermost) in enumerate(self.spans):
            dur = end - start
            stats[f"{name}.calls"] += 1
            stats[f"{name}.self_s"] += dur - child_time[i]
            if outermost:
                stats[f"{name}.total_s"] += dur
            if parent < 0 and start >= pass_start:
                covered += dur
        stats["groebner.spair_zero_ratio"] = (
            self.spair_zero / self.spair_reduced if self.spair_reduced else 0.0
        )
        inserts = stats["linalg.RowSpace.insert.calls"]
        stats["linalg.insert_growth_ratio"] = (
            self.inserts_grown / inserts if inserts else 0.0
        )
        stats["linalg.nullspace.rows"] = self.nullspace_rows
        stats["linalg.nullspace.cols"] = self.nullspace_cols
        stats["trace.span_coverage"] = covered / (pass_end - pass_start)
        return stats

    def write(self, path, origin: float) -> None:
        """Spans as JSON lines ``[id, parent, name, start_s, end_s]``, with
        times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, _) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name,
                                     round(start - origin, 7),
                                     round(end - origin, 7)]) + "\n")


class CallCounter:
    """Bare call counts of the hot leaves in ``COUNTS``."""

    def __init__(self):
        self.counts: Counter = Counter()

    def install(self) -> None:
        for name, (module, attrs) in COUNTS.items():
            for attr in attrs:
                _rebind(module, attr, lambda fn, n=name: self._wrap(n, fn))

    def _wrap(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def stats(self) -> dict:
        return {f"{n}.calls": self.counts[n] for n in COUNTS}
