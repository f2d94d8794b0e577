"""Command-line front end: execute scripts against the library.

Usage: ``quotrel SCRIPT [--max-degree N] [--primes p,q] [--mode scheme|set]
[--budget N] [--format text|json]`` where SCRIPT is a file path or ``-`` for
stdin.  Exit codes: 0 all commands succeeded, 1 at least one check failed,
2 parse or usage error, 3 computation budget exceeded.
"""

import argparse
import json
import sys
from typing import NamedTuple

from .effectivity import CocycleData, check_cocycle, change_field, effectivity_test
from .eqrel import RelationPresentation, relation_from_group_action, relation_from_map, verify_relation
from .fields import GF, QQ
from .frobenius import frobenius_exponent
from .groebner import (
    BudgetExceededError,
    eliminate,
    groebner_basis,
    ideal_intersect,
    ideal_member,
    radical_member,
)
from .invariants import GroupAction, invariant_basis, orbit_symmetric_generators, reynolds_project
from .pinch import (
    PinchInput,
    pinch_generators,
    subalgebra_intersection_trunc,
    verify_pushout,
    verify_pushout_diagram,
)
from .poly import DEFAULT_BUDGET, GREVLEX, ParseError, PolyRing, budget
from .quotient import coequalizer_kernel_basis, noetherian_probe, present_subalgebra
from .ring import AmbientRing, RingMap, subalgebra_member_ring
from .script import ScriptError, parse_script

__all__ = ["main", "run_script", "CliError", "Report"]

REPORT_VERSION = 1


class CliError(Exception):
    """Execution-time failure with the exit code it should produce."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


class Report:
    """Accumulated command results plus the process exit status."""

    def __init__(self):
        self.blocks: list[dict] = []
        self.status = 0
        self.error: str | None = None

    def add(self, block: dict, failed: bool = False):
        """Record a block, the command's entry of the JSON ``results``."""
        self.blocks.append(block)
        if failed:
            self.status = max(self.status, 1)

    def render_text(self) -> str:
        out = []
        for b in self.blocks:
            out.append("$ " + b["command"])
            if b["inputs"]:
                out.append("inputs: " + ", ".join(b["inputs"]))
            for name, rows in b["tables"].items():
                if name:
                    out.append(name + ":")
                out.extend(rows)
            if b["verdict"] is not None:
                out.append("verdict: " + b["verdict"])
            out.append("")
        if self.error is not None:
            out.extend(["error: " + self.error, ""])
        return "\n".join(out)

    def render_json(self) -> str:
        doc = {"version": REPORT_VERSION, "status": self.status,
               "results": self.blocks}
        if self.error is not None:
            doc["error"] = self.error
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _a_or_an(kind: str) -> str:
    return ("an " if kind[0] in "aeiou" else "a ") + kind


def _split_top_commas(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return parts


class _Executor:
    def __init__(self, options):
        self.opt = options
        self.env: dict[str, tuple] = {}  # name -> (kind, value, desc)
        self.memo: dict[tuple, object] = {}
        self.report = Report()

    # -- environment ----------------------------------------------------------

    def bind(self, name: str, kind: str, value, desc: str):
        if name in self.env:
            raise CliError(f"name {name!r} is already declared")
        self.env[name] = (kind, value, desc)

    def lookup(self, name: str, kind: str):
        """The value of a declared name; a poly, ideal or algebra comes with
        its ring, as ``(value, ring)``."""
        if name not in self.env:
            raise CliError(f"undeclared name {name!r}")
        found, value, _ = self.env[name]
        if found != kind:
            raise CliError(f"{name!r} is {_a_or_an(found)}, expected {_a_or_an(kind)}")
        return value

    def describe(self, name: str) -> str:
        return f"{name} ({self.env[name][2]})"

    def once(self, key: tuple, compute):
        """``compute()``, evaluated once per run for each key: names are
        never rebound, and the degree bound and budget are fixed."""
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def bound_input(self) -> str:
        return f"degree bound {self.opt.max_degree}"

    def ring(self, name: str | None) -> AmbientRing:
        return self.lookup(self.ring_name(name), "ring")

    def ring_name(self, name: str | None) -> str:
        if name is not None:
            return name
        rings = [k for k, (kind, _, _) in self.env.items() if kind == "ring"]
        if len(rings) == 1:
            return rings[0]
        if not rings:
            raise CliError("no ring declared yet; write 'in <ring>'")
        raise CliError(
            "several rings are in scope; say which with 'in <ring>'"
        )

    def _named_element(self, ring: AmbientRing, text: str):
        """A bare declared-poly name used where an expression is expected."""
        word = text.strip()
        if word not in self.env or self.env[word][0] != "poly":
            return None
        if any(word in ring.poly_ring(c).names
               for c in range(ring.ncomponents)):
            return None  # ring variables shadow declared names
        el, owner = self.env[word][1]
        if owner is not ring:
            raise CliError(f"{word!r} lives in a different ring")
        return el

    def expr_input(self, ring: AmbientRing, text: str) -> str:
        """Provenance line for an expression slot: named input or inline."""
        if self._named_element(ring, text) is not None:
            return self.describe(text.strip())
        return f"{text} (inline)"

    def parse_poly(self, ring: AmbientRing, text: str):
        el = self._named_element(ring, text)
        if el is not None:
            if ring.ncomponents != 1:
                raise CliError(
                    "expected a one-component ring for a bare polynomial"
                )
            return el.parts[0]
        if ring.ncomponents == 1:
            return ring.poly_ring(0).parse(text)
        raise CliError("expected a one-component ring for a bare polynomial")

    def parse_element(self, ring: AmbientRing, text: str):
        el = self._named_element(ring, text)
        if el is not None:
            return el
        if ring.ncomponents == 1:
            return ring.embed(0, ring.poly_ring(0).parse(text))
        body = text.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise CliError(
                "elements of a product ring are written (p1, ..., pk)"
            )
        parts = _split_top_commas(body[1:-1])
        if len(parts) != ring.ncomponents:
            raise CliError(
                f"expected {ring.ncomponents} components, got {len(parts)}"
            )
        return ring.element(
            [ring.poly_ring(c).parse(p) for c, p in enumerate(parts)]
        )

    # -- declarations ----------------------------------------------------------

    def exec_ring(self, st):
        f = st.fields
        comps = []
        for c in f["components"]:
            field = QQ if c["field"] == "QQ" else GF(c["field"][1])
            pr = PolyRing(field, tuple(c["names"]), GREVLEX)
            q = [pr.parse(t) for t in c["quotient"]]
            comps.append((pr, q))
        ring = AmbientRing(comps)
        self.bind(f["name"], "ring", ring, f"ring {ring.render()}")

    def _bind_in_ring(self, st, desc: str, parse):
        """Bind ``st``'s name to ``(parse(ring), ring)``, in the ring its
        ``in`` clause names or the only ring declared."""
        rname = self.ring_name(st.fields["ring"])
        ring = self.ring(rname)
        self.bind(st.fields["name"], st.kind, (parse(ring), ring), f"{desc} {rname}")

    def exec_poly(self, st):
        self._bind_in_ring(st, "element of",
                           lambda ring: self.parse_element(ring, st.fields["expr"]))

    def exec_ideal(self, st):
        def preimage(ring):
            # an ideal I of k[x]/Q is presented by its preimage I + Q in k[x]
            if ring.is_product:
                raise CliError("ideals are declared in one-component rings")
            return [self.parse_poly(ring, t) for t in st.fields["exprs"]] + list(ring.q_gens(0))
        self._bind_in_ring(st, "ideal in", preimage)

    def exec_algebra(self, st):
        self._bind_in_ring(st, "algebra in",
                           lambda ring: [self.parse_element(ring, t) for t in st.fields["exprs"]])

    def exec_map(self, st):
        f = st.fields
        source = self.ring(f["source"])
        target = self.ring(f["target"])
        if source.ncomponents != 1 or target.ncomponents != 1:
            raise CliError("map declarations expect one-component rings")
        if len(f["exprs"]) != source.poly_ring(0).nvars:
            raise CliError("need one image per source variable")
        images = [target.poly_ring(0).parse(t) for t in f["exprs"]]
        m = RingMap.on_polys(source, target, images)
        if not m.is_well_defined():
            raise CliError(
                f"map {f['name']} does not respect the defining ideal"
            )
        self.bind(f["name"], "map", m,
                  f"map {f['source']} -> {f['target']}")

    def exec_action(self, st):
        f = st.fields
        ring = self.ring(f["ring"])
        if ring.ncomponents != 1:
            raise CliError("actions are declared on one-component rings")
        pr = ring.poly_ring(0)
        maps = []
        for images in f["tuples"]:
            if len(images) != pr.nvars:
                raise CliError("need one image per ring variable")
            maps.append(RingMap.on_polys(ring, ring,
                                         [pr.parse(t) for t in images]))
        action = GroupAction(ring, maps)
        action.validate()
        self.bind(f["name"], "action", action,
                  f"group action on {f['ring']} of order {action.order}")

    def exec_relation(self, st):
        f = st.fields
        ring = self.ring(f["ring"])
        if f["how"] == "from-map":
            pr = ring.poly_ring(0)
            rel = relation_from_map(ring, [pr.parse(t) for t in f["exprs"]])
        elif f["how"] == "from-action":
            action = self.lookup(f["action"], "action")
            if action.ring is not ring:
                other = next(n for n, (kind, value, _) in self.env.items()
                             if kind == "ring" and value is action.ring)
                raise CliError(f"action {f['action']} is declared on {other}, not on {f['ring']}")
            rel = relation_from_group_action(action)
        else:
            probe = RelationPresentation(ring, [])
            gens = [probe.doubled.parse(t) for t in f["exprs"]]
            rel = RelationPresentation(ring, gens)
        self.bind(f["name"], "relation", rel,
                  f"relation on {f['ring']} ({f['how']})")

    def exec_cocycle(self, st):
        f = st.fields
        ring = self.ring(f["ring"])
        pr = ring.poly_ring(0)
        data = CocycleData(ring, [pr.parse(t) for t in f["maps"]], f["poly"])
        data.validate()
        self.bind(f["name"], "cocycle", data,
                  f"cocycle data on {f['ring']}, degree {data.degree}")

    def exec_pinchinput(self, st):
        f = st.fields
        ring = self.ring(f["ring"])
        inp = PinchInput(
            ring,
            iz_gens=[self.parse_element(ring, t) for t in f["ideal"]],
            s_lifts=[self.parse_element(ring, t) for t in f["sub"]],
            module_gens=[self.parse_element(ring, t) for t in f["module"]],
        )
        self.bind(f["name"], "pinchinput", inp,
                  f"gluing data on {f['ring']}")

    # -- commands ---------------------------------------------------------------

    def block(self, st, inputs, tables, verdict=None, witnesses=(),
              failed=False):
        self.report.add({"command": st.render(), "inputs": list(inputs),
                         "tables": tables, "verdict": verdict,
                         "witnesses": list(witnesses)}, failed)

    def _in_one_ring(self, kind: str, names, what: str):
        """The values of the declared ``names`` of ``kind``, and their one
        ring."""
        found = [self.lookup(n, kind) for n in names]
        ring = found[0][1]
        if any(other is not ring for _, other in found):
            raise CliError(f"{what} live in different rings")
        return [value for value, _ in found], ring

    def _free_algebras(self, names, what: str, runs: str):
        """The generators of the declared algebras ``names`` as polynomials
        of their one free polynomial ring."""
        gens, ring = self._in_one_ring("algebra", names, what)
        if ring.ncomponents != 1 or ring.q_gens(0):
            raise CliError(f"{runs} in a free polynomial ring")
        return [[g.parts[0] for g in gs] for gs in gens]

    @staticmethod
    def _basis_rows(gb):
        """One row per element, each in its own ring: an elimination basis
        lives in the ring without the dropped variables."""
        return [g.ring.render(g) for g in gb] or ["(zero ideal)"]

    @staticmethod
    def _truncation_rows(trunc):
        return trunc.render_basis().splitlines() + [f"dimensions by degree: {trunc.dims()}"]

    def exec_groebner(self, st):
        name = st.fields["ideal"]
        polys, _ = self.lookup(name, "ideal")
        self.block(st, [self.describe(name)],
                   {"reduced basis": self._basis_rows(groebner_basis(polys))})

    def exec_check(self, st):
        f = st.fields
        name, op = f["target"], f["op"]
        witnesses = []
        if op == "subalgebra-member":
            gens, ring = self.lookup(name, "algebra")
            el = self.parse_element(ring, f["expr"])
            ok, cert = subalgebra_member_ring(el, gens)
            rows = []
            if ok:
                rows.append("certificate: " + cert.ring.render(cert))
                witnesses.append(cert.ring.render(cert))
        else:
            polys, ring = self.lookup(name, "ideal")
            g = self.parse_poly(ring, f["expr"])
            if op == "member":
                ok = ideal_member(g, groebner_basis(polys))
            else:
                ok = radical_member(g, polys)
            rows = []
        self.block(
            st, [self.describe(name), self.expr_input(ring, f["expr"])],
            {"": rows} if rows else {},
            verdict="member" if ok else "not-member",
            witnesses=witnesses,
            failed=not ok,
        )

    def exec_intersect(self, st):
        f = st.fields
        (pa, pb), _ = self._in_one_ring("ideal", (f["a"], f["b"]), "ideals")
        self.block(st, [self.describe(f["a"]), self.describe(f["b"])],
                   {"intersection basis": self._basis_rows(ideal_intersect(pa, pb))})

    def exec_eliminate(self, st):
        f = st.fields
        polys, ring = self.lookup(f["ideal"], "ideal")
        pr = ring.poly_ring(0)
        drop = []
        for nm in f["names"]:
            if nm not in pr.names:
                raise CliError(f"{nm!r} is not a variable of the ring")
            drop.append(pr.names.index(nm))
        self.block(st, [self.describe(f["ideal"])],
                   {"elimination basis": self._basis_rows(eliminate(polys, drop))})

    def exec_present(self, st):
        f = st.fields
        gens, _ = self.lookup(f["algebra"], "algebra")
        names = f["names"] or None
        out_ring, ideal = present_subalgebra(gens, names=names)
        rows = [
            "generators named: " + ", ".join(out_ring.names),
            "relations: "
            + (", ".join(out_ring.render(g) for g in ideal) if ideal
               else "(0)"),
        ]
        self.block(st, [self.describe(f["algebra"])], {"presentation": rows})

    def exec_verify_relation(self, st):
        name = st.fields["relation"]
        rel = self.lookup(name, "relation")
        rep = verify_relation(rel, mode=self.opt.mode)
        witnesses = [
            w.ring.render(w) for w in rep.witnesses.values() if w is not None
        ]
        self.block(
            st, [self.describe(name), f"mode={self.opt.mode}"],
            {"": rep.render().splitlines()},
            verdict="pass" if rep.all_pass else "fail",
            witnesses=witnesses,
            failed=not rep.all_pass,
        )

    def _source(self, ref):
        """A kernel command's source and its input lines."""
        names = ref[1:]
        if ref[0] == "rel":
            source = self.lookup(names[0], "relation")
        else:
            source = tuple(self.lookup(n, "map") for n in names)
        return source, [self.describe(n) for n in names] + [self.bound_input()]

    def _kernel(self, ref):
        """The source's truncated kernel."""
        return self.once(ref, lambda: coequalizer_kernel_basis(
            self._source(ref)[0], self.opt.max_degree))

    def exec_kernel_basis(self, st):
        _, inputs = self._source(st.fields["source"])
        self.block(st, inputs, {"kernel basis": self._truncation_rows(
            self._kernel(st.fields["source"]))})

    def exec_min_generators(self, st):
        _, inputs = self._source(st.fields["source"])
        gens = self._kernel(st.fields["source"]).minimal_generators()
        rows = [f"degree {e}: {el.render()}" for el, e in gens]
        self.block(st, inputs, {"minimal generators": rows})

    def exec_probe(self, st):
        ref = st.fields["source"]
        source, inputs = self._source(ref)
        d = self.opt.max_degree
        # below degree 2 the probe refuses before any kernel is computed
        rep = noetherian_probe(self._kernel(ref) if d >= 2 else source, d)
        self.block(st, inputs, {"generator growth": rep.render().splitlines()})

    def exec_invariant_basis(self, st):
        name = st.fields["action"]
        action = self.lookup(name, "action")
        per_degree = invariant_basis(action, self.opt.max_degree)
        pr = action.ring.poly_ring(0)
        rows = []
        for e, basis in enumerate(per_degree):
            if basis:
                rows.append(
                    f"degree {e}: " + ", ".join(pr.render(b) for b in basis)
                )
        self.block(st, [self.describe(name), self.bound_input()], {"invariants": rows})

    def exec_reynolds(self, st):
        f = st.fields
        action = self.lookup(f["action"], "action")
        pr = action.ring.poly_ring(0)
        g = reynolds_project(self.parse_poly(action.ring, f["expr"]), action)
        self.block(st, [self.describe(f["action"]),
                        self.expr_input(action.ring, f["expr"])],
                   {"": ["projection: " + pr.render(g)]})

    def exec_orbit_equation(self, st):
        f = st.fields
        action = self.lookup(f["action"], "action")
        pr = action.ring.poly_ring(0)
        sigmas, equation = orbit_symmetric_generators(
            self.parse_poly(action.ring, f["expr"]), action
        )
        rows = [
            f"sigma_{j + 1} = {pr.render(s)}" for j, s in enumerate(sigmas)
        ]
        rows.append("equation: " + equation.ring.render(equation) + " = 0")
        self.block(st, [self.describe(f["action"]),
                        self.expr_input(action.ring, f["expr"])],
                   {"orbit equation": rows})

    def exec_check_cocycle(self, st):
        name = st.fields["cocycle"]
        data = self.lookup(name, "cocycle")
        ok = check_cocycle(data)
        self.block(st, [self.describe(name)], {},
                   verdict="cocycle" if ok else "not-cocycle",
                   failed=not ok)

    def exec_effectivity(self, st):
        name = st.fields["cocycle"]
        data = self.lookup(name, "cocycle")
        tables = {}
        fields = [data.ambient.field]
        if data.ambient.field.characteristic == 0:
            fields += [GF(p) for p in self.opt.primes]
        inputs = [self.describe(name),
                  "primes " + ",".join(str(p) for p in self.opt.primes)]
        verdicts = []
        for fld in fields:
            try:
                d = data if fld == data.ambient.field else change_field(data, fld)
            except ZeroDivisionError as e:
                # keep the tables already computed, without a verdict
                self.block(st, inputs, tables)
                raise CliError(f"cannot rerun over {fld!r}: {e}") from e
            rep = effectivity_test(d)
            tables[f"over {fld!r}"] = rep.render().splitlines()
            verdicts.append(rep.verdict)
        verdict = verdicts[0] if len(set(verdicts)) == 1 else "mixed"
        self.block(st, inputs, tables, verdict=verdict)

    def _pinch(self, name, names=None):
        """The pinch of a declared input, for each ``names``."""
        return self.once(("pinch", name, names), lambda: pinch_generators(
            self.lookup(name, "pinchinput"), self.opt.max_degree, names=names))

    def exec_pinch(self, st):
        name = st.fields["pinchinput"]
        res = self._pinch(name, tuple(st.fields["names"]) or None)
        self.block(st, [self.describe(name), self.bound_input()],
                   {"": res.render().splitlines()})

    def exec_verify_pushout(self, st):
        f = st.fields
        if "pinchinput" not in f:
            names = f["a"], f["b"], f["c"]
            rep = verify_pushout_diagram(
                *self._free_algebras(names, "diagram algebras", "diagram checks run"),
                self.opt.max_degree)
            inputs = [self.describe(n) for n in names]
        else:
            name = f["pinchinput"]
            rep = verify_pushout(self.lookup(name, "pinchinput"),
                                 self._pinch(name), self.opt.max_degree)
            inputs = [self.describe(name)]
        wit = rep.witness()
        lines = [ln for ln in rep.render().splitlines() if not ln.startswith("verdict:")]
        self.block(
            st, inputs + [self.bound_input()],
            {"": lines},
            verdict="push-out" if rep.passed else "not-push-out",
            witnesses=[wit.render()] if wit is not None else [],
            failed=not rep.passed,
        )

    def exec_subalgebra_intersection(self, st):
        names = st.fields["a"], st.fields["b"]
        trunc = subalgebra_intersection_trunc(
            *self._free_algebras(names, "algebras", "intersection runs"),
            self.opt.max_degree)
        self.block(st, [self.describe(n) for n in names] + [self.bound_input()],
                   {"intersection basis": self._truncation_rows(trunc)})

    def exec_frobenius_exponent(self, st):
        f = st.fields
        (sub, alg), _ = self._in_one_ring("algebra", (f["sub"], f["alg"]), "algebras")
        rmax = f["rmax"] if f["rmax"] is not None else 8
        w = frobenius_exponent(sub, alg, r_max=rmax)
        if w is None:
            rows = [f"no exponent found with r <= {rmax}"]
            verdict = "not-found"
        else:
            rows = w.render().splitlines()
            verdict = "found"
        self.block(st, [self.describe(f["sub"]), self.describe(f["alg"]),
                        f"rmax {rmax}"],
                   {"": rows}, verdict=verdict)

    def exec_evaluate(self, st):
        f = st.fields
        m = self.lookup(f["map"], "map")
        el = self.parse_element(m.source, f["expr"])
        out = m.apply(el)
        self.block(st, [self.describe(f["map"]),
                        self.expr_input(m.source, f["expr"])],
                   {"": ["image: " + out.render()]})

    def exec_derivative(self, st):
        f = st.fields
        ring = self.ring(f["ring"])
        pr = ring.poly_ring(0)
        if f["var"] not in pr.names:
            raise CliError(f"{f['var']!r} is not a variable of the ring")
        g = self.parse_poly(ring, f["expr"]).derivative(
            pr.names.index(f["var"])
        )
        self.block(st, [self.expr_input(ring, f["expr"]),
                        self.describe(f["ring"])],
                   {"": ["derivative: " + pr.render(g)]})

    def exec_monomials(self, st):
        f = st.fields
        ring = self.ring(f["ring"])
        if ring.ncomponents != 1:
            raise CliError("monomials are listed for one-component rings")
        pr = ring.poly_ring(0)
        rows = [
            pr.render(pr.monomial(m))
            for m in pr.monomials_up_to_degree(f["degree"])
        ]
        self.block(st, [self.describe(f["ring"])],
                   {f"monomials up to degree {f['degree']}": rows})

    # -- driver -----------------------------------------------------------------

    def run(self, script) -> Report:
        """Execute every statement under the run's budget.  A failing
        statement is recorded in the report, which keeps the blocks of the
        statements before it, and raised as a :class:`CliError`."""
        limit = DEFAULT_BUDGET if self.opt.budget is None else self.opt.budget
        with budget(limit):
            for st in script.statements:
                handler = getattr(self, "exec_" + st.kind.replace("-", "_"))
                try:
                    handler(st)
                except CliError as e:
                    self.fail(st, e, e.code)
                except BudgetExceededError as e:
                    self.fail(st, e, 3)
                except (ParseError, ValueError) as e:
                    self.fail(st, e, 2)
        return self.report

    def fail(self, st, err: Exception, code: int):
        self.report.error = f"line {st.line}: {err}"
        self.report.status = code
        raise CliError(self.report.error, code) from err


class _Options(NamedTuple):
    """The run's settings; a ``budget`` of ``None`` is ``DEFAULT_BUDGET``."""

    max_degree: int = 10
    primes: tuple = (2, 3, 5)
    mode: str = "scheme"
    budget: int | None = None


def run_script(script, options=None) -> Report:
    """Execute a parsed script; raises :class:`CliError` on failures that are
    not mere check verdicts."""
    ex = _Executor(options or _Options())
    return ex.run(script)


def _parse_primes(text: str):
    try:
        primes = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError("primes must be integers")
    if not primes:
        raise argparse.ArgumentTypeError("need at least one prime")
    if len(set(primes)) != len(primes):
        raise argparse.ArgumentTypeError(f"repeated prime in {text!r}")
    try:
        for p in primes:
            GF(p)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))
    return primes


def _nonnegative(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    if not text.strip().isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="quotrel",
        description="Run a quotrel script and print its report.",
    )
    defaults = _Options()
    ap.add_argument("script", help="script file, or - for stdin")
    ap.add_argument("--max-degree", type=_nonnegative, default=defaults.max_degree,
                    help="truncation degree for graded computations")
    ap.add_argument("--primes", type=_parse_primes, default=defaults.primes,
                    help="comma-separated primes for characteristic reruns")
    ap.add_argument("--mode", choices=("scheme", "set"), default=defaults.mode,
                    help="equivalence-relation checking mode")
    ap.add_argument("--budget", type=_positive, default=defaults.budget,
                    help="cap on S-pair reductions per basis computation "
                         f"and on monomials per enumeration (default {DEFAULT_BUDGET})")
    ap.add_argument("--format", choices=("text", "json"), default="text",
                    dest="format_", metavar="{text,json}",
                    help="report format")
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    try:
        if args.script == "-":
            text = sys.stdin.read()
        else:
            with open(args.script, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    options = _Options(max_degree=args.max_degree, primes=args.primes,
                       mode=args.mode, budget=args.budget)
    try:
        script = parse_script(text)
    except ScriptError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    ex = _Executor(options)
    try:
        ex.run(script)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
    report = ex.report
    out = report.render_json() if args.format_ == "json" else report.render_text()
    sys.stdout.write(out)
    return report.status


if __name__ == "__main__":
    sys.exit(main())
