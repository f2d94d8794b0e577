"""Parser for the little declarative language driving the command line.

A script is a sequence of semicolon-terminated statements.  Declarations
bind names to rings, elements, ideals, algebras, maps, actions, relations,
cocycle data, and gluing data; commands invoke the library on those names.
Comments run from ``#`` to end of line.  Polynomial expressions are kept as
raw text in the AST and only interpreted during execution, inside the ring
they refer to, so the expression grammar is exactly the library's polynomial
parser (integers, rationals, ``+ - * ^``, parentheses).

The concrete grammar is the statement table :data:`GRAMMAR`, read by one
generic parser and one generic renderer (``README.md`` lists every form);
``parse_script`` returns a :class:`Script` whose rendering reparses to an
equal AST.
"""

import re
from typing import NamedTuple

__all__ = ["ScriptError", "Statement", "Script", "Form", "GRAMMAR",
           "parse_script"]


class ScriptError(ValueError):
    """Parse-time diagnostic with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int
    pos: int


# The token table: the first alternative that matches at a position wins.
_TOKENS = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in [
    ("name", r"[^\W\d](?:[\w-]*\w)?"),  # a trailing hyphen is an operator
    ("int", r"\d+"),
    ("punct", r"->|[\[\]()=,;:|/*+^-]"),
    ("newline", r"\n"),
    ("skip", r"[ \t\r]+|#.*"),
    ("bad", r"."),
]))


def _tokenize(text: str) -> list[_Token]:
    out, line, line_start = [], 1, 0
    for m in _TOKENS.finditer(text):
        kind, pos = m.lastgroup, m.start()
        if kind == "newline":
            line, line_start = line + 1, pos + 1
        elif kind == "bad":
            raise ScriptError(f"unexpected character {m.group()!r}", line, pos - line_start + 1)
        elif kind != "skip":
            out.append(_Token(kind, m.group(), line, pos - line_start + 1, pos))
    return out


def _render_ring(components) -> str:
    parts = []
    for c in components:
        head = "QQ" if c["field"] == "QQ" else f"FF({c['field'][1]})"
        part = f"{head}[{', '.join(c['names'])}]"
        if c["quotient"]:
            part += f" / ({', '.join(c['quotient'])})"
        parts.append(part)
    return " * ".join(parts)


# Slot types: type -> (parse(parser, field, stops), render(value)).
_SLOTS = {
    "name": (lambda p, key, stops: p.take_name(f"name for {{{key}}}"), str),
    "int": (lambda p, key, stops: p.take_int(), str),
    "expr": (lambda p, key, stops: p.take_expr(stops), str),
    "list": (lambda p, key, stops: p.take_expr_list(),
             lambda v: f"({', '.join(v)})"),
    "names": (lambda p, key, stops: p.take_name_list(), ", ".join),
    "ring": (lambda p, key, stops: p.take_ring(), _render_ring),
    "tuples": (lambda p, key, stops: p.take_tuples(),
               lambda v: f"({' | '.join(', '.join(t) for t in v)})"),
    "source": (lambda p, key, stops: p.take_source(),
               lambda v: v[1] if v[0] == "rel" else f"({v[1]}, {v[2]})"),
}

_PIECE = re.compile(r"\[[^\]]*\]|\S+")


class Form:
    """One way to write a statement kind.

    The template is a sequence of space-separated pieces: a literal word or
    punctuation, a slot ``{field}`` holding a name or ``{field:type}``
    holding a value of another slot type (``int``, ``expr``, ``list`` of
    expressions in parentheses, comma-separated ``names``, ``ring``
    components, action ``tuples``, or a relation-or-``(map, map)``
    ``source``), or an optional clause ``[...]`` that starts with a literal
    word.  A field of an absent clause is ``[]`` for ``names`` and ``None``
    otherwise.  Keyword arguments are constant fields the form sets; they
    tell apart forms of one kind that have the same slots.
    """

    def __init__(self, template: str, **consts):
        self.template = template
        self.consts = consts
        self.slots: list[tuple[str, str, bool]] = []  # (field, type, optional)
        self.items = self._compile(_PIECE.findall(template), False)
        self.keys = {key for key, _, _ in self.slots} | set(consts)

    def _compile(self, pieces, optional):
        items = []
        for i, piece in enumerate(pieces):
            if piece.startswith("["):
                first = len(self.slots)
                clause = self._compile(piece[1:-1].split(), True)
                defaults = {key: [] if kind == "names" else None
                            for key, kind, _ in self.slots[first:]}
                items.append(("opt", clause, defaults))
            elif piece.startswith("{"):
                key, _, kind = piece[1:-1].partition(":")
                kind = kind or "name"
                self.slots.append((key, kind, optional))
                # an expression runs up to the literal word that follows it
                after = pieces[i + 1].lstrip("[").split()[0] if i + 1 < len(pieces) else ""
                stops = (after,) if after[:1].isalpha() else ()
                items.append(("slot", key, kind, stops))
            else:
                items.append(("word", piece))
        return items

    def matches(self, fields: dict) -> bool:
        return fields.keys() == self.keys and all(
            fields[k] == v for k, v in self.consts.items())

    def parse(self, p: "_Parser", items=None, fields=None) -> dict:
        fields = dict(self.consts) if fields is None else fields
        for item in self.items if items is None else items:
            if item[0] == "word":
                p.expect(item[1])
            elif item[0] == "slot":
                _, key, kind, stops = item
                fields[key] = _SLOTS[kind][0](p, key, stops)
            elif p.at(item[1][0][1]):
                self.parse(p, item[1], fields)
            else:
                fields.update(item[2])
        return fields

    def render(self, fields: dict, items=None) -> str:
        out = []
        for item in self.items if items is None else items:
            if item[0] == "word":
                out.append(item[1])
            elif item[0] == "slot":
                out.append(_SLOTS[item[2]][1](fields[item[1]]))
            elif any(fields[k] != absent for k, absent in item[2].items()):
                out.append(self.render(fields, item[1]))
        return " ".join(out)


# Every statement kind and its forms.  Declarations (the kinds that bind a
# ``{name}``) come first; a command kind also needs a ``cli`` executor.
GRAMMAR = {
    "ring": [Form("ring {name} = {components:ring}")],
    "poly": [Form("poly {name} = {expr:expr} [in {ring}]")],
    "ideal": [Form("ideal {name} = {exprs:list} [in {ring}]")],
    "algebra": [Form("algebra {name} = {exprs:list} [in {ring}]")],
    "map": [Form("map {name} : {source} -> {target} = {exprs:list}")],
    "action": [Form("action {name} on {ring} = {tuples:tuples}")],
    "relation": [
        Form("relation {name} on {ring} = from-map {exprs:list}", how="from-map"),
        Form("relation {name} on {ring} = from-action {action}", how="from-action"),
        Form("relation {name} on {ring} = {exprs:list}", how="explicit"),
    ],
    "cocycle": [Form("cocycle {name} on {ring} = maps {maps:list} poly {poly:expr}")],
    "pinchinput": [Form("pinchinput {name} in {ring} = "
                        "ideal {ideal:list} sub {sub:list} module {module:list}")],
    "groebner": [Form("groebner {ideal}")],
    "check": [
        Form("check {target} member {expr:expr}", op="member"),
        Form("check {target} radical-member {expr:expr}", op="radical-member"),
        Form("check {target} subalgebra-member {expr:expr}", op="subalgebra-member"),
    ],
    "intersect": [Form("intersect {a} {b}")],
    "eliminate": [Form("eliminate {ideal} drop {names:names}")],
    "present": [Form("present {algebra} [names {names:names}]")],
    "verify-relation": [Form("verify-relation {relation}")],
    "kernel-basis": [Form("kernel-basis {source:source}")],
    "min-generators": [Form("min-generators {source:source}")],
    "probe": [Form("probe {source:source}")],
    "invariant-basis": [Form("invariant-basis {action}")],
    "reynolds": [Form("reynolds {action} {expr:expr}")],
    "orbit-equation": [Form("orbit-equation {action} {expr:expr}")],
    "check-cocycle": [Form("check-cocycle {cocycle}")],
    "effectivity": [Form("effectivity {cocycle}")],
    "pinch": [Form("pinch {pinchinput} [names {names:names}]")],
    "verify-pushout": [
        Form("verify-pushout diagram {a} {b} {c}"),
        Form("verify-pushout {pinchinput}"),
    ],
    "subalgebra-intersection": [Form("subalgebra-intersection {a} {b}")],
    "frobenius-exponent": [Form("frobenius-exponent {sub} {alg} [rmax = {rmax:int}]")],
    "evaluate": [Form("evaluate {map} {expr:expr}")],
    "derivative": [Form("derivative {expr:expr} wrt {var} in {ring}")],
    "monomials": [Form("monomials {ring} degree {degree:int}")],
}

DECL_KINDS = tuple(k for k, forms in GRAMMAR.items() if "name" in forms[0].keys)
COMMAND_KINDS = tuple(k for k in GRAMMAR if k not in DECL_KINDS)


class Statement:
    """One parsed statement: a kind tag plus its fields."""

    def __init__(self, kind: str, fields: dict, line: int):
        self.kind = kind
        self.fields = fields
        self.line = line

    def __eq__(self, other):
        return (
            isinstance(other, Statement)
            and self.kind == other.kind
            and self.fields == other.fields
        )

    def __repr__(self):
        return f"Statement({self.kind}, {self.fields})"

    def render(self) -> str:
        for form in GRAMMAR[self.kind]:
            if form.matches(self.fields):
                return form.render(self.fields)
        raise AssertionError(f"no {self.kind} form has the fields {self.fields}")


class Script:
    def __init__(self, statements: list[Statement]):
        self.statements = statements

    def __eq__(self, other):
        return isinstance(other, Script) and self.statements == other.statements

    def render(self) -> str:
        return "".join(s.render() + ";\n" for s in self.statements)


class _Parser:
    def __init__(self, text: str, tokens: list[_Token], end_pos: int):
        self.text = text
        self.toks = tokens
        self.pos = 0
        self.end_pos = end_pos
        self.far, self.wanted = -1, []  # literal words expected at token far

    # -- primitives -----------------------------------------------------------

    def error(self, message: str):
        if self.pos < len(self.toks):
            t = self.toks[self.pos]
            raise ScriptError(message, t.line, t.col)
        if self.toks:
            t = self.toks[-1]
            raise ScriptError(message + " (at end of input)", t.line,
                              t.col + len(t.text))
        raise ScriptError(message + " (at end of input)", 1, 1)

    def done(self) -> bool:
        return self.pos >= len(self.toks)

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        if self.done():
            self.error("unexpected end of statement")
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str):
        t = self.take()
        if t.text != text:
            self.pos -= 1
            # the forms of a kind that fail at one token pool their words
            if self.pos != self.far:
                self.far, self.wanted = self.pos, []
            self.wanted.append(repr(text))
            self.error(f"expected {' or '.join(self.wanted)}, found {t.text!r}")
        return t

    def take_name(self, what="name"):
        t = self.take()
        if t.kind != "name":
            self.pos -= 1
            self.error(f"expected {what}, found {t.text!r}")
        return t.text

    def take_int(self) -> int:
        t = self.take()
        if t.kind != "int":
            self.pos -= 1
            self.error(f"expected integer, found {t.text!r}")
        return int(t.text)

    def at(self, text: str) -> bool:
        t = self.peek()
        return t is not None and t.text == text

    # -- slot values ----------------------------------------------------------

    def _span_text(self, start_idx: int, stop_idx: int) -> str:
        if start_idx >= stop_idx:
            self.error("empty expression")
        a = self.toks[start_idx].pos
        if stop_idx < len(self.toks):
            b = self.toks[stop_idx].pos
        else:
            b = self.end_pos
        return self.text[a:b].strip()

    def take_expr(self, stops=()) -> str:
        """Consume tokens up to a top-level stop word, comma, or ')'."""
        start = self.pos
        depth = 0
        while not self.done():
            t = self.peek()
            if depth == 0 and (
                (t.kind == "punct" and t.text in (",", ")", "|"))
                or (t.kind == "name" and t.text in stops)
            ):
                break
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
            self.pos += 1
        return self._span_text(start, self.pos)

    def take_expr_list(self) -> list[str]:
        """Parenthesized, comma-separated expressions (possibly empty)."""
        self.expect("(")
        out = []
        if self.at(")"):
            self.take()
            return out
        while True:
            out.append(self.take_expr())
            t = self.take()
            if t.text == ")":
                return out
            if t.text != ",":
                self.pos -= 1
                self.error("expected ',' or ')'")

    def take_name_list(self) -> list[str]:
        names = [self.take_name()]
        while self.at(","):
            self.take()
            names.append(self.take_name())
        return names

    def take_ring(self) -> list[dict]:
        comps = [self._ring_component()]
        while self.at("*"):
            self.take()
            comps.append(self._ring_component())
        return comps

    def _ring_component(self):
        fld = self.take_name("field")
        if fld == "QQ":
            field = "QQ"
        elif fld == "FF":
            self.expect("(")
            p = self.take_int()
            self.expect(")")
            field = ("FF", p)
        else:
            self.pos -= 1
            self.error("expected field QQ or FF(p)")
        self.expect("[")
        names = self.take_name_list()
        self.expect("]")
        quotient = []
        if self.at("/"):
            self.take()
            quotient = self.take_expr_list()
        return {"field": field, "names": names, "quotient": quotient}

    def take_tuples(self) -> list[list[str]]:
        self.expect("(")
        tuples = [[]]
        while True:
            tuples[-1].append(self.take_expr())
            t = self.take()
            if t.text == ")":
                return tuples
            if t.text == "|":
                tuples.append([])
            elif t.text != ",":
                self.pos -= 1
                self.error("expected ',', '|', or ')'")

    def take_source(self):
        if self.at("("):
            self.take()
            a = self.take_name("map name")
            self.expect(",")
            b = self.take_name("map name")
            self.expect(")")
            return ("pair", a, b)
        return ("rel", self.take_name("relation name"))

    # -- statements -----------------------------------------------------------

    def parse_statement(self) -> Statement:
        head = self.peek()
        forms = GRAMMAR.get(self.take_name("statement keyword"))
        if forms is None:
            self.pos -= 1
            self.error(f"unknown statement keyword {head.text!r}")
        furthest = None
        for form in forms:
            self.pos = 0
            try:
                fields = form.parse(self)
                if not self.done():
                    self.error("unexpected trailing input in statement")
                return Statement(head.text, fields, head.line)
            except ScriptError as e:
                if furthest is None or (e.line, e.col) >= (furthest.line, furthest.col):
                    furthest = e
        raise furthest


def parse_script(text: str) -> Script:
    """Parse source text into a :class:`Script`, or raise :class:`ScriptError`."""
    tokens = _tokenize(text)
    statements = []
    start = 0
    for i, t in enumerate(tokens):
        if t.kind == "punct" and t.text == ";":
            chunk = tokens[start:i]
            if not chunk:
                raise ScriptError("empty statement", t.line, t.col)
            sub = _Parser(text, chunk, t.pos)
            statements.append(sub.parse_statement())
            start = i + 1
    if start < len(tokens):
        last = tokens[-1]
        raise ScriptError(
            "unterminated statement (missing ';') at end of input",
            last.line, last.col + len(last.text),
        )
    return Script(statements)
