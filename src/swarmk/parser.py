"""Parser for the .mas model language.

Grammar (whitespace and #-comments insignificant)::

    model   := stmt*
    stmt    := "param" IDENT "=" expr domain?
             | "state" IDENT "=" expr
             | "env"   IDENT "=" expr
             | "synchronous"
             | "rate" "(" expr ")" ":" IDENT "->" IDENT effects?
    domain  := "in" ("(" | "[") bound "," bound (")" | "]")
    bound   := "-"? (NUMBER | "inf")
    effects := ";" effect ("," effect)*
    effect  := IDENT ("+="|"-=") expr
    expr    := term  (("+"|"-") term)*
    term    := factor (("*"|"/") factor)*
    factor  := "-" factor | primary
    primary := NUMBER | IDENT | call | "(" expr ")"
    call    := ("exp"|"ln"|"step") "(" expr ")"
             | ("delay"|"histint") "(" expr "," expr ")"

Identifiers are case-sensitive.  Reserved words: param, state, env,
synchronous, rate, in, inf, exp, ln, step, delay, histint, t, N0.
Numbers are decimal with an optional exponent.  An initializer may
reference earlier params; one that is not a (negated) number is derived:
kept in ``StateDiagram.derived`` and evaluated again by ``with_params``.
A domain (``param rg = 0.35 in (0, 1]``; a round bracket leaves its end
out, a square one keeps it) is kept in ``StateDiagram.domains``: the
file's value must lie in it, and so must every value ``with_params``
sets or derives.  ``synchronous`` sets ``StateDiagram.discrete``
(difference semantics).

The file is read in one pass, straight into the diagram, and a bad file
raises the first error in file order, with its line:col: a name is
checked at the token that declares or uses it.  Two kinds come out of
order: a lexical error comes first (the text is tokenized whole), and an
unknown identifier in a rate or effect comes last, as a rate may use a
name declared further down.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .diagram import (StateDiagram, Transition, check_param, domain_source,
                      effect_source)
from .errors import LexError, ParseError, SemanticError
from .expr import (_PREC, BINARY_CALLS, MAX_DEPTH, MAX_HISTORY, UNARY_CALLS,
                   BinOp, Call, Name, Neg, Num, depth, eval_expr,
                   format_number, nodes, unparse)

RESERVED = {"param", "state", "env", "synchronous", "rate", "in", "inf", "t",
            "N0", *UNARY_CALLS, *BINARY_CALLS}

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<num>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>\+=|-=|->|[()\[\]+\-*/=:;,])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str  # 'num' | 'ident' | 'op' | 'eof'
    text: str
    line: int
    col: int


def tokenize(src):
    tokens = []
    line, col, pos = 1, 1, 0
    n = len(src)
    while pos < n:
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise LexError(f"unexpected character {src[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(text)
        else:
            tokens.append(Token(kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    """Reads the tokens once, straight into the diagram's parts."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.decls = {"param": {}, "state": {}, "env": {}}  # name -> value
        self.derived = []
        self.domains = {}
        self.transitions = []
        self.discrete = False
        self.nesting = 0  # factors open around the cursor

    @property
    def cur(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.cur
        self.i += 1
        return tok

    def fail(self, expected):
        tok = self.cur
        got = tok.text if tok.kind != "eof" else "end of input"
        raise ParseError(f"expected {expected}, got {got!r}", tok.line, tok.col)

    def at_op(self, text):
        return self.cur.kind == "op" and self.cur.text == text

    def expect_op(self, *texts):
        if self.cur.kind == "op" and self.cur.text in texts:
            return self.advance()
        self.fail(" or ".join(f"'{t}'" for t in texts))

    def expect_ident(self):
        if self.cur.kind == "ident" and self.cur.text not in RESERVED:
            return self.advance()
        if self.cur.kind == "ident":
            tok = self.cur
            raise ParseError(f"reserved word {tok.text!r} cannot be used as a name",
                             tok.line, tok.col)
        self.fail("identifier")

    def at_keyword(self, word):
        return self.cur.kind == "ident" and self.cur.text == word

    # -- statements ------------------------------------------------------

    def parse_model(self, origin):
        while self.cur.kind != "eof":
            kw = self.cur.text if self.cur.kind == "ident" else None
            if kw in self.decls:
                self.parse_decl(kw)
            elif kw == "rate":
                self.parse_trans()
            elif kw == "synchronous":
                self.advance()
                self.discrete = True
            else:
                self.fail("'param', 'state', 'env', 'synchronous' or 'rate'")
        return StateDiagram(
            states=tuple(self.decls["state"].items()),
            env_vars=tuple(self.decls["env"].items()),
            params=self.decls["param"], transitions=tuple(self.transitions),
            discrete=self.discrete, name=origin, derived=tuple(self.derived),
            domains=self.domains)

    def parse_decl(self, kw):
        self.advance()
        tok = self.expect_ident()
        name = tok.text
        if any(name in names for names in self.decls.values()):
            raise SemanticError(f"duplicate name {name!r}", tok.line, tok.col)
        self.expect_op("=")
        value = self.parse_expr()
        v = _literal(value)
        if v is None:
            try:
                v = eval_expr(value, self.decls["param"])
            except Exception as exc:
                raise SemanticError(
                    f"initializer for {name!r} is not constant: {exc}",
                    tok.line, tok.col) from None
            self.derived.append((name, value))
        if kw == "param" and self.at_keyword("in"):
            self.domains[name] = self.parse_domain(name, v)
        self.decls[kw][name] = v

    def parse_domain(self, name, v):
        """``in`` and its interval ``(lo, hi, brackets)``: not empty, no
        infinite end closed, holding the declared value ``v``; a fault in
        any is a SemanticError at ``in``."""
        tok = self.advance()
        left = self.expect_op("(", "[").text
        lo = self.parse_bound()
        self.expect_op(",")
        hi = self.parse_bound()
        right = self.expect_op(")", "]").text
        domain = (lo, hi, left + right)
        try:
            if (left == "[" and math.isinf(lo)) or (right == "]" and math.isinf(hi)):
                raise ValueError(f"domain {domain_source(domain)} closes an "
                                 "infinite end")
            if not (lo < hi or (lo == hi and left + right == "[]")):
                raise ValueError(f"domain {domain_source(domain)} is empty")
            check_param(name, v, domain)
        except ValueError as exc:
            raise SemanticError(str(exc), tok.line, tok.col) from None
        return domain

    def parse_bound(self):
        negate = self.at_op("-")
        if negate:
            self.advance()
        if self.at_keyword("inf"):
            self.advance()
            v = math.inf
        elif self.cur.kind == "num":
            v = self.parse_primary().value
        else:
            self.fail("number or 'inf'")
        return -v if negate else v

    def parse_trans(self):
        self.advance()
        self.expect_op("(")
        rate = self.parse_expr()
        self.expect_op(")")
        self.expect_op(":")
        src = self.declared("state")
        self.expect_op("->")
        dst = self.declared("state")
        effects = []
        sep = ";"  # before the first effect, then "," before each other
        while self.at_op(sep):
            self.advance()
            name = self.declared("env")
            op = self.expect_op("+=", "-=").text
            value = self.parse_expr()
            if op == "-=":
                value = Neg(value, line=value.line, col=value.col)
            effects.append((name, value))
            sep = ","
        self.transitions.append(Transition(src, dst, rate, tuple(effects)))

    def declared(self, kw):
        """The name at the cursor, which must be a declared ``kw``."""
        tok = self.expect_ident()
        if tok.text not in self.decls[kw]:
            what = "env var" if kw == "env" else kw
            raise SemanticError(f"unknown {what} {tok.text!r}", tok.line,
                                tok.col)
        return tok.text

    # -- expressions -----------------------------------------------------

    def parse_expr(self, prec=1):
        """Operands joined by operators that bind at least as tightly as
        ``prec``; each operator associates to the left.  A whole expression
        deeper than MAX_DEPTH is refused at its start."""
        left = self.parse_factor()
        while _PREC.get(self.cur.text, 0) >= prec:
            op = self.advance().text
            right = self.parse_expr(_PREC[op] + 1)
            left = BinOp(op, left, right, line=left.line, col=left.col)
        if not self.nesting and depth(left) > MAX_DEPTH:
            raise ParseError(f"expression is deeper than {MAX_DEPTH} levels",
                             left.line, left.col)
        return left

    def parse_factor(self):
        """A factor; one nested in more than MAX_DEPTH others (brackets,
        negations, call arguments) is refused at its first token."""
        tok = self.cur
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"expression is nested deeper than {MAX_DEPTH} "
                             "levels", tok.line, tok.col)
        if self.at_op("-"):
            self.advance()
            e = Neg(self.parse_factor(), line=tok.line, col=tok.col)
        else:
            e = self.parse_primary()
        self.nesting -= 1
        return e

    def parse_primary(self):
        tok = self.cur
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(f"number {tok.text} is out of range",
                                 tok.line, tok.col)
            return Num(value, line=tok.line, col=tok.col)
        if tok.kind == "ident":
            name = tok.text
            if name in UNARY_CALLS + BINARY_CALLS:
                self.advance()
                self.expect_op("(")
                args = [self.parse_expr()]
                if name in BINARY_CALLS:
                    self.expect_op(",")
                    args.append(self.parse_expr())
                self.expect_op(")")
                e = Call(name, tuple(args), line=tok.line, col=tok.col)
                if depth(e, BINARY_CALLS) > MAX_HISTORY:
                    raise ParseError("delay and histint calls are nested "
                                     f"more than {MAX_HISTORY} deep",
                                     tok.line, tok.col)
                return e
            if name in RESERVED and name not in ("t", "N0"):
                raise ParseError(f"reserved word {name!r} cannot appear in an expression",
                                 tok.line, tok.col)
            self.advance()
            return Name(name, line=tok.line, col=tok.col)
        if self.at_op("("):
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        self.fail("number, identifier or '('")


def parse_model(text, origin="<inline>"):
    """Parse ``.mas`` text into a StateDiagram named ``origin``."""
    diagram = _Parser(tokenize(text)).parse_model(origin)
    defects = _identifier_defects(diagram)
    if defects:
        raise SemanticError(*defects[0])
    return diagram


def _literal(e):
    """The value of a number or negated number, else None."""
    if isinstance(e, Neg) and isinstance(e.operand, Num):
        return -e.operand.value
    return e.value if isinstance(e, Num) else None


def _identifier_defects(diagram):
    """Unknown identifiers in rate/effect expressions, with locations."""
    known = set(diagram.params) | {n for n, _ in diagram.states}
    known |= {n for n, _ in diagram.env_vars} | {"t", "N0"}
    exprs = [e for tr in diagram.transitions for e in tr.exprs]
    return [(f"unknown identifier {n.ident}", n.line, n.col)
            for e in exprs for n in nodes(e)
            if isinstance(n, Name) and n.ident not in known]


def parse_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read(), origin=str(path))


def pretty_print(diagram):
    """Render a diagram back to .mas source.

    Round trip: ``parse_model(pretty_print(d))`` is structurally identical
    to ``d``.  Params are written in declaration order with their domains,
    derived declarations as their expressions, the others as literals.
    """
    derived = {n: unparse(e) for n, e in diagram.derived}
    domains = {n: f" in {domain_source(b)}"
               for n, b in diagram.domains.items()}
    lines = ["synchronous"] if diagram.discrete else []
    for kw, decls in (("param", diagram.params.items()),
                      ("state", diagram.states), ("env", diagram.env_vars)):
        lines += [f"{kw} {n} = {derived.get(n) or format_number(v)}"
                  f"{domains.get(n, '')}" for n, v in decls]
    for tr in diagram.transitions:
        line = f"rate({unparse(tr.rate)}): {tr.source} -> {tr.target}"
        if tr.env_effects:
            line += " ; " + ", ".join(effect_source(name, eff)
                                      for name, eff in tr.env_effects)
        lines.append(line)
    return "\n".join(lines) + "\n"
