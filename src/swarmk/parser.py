"""Parser for the .mas model language.

Grammar (whitespace and #-comments insignificant)::

    model   := stmt*
    stmt    := "param" IDENT "=" expr
             | "state" IDENT "=" expr
             | "env"   IDENT "=" expr
             | "rate" "(" expr ")" ":" IDENT "->" IDENT effects?
    effects := ";" effect ("," effect)*
    effect  := IDENT ("+="|"-=") expr
    expr    := term  (("+"|"-") term)*
    term    := factor (("*"|"/") factor)*
    factor  := "-" factor | primary
    primary := NUMBER | IDENT | call | "(" expr ")"
    call    := ("exp"|"ln"|"step") "(" expr ")"
             | ("delay"|"histint") "(" expr "," expr ")"

Identifiers are case-sensitive.  Reserved words: param, state, env, rate,
exp, ln, step, delay, histint, t, N0.  Numbers are decimal with an
optional exponent.  State and env initializers are evaluated at parse
time and may reference previously declared params.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .diagram import StateDiagram, Transition, effect_source
from .errors import LexError, ParseError, SemanticError
from .expr import (BinOp, Call, Name, Neg, Num, eval_expr, format_number,
                   nodes, unparse)

RESERVED = {"param", "state", "env", "rate",
            "exp", "ln", "step", "delay", "histint", "t", "N0"}

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<num>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>\+=|-=|->|[()+\-*/=:;,])
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


@dataclass
class ModelSource:
    """Raw model text plus an origin label for error messages."""
    text: str
    origin: str = "<inline>"


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

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

    def expect_op(self, text):
        if self.cur.kind == "op" and self.cur.text == text:
            return self.advance()
        self.fail(f"'{text}'")

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

    def parse_model(self):
        decls = []
        while self.cur.kind != "eof":
            if self.at_keyword("param"):
                decls.append(self.parse_decl("param"))
            elif self.at_keyword("state"):
                decls.append(self.parse_decl("state"))
            elif self.at_keyword("env"):
                decls.append(self.parse_decl("env"))
            elif self.at_keyword("rate"):
                decls.append(self.parse_trans())
            else:
                self.fail("'param', 'state', 'env' or 'rate'")
        return decls

    def parse_decl(self, kw):
        self.advance()
        name = self.expect_ident()
        self.expect_op("=")
        value = self.parse_expr()
        return (kw, name, value)

    def parse_trans(self):
        self.advance()
        self.expect_op("(")
        rate = self.parse_expr()
        self.expect_op(")")
        self.expect_op(":")
        src = self.expect_ident()
        self.expect_op("->")
        dst = self.expect_ident()
        effects = []
        if self.cur.kind == "op" and self.cur.text == ";":
            self.advance()
            effects.append(self.parse_effect())
            while self.cur.kind == "op" and self.cur.text == ",":
                self.advance()
                effects.append(self.parse_effect())
        return ("rate", rate, src, dst, effects)

    def parse_effect(self):
        name = self.expect_ident()
        if self.cur.kind == "op" and self.cur.text in ("+=", "-="):
            op = self.advance().text
        else:
            self.fail("'+=' or '-='")
        value = self.parse_expr()
        if op == "-=":
            value = Neg(value, line=value.line, col=value.col)
        return (name.text, value, name.line, name.col)

    # -- expressions -----------------------------------------------------

    def parse_expr(self):
        left = self.parse_term()
        while self.cur.kind == "op" and self.cur.text in ("+", "-"):
            op = self.advance().text
            right = self.parse_term()
            left = BinOp(op, left, right, line=left.line, col=left.col)
        return left

    def parse_term(self):
        left = self.parse_factor()
        while self.cur.kind == "op" and self.cur.text in ("*", "/"):
            op = self.advance().text
            right = self.parse_factor()
            left = BinOp(op, left, right, line=left.line, col=left.col)
        return left

    def parse_factor(self):
        if self.cur.kind == "op" and self.cur.text == "-":
            tok = self.advance()
            return Neg(self.parse_factor(), line=tok.line, col=tok.col)
        return self.parse_primary()

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
            if name in ("exp", "ln", "step", "delay", "histint"):
                self.advance()
                self.expect_op("(")
                args = [self.parse_expr()]
                if name in ("delay", "histint"):
                    self.expect_op(",")
                    args.append(self.parse_expr())
                self.expect_op(")")
                return Call(name, tuple(args), line=tok.line, col=tok.col)
            if name in RESERVED and name not in ("t", "N0"):
                raise ParseError(f"reserved word {name!r} cannot appear in an expression",
                                 tok.line, tok.col)
            self.advance()
            return Name(name, line=tok.line, col=tok.col)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        self.fail("number, identifier or '('")


def parse_model(src):
    """Parse a ModelSource (or raw text) into a StateDiagram."""
    if isinstance(src, str):
        src = ModelSource(src)
    decls = _Parser(tokenize(src.text)).parse_model()

    params = {}
    states = []
    env_vars = []
    transitions = []
    seen = {}

    def check_fresh(name, line, col):
        if name in seen:
            raise SemanticError(f"duplicate name {name!r}", line, col)
        seen[name] = True

    for d in decls:
        if d[0] in ("param", "state", "env"):
            _, name_tok, value = d
            name = name_tok.text
            check_fresh(name, name_tok.line, name_tok.col)
            try:
                v = eval_expr(value, dict(params))
            except Exception as exc:
                raise SemanticError(
                    f"initializer for {name!r} is not constant: {exc}",
                    name_tok.line, name_tok.col) from None
            if d[0] == "param":
                params[name] = v
            elif d[0] == "state":
                states.append((name, v))
            else:
                env_vars.append((name, v))
        else:
            _, rate, src_tok, dst_tok, effects = d
            state_names = {n for n, _ in states}
            for tok in (src_tok, dst_tok):
                if tok.text not in state_names:
                    raise SemanticError(f"unknown state {tok.text!r}",
                                        tok.line, tok.col)
            env_names = {n for n, _ in env_vars}
            eff = []
            for name, value, line, col in effects:
                if name not in env_names:
                    raise SemanticError(f"unknown env var {name!r}", line, col)
                eff.append((name, value))
            transitions.append(Transition(src_tok.text, dst_tok.text, rate, tuple(eff)))

    diagram = StateDiagram(
        states=tuple(states),
        env_vars=tuple(env_vars),
        params=dict(params),
        transitions=tuple(transitions),
        name=src.origin,
    )
    defects = _identifier_defects(diagram)
    if defects:
        msg, line, col = defects[0]
        raise SemanticError(msg, line, col)
    return diagram


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
        return parse_model(ModelSource(fh.read(), origin=str(path)))


def pretty_print(diagram):
    """Render a diagram back to .mas source.

    Round trip: ``parse_model(pretty_print(d))`` is structurally identical
    to ``d`` (state/env initializers are re-emitted as literals).
    """
    lines = []
    for name, v in sorted(diagram.params.items()):
        lines.append(f"param {name} = {format_number(v)}")
    for name, v in diagram.states:
        lines.append(f"state {name} = {format_number(v)}")
    for name, v in diagram.env_vars:
        lines.append(f"env {name} = {format_number(v)}")
    for tr in diagram.transitions:
        line = f"rate({unparse(tr.rate)}): {tr.source} -> {tr.target}"
        if tr.env_effects:
            line += " ; " + ", ".join(effect_source(name, eff)
                                      for name, eff in tr.env_effects)
        lines.append(line)
    return "\n".join(lines) + "\n"
