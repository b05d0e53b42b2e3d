"""A small C-like textual front-end for the dense-program IR.

Syntax (whitespace-insensitive)::

    ts(n; L: matrix, b: vector) {
        for j = 0 : n {
            b[j] = b[j] / L[j][j];
            for i = j+1 : n {
                b[i] = b[i] - L[i][j] * b[j];
            }
        }
    }

- Loop ranges are half-open: ``for v = lo : hi`` iterates ``lo <= v < hi``.
- Index expressions must be affine in loop variables and parameters
  (``2*i - j + n + 1`` is fine, ``i*j`` is rejected).
- Value expressions support ``+ - * /``, unary minus, parentheses, numeric
  literals, array reads, and scalar parameters.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from repro.ir.expr import AffExpr, ValExpr, VBin, VConst, VNeg, VParam, VRead
from repro.ir.program import ArrayDecl, Loop, Program
from repro.ir.stmt import ArrayRef, Statement

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+(\.\d+)?([eE][-+]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<comment>\#[^\n]*|//[^\n]*)
  | (?P<sym>[()\[\]{};:,=+\-*/])
  | (?P<ws>\s+)
""",
    re.VERBOSE,
)


class ParseError(ValueError):
    """Raised on malformed program text, with position information."""

    def __init__(self, message: str, pos: int, text: str):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} (line {line}, column {col})")
        self.pos = pos


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: List[Tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise ParseError(f"unexpected character {text[pos]!r}", pos, text)
            kind = m.lastgroup
            if kind not in ("ws", "comment"):
                self.toks.append((kind, m.group(), pos))
            pos = m.end()
        self.i = 0

    def peek(self) -> Tuple[str, str, int]:
        if self.i >= len(self.toks):
            return ("eof", "", len(self.text))
        return self.toks[self.i]

    def next(self) -> Tuple[str, str, int]:
        t = self.peek()
        self.i += 1
        return t

    def expect(self, value: str) -> None:
        kind, v, pos = self.next()
        if v != value:
            raise ParseError(f"expected {value!r}, found {v or 'end of input'!r}", pos, self.text)

    def accept(self, value: str) -> bool:
        kind, v, _ = self.peek()
        if v == value:
            self.i += 1
            return True
        return False

    def ident(self) -> str:
        kind, v, pos = self.next()
        if kind != "ident":
            raise ParseError(f"expected identifier, found {v!r}", pos, self.text)
        return v


class _Parser:
    def __init__(self, text: str):
        self.t = _Tokens(text)
        self.params: List[str] = []
        self.arrays: dict = {}
        self.loop_vars: List[str] = []

    # -- top level ---------------------------------------------------------
    def parse(self) -> Program:
        name = self.t.ident()
        self.t.expect("(")
        if not self.t.accept(";"):
            while True:
                self.params.append(self.t.ident())
                if self.t.accept(";"):
                    break
                self.t.expect(",")
        while True:
            an = self.t.ident()
            self.t.expect(":")
            kind = self.t.ident()
            if kind not in ArrayDecl.KINDS:
                raise ParseError(f"unknown array kind {kind!r}", self.t.peek()[2], self.t.text)
            self.arrays[an] = ArrayDecl(an, kind)
            if self.t.accept(")"):
                break
            self.t.expect(",")
        self.t.expect("{")
        body = self.items()
        kind, v, pos = self.t.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {v!r}", pos, self.t.text)
        return Program(name, self.params, self.arrays, body)

    def items(self) -> List[Union[Loop, Statement]]:
        out: List[Union[Loop, Statement]] = []
        while not self.t.accept("}"):
            kind, v, pos = self.t.peek()
            if v == "for":
                out.append(self.forloop())
            elif kind == "ident":
                out.append(self.statement())
            else:
                raise ParseError(f"expected statement or 'for', found {v!r}", pos, self.t.text)
        return out

    def forloop(self) -> Loop:
        self.t.expect("for")
        var = self.t.ident()
        self.t.expect("=")
        lower = self.affexpr()
        self.t.expect(":")
        self.loop_vars.append(var)
        upper = self.affexpr()
        self.t.expect("{")
        body = self.items()
        self.loop_vars.pop()
        return Loop(var, lower, upper, body)

    def statement(self) -> Statement:
        array = self.t.ident()
        indices = self.index_list()
        if self.arrays.get(array) is None:
            raise ParseError(f"assignment to undeclared array {array!r}", self.t.peek()[2], self.t.text)
        self.t.expect("=")
        rhs = self.valexpr()
        self.t.expect(";")
        return Statement(ArrayRef(array, indices), rhs)

    def index_list(self) -> List[AffExpr]:
        out: List[AffExpr] = []
        while self.t.accept("["):
            out.append(self.affexpr())
            self.t.expect("]")
        return out

    # -- affine index expressions -------------------------------------------
    def affexpr(self) -> AffExpr:
        # parse with the value grammar, then fold to affine
        v = self.valexpr(affine_context=True)
        return _to_affine(v, self.t.text)

    # -- value expressions ----------------------------------------------------
    def valexpr(self, affine_context: bool = False) -> ValExpr:
        left = self.term(affine_context)
        while True:
            if self.t.accept("+"):
                left = VBin("+", left, self.term(affine_context))
            elif self.t.accept("-"):
                left = VBin("-", left, self.term(affine_context))
            else:
                return left

    def term(self, affine_context: bool) -> ValExpr:
        left = self.factor(affine_context)
        while True:
            if self.t.accept("*"):
                left = VBin("*", left, self.factor(affine_context))
            elif self.t.accept("/"):
                left = VBin("/", left, self.factor(affine_context))
            else:
                return left

    def factor(self, affine_context: bool) -> ValExpr:
        kind, v, pos = self.t.peek()
        if self.t.accept("-"):
            return VNeg(self.factor(affine_context))
        if self.t.accept("("):
            e = self.valexpr(affine_context)
            self.t.expect(")")
            return e
        if kind == "num":
            self.t.next()
            if "." in v or "e" in v or "E" in v:
                return VConst(float(v))
            return VConst(int(v))
        if kind == "ident":
            name = self.t.ident()
            if self.t.peek()[1] == "[":
                indices = self.index_list()
                if name not in self.arrays:
                    raise ParseError(f"read of undeclared array {name!r}", pos, self.t.text)
                return VRead(name, indices)
            if name in self.arrays and self.arrays[name].ndim == 0:
                return VRead(name, [])
            if affine_context:
                # loop var or parameter used as index
                return VRead("__var__", [AffExpr(name)])  # placeholder folded later
            if name in self.params:
                return VParam(name)
            if name in self.loop_vars:
                # a loop variable used as a scalar value
                return VRead("__var__", [AffExpr(name)])
            raise ParseError(f"unknown name {name!r} in expression", pos, self.t.text)
        raise ParseError(f"expected expression, found {v or 'end of input'!r}", pos, self.t.text)


def _to_affine(e: ValExpr, text: str) -> AffExpr:
    """Fold a value-expression tree (from affine context) into an AffExpr;
    rejects non-affine shapes like i*j.  (A module function: a nested
    recursive one leaves a reference cycle per call.)"""
    if isinstance(e, VConst):
        if isinstance(e.value, float):
            if e.value != int(e.value):
                raise ParseError("index expressions must be integral", 0, text)
            return AffExpr(int(e.value))
        return AffExpr(e.value)
    if isinstance(e, VRead) and e.array == "__var__":
        return e.indices[0]
    if isinstance(e, VNeg):
        return -_to_affine(e.operand, text)
    if isinstance(e, VBin):
        if e.op == "+":
            return _to_affine(e.left, text) + _to_affine(e.right, text)
        if e.op == "-":
            return _to_affine(e.left, text) - _to_affine(e.right, text)
        if e.op == "*":
            l, r = _to_affine(e.left, text), _to_affine(e.right, text)
            if l.is_constant:
                return r * int(l.const)
            if r.is_constant:
                return l * int(r.const)
            raise ParseError("non-affine index expression (product of variables)", 0, text)
        raise ParseError("division is not allowed in index expressions", 0, text)
    raise ParseError("array reads are not allowed in index expressions", 0, text)


def parse_program(text: str) -> Program:
    """Parse program text into a :class:`~repro.ir.program.Program`."""
    return _Parser(text).parse()
