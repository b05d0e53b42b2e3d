"""Pretty-printer: IR back to the textual syntax of :mod:`repro.ir.parser`.

``parse_program(program_to_text(p))`` round-trips (statement names are
regenerated, but they are positional so they match).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from repro.ir.expr import AffExpr, ValExpr, VBin, VConst, VNeg, VParam, VRead
from repro.ir.program import Loop, Program
from repro.ir.stmt import Statement


def aff_to_text(e: AffExpr) -> str:
    parts: List[str] = []
    for name in sorted(e.lin.coeffs):
        c = e.lin.coeffs[name]
        if c == 1:
            term = name
        elif c == -1:
            term = f"-{name}"
        else:
            term = f"{c}*{name}"
        if parts and not term.startswith("-"):
            parts.append(f"+ {term}")
        elif parts:
            parts.append(f"- {term[1:]}")
        else:
            parts.append(term)
    if e.const != 0 or not parts:
        c = e.const
        if parts:
            parts.append(f"+ {c}" if c > 0 else f"- {-c}")
        else:
            parts.append(str(c))
    return " ".join(parts)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def val_to_text(e: ValExpr, parent_prec: int = 0) -> str:
    if isinstance(e, VConst):
        return str(e.value)
    if isinstance(e, VParam):
        return e.name
    if isinstance(e, VRead):
        if e.array == "__var__":
            return aff_to_text(e.indices[0])
        return e.array + "".join(f"[{aff_to_text(i)}]" for i in e.indices)
    if isinstance(e, VNeg):
        inner = val_to_text(e.operand, 3)
        return f"-{inner}"
    if isinstance(e, VBin):
        prec = _PREC[e.op]
        left = val_to_text(e.left, prec)
        # right side of - and / needs a tighter context to re-parenthesize
        right = val_to_text(e.right, prec + (1 if e.op in "-/" else 0))
        s = f"{left} {e.op} {right}"
        return f"({s})" if prec < parent_prec else s
    raise TypeError(f"unknown ValExpr {type(e).__name__}")


def _emit(items, indent: int, lines: List[str]) -> None:
    pad = "    " * indent
    for item in items:
        if isinstance(item, Statement):
            lhs = item.lhs.array + "".join(f"[{aff_to_text(i)}]" for i in item.lhs.indices)
            lines.append(f"{pad}{lhs} = {val_to_text(item.rhs)};")
        elif isinstance(item, Loop):
            lines.append(f"{pad}for {item.var} = {aff_to_text(item.lower)} : {aff_to_text(item.upper)} {{")
            _emit(item.body, indent + 1, lines)
            lines.append(f"{pad}}}")


def program_to_text(p: Program) -> str:
    # the nest is walked by a module-level function: a nested one that
    # calls itself is a reference cycle per call (the compile cache prints
    # every program it keys)
    lines: List[str] = []
    params = ", ".join(p.params)
    decls = ", ".join(f"{n}: {d.kind}" for n, d in p.arrays.items())
    lines.append(f"{p.name}({params}; {decls}) {{")
    _emit(p.body, 1, lines)
    lines.append("}")
    return "\n".join(lines)
