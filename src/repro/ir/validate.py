"""Static validation of IR programs.

Checks the assumptions the compiler relies on (paper Section 3):

- all memory accesses go through declared arrays with the right arity;
- all loop bounds and array indices are affine in surrounding loop
  variables and symbolic constants;
- loop variables are unique along any nesting path (shadowing would make
  qualified names ambiguous);
- no array aliasing is possible (array names are distinct by construction,
  so this amounts to the declaration check).
"""

from __future__ import annotations

from typing import List, Sequence, Set

from repro.ir.expr import AffExpr
from repro.ir.program import Loop, Program
from repro.ir.stmt import Statement


class ValidationError(ValueError):
    """Aggregates all problems found in a program."""

    def __init__(self, problems: Sequence[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


def validate_program(program: Program) -> None:
    """Raise :class:`ValidationError` if the program violates any compiler
    assumption; return silently otherwise."""
    problems: List[str] = []
    _check_items(program, program.body, set(), program.name, problems)
    if problems:
        raise ValidationError(problems)


# module functions, since a nested recursive one leaves a reference cycle
# per call

def _check_affine(program: Program, e: AffExpr, scope: Set[str], where: str,
                  problems: List[str]) -> None:
    for v in e.variables():
        if v not in scope and v not in program.params:
            problems.append(f"{where}: unknown variable {v!r}")


def _check_items(program: Program, items, scope: Set[str], path: str,
                 problems: List[str]) -> None:
    for item in items:
        if isinstance(item, Statement):
            where = f"{item.name or path}"
            decl = program.arrays.get(item.lhs.array)
            if decl is None:
                problems.append(f"{where}: write to undeclared array {item.lhs.array!r}")
            elif len(item.lhs.indices) != decl.ndim:
                problems.append(
                    f"{where}: {item.lhs.array!r} has {decl.ndim} dims, "
                    f"written with {len(item.lhs.indices)} indices"
                )
            for i in item.lhs.indices:
                _check_affine(program, i, scope, where, problems)
            for r in item.reads():
                if r.array == "__var__":
                    _check_affine(program, r.indices[0], scope, where, problems)
                    continue
                decl = program.arrays.get(r.array)
                if decl is None:
                    problems.append(f"{where}: read of undeclared array {r.array!r}")
                elif len(r.indices) != decl.ndim:
                    problems.append(
                        f"{where}: {r.array!r} has {decl.ndim} dims, "
                        f"read with {len(r.indices)} indices"
                    )
                for i in r.indices:
                    _check_affine(program, i, scope, where, problems)
        elif isinstance(item, Loop):
            where = f"loop {item.var!r}"
            if item.var in scope:
                problems.append(f"{where}: shadows an outer loop variable")
            if item.var in program.params:
                problems.append(f"{where}: loop variable shadows parameter")
            _check_affine(program, item.lower, scope, f"{where} lower bound", problems)
            _check_affine(program, item.upper, scope, f"{where} upper bound", problems)
            _check_items(program, item.body, scope | {item.var}, where,
                         problems)
