"""Reduction recognition.

A statement ``X[e] = X[e] (+|-) rest`` where ``rest`` does not read ``X`` is
an associative-commutative accumulation into ``X[e]``.  Instances of such a
statement may execute in any order (each read-modify-write is atomic in the
generated code), so the self-dependence classes it induces on ``X`` do not
constrain the enumeration order.  Without this relaxation no unordered
format (COO, JAD's flat perspective) could ever legally carry an MVM-style
accumulation — hand-written sparse BLAS rely on the same commutativity.

Dependences between the reduction and *other* statements (initializations,
consumers) are kept in full.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.expr import ValExpr, VBin, VRead
from repro.ir.stmt import Statement


def reduction_array(stmt: Statement) -> Optional[str]:
    """The array a statement accumulates into, or None.

    Requires: rhs is ``lhs (+|-) rest`` (possibly left-nested further
    additions/subtractions with the self-read in the leftmost position,
    matching ``y[i] = y[i] + a + b``), with exactly one read of the lhs
    array in the whole rhs and its indices identical to the lhs indices.
    """
    target = stmt.lhs
    self_reads = [r for r in stmt.reads() if r.array == target.array]
    if len(self_reads) != 1:
        return None
    if tuple(self_reads[0].indices) != tuple(target.indices):
        return None

    # the self-read must sit in an additive position at the top of the rhs
    e: ValExpr = stmt.rhs
    while isinstance(e, VBin) and e.op in ("+", "-"):
        # the self-read must not be on the right of a subtraction
        if isinstance(e.right, VRead) and e.right == self_reads[0] and e.op == "-":
            return None
        if isinstance(e.right, VRead) and e.right == self_reads[0] and e.op == "+":
            return target.array
        e = e.left
    if isinstance(e, VRead) and e == self_reads[0]:
        return target.array
    return None
