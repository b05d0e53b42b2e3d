"""Redundant dimensions (paper Section 4.1, Figure 7).

The paper stacks the linear parts of all embedding functions into a matrix
``G`` (one row per product dimension, one column per statement iteration
variable) and calls a dimension *redundant* when its row is a linear
combination of the preceding rows: its value is determined, so no loop is
needed — only a search (or a direct computation).

Here the statement space also contains sparse data axes tied to iteration
variables by each reference's affine *relation* (access functions and
``map`` rules), so determinedness is computed modulo those relations:

    dim d is determined for copy S after dims d1..dk  iff
    value_d(S) ∈ span( {value_di(S)} ∪ equalities(relation(S)) ∪ {1} )

:class:`DeterminacyTracker` answers this incrementally for one copy;
:func:`g_matrix` builds the paper's literal G matrix for display and tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.embedding import AT, SpaceEmbedding
from repro.core.spaces import ProductSpace, StmtCopy
from repro.polyhedra.linexpr import Coeffish, LinExpr
from repro.util.fractions_linalg import FractionMatrix, IncrementalRank


class DeterminacyTracker:
    """Incrementally tracks which affine expressions over one copy's
    variables are determined by the values pinned so far (dims processed)
    plus the copy's relation equalities."""

    def __init__(self, copy: StmtCopy):
        self.copy = copy
        self.vars = list(copy.all_vars())
        self.index = {v: i for i, v in enumerate(self.vars)}
        # width: one column per variable plus the affine constant
        self._rank = IncrementalRank(len(self.vars) + 1)
        for con in copy.relation().equalities():
            self._rank.add(self._row(con.expr))

    def clone(self) -> "DeterminacyTracker":
        """An independent tracker with the same pinned values."""
        c = object.__new__(DeterminacyTracker)
        c.copy, c.vars, c.index = self.copy, self.vars, self.index
        c._rank = self._rank.copy()
        return c

    def _row(self, expr: LinExpr) -> List[Coeffish]:
        row: List[Coeffish] = [0] * (len(self.vars) + 1)
        for v, c in expr.coeffs.items():
            # symbolic parameters act as constants: fold into the affine
            # column (their value is fixed for a given run)
            row[self.index.get(v, -1)] += c
        row[-1] += expr.const
        return row

    def is_determined(self, expr: LinExpr) -> bool:
        """Would pinning this expression add no information?"""
        return self._rank.depends(self._row(expr))

    def pin(self, expr: LinExpr) -> bool:
        """Record that the value of ``expr`` is known; returns True if this
        was already determined."""
        dependent, _ = self._rank.add(self._row(expr))
        return dependent

    def unbound_vars(self, expr: LinExpr) -> List[str]:
        """Variables of ``expr`` (restricted to copy variables) that are not
        individually determined yet."""
        out = []
        for v in expr.variables():
            if v in self.index and not self.is_determined(LinExpr.variable(v)):
                out.append(v)
        return out


def axis_substitution(copy: StmtCopy) -> Dict[str, LinExpr]:
    """Express each data-axis variable of a copy as an affine function of
    the copy's iteration variables, where the access relation determines it
    (the paper's assumption "data coordinates are affine functions of the
    loop indices"; non-invertible maps like BSR blocking leave their axes
    unsubstituted)."""
    it_vars = set(copy.iter_vars())
    axis_vars = [v for v in copy.all_vars() if v not in it_vars]
    if not axis_vars:
        return {}
    index = {v: i for i, v in enumerate(axis_vars)}
    # rows: coefficients over axis vars; constant column: LinExpr over the
    # iteration variables (and parameters)
    rows: List[Tuple[List[Fraction], LinExpr]] = []
    for con in copy.relation().equalities():
        coeffs = [Fraction(0)] * len(axis_vars)
        rest = LinExpr.constant(con.expr.const)
        for v in con.expr.variables():
            if v in index:
                coeffs[index[v]] = con.expr.coeff(v)
            else:
                rest = rest + LinExpr({v: con.expr.coeff(v)})
        rows.append((coeffs, rest))
    # gaussian elimination with symbolic constants
    pivots: List[Tuple[List[Fraction], LinExpr, int]] = []
    for coeffs, rest in rows:
        coeffs = list(coeffs)
        for pc, pr, pl in pivots:
            f = coeffs[pl]
            if f != 0:
                coeffs = [a - f * b for a, b in zip(coeffs, pc)]
                rest = rest - pr * f
        lead = next((j for j, x in enumerate(coeffs) if x != 0), None)
        if lead is None:
            continue
        inv = Fraction(1) / coeffs[lead]
        pivots.append(([x * inv for x in coeffs], rest * inv, lead))
    out: Dict[str, LinExpr] = {}
    for coeffs, rest, lead in pivots:
        work_c = list(coeffs)
        work_r = rest
        for c2, r2, l2 in pivots:
            if l2 != lead and work_c[l2] != 0:
                f = work_c[l2]
                work_c = [a - f * b for a, b in zip(work_c, c2)]
                work_r = work_r - r2 * f
        if all(x == 0 for j, x in enumerate(work_c) if j != lead):
            # axis_var == -work_r
            out[axis_vars[lead]] = work_r * Fraction(-1)
    return out


def g_matrix(space: ProductSpace, emb: SpaceEmbedding) -> Tuple[FractionMatrix, List[str], List[str]]:
    """The paper's Figure-7 G matrix: rows are product dimensions, columns
    are the copies' *iteration* variables; embedding values are rewritten
    through the access relations so data-axis values appear as the affine
    functions of loop indices they are.  Returns (G, row names, column
    names).  Placements contribute zeros (they are constants); axes a
    non-invertible map leaves undetermined keep their own columns.
    """
    subs = {c.label: axis_substitution(c) for c in space.copies}
    columns: List[str] = []
    seen = set()
    for copy in space.copies:
        for v in copy.iter_vars():
            if v not in seen:
                seen.add(v)
                columns.append(v)
    # leftover axis columns (non-invertible maps)
    for copy in space.copies:
        for v in copy.all_vars():
            if v not in seen and v not in subs[copy.label]:
                seen.add(v)
                columns.append(v)
    col_index = {v: i for i, v in enumerate(columns)}
    rows: List[List[Fraction]] = []
    names: List[str] = []
    for k, dim in enumerate(space.dims):
        row = [Fraction(0)] * len(columns)
        for copy in space.copies:
            e = emb.of(copy, k)
            if e.placement == AT:
                value = e.value.substitute(subs[copy.label])
                for v in value.variables():
                    if v in col_index:
                        row[col_index[v]] = value.coeff(v)
        rows.append(row)
        names.append(dim.name)
    return FractionMatrix(rows), names, columns


def redundant_dims(space: ProductSpace, emb: SpaceEmbedding) -> List[bool]:
    """Paper-literal redundancy: dimension k is redundant when its G row is
    linearly dependent on the preceding rows (Figure 7's analysis)."""
    G, _, columns = g_matrix(space, emb)
    inc = IncrementalRank(len(columns))
    out: List[bool] = []
    for row in G.rows:
        dependent, _ = inc.add(row)
        out.append(dependent)
    return out
