"""Exact linear algebra over :class:`fractions.Fraction`.

The compiler's legality and redundancy analyses (paper Sections 3-4) must be
exact: floating-point rank decisions would make "is this product-space
dimension redundant?" (Figure 7 of the paper) and "is this embedding legal?"
nondeterministic near ties.  Everything here therefore works on exact
rationals.  Matrices are small (tens of rows/columns), so the cubic cost of
fraction-exact Gaussian elimination is irrelevant — except on the compile
path: :class:`IncrementalRank` (asked tens of thousands of times per search)
and :mod:`repro.polyhedra` keep numbers in the canonical form of
:func:`canon`, so that integral values cost ``int`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

Row = List[Fraction]

#: an exact number in canonical form: see :func:`canon`
Exact = Union[int, Fraction]


def canon(x: Exact) -> Exact:
    """The canonical form of an exact number: a plain ``int`` whenever the
    value is integral, a ``Fraction`` only when it is genuinely rational
    (floats are rejected: exactness is the point)."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):      # bool
        return int(x)
    raise TypeError(f"exact arithmetic requires int/Fraction, got {type(x).__name__}")


def exact_div(a: Exact, b: Exact) -> Exact:
    """``a / b`` exactly, canonical — never the float ``int / int`` gives."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return canon(Fraction(a) / b)


def _frac(x) -> Fraction:
    """Coerce ints / Fractions / strings to Fraction (floats are rejected:
    exactness is the point)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact arithmetic requires int/Fraction, got {type(x).__name__}")


class FractionMatrix:
    """A dense matrix of exact rationals with the handful of operations the
    compiler needs: row reduction, rank, linear solves, and incremental
    row-dependence queries.
    """

    def __init__(self, rows: Iterable[Iterable] = ()):  # noqa: D401
        self.rows: List[Row] = [[_frac(x) for x in r] for r in rows]
        if self.rows:
            w = len(self.rows[0])
            for r in self.rows:
                if len(r) != w:
                    raise ValueError("ragged rows in FractionMatrix")

    # -- basic protocol -------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"FractionMatrix[{body}]"

    def copy(self) -> "FractionMatrix":
        out = FractionMatrix()
        out.rows = [list(r) for r in self.rows]
        return out

    def append_row(self, row: Iterable) -> None:
        row = [_frac(x) for x in row]
        if self.rows and len(row) != len(self.rows[0]):
            raise ValueError("row width mismatch")
        self.rows.append(row)

    def transpose(self) -> "FractionMatrix":
        m, n = self.shape
        return FractionMatrix([[self.rows[i][j] for i in range(m)] for j in range(n)])

    def matvec(self, v: Sequence) -> Row:
        v = [_frac(x) for x in v]
        m, n = self.shape
        if len(v) != n:
            raise ValueError("dimension mismatch in matvec")
        return [sum((self.rows[i][j] * v[j] for j in range(n)), Fraction(0)) for i in range(m)]


def row_reduce(mat: FractionMatrix) -> Tuple[FractionMatrix, List[int]]:
    """Return (RREF of ``mat``, pivot column indices).  Zero rows are kept at
    the bottom (they matter for callers that track row provenance)."""
    m = mat.copy()
    nrows, ncols = m.shape
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        # find pivot
        piv = None
        for i in range(r, nrows):
            if m.rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m.rows[r], m.rows[piv] = m.rows[piv], m.rows[r]
        pv = m.rows[r][c]
        m.rows[r] = [x / pv for x in m.rows[r]]
        for i in range(nrows):
            if i != r and m.rows[i][c] != 0:
                f = m.rows[i][c]
                m.rows[i] = [a - f * b for a, b in zip(m.rows[i], m.rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(mat: FractionMatrix) -> int:
    """Exact rank."""
    _, pivots = row_reduce(mat)
    return len(pivots)


def solve_exact(A: FractionMatrix, b: Sequence) -> Optional[Row]:
    """Solve ``A x = b`` exactly.  Returns one solution (free variables set
    to 0) or None if inconsistent."""
    m, n = A.shape
    b = [_frac(x) for x in b]
    if len(b) != m:
        raise ValueError("dimension mismatch in solve_exact")
    aug = FractionMatrix([A.rows[i] + [b[i]] for i in range(m)]) if m else FractionMatrix()
    red, pivots = row_reduce(aug)
    # inconsistent iff a pivot lands in the augmented column
    if pivots and pivots[-1] == n:
        return None
    x: Row = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x[c] = red.rows[r][n]
    return x


def nullspace(A: FractionMatrix) -> List[Row]:
    """Basis of the (right) nullspace of A, exact."""
    m, n = A.shape
    if n == 0:
        return []
    red, pivots = row_reduce(A)
    free = [c for c in range(n) if c not in pivots]
    basis: List[Row] = []
    for fc in free:
        v: Row = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red.rows[r][fc]
        basis.append(v)
    return basis


class IncrementalRank:
    """Incrementally decide, row by row, whether each new row is linearly
    dependent on the rows seen so far.

    This is exactly the redundant-dimension test of the paper (Figure 7):
    "If a row of the G matrix is a linear combination of preceding rows, the
    corresponding dimension of the product space is redundant."

    ``add(row)`` returns ``(dependent, combination)`` where ``combination``
    maps *original* row indices to coefficients expressing the new row in
    terms of previously *independent* rows (empty dict for the zero row).
    ``depends(row)`` asks the same question without recording the row.

    Numbers are canonical (:func:`canon`): the rows the compiler feeds in
    are integer and nearly always reduce by integer factors, so the
    elimination runs on plain ints and a ``Fraction`` shows up only where a
    quotient is genuinely rational.
    """

    def __init__(self, width: int):
        self.width = width
        # reduced independent rows: (row, column of its first non-zero,
        # its expansion over original independent-row indices)
        self._rows: List[Tuple[list, int, dict]] = []
        self._count = 0

    def copy(self) -> "IncrementalRank":
        """An independent tracker with the same rows (rows are shared, never
        mutated)."""
        c = IncrementalRank(self.width)
        c._rows = list(self._rows)
        c._count = self._count
        return c

    def _reduce(self, row: Sequence, combo: Optional[dict]) -> list:
        """``row`` minus its projection on the stored rows.  With ``combo``
        (a dict over ORIGINAL row indices) the multiples are accumulated so
        that ``result == row - sum_k combo[k] * original_k``."""
        work = [x if type(x) is int else canon(x) for x in row]
        if len(work) != self.width:
            raise ValueError("row width mismatch")
        for base, lead, base_combo in self._rows:
            if not work[lead]:
                continue
            f = exact_div(work[lead], base[lead])
            for j in range(lead, self.width):
                if base[j]:
                    x = work[j] - f * base[j]
                    work[j] = x if type(x) is int else canon(x)
            if combo is not None:
                # base == sum_k base_combo[k] * original_k
                for k, c in base_combo.items():
                    combo[k] = canon(combo.get(k, 0) + f * c)
        return work

    def depends(self, row: Sequence) -> bool:
        """Is ``row`` a linear combination of the rows added so far?"""
        return not any(self._reduce(row, None))

    def add(self, row: Sequence) -> Tuple[bool, Optional[dict]]:
        combo: dict = {}
        work = self._reduce(row, combo)
        idx = self._count
        self._count += 1
        lead = next((j for j, x in enumerate(work) if x), None)
        if lead is None:
            return True, {k: v for k, v in combo.items() if v}
        # independent: store the reduced row with its expansion over
        # originals:  work == original_idx - sum_k combo[k] * original_k
        expansion = {k: -c for k, c in combo.items() if c}
        expansion[idx] = 1
        self._rows.append((work, lead, expansion))
        return False, None

    @property
    def rank(self) -> int:
        return len(self._rows)
