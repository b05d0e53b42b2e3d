"""Statements of the dense-program IR: array references and assignments."""

from __future__ import annotations

from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.ir.expr import AffExpr, ValExpr, VRead


class ArrayRef:
    """A (possibly multi-dimensional) array reference used as an lvalue."""

    __slots__ = ("array", "indices")

    def __init__(self, array: str, indices: Sequence[AffExpr]):
        self.array = array
        self.indices = tuple(AffExpr(i) for i in indices)

    @property
    def ndim(self) -> int:
        return len(self.indices)

    def rename_vars(self, mapping: Mapping[str, str]) -> "ArrayRef":
        return ArrayRef(self.array, tuple(i.rename(mapping) for i in self.indices))

    def __eq__(self, other):
        return (
            isinstance(other, ArrayRef)
            and self.array == other.array
            and self.indices == other.indices
        )

    def __hash__(self):
        return hash(("ArrayRef", self.array, self.indices))

    def __repr__(self):
        idx = "".join(f"[{i!r}]" for i in self.indices)
        return f"{self.array}{idx}"


class Statement:
    """An assignment statement ``lhs = rhs``.

    Reductions are written explicitly (``y[i] = y[i] + ...``); the dependence
    analysis sees the read of the old value, exactly as in the paper's
    examples (Figure 4 writes ``b[i] = b[i] - L[i][j]*b[j]``).

    ``name`` is assigned in syntactic order (S1, S2, ...) when the statement
    is installed into a :class:`~repro.ir.program.Program`.
    """

    __slots__ = ("lhs", "rhs", "name")

    def __init__(self, lhs: ArrayRef, rhs: ValExpr, name: Optional[str] = None):
        self.lhs = lhs
        self.rhs = rhs
        self.name = name

    # -- accesses ---------------------------------------------------------
    def reads(self) -> List[VRead]:
        return list(self.rhs.reads())

    def writes(self) -> List[ArrayRef]:
        return [self.lhs]

    def references(self, array: str) -> List[Tuple[str, Tuple[AffExpr, ...]]]:
        """All (kind, indices) references to ``array``; kind is 'R' or 'W'."""
        out: List[Tuple[str, Tuple[AffExpr, ...]]] = []
        if self.lhs.array == array:
            out.append(("W", self.lhs.indices))
        for r in self.reads():
            if r.array == array:
                out.append(("R", r.indices))
        return out

    def arrays(self) -> Tuple[str, ...]:
        names = [self.lhs.array] + [r.array for r in self.reads()]
        seen, out = set(), []
        for n in names:
            if n not in seen:
                seen.add(n)
                out.append(n)
        return tuple(out)

    def rename_vars(self, mapping: Mapping[str, str]) -> "Statement":
        return Statement(self.lhs.rename_vars(mapping), self.rhs.rename_vars(mapping), self.name)

    def __repr__(self):
        tag = f"{self.name}: " if self.name else ""
        return f"{tag}{self.lhs!r} = {self.rhs!r}"
