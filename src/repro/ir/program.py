"""Programs: imperfectly-nested affine loop nests over declared arrays.

A :class:`Program` is a sequence of statements nested within loops (paper
Section 3 assumption (i)).  Loop bounds are affine in surrounding loop
variables and symbolic parameters (assumption (iii)); loops use half-open
bounds ``lo <= v < hi`` matching the paper's C examples.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.ir.expr import AffExpr
from repro.ir.stmt import Statement
from repro.polyhedra.linexpr import LinExpr
from repro.polyhedra.system import Constraint, System, GE


class ArrayDecl:
    """Declaration of an array: number of dimensions and a role tag.

    ``kind`` is "matrix" (2-D), "dmat" (2-D, always dense), "vector" (1-D)
    or "scalar" (0-D); the sparse compiler only ever treats matrices as
    candidates for sparse storage.  A ``dmat`` is indexed like a matrix but
    is never a sparse-binding candidate — the dense block operands of SpMM
    (``Y = A X`` with ``X``, ``Y`` dense ``n×k`` panels) are the canonical
    use.
    """

    __slots__ = ("name", "ndim", "kind")

    KINDS = {"matrix": 2, "dmat": 2, "vector": 1, "scalar": 0}

    def __init__(self, name: str, kind: str):
        if kind not in self.KINDS:
            raise ValueError(f"unknown array kind {kind!r}")
        self.name = name
        self.kind = kind
        self.ndim = self.KINDS[kind]

    def __repr__(self):
        return f"{self.name}: {self.kind}"


class Loop:
    """``for var = lower ... upper-1 { body }``; body items are Loops or
    Statements."""

    __slots__ = ("var", "lower", "upper", "body")

    def __init__(self, var: str, lower, upper, body: Sequence[Union["Loop", Statement]]):
        self.var = var
        self.lower = AffExpr(lower)
        self.upper = AffExpr(upper)
        self.body = list(body)

    def __repr__(self):
        return f"for {self.var} = {self.lower!r} : {self.upper!r} ({len(self.body)} items)"


class StatementContext:
    """A statement together with its surrounding loops and syntactic
    position — everything the dependence analysis and the embedding
    machinery need to know about where the statement sits.
    """

    __slots__ = ("stmt", "loops", "position")

    def __init__(self, stmt: Statement, loops: Sequence[Loop], position: Sequence[int]):
        self.stmt = stmt
        self.loops = tuple(loops)
        # syntactic position: index within the body at each nesting depth,
        # including the top level; used for program-order comparisons.
        self.position = tuple(position)

    @property
    def name(self) -> str:
        assert self.stmt.name is not None
        return self.stmt.name

    @property
    def depth(self) -> int:
        return len(self.loops)

    @property
    def vars(self) -> Tuple[str, ...]:
        return tuple(l.var for l in self.loops)

    def qualified(self, var: str) -> str:
        """Qualified name of a local loop variable: 'S2.i'."""
        return f"{self.name}.{var}"

    def qualify_map(self) -> Dict[str, str]:
        return {v: self.qualified(v) for v in self.vars}

    def domain(self, params_in_scope: Sequence[str] = ()) -> System:
        """Iteration-domain polyhedron over qualified variable names.
        Parameters keep their unqualified names so two statements' domains
        share them."""
        qmap = self.qualify_map()
        cons: List[Constraint] = []
        for l in self.loops:
            v = LinExpr.variable(qmap[l.var])
            lo = l.lower.rename(qmap).lin
            hi = l.upper.rename(qmap).lin
            cons.append(Constraint(v - lo, GE))          # v >= lo
            cons.append(Constraint(hi - v - 1, GE))      # v <= hi - 1
        return System(cons)

    def common_depth(self, other: "StatementContext") -> int:
        """Number of loops shared (as syntax tree objects) with ``other``."""
        d = 0
        for a, b in zip(self.loops, other.loops):
            if a is b:
                d += 1
            else:
                break
        return d

    def precedes_syntactically(self, other: "StatementContext", at_depth: int) -> bool:
        """Does this statement come before ``other`` in program text, once
        the first ``at_depth`` loops' counters are all equal?  Compared via
        the syntactic position vectors below the common loops."""
        pa = self.position[at_depth:]
        pb = other.position[at_depth:]
        return pa < pb

    def __repr__(self):
        vs = ", ".join(self.vars)
        return f"<{self.name} in ({vs}) at {self.position}>"


class Program:
    """A named program: parameters (symbolic sizes), array declarations,
    and a body of loops/statements.  Statement names (S1, S2, ... in
    syntactic order) are assigned at construction, matching the paper's
    convention.
    """

    def __init__(
        self,
        name: str,
        params: Sequence[str],
        arrays: Mapping[str, ArrayDecl],
        body: Sequence[Union[Loop, Statement]],
        assumptions: Optional[System] = None,
    ):
        self.name = name
        self.params = tuple(params)
        self.arrays = dict(arrays)
        self.body = list(body)
        # default assumption: every parameter is non-negative
        if assumptions is None:
            assumptions = System(
                Constraint(LinExpr.variable(p), GE) for p in self.params
            )
        self.assumptions = assumptions
        _name_statements(self.body, 0)
        self._contexts: List[StatementContext] = []
        _collect_contexts(self.body, [], [], self._contexts)

    # -- queries ------------------------------------------------------------
    def statements(self) -> List[StatementContext]:
        """Statement contexts in syntactic order."""
        return list(self._contexts)

    def statement(self, name: str) -> StatementContext:
        for ctx in self._contexts:
            if ctx.name == name:
                return ctx
        raise KeyError(f"no statement named {name!r}")

    def array(self, name: str) -> ArrayDecl:
        return self.arrays[name]

    def matrices(self) -> List[str]:
        return [n for n, d in self.arrays.items() if d.kind == "matrix"]

    def referenced_arrays(self) -> Tuple[str, ...]:
        seen, out = set(), []
        for ctx in self._contexts:
            for a in ctx.stmt.arrays():
                if a not in seen:
                    seen.add(a)
                    out.append(a)
        return tuple(out)

    def __repr__(self):
        return f"Program({self.name!r}, {len(self._contexts)} statements)"


# construction helpers: module functions, since a nested recursive one
# leaves a reference cycle per program

def _name_statements(items, count: int) -> int:
    """Name the statements under ``items`` S1, S2, ... in syntactic order,
    after the ``count`` named before them; returns the new count."""
    for item in items:
        if isinstance(item, Statement):
            count += 1
            item.name = f"S{count}"
        elif isinstance(item, Loop):
            count = _name_statements(item.body, count)
        else:
            raise TypeError(f"program body items must be Loop/Statement, got {type(item).__name__}")
    return count


def _collect_contexts(items, loops: List[Loop], pos_prefix: List[int],
                      out: List[StatementContext]) -> None:
    """Append a context per statement under ``items`` to ``out``."""
    for idx, item in enumerate(items):
        if isinstance(item, Statement):
            out.append(StatementContext(item, loops, pos_prefix + [idx]))
        else:
            _collect_contexts(item.body, loops + [item], pos_prefix + [idx], out)
