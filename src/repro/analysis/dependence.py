"""Dependence classes.

For each ordered pair of accesses to the same array in which at least one is
a write, and each way the source instance can precede the destination
instance in the original execution order (strictly less at some shared-loop
level, or all shared counters equal and the source statement syntactically
first), we build the polyhedron of (source instance, destination instance)
pairs that touch the same array element.  Each non-empty polyhedron is one
*dependence class* (paper Section 3).

Source and destination instance variables are kept apart by the name
prefixes ``s$`` / ``d$``: the instance variable ``i`` of statement ``S2``
appears as ``s$S2.i`` on the source side and ``d$S2.i`` on the destination
side (even for self-dependences).  Program parameters stay unprefixed and
are shared.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.accesses import Access, collect_accesses, READ, WRITE
from repro.ir.program import Program, StatementContext
from repro.polyhedra.fm import is_feasible
from repro.polyhedra.linexpr import LinExpr
from repro.polyhedra.system import Constraint, System, EQ, GE

SRC = "s$"
DST = "d$"

FLOW = "flow"
ANTI = "anti"
OUTPUT = "output"


def src_var(stmt: str, var: str) -> str:
    return f"{SRC}{stmt}.{var}"


def dst_var(stmt: str, var: str) -> str:
    return f"{DST}{stmt}.{var}"


def _role_map(ctx: StatementContext, role: str) -> Dict[str, str]:
    """Rename local loop vars to role-qualified instance variables."""
    return {v: f"{role}{ctx.name}.{v}" for v in ctx.vars}


class DependenceClass:
    """One dependence class: kind, endpoints, and the polyhedron.

    ``level`` is the shared-loop level at which the precedence is enforced
    (``None`` for the loop-independent, syntactic-order case).
    """

    __slots__ = ("kind", "src", "dst", "src_access", "dst_access", "level", "system")

    def __init__(self, kind: str, src: StatementContext, dst: StatementContext,
                 src_access: Access, dst_access: Access,
                 level: Optional[int], system: System):
        self.kind = kind
        self.src = src
        self.dst = dst
        self.src_access = src_access
        self.dst_access = dst_access
        self.level = level
        self.system = system

    @property
    def array(self) -> str:
        return self.src_access.array

    def __repr__(self):
        lv = "syn" if self.level is None else f"L{self.level}"
        return (f"<{self.kind} {self.src.name}->{self.dst.name} on {self.array} "
                f"@{lv}: {len(self.system)} constraints>")


def _pair_system(
    src: StatementContext,
    dst: StatementContext,
    src_idx,
    dst_idx,
    level: Optional[int],
    assumptions: System,
    domains: Dict[Tuple[StatementContext, str], Tuple[Constraint, ...]],
) -> System:
    """Build the dependence polyhedron for one precedence case.
    ``domains`` keeps each statement's role-renamed domain for the
    caller's other cases."""
    smap = _role_map(src, SRC)
    dmap = _role_map(dst, DST)
    cons: List[Constraint] = []
    for ctx, role, rmap in ((src, SRC, smap), (dst, DST, dmap)):
        if (ctx, role) not in domains:
            domains[ctx, role] = ctx.domain().rename(
                {ctx.qualified(v): rmap[v] for v in ctx.vars}).constraints
        cons.extend(domains[ctx, role])
    cons.extend(assumptions.constraints)

    # same array element
    for a, b in zip(src_idx, dst_idx):
        ea = a.rename(smap).lin
        eb = b.rename(dmap).lin
        cons.append(Constraint(ea - eb, EQ))

    # execution-order precedence
    c = src.common_depth(dst)
    if level is not None:
        for l in range(level):
            va = LinExpr.variable(smap[src.vars[l]])
            vb = LinExpr.variable(dmap[dst.vars[l]])
            cons.append(Constraint(va - vb, EQ))
        va = LinExpr.variable(smap[src.vars[level]])
        vb = LinExpr.variable(dmap[dst.vars[level]])
        cons.append(Constraint(vb - va - 1, GE))  # src strictly earlier
    else:
        for l in range(c):
            va = LinExpr.variable(smap[src.vars[l]])
            vb = LinExpr.variable(dmap[dst.vars[l]])
            cons.append(Constraint(va - vb, EQ))
    return System(cons)


def dependences(program: Program, prune_infeasible: bool = True,
                dedup: bool = True) -> List[DependenceClass]:
    """All dependence classes of the program, deterministic order.

    With ``dedup`` (default), classes with identical endpoints and identical
    polyhedra are merged regardless of kind — flow/anti/output distinctions
    do not matter for ordering constraints (the paper likewise drops
    redundant dependences)."""
    accs = collect_accesses(program)
    out: List[DependenceClass] = []
    seen_sigs = set()
    assumptions = program.assumptions
    domains: Dict = {}

    for a in accs:
        for b in accs:
            if a.array != b.array:
                continue
            if a.kind == READ and b.kind == READ:
                continue
            if a.kind == WRITE and b.kind == WRITE:
                kind = OUTPUT
            elif a.kind == WRITE:
                kind = FLOW
            else:
                kind = ANTI
            src_ctx, dst_ctx = a.ctx, b.ctx
            c = src_ctx.common_depth(dst_ctx)
            # strictly-earlier at each shared level
            for level in range(c):
                sys_ = _pair_system(src_ctx, dst_ctx, a.indices, b.indices, level,
                                    assumptions, domains)
                if prune_infeasible and not is_feasible(sys_):
                    continue
                if dedup:
                    sig = (src_ctx.name, dst_ctx.name, a.array,
                           frozenset(sys_.constraints))
                    if sig in seen_sigs:
                        continue
                    seen_sigs.add(sig)
                out.append(DependenceClass(kind, src_ctx, dst_ctx, a, b, level, sys_))
            # loop-independent: all shared counters equal, syntactic order
            if src_ctx.stmt is dst_ctx.stmt:
                if a.ref_id == b.ref_id:
                    continue  # the same access cannot depend on itself at equal iteration
                # within one statement, reads happen before the write completes;
                # a (read, write) pair at the same instance is the ordinary
                # read-then-write of an update and imposes no extra constraint.
                continue
            if src_ctx.precedes_syntactically(dst_ctx, c):
                sys_ = _pair_system(src_ctx, dst_ctx, a.indices, b.indices, None,
                                    assumptions, domains)
                if prune_infeasible and not is_feasible(sys_):
                    continue
                if dedup:
                    sig = (src_ctx.name, dst_ctx.name, a.array,
                           frozenset(sys_.constraints))
                    if sig in seen_sigs:
                        continue
                    seen_sigs.add(sig)
                out.append(DependenceClass(kind, src_ctx, dst_ctx, a, b, None, sys_))
    return out
