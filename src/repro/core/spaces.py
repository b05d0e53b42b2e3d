"""Statement spaces and product spaces (paper Section 3.1, problem 1, and
Section 4's sparse refinement).

Each statement's *statement space* is the Cartesian product of its iteration
space (one dimension per surrounding loop) and its *sparse data space* (one
dimension per stored axis of each sparse reference, after pushing the
format's ``map`` rules through — e.g. a DIA reference contributes (d, o)
rather than (r, c)).

A *product space* is an ordered list of dimensions drawn from all statement
spaces, with join groups fusing dimensions that are enumerated together
(the paper's common enumerations).  Statements referencing aggregated
(Union) formats are split into one copy per branch before spaces are built
(paper Section 4).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.accesses import Access, collect_accesses, READ, WRITE
from repro.formats.base import SparseFormat
from repro.formats.views import AccessPath
from repro.ir.program import Program, StatementContext
from repro.polyhedra.linexpr import LinExpr
from repro.polyhedra.system import Constraint, System, EQ, GE


class SparseRef:
    """One access to a sparse matrix inside one statement copy, resolved to
    a concrete access path of the bound format.

    Variable names are qualified by the owning *copy* label (``S2[u0]#1.d``)
    so that Union-split copies of one statement never collide.
    """

    __slots__ = ("access", "fmt", "path", "owner_label")

    def __init__(self, access: Access, fmt: SparseFormat, path: AccessPath,
                 owner_label: str = ""):
        self.access = access
        self.fmt = fmt
        self.path = path
        self.owner_label = owner_label or access.stmt_name

    @property
    def stmt_name(self) -> str:
        return self.access.stmt_name

    @property
    def array(self) -> str:
        return self.access.array

    @property
    def key(self) -> Tuple[str, int]:
        """(copy label, ref ordinal) — unique across the product space."""
        return (self.owner_label, self.access.ref_id)

    def axis_var(self, axis: str) -> str:
        """Qualified product-space variable for one stored axis of this
        reference: 'S2[u0]#1.d'."""
        return f"{self.owner_label}#{self.access.ref_id}.{axis}"

    def axis_vars(self) -> List[str]:
        return [self.axis_var(a) for a in self.path.axis_names]

    def relation(self, iter_qual) -> System:
        """Affine constraints tying this reference's axis variables to the
        copy's iteration variables:

        - access coupling: ``subs_dim(axes) == index_expr(iteration vars)``
          for each logical dimension of the matrix;
        - the format's bounds annotation, rewritten onto the axes;
        - axis value ranges known from the matrix shape.

        ``iter_qual`` maps local loop-variable names to qualified names.
        """
        amap = {a: self.axis_var(a) for a in self.path.axis_names}
        cons: List[Constraint] = []
        logical_order = ("r", "c")
        for dim_name, idx_expr in zip(logical_order, self.access.indices):
            stored = self.path.subs[dim_name].rename(amap)
            it = idx_expr.rename(iter_qual).lin
            cons.append(Constraint(stored - it, EQ))
        bounds = self.fmt.bounds()
        if bounds is not None:
            # bounds are over logical "r","c": express through the subs
            bindings = {
                d: self.path.subs[d].rename(amap) for d in logical_order
            }
            cons.extend(bounds.substitute(bindings).constraints)
        for a in self.path.axis_names:
            rng = self.fmt.axis_range(a)
            if rng is not None:
                lo, hi = rng
                v = LinExpr.variable(self.axis_var(a))
                cons.append(Constraint(v - lo, GE))
                cons.append(Constraint(LinExpr.constant(hi - 1) - v, GE))
        return System(cons)

    def __repr__(self):
        return f"<ref {self.owner_label}#{self.access.ref_id} {self.array}:{self.path.path_id}>"


class StmtCopy:
    """A statement, possibly specialized to one aggregation branch per
    Union-format reference.  Copies of the same statement share its
    dependence classes but get their own qualified variable namespace."""

    __slots__ = ("ctx", "refs", "copy_tag")

    def __init__(self, ctx: StatementContext, refs: Sequence[SparseRef], copy_tag: str):
        self.ctx = ctx
        self.copy_tag = copy_tag  # "" or like "u0", "u0|u1" for multiple unions
        self.refs = [
            SparseRef(r.access, r.fmt, r.path, self.label) for r in refs
        ]

    @property
    def name(self) -> str:
        return self.ctx.name

    @property
    def label(self) -> str:
        return self.name + (f"[{self.copy_tag}]" if self.copy_tag else "")

    def qual(self, var: str) -> str:
        """Copy-qualified name of a local loop variable."""
        return f"{self.label}.{var}"

    def qual_map(self) -> Dict[str, str]:
        return {v: self.qual(v) for v in self.ctx.vars}

    def iter_vars(self) -> List[str]:
        return [self.qual(v) for v in self.ctx.vars]

    def all_vars(self) -> List[str]:
        out = self.iter_vars()
        for ref in self.refs:
            out.extend(ref.axis_vars())
        return out

    def relation(self) -> System:
        """Domain constraints + every reference's relation, all over this
        copy's qualified variables."""
        dom = self.ctx.domain().rename({
            self.ctx.qualified(v): self.qual(v) for v in self.ctx.vars
        })
        sys_ = dom
        for ref in self.refs:
            sys_ = sys_.conjoin(ref.relation(self.qual_map()))
        return sys_

    def ref_by_ordinal(self, ref_id: int) -> Optional[SparseRef]:
        for r in self.refs:
            if r.access.ref_id == ref_id:
                return r
        return None

    def __repr__(self):
        return f"<copy {self.label} refs={self.refs}>"


def build_copies(
    program: Program,
    bindings: Mapping[str, SparseFormat],
    path_choice: Mapping[Tuple[str, int], str],
) -> List[StmtCopy]:
    """Instantiate statement copies for a given per-reference path choice.

    ``path_choice`` maps (stmt_name, ref_id) to a path id for references to
    Perspective formats; references to Union formats are expanded into one
    copy per combination of branches, with ``path_choice`` selecting among
    paths *within* each branch (key extended with the branch id is tried
    first, then the bare key).
    """
    copies: List[StmtCopy] = []
    for ctx in program.statements():
        sparse_accesses: List[Access] = []
        ordinal = 0
        acc_list = []
        acc_list.append(Access(ctx, ctx.stmt.lhs.array, WRITE, ctx.stmt.lhs.indices, 0))
        for r in ctx.stmt.reads():
            if r.array == "__var__":
                continue
            ordinal += 1
            acc_list.append(Access(ctx, r.array, READ, r.indices, ordinal))
        for acc in acc_list:
            if acc.array in bindings:
                sparse_accesses.append(acc)

        # each Union-format access picks a branch; the copy set is the
        # cross-product of branch choices
        branch_options: List[List[str]] = []
        for acc in sparse_accesses:
            fmt = bindings[acc.array]
            branch_options.append(fmt.union_branches())
        if not sparse_accesses:
            copies.append(StmtCopy(ctx, [], ""))
            continue
        for combo in itertools.product(*branch_options):
            refs: List[SparseRef] = []
            ok = True
            for acc, br in zip(sparse_accesses, combo):
                fmt = bindings[acc.array]
                cands = [p for p in fmt.paths() if p.branch == br]
                chosen = None
                key_with_branch = (acc.stmt_name, acc.ref_id, br)
                if key_with_branch in path_choice:
                    pid = path_choice[key_with_branch]
                    chosen = next((p for p in cands if p.path_id == pid), None)
                elif acc.key() in path_choice:
                    pid = path_choice[acc.key()]
                    chosen = next((p for p in cands if p.path_id == pid), None)
                if chosen is None:
                    chosen = cands[0]
                refs.append(SparseRef(acc, fmt, chosen))
            tag = "|".join(b for b in combo if b)
            copies.append(StmtCopy(ctx, refs, tag))
    return copies


def copy_var_bounds(copies: Sequence[StmtCopy]) -> Dict[str, Tuple[LinExpr, LinExpr]]:
    """Loop bounds of every copy-qualified iteration variable, as
    expressions over outer qualified variables and parameters."""
    out: Dict[str, Tuple[LinExpr, LinExpr]] = {}
    for copy in copies:
        qmap = copy.qual_map()
        for loop in copy.ctx.loops:
            lo = loop.lower.rename(qmap).lin
            hi = loop.upper.rename(qmap).lin
            out[copy.qual(loop.var)] = (lo, hi)
    return out


class ProductDim:
    """One dimension of the product space.

    ``members`` lists the (SparseRef, axis-name) pairs fused into this
    dimension (a non-empty list makes it a *data* dimension; joined members
    are the paper's common enumerations).  ``owner_var`` names the iteration
    variable for pure iteration dimensions.
    """

    __slots__ = ("name", "members", "owner_var", "joint_with")

    def __init__(self, name: str, members: Sequence[Tuple[SparseRef, str]] = (),
                 owner_var: Optional[str] = None):
        self.name = name
        self.members = list(members)
        self.owner_var = owner_var
        # dims produced by the same joint step as this one (set by the
        # space builder for COO-style tuple steps)
        self.joint_with: List["ProductDim"] = []

    @property
    def is_data(self) -> bool:
        return bool(self.members)

    def __repr__(self):
        if self.is_data:
            ms = ",".join(f"{r.stmt_name}#{r.access.ref_id}.{a}" for r, a in self.members)
            return f"Dim({self.name}:[{ms}])"
        return f"Dim({self.name}:{self.owner_var})"


class ProductSpace:
    """An ordered product space: data dimensions first (the data-centric
    heuristic of paper Section 4.3), then iteration dimensions."""

    __slots__ = ("dims", "copies")

    def __init__(self, dims: Sequence[ProductDim], copies: Sequence[StmtCopy]):
        self.dims = list(dims)
        self.copies = list(copies)

    def data_dims(self) -> List[ProductDim]:
        return [d for d in self.dims if d.is_data]

    def iter_dims(self) -> List[ProductDim]:
        return [d for d in self.dims if not d.is_data]

    def __repr__(self):
        return "ProductSpace(" + " x ".join(d.name for d in self.dims) + ")"
