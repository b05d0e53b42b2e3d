"""Enumeration plans: the data-centric pseudocode of paper Figures 5/8.

A plan is a tree of nodes:

- :class:`LoopNode` — enumerate one product-space dimension cluster (a
  single axis, or the axes of a joint step) through a concrete
  *enumeration method*; carries the per-copy value bindings, the roles of
  each participating sparse reference (driver / shared / searched), and
  three sub-plans: ``before`` (copies placed BEFORE this dimension's
  enumeration), ``body`` and ``after``;
- :class:`VarLoopNode` — an interval loop over a dimension none of whose
  active copies owns stored data (a pure iteration dimension that is not
  yet determined);
- :class:`ExecNode` — execute one statement copy's instances at the
  current point, guarded by its residual domain/relation inequalities.

:func:`build_plan` lowers a (product space, embedding, order analysis)
triple into a plan, deciding for each dimension how it can be enumerated
(stored order / interval-and-search / gather-and-sort) so that every
required direction is honoured, which references share one enumeration
(the paper's common enumerations), which are searched (the paper's
redundant-dimension searches), and which guards remain.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.embedding import AT, BEFORE, AFTER, DEC, INC, OrderAnalysis, SpaceEmbedding
from repro.core.facts import SearchFacts
from repro.core.redundancy import DeterminacyTracker
from repro.core.spaces import ProductSpace, SparseRef, StmtCopy
from repro.instrument import INSTR
from repro.polyhedra.linexpr import LinExpr
from repro.polyhedra.system import System


class PlanError(ValueError):
    """This (space, embedding) candidate cannot be lowered to a plan."""


# ---------------------------------------------------------------------------
# Enumeration methods
# ---------------------------------------------------------------------------

class EnumMethod:
    __slots__ = ()


class StoredEnum(EnumMethod):
    """Walk the driver's path step in stored order (optionally reversed:
    a DECREASING-stored axis enumerated when increasing order is needed)."""

    __slots__ = ("driver", "step", "reverse")

    def __init__(self, driver: SparseRef, step: int, reverse: bool = False):
        self.driver = driver
        self.step = step
        self.reverse = reverse

    def __repr__(self):
        r = " reversed" if self.reverse else ""
        return f"enumerate {self.driver!r} step {self.step}{r}"


class SortedEnum(EnumMethod):
    """Gather the driver's step and sort lexicographically by keys, with a
    per-axis sign (+1 ascending, -1 descending); the fallback that realizes
    any required direction on any format at O(k log k) cost."""

    __slots__ = ("driver", "step", "signs")

    def __init__(self, driver: SparseRef, step: int, signs: Tuple[int, ...] = ()):
        self.driver = driver
        self.step = step
        self.signs = tuple(signs)

    def __repr__(self):
        return f"sort-enumerate {self.driver!r} step {self.step} signs={self.signs}"


class IntervalEnum(EnumMethod):
    """Count through the dimension's value interval (from the driver's
    runtime bounds) in the required direction, searching each reference for
    every value — the paper's interval + search pattern (Figure 9's
    ``for r ... search(...)``)."""

    __slots__ = ("driver", "step", "reverse")

    def __init__(self, driver: SparseRef, step: int, reverse: bool = False):
        self.driver = driver
        self.step = step
        self.reverse = reverse

    def __repr__(self):
        r = " downward" if self.reverse else ""
        return f"interval-enumerate {self.driver!r} step {self.step}{r}"


class SearchEnum(EnumMethod):
    """The dimension's value is already determined by earlier bindings:
    compute it and *search* the driver instead of enumerating — exactly the
    paper's treatment of redundant dimensions ("we generate code to search
    for this value", Section 4.1)."""

    __slots__ = ("driver", "step", "key_exprs")

    def __init__(self, driver: SparseRef, step: int, key_exprs: Sequence[LinExpr]):
        self.driver = driver
        self.step = step
        self.key_exprs = tuple(key_exprs)

    def __repr__(self):
        ks = ", ".join(repr(e) for e in self.key_exprs)
        return f"search {self.driver!r} step {self.step} for ({ks})"


# roles of member references within a LoopNode
DRIVER = "driver"
SHARED = "shared"     # same matrix+path as the driver: reuse its state
SEARCH = "search"     # independently searched with the dimension value


class RefRole:
    __slots__ = ("ref", "role", "step")

    def __init__(self, ref: SparseRef, role: str, step: int):
        self.ref = ref
        self.role = role
        self.step = step

    def __repr__(self):
        return f"{self.role}:{self.ref!r}"


class Bind:
    """Unify one copy's affine expression with one enumerated axis value."""

    __slots__ = ("copy_label", "axis_pos", "expr")

    def __init__(self, copy_label: str, axis_pos: int, expr: LinExpr):
        self.copy_label = copy_label
        self.axis_pos = axis_pos
        self.expr = expr

    def __repr__(self):
        return f"{self.copy_label}: {self.expr!r} == key[{self.axis_pos}]"


# ---------------------------------------------------------------------------
# Plan nodes
# ---------------------------------------------------------------------------

class PlanNode:
    __slots__ = ()


class LoopNode(PlanNode):
    __slots__ = ("dim_names", "method", "roles", "binds", "before", "body", "after")

    def __init__(self, dim_names: Sequence[str], method: EnumMethod,
                 roles: Sequence[RefRole], binds: Sequence[Bind],
                 before: Sequence[PlanNode], body: Sequence[PlanNode],
                 after: Sequence[PlanNode]):
        self.dim_names = tuple(dim_names)
        self.method = method
        self.roles = list(roles)
        self.binds = list(binds)
        self.before = list(before)
        self.body = list(body)
        self.after = list(after)


class VarLoopNode(PlanNode):
    __slots__ = ("dim_name", "lo", "hi", "reverse", "binds", "body")

    def __init__(self, dim_name: str, lo: LinExpr, hi: LinExpr, reverse: bool,
                 binds: Sequence[Bind], body: Sequence[PlanNode]):
        self.dim_name = dim_name
        self.lo = lo
        self.hi = hi  # exclusive
        self.reverse = reverse
        self.binds = list(binds)
        self.body = list(body)


class ExecNode(PlanNode):
    __slots__ = ("copy", "guards")

    def __init__(self, copy: StmtCopy, guards: Sequence[LinExpr]):
        self.copy = copy
        # each guard is an affine expression required to be >= 0
        self.guards = list(guards)


class Plan:
    """A complete lowered plan plus the analyses that produced it."""

    def __init__(self, space: ProductSpace, emb: SpaceEmbedding,
                 order: OrderAnalysis, nodes: Sequence[PlanNode]):
        self.space = space
        self.emb = emb
        self.order = order
        self.nodes = list(nodes)

    def simplify_guards(self, param_values: Optional[Dict[str, int]] = None) -> None:
        """Drop execution guards that are implied by the stored structure
        (the copy's access relation with the compile-time sizes substituted)
        plus the remaining guards.  The generated code then carries exactly
        the guards a hand-written kernel would (paper Figures 5/8: the
        ``row == col`` / ``col < row`` tests and nothing else).

        Assumes runtime size parameters match the compile-time binding —
        the usual BLAS contract.
        """
        from repro.polyhedra.fm import implies
        from repro.polyhedra.system import Constraint, GE, System

        params = {k: LinExpr.constant(v) for k, v in (param_values or {}).items()}

        def context_for(copy: StmtCopy) -> System:
            """What is *known* at execution without checking: the access
            coupling equalities, the per-reference inequalities the stored
            structure guarantees (axis ranges, bounds annotations), and the
            value ranges of the enumerated dimensions the copy is fused
            into.  The copy's own loop-bound inequalities are exactly what
            the guards must test, so they are NOT part of the context."""
            from repro.polyhedra.system import GE as _GE

            cons = list(copy.relation().equalities())
            for ref in copy.refs:
                cons.extend(ref.relation(copy.qual_map()).inequalities())
            # enumerated data dimensions bound the copy's value expressions
            for di, dim in enumerate(self.space.dims):
                if not dim.is_data:
                    continue
                e = self.emb.of(copy, di)
                if e.placement != AT:
                    continue
                ref0, axis0 = dim.members[0]
                rng = ref0.fmt.axis_range(axis0)
                if rng is None:
                    continue
                lo, hi = rng
                cons.append(Constraint(e.value - lo, _GE))
                cons.append(Constraint(LinExpr.constant(hi - 1) - e.value, _GE))
            return System(cons)

        def visit(nodes: Sequence[PlanNode], extra: List[Constraint]) -> None:
            for n in nodes:
                if isinstance(n, ExecNode):
                    base = context_for(n.copy).substitute(params)
                    base = base.conjoin(System(extra)).substitute(params)
                    guards = [g.substitute(params) for g in n.guards]
                    kept_idx: List[int] = []
                    for i, g in enumerate(guards):
                        # context: guards already kept plus those still
                        # undecided (later ones) — never already-dropped ones
                        others = [guards[j] for j in kept_idx] + guards[i + 1:]
                        ctx = base.conjoin(System(Constraint(o, GE) for o in others))
                        if not implies(ctx, Constraint(g, GE)):
                            kept_idx.append(i)
                    n.guards = [n.guards[i] for i in kept_idx]
                elif isinstance(n, LoopNode):
                    visit(n.before, extra)
                    visit(n.body, extra)
                    visit(n.after, extra)
                elif isinstance(n, VarLoopNode):
                    # inside the loop every bound expression lies in
                    # [lo, hi)
                    from repro.polyhedra.system import GE as _GE

                    inner = list(extra)
                    for b in n.binds:
                        inner.append(Constraint(b.expr - n.lo, _GE))
                        inner.append(Constraint(n.hi - 1 - b.expr, _GE))
                    visit(n.body, inner)

        visit(self.nodes, [])
        # ``visit`` calls itself through its cell, a cycle that holds this
        # plan (and its matrices) until the collector runs: empty the cell
        del visit

    def pretty(self) -> str:
        """Render as data-centric pseudocode in the style of paper
        Figures 5 and 8."""
        out: List[str] = []
        _pretty(self.nodes, 0, out)
        return "\n".join(out)


def _pretty(nodes: Sequence[PlanNode], depth: int, out: List[str]) -> None:
    """:meth:`Plan.pretty`'s lines for ``nodes``, appended to ``out`` (a
    module function: a nested recursive one would leave a reference cycle
    per call, and a search prints every plan it lowers)."""
    pad = "    " * depth
    for n in nodes:
        if isinstance(n, LoopNode):
            if n.before:
                out.append(f"{pad}# before the {','.join(n.dim_names)} "
                           f"enumeration:")
                _pretty(n.before, depth, out)
            names = ",".join(n.dim_names)
            out.append(f"{pad}for ({names}) = {n.method!r}:")
            for role in n.roles:
                if role.role != DRIVER:
                    out.append(f"{pad}    [{role.role} {role.ref!r}]")
            _pretty(n.body, depth + 1, out)
            if n.after:
                out.append(f"{pad}# after the {','.join(n.dim_names)} "
                           f"enumeration:")
                _pretty(n.after, depth, out)
        elif isinstance(n, VarLoopNode):
            d = " downto" if n.reverse else ""
            out.append(f"{pad}for {n.dim_name} in [{n.lo!r}, {n.hi!r}){d}:")
            _pretty(n.body, depth + 1, out)
        elif isinstance(n, ExecNode):
            g = f" if {n.guards}" if n.guards else ""
            out.append(f"{pad}execute {n.copy.label}{g}")


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------

def _share_groups(members: Sequence[Tuple[SparseRef, str]],
                  share_sig: Dict[Tuple[str, int], Tuple]) -> List[List[Tuple[SparseRef, str]]]:
    """Group member (ref, axis) pairs that can share one enumeration: same
    matrix object, same path, and identical sharing history on all outer
    steps (so their runtime prefixes coincide)."""
    groups: Dict[Tuple, List[Tuple[SparseRef, str]]] = {}
    for ref, axis in members:
        sig = (id(ref.fmt), ref.path.path_id, share_sig.get(ref.key, ()))
        groups.setdefault(sig, []).append((ref, axis))
    return list(groups.values())


def build_plan(
    space: ProductSpace,
    emb: SpaceEmbedding,
    order: OrderAnalysis,
    facts: SearchFacts,
) -> Plan:
    """Lower a legal (space, embedding) into an executable plan.

    ``facts`` is the search's table for the space's copies: their guards,
    base determinacy trackers, loop bounds (lower inclusive, upper
    exclusive, as expressions over outer qualified variables and
    parameters) and value ranges at the search's parameter sizes, for the
    totality checks (a statement fused into a stored enumeration must be
    guaranteed to see all of its instances).
    """
    if not order.legal:
        raise PlanError(f"illegal embedding: {order.reason}")
    INSTR.count("plan.build_calls")
    trackers = {c.label: facts.tracker(c) for c in space.copies}
    roots = _PlanBuilder(emb, order, facts).build(
        0, [c.label for c in space.copies], trackers, {})
    return Plan(space, emb, order, roots)


def _pinned(trackers: Dict[str, DeterminacyTracker],
            pins: Sequence[Tuple[str, LinExpr]]) -> Dict[str, DeterminacyTracker]:
    """Copy-on-pin: ``trackers`` with each pinned copy's tracker cloned
    (once) and pinned; every other tracker is shared."""
    out = dict(trackers)
    for label, expr in pins:
        tracker = out[label]
        if tracker is trackers[label]:
            tracker = out[label] = tracker.clone()
        tracker.pin(expr)
    return out


class _PlanBuilder:
    """Builds one plan's nodes, one dimension (cluster) per level.

    :meth:`build` recurses with the copies still active below the current
    point, one determinacy tracker per copy, and each reference's sharing
    history (a tuple of group-leader ids, one per step).  Neither is
    changed in place: a level pins only trackers it cloned itself
    (:func:`_pinned`) and extends the history in a new dict, so the BEFORE
    and AFTER subtrees are handed the level's own."""

    __slots__ = ("embs", "order", "facts", "copies", "dims")

    def __init__(self, emb: SpaceEmbedding, order: OrderAnalysis,
                 facts: SearchFacts):
        self.embs = emb.per_copy        # label -> one DimEmbedding per dim
        self.order = order
        self.facts = facts
        self.copies = {c.label: c for c in emb.space.copies}
        self.dims = list(emb.space.dims)

    def build(self, dim_idx: int, active: List[str],
              trackers: Dict[str, DeterminacyTracker],
              share_sig: Dict[Tuple[str, int], Tuple]) -> List[PlanNode]:
        if not active:
            return []
        dims, copies = self.dims, self.copies
        if dim_idx >= len(dims):
            return [ExecNode(copies[l], self.facts.guards(copies[l]))
                    for l in active]

        dim = dims[dim_idx]
        direction = self.order.directions.get(dim_idx)

        # partition by placement
        seg = {BEFORE: [], AT: [], AFTER: []}
        for label in active:
            seg[self.embs[label][dim_idx].placement].append(label)

        members_at = [(ref, axis) for ref, axis in dim.members
                      if ref.owner_label in seg[AT]]

        # cluster: joint-step dims are consumed together
        cluster_dims = [dim]
        consumed = 1
        if members_at and dim.joint_with:
            for jd in dim.joint_with:
                nxt = dims[dim_idx + consumed] if dim_idx + consumed < len(dims) else None
                if nxt is not jd:
                    raise PlanError(
                        f"joint dims {dim.name}/{jd.name} are not adjacent in the order"
                    )
                cluster_dims.append(jd)
                consumed += 1

        if members_at:
            return [self._loop(dim_idx, cluster_dims, consumed, seg, trackers,
                               share_sig, direction)]

        # ---- no stored member among active copies -------------------------
        at_exprs: List[Tuple[str, LinExpr]] = []
        for label in seg[AT]:
            at_exprs.append((label, self.embs[label][dim_idx].value))

        undet = [(l, ex) for l, ex in at_exprs if not trackers[l].is_determined(ex)]
        if not undet:
            if direction is not None and len(seg[AT]) > 1:
                raise PlanError(
                    f"dimension {dim.name} needs ordered enumeration but is "
                    f"fully determined for all copies"
                )
            nodes = self.build(dim_idx + 1, seg[BEFORE], trackers, share_sig)
            nodes += self.build(dim_idx + 1, seg[AT],
                                _pinned(trackers, at_exprs), share_sig)
            nodes += self.build(dim_idx + 1, seg[AFTER], trackers, share_sig)
            return nodes

        # an undetermined pure-iteration dimension: loop over its values
        lo, hi = self._var_loop_bounds(undet, trackers)
        binds = [Bind(l, 0, ex) for l, ex in at_exprs]
        nodes = self.build(dim_idx + 1, seg[BEFORE], trackers, share_sig)
        body = self.build(dim_idx + 1, seg[AT], _pinned(trackers, at_exprs),
                          share_sig)
        nodes.append(VarLoopNode(dim.name, lo, hi, direction == DEC, binds, body))
        nodes += self.build(dim_idx + 1, seg[AFTER], trackers, share_sig)
        return nodes

    def _var_loop_bounds(
        self,
        undet: List[Tuple[str, LinExpr]],
        trackers: Dict[str, DeterminacyTracker],
    ) -> Tuple[LinExpr, LinExpr]:
        """Dimension-value bounds for a pure iteration loop.

        Every undetermined copy expression must be (var + const) with the
        variable's loop bounds known; all derived ranges must agree
        syntactically (a conservative but exact criterion)."""
        ranges: List[Tuple[LinExpr, LinExpr]] = []
        for label, ex in undet:
            unbound = trackers[label].unbound_vars(ex)
            if len(unbound) != 1:
                raise PlanError(
                    f"dimension value {ex!r} of copy {label} has {len(unbound)} "
                    f"unbound variables; cannot drive a loop"
                )
            v = unbound[0]
            cv = ex.coeff(v)
            if cv not in (1, -1):
                raise PlanError(f"non-unit coefficient on loop variable in {ex!r}")
            var_bounds = self.facts.var_bounds(self.copies[label])
            if v not in var_bounds:
                raise PlanError(f"no loop bounds known for {v}")
            vlo, vhi = var_bounds[v]
            rest = ex - LinExpr({v: cv})
            if cv == 1:
                ranges.append((vlo + rest, vhi + rest))
            else:
                # value = -v + rest, v in [vlo, vhi) -> value in (rest - vhi, rest - vlo]
                ranges.append((rest - vhi + 1, rest - vlo + 1))
        first = ranges[0]
        for r in ranges[1:]:
            if r[0] != first[0] or r[1] != first[1]:
                raise PlanError("iteration-dimension ranges of fused copies differ")
        return first

    def _loop(self, dim_idx, cluster_dims, consumed, seg, trackers, share_sig,
              direction) -> LoopNode:
        """Construct the LoopNode for a data dimension (cluster)."""
        from repro.formats.views import DECREASING, INCREASING

        embs, copies = self.embs, self.copies
        # members of every cluster dim, deduplicated by reference
        all_members: List[Tuple[SparseRef, str]] = []
        seen_refs: Set[Tuple[str, int]] = set()
        for cd in cluster_dims:
            for ref, axis in cd.members:
                if ref.owner_label not in seg[AT]:
                    continue
                if ref.key not in seen_refs:
                    seen_refs.add(ref.key)
                    all_members.append((ref, axis))

        groups = _share_groups(all_members, share_sig)
        # the driver group: prefer one whose stored order matches the required
        # direction; then largest group (most sharing)
        def group_rank(g):
            ref, axis = g[0]
            av = ref.path.axis(axis)
            order_ok = (
                direction is None
                or (direction == INC and av.order == INCREASING)
                or (direction == DEC and av.order == DECREASING)
            )
            return (0 if order_ok else 1, -len(g))

        groups.sort(key=group_rank)
        driver_ref, driver_axis = groups[0][0]
        step = driver_ref.path.step_of(driver_axis)
        step_axes = driver_ref.path.steps[step].names
        if len(step_axes) != len(cluster_dims):
            raise PlanError(
                f"driver step produces axes {step_axes} but cluster has "
                f"{len(cluster_dims)} dims"
            )
        axis_views = {a.name: a for a in driver_ref.path.steps[step].axes}

        # binds: every AT copy's value expression per cluster axis (collected
        # early: the method choice depends on which are already determined)
        binds: List[Bind] = []
        member_labels = {ref.owner_label for ref, _ in all_members}
        for pos, cd in enumerate(cluster_dims):
            for label in seg[AT]:
                e = embs[label][dim_idx + pos]
                if e.placement != AT:
                    raise PlanError(
                        f"copy {label} changes placement inside joint cluster {cd.name}"
                    )
                binds.append(Bind(label, pos, e.value))

        # redundant-dimension search (paper Section 4.1): if every AT copy owns
        # stored data here and every bind is already determined, look the value
        # up instead of enumerating
        all_members_only = all(label in member_labels for label in seg[AT])
        all_determined = all(
            trackers[b.copy_label].is_determined(b.expr) for b in binds
        )
        if all_members_only and all_determined and seg[AT]:
            # a single key expression per axis, from any copy (all agree by
            # determinedness through the shared dimension value)
            key_exprs: List[LinExpr] = []
            for pos in range(len(cluster_dims)):
                b = next(b for b in binds if b.axis_pos == pos)
                key_exprs.append(b.expr)
            method: EnumMethod = SearchEnum(driver_ref, step, key_exprs)
        else:
            method = _choose_method(driver_ref, step, cluster_dims, axis_views,
                                    self.order, dim_idx)
            # totality: copies fused into this enumeration without stored data
            # here must be guaranteed to see every instance value
            for label in seg[AT]:
                if label in member_labels:
                    continue
                total = driver_ref.fmt.axis_total(
                    driver_ref.path.steps[step].names[0]
                ) if len(cluster_dims) == 1 else None
                for b in binds:
                    if b.copy_label != label:
                        continue
                    # NOTE: a determined value does not exempt the copy — the
                    # enumeration still gates execution and must be guaranteed
                    # to visit that value
                    if total is None:
                        raise PlanError(
                            f"copy {label} is fused into a stored-only enumeration "
                            f"of {cluster_dims[b.axis_pos].name}; instances could "
                            f"be missed"
                        )
                    lo, hi = self.facts.expr_range(copies[label], b.expr)
                    if hi < lo:
                        continue  # empty instance set
                    if lo < total[0] or hi > total[1] - 1:
                        raise PlanError(
                            f"instances of {label} need values [{lo},{hi}] but the "
                            f"enumeration only guarantees [{total[0]},{total[1]})"
                        )

        # roles; every participating reference must have its *previous* steps
        # already processed (the enumeration prefix exists), i.e. the product
        # order must respect each path's nesting
        roles: List[RefRole] = [RefRole(driver_ref, DRIVER, step)]
        if len(share_sig.get(driver_ref.key, ())) != step:
            raise PlanError(
                f"dimension order enumerates step {step} of {driver_ref!r} "
                f"before its outer steps"
            )
        for g_i, g in enumerate(groups):
            for ref, axis in g:
                if ref is driver_ref:
                    continue
                rstep = ref.path.step_of(axis)
                if len(share_sig.get(ref.key, ())) != rstep:
                    raise PlanError(
                        f"dimension order enumerates step {rstep} of {ref!r} "
                        f"before its outer steps"
                    )
                if g_i == 0:
                    roles.append(RefRole(ref, SHARED, rstep))
                else:
                    # a search needs the step's prefix; the generic runtime
                    # falls back to a linear scan for unsearchable axes
                    roles.append(RefRole(ref, SEARCH, rstep))

        # recurse
        before = self.build(dim_idx + consumed, seg[BEFORE], trackers, share_sig)
        tr_at = _pinned(trackers, [(b.copy_label, b.expr) for b in binds])
        sig_at = dict(share_sig)
        for g_i, g in enumerate(groups):
            leader = id(g[0][0])
            for ref, axis in g:
                sig_at[ref.key] = sig_at.get(ref.key, ()) + ((leader if g_i == 0 else id(ref)),)
        body = self.build(dim_idx + consumed, seg[AT], tr_at, sig_at)
        after = self.build(dim_idx + consumed, seg[AFTER], trackers, share_sig)

        return LoopNode([cd.name for cd in cluster_dims], method, roles, binds,
                        before, body, after)


def _choose_method(driver_ref, step, cluster_dims, axis_views, order,
                   dim_idx) -> EnumMethod:
    """Pick the cheapest enumeration honouring the required direction.

    Preference: stored order (1 visit per entry) > reversed stored order >
    interval + search (paper Figure 9) > gather-and-sort (always possible).
    """
    from repro.formats.views import DECREASING, INCREASING

    # directions required across the cluster (joint axes may each be
    # constrained)
    required = {}
    for pos, cd in enumerate(cluster_dims):
        d = order.directions.get(dim_idx + pos)
        if d is not None:
            required[pos] = d

    if not required:
        return StoredEnum(driver_ref, step)

    axes = [axis_views[name] for name in driver_ref.path.steps[step].names]

    def stored_satisfies(reverse: bool) -> bool:
        for pos, d in required.items():
            o = axes[pos].order
            if reverse:
                o = {INCREASING: DECREASING, DECREASING: INCREASING}.get(o, o)
            want = INCREASING if d == INC else DECREASING
            if o != want:
                return False
        return True

    if stored_satisfies(False):
        return StoredEnum(driver_ref, step)
    if stored_satisfies(True):
        return StoredEnum(driver_ref, step, reverse=True)

    if len(cluster_dims) == 1 and axes[0].interval:
        return IntervalEnum(driver_ref, step, reverse=(required.get(0) == DEC))

    # gather-and-sort handles everything; per-axis sign realizes mixed
    # directions on joint clusters
    signs = tuple(
        -1 if required.get(pos) == DEC else 1 for pos in range(len(cluster_dims))
    )
    return SortedEnum(driver_ref, step, signs=signs)
