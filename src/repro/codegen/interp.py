"""Reference interpreter for enumeration plans.

Executes a plan directly against the abstract path runtimes — the exact
operational semantics of the data-centric pseudocode (paper Figures 5/8).
It is deliberately simple (per-iteration context forks, generic unification
of affine bindings with relation propagation) and serves as the correctness
oracle for the specialized Python source emitted by
:mod:`repro.codegen.pysource`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.plan import (
    Bind,
    DRIVER,
    ExecNode,
    IntervalEnum,
    LoopNode,
    Plan,
    PlanNode,
    RefRole,
    SEARCH,
    SHARED,
    SearchEnum,
    SortedEnum,
    StoredEnum,
    VarLoopNode,
)
from repro.core.spaces import SparseRef, StmtCopy
from repro.formats.base import PathRuntime, SparseFormat
from repro.ir.expr import ValExpr, VBin, VConst, VNeg, VParam, VRead
from repro.polyhedra.linexpr import Coeffish, LinExpr


class ExecutionError(RuntimeError):
    """The plan hit a state the compiler should have prevented."""


class _Ctx:
    """Mutable interpreter context: one dictionary of bound (qualified)
    variables, per-reference state stacks, and the set of pruned copies."""

    __slots__ = ("env", "refstates", "pruned")

    def __init__(self, env: Dict[str, int], refstates: Dict[Tuple[str, int], Tuple],
                 pruned: Set[str]):
        self.env = env
        self.refstates = refstates
        self.pruned = pruned

    def fork(self) -> "_Ctx":
        return _Ctx(dict(self.env), dict(self.refstates), set(self.pruned))


class PlanInterpreter:
    """Executes one plan for one set of inputs."""

    def __init__(self, plan: Plan, arrays: Mapping[str, object],
                 params: Mapping[str, int]):
        self.plan = plan
        self.arrays = dict(arrays)
        self.params = {k: int(v) for k, v in params.items()}
        self.copies: Dict[str, StmtCopy] = {c.label: c for c in plan.space.copies}
        # runtimes and relation equalities per copy, built once
        self.runtimes: Dict[Tuple[str, int], PathRuntime] = {}
        self.fmt_of_ref: Dict[Tuple[str, int], SparseFormat] = {}
        self.relations: Dict[str, List[LinExpr]] = {}
        self.copy_vars: Dict[str, List[str]] = {}
        for copy in plan.space.copies:
            eqs = [c.expr for c in copy.relation().equalities()]
            self.relations[copy.label] = eqs
            self.copy_vars[copy.label] = copy.all_vars()
            for ref in copy.refs:
                fmt = self.arrays.get(ref.array)
                if not isinstance(fmt, SparseFormat):
                    raise ExecutionError(
                        f"array {ref.array!r} must be given as a "
                        f"{type(ref.fmt).__name__} instance"
                    )
                self.runtimes[ref.key] = fmt.runtime(ref.path.path_id)
                self.fmt_of_ref[ref.key] = fmt

    # -- variable unification ---------------------------------------------
    def _value_of(self, name: str, env: Dict[str, int]) -> Optional[int]:
        if name in env:
            return env[name]
        if name in self.params:
            return self.params[name]
        return None

    def _unify(self, copy_label: str, expr: LinExpr, value: int,
               ctx: _Ctx) -> bool:
        """Bind/check ``expr == value``; propagate relation equalities.
        Returns False when the copy's instance set is empty here."""
        residual = Fraction(value) - expr.const
        unbound: List[Tuple[str, Coeffish]] = []
        for v in expr.variables():
            val = self._value_of(v, ctx.env)
            if val is None:
                unbound.append((v, expr.coeff(v)))
            else:
                residual -= expr.coeff(v) * val
        if not unbound:
            return residual == 0
        if len(unbound) > 1:
            raise ExecutionError(f"cannot unify {expr!r}: several unbound variables")
        name, coeff = unbound[0]
        sol = residual / coeff
        if sol.denominator != 1:
            return False
        ctx.env[name] = int(sol)
        return self._propagate(copy_label, ctx)

    def _propagate(self, copy_label: str, ctx: _Ctx) -> bool:
        """Solve the copy's relation equalities against the bound values.

        Fast path: repeatedly solve equalities with a single unknown.  When
        that stalls, fall back to exact Gaussian elimination over the whole
        equality system — needed when a variable is only determined by a
        *combination* of equalities (e.g. DIA's ``d + o == i`` and
        ``o == i`` force ``d == 0`` before any axis is enumerated)."""
        changed = True
        while changed:
            changed = False
            for eq in self.relations[copy_label]:
                # a Fraction whatever the coefficients are: the quotient
                # below must be exact, and int / int would be a float
                residual = Fraction(-eq.const)
                unbound: List[Tuple[str, Coeffish]] = []
                for v in eq.variables():
                    val = self._value_of(v, ctx.env)
                    if val is None:
                        unbound.append((v, eq.coeff(v)))
                    else:
                        residual -= eq.coeff(v) * val
                if not unbound:
                    if residual != 0:
                        return False
                elif len(unbound) == 1:
                    name, coeff = unbound[0]
                    sol = residual / coeff
                    if sol.denominator != 1:
                        return False
                    ctx.env[name] = int(sol)
                    changed = True
        if all(v in ctx.env for v in self.copy_vars[copy_label]):
            return True
        return self._propagate_full(copy_label, ctx)

    def _propagate_full(self, copy_label: str, ctx: _Ctx) -> bool:
        """Exact Gaussian elimination over (relations + bound values)."""
        from repro.util.fractions_linalg import FractionMatrix, row_reduce

        vars_ = self.copy_vars[copy_label]
        index = {v: i for i, v in enumerate(vars_)}
        ncols = len(vars_) + 1
        rows: List[List[Fraction]] = []
        for eq in self.relations[copy_label]:
            row = [Fraction(0)] * ncols
            row[-1] = eq.const
            for v in eq.variables():
                if v in index:
                    row[index[v]] = eq.coeff(v)
                else:
                    val = self._value_of(v, ctx.env)
                    if val is None:
                        raise ExecutionError(f"unknown variable {v!r} in relation")
                    row[-1] += eq.coeff(v) * val
            rows.append(row)
        for v in vars_:
            val = self._value_of(v, ctx.env)
            if val is not None:
                row = [Fraction(0)] * ncols
                row[index[v]] = Fraction(1)
                row[-1] = Fraction(-val)
                rows.append(row)
        red, pivots = row_reduce(FractionMatrix(rows))
        if pivots and pivots[-1] == ncols - 1:
            return False  # inconsistent: 0 == nonzero
        for r, pc in enumerate(pivots):
            if pc >= len(vars_):
                continue
            row = red.rows[r]
            if all(row[j] == 0 for j in range(len(vars_)) if j != pc):
                sol = -row[-1]
                if sol.denominator != 1:
                    return False
                name = vars_[pc]
                if name not in ctx.env:
                    ctx.env[name] = int(sol)
        return True

    # -- enumeration ----------------------------------------------------------
    def _entries(self, method, ctx: _Ctx):
        rt = self.runtimes[method.driver.key]
        prefix = ctx.refstates.get(method.driver.key, ())
        if isinstance(method, StoredEnum):
            it = rt.enumerate(method.step, prefix)
            if method.reverse:
                return reversed(list(it))
            return it
        if isinstance(method, SortedEnum):
            entries = list(rt.enumerate(method.step, prefix))
            signs = method.signs or (1,) * (len(entries[0][0]) if entries else 1)
            entries.sort(key=lambda e: tuple(s * k for s, k in zip(signs, e[0])))
            return entries
        if isinstance(method, IntervalEnum):
            iv = rt.interval(method.step, prefix)
            if iv is None:
                raise ExecutionError("interval enumeration on a non-interval step")
            lo, hi = iv
            rng = range(hi - 1, lo - 1, -1) if method.reverse else range(lo, hi)

            def gen():
                for v in rng:
                    st = rt.search(method.step, prefix, (v,))
                    if st is not None:
                        yield (v,), st

            return gen()
        if isinstance(method, SearchEnum):
            keys = tuple(self._eval_lin(e, ctx.env) for e in method.key_exprs)
            try:
                st = rt.search(method.step, prefix, keys)
            except NotImplementedError:
                # only formats without a search capability fall back to the
                # linear scan; real runtime bugs propagate
                st = self._linear_search(rt, method.step, prefix, keys)
            return [(keys, st)] if st is not None else []
        raise ExecutionError(f"unknown method {method!r}")

    def _linear_search(self, rt: PathRuntime, step: int, prefix: Tuple,
                       keys: Tuple[int, ...]):
        for k, st in rt.enumerate(step, prefix):
            if tuple(k) == tuple(keys):
                return st
        return None

    # -- node execution ----------------------------------------------------
    def run(self) -> None:
        ctx = _Ctx({}, {}, set())
        # initial propagation: relations may pin variables outright (DIA's
        # d == 0 for a diagonal access) before anything is enumerated
        for label in self.copies:
            if not self._propagate(label, ctx):
                ctx.pruned.add(label)  # statically empty instance set
        self._run_nodes(self.plan.nodes, ctx)

    def _run_nodes(self, nodes: Sequence[PlanNode], ctx: _Ctx) -> None:
        for node in nodes:
            if isinstance(node, LoopNode):
                self._run_loop(node, ctx)
            elif isinstance(node, VarLoopNode):
                self._run_varloop(node, ctx)
            elif isinstance(node, ExecNode):
                self._run_exec(node, ctx)
            else:
                raise ExecutionError(f"unknown node {node!r}")

    def _eval_lin(self, e: LinExpr, env: Dict[str, int]) -> int:
        total = e.const
        for v in e.variables():
            val = self._value_of(v, env)
            if val is None:
                raise ExecutionError(f"unbound variable {v!r} in {e!r}")
            total += e.coeff(v) * val
        if total.denominator != 1:
            raise ExecutionError(f"non-integer value for {e!r}")
        return int(total)

    def _run_loop(self, node: LoopNode, ctx: _Ctx) -> None:
        self._run_nodes(node.before, ctx.fork())
        for keys, state in self._entries(node.method, ctx):
            it = ctx.fork()
            ok = True
            # reference states + axis-variable bindings
            for role in node.roles:
                if role.ref.owner_label in it.pruned:
                    continue
                if role.role in (DRIVER, SHARED):
                    st = state
                else:  # SEARCH
                    rt = self.runtimes[role.ref.key]
                    prefix = it.refstates.get(role.ref.key, ())
                    try:
                        st = rt.search(role.step, prefix, tuple(keys))
                    except NotImplementedError:
                        st = self._linear_search(rt, role.step, prefix, tuple(keys))
                    if st is None:
                        it.pruned.add(role.ref.owner_label)
                        continue
                it.refstates[role.ref.key] = it.refstates.get(role.ref.key, ()) + (st,)
                step_axes = role.ref.path.steps[role.step].names
                for axis, k in zip(step_axes, keys):
                    if not self._unify(role.ref.owner_label,
                                       LinExpr.variable(role.ref.axis_var(axis)),
                                       int(k), it):
                        it.pruned.add(role.ref.owner_label)
                        break
            # value bindings
            for b in node.binds:
                if b.copy_label in it.pruned:
                    continue
                if not self._unify(b.copy_label, b.expr, int(keys[b.axis_pos]), it):
                    it.pruned.add(b.copy_label)
            self._run_nodes(node.body, it)
        self._run_nodes(node.after, ctx.fork())

    def _run_varloop(self, node: VarLoopNode, ctx: _Ctx) -> None:
        lo = self._eval_lin(node.lo, ctx.env)
        hi = self._eval_lin(node.hi, ctx.env)
        rng = range(hi - 1, lo - 1, -1) if node.reverse else range(lo, hi)
        for v in rng:
            it = ctx.fork()
            for b in node.binds:
                if b.copy_label in it.pruned:
                    continue
                if not self._unify(b.copy_label, b.expr, v, it):
                    it.pruned.add(b.copy_label)
            self._run_nodes(node.body, it)

    # -- statement execution -------------------------------------------------
    def _run_exec(self, node: ExecNode, ctx: _Ctx) -> None:
        copy = node.copy
        if copy.label in ctx.pruned:
            return
        env = ctx.env
        # all iteration variables must be bound
        local: Dict[str, int] = {}
        for v in copy.ctx.vars:
            val = self._value_of(copy.qual(v), env)
            if val is None:
                raise ExecutionError(
                    f"iteration variable {v} of {copy.label} unbound at execution"
                )
            local[v] = val
        for g in node.guards:
            total = g.const
            for var in g.variables():
                val = self._value_of(var, env)
                if val is None:
                    raise ExecutionError(
                        f"guard variable {var!r} unbound when executing "
                        f"{copy.label} (missing parameter?)"
                    )
                total += g.coeff(var) * val
            if total < 0:
                return
        self._execute_statement(copy, local, ctx)

    def _execute_statement(self, copy: StmtCopy, local: Dict[str, int],
                           ctx: _Ctx) -> None:
        stmt = copy.ctx.stmt
        value = self._eval_val(stmt.rhs, copy, local, ctx)
        lhs_ref = copy.ref_by_ordinal(0)
        if lhs_ref is not None:
            rt = self.runtimes[lhs_ref.key]
            state = ctx.refstates.get(lhs_ref.key, ())
            rt.set(state, value)
            return
        a = self.arrays[stmt.lhs.array]
        idx = tuple(i.evaluate({**self.params, **local}) for i in stmt.lhs.indices)
        if idx:
            a[idx] = value
        else:
            a[()] = value

    def _eval_val(self, e: ValExpr, copy: StmtCopy, local: Dict[str, int],
                  ctx: _Ctx) -> float:
        if isinstance(e, VConst):
            return e.value
        if isinstance(e, VParam):
            return self.params[e.name]
        if isinstance(e, VNeg):
            return -self._eval_val(e.operand, copy, local, ctx)
        if isinstance(e, VBin):
            l = self._eval_val(e.left, copy, local, ctx)
            r = self._eval_val(e.right, copy, local, ctx)
            if e.op == "+":
                return l + r
            if e.op == "-":
                return l - r
            if e.op == "*":
                return l * r
            return l / r
        if isinstance(e, VRead):
            if e.array == "__var__":
                return e.indices[0].evaluate({**self.params, **local})
            ordinal = self._ordinal_of_read(copy, e)
            if ordinal is not None:
                ref = copy.ref_by_ordinal(ordinal)
                if ref is not None:
                    rt = self.runtimes[ref.key]
                    return rt.get(ctx.refstates.get(ref.key, ()))
            a = self.arrays[e.array]
            idx = tuple(i.evaluate({**self.params, **local}) for i in e.indices)
            return a[idx] if idx else a[()]
        raise ExecutionError(f"unknown ValExpr {type(e).__name__}")

    def _ordinal_of_read(self, copy: StmtCopy, target: VRead) -> Optional[int]:
        ordinal = 0
        for r in copy.ctx.stmt.reads():
            if r.array == "__var__":
                continue
            ordinal += 1
            if r is target:
                return ordinal
        return None


def run_plan(plan: Plan, arrays: Mapping[str, object],
             params: Mapping[str, int]) -> None:
    """Execute a plan in place on the given arrays/format instances."""
    PlanInterpreter(plan, arrays, params).run()
