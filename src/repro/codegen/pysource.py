"""Specialized kernel generation from enumeration plans.

The generated kernel has the structure a hand-written library kernel would
have — raw index-array loops, inlined binary searches, permutation lookups —
because every abstract operation of the plan is inlined through the bound
format's emitter (:mod:`repro.codegen.emitters`).  This is the analog of
the paper's Figure 9 C++ instantiation, and the vehicle for the Section 5
claim that generated code is structurally equivalent to the NIST library.

The generator is a *symbolic twin* of the tests' reference plan
interpreter (``tests/oracles/plan_interp.py``): instead of integer values
it manipulates affine expressions over emitted scalar names, performing
the same unification and relation propagation at compile time and
emitting assignments and guards where the interpreter would bind and
check.  What
it emits is the loop IR of :mod:`repro.codegen.loopir`; the Python source
of a kernel is one print of that IR, its C translation unit
(:mod:`repro.codegen.native`) another.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.codegen.emitters import make_emitter
from repro.codegen.loopir import (
    And,
    ArrayArg,
    Assign,
    BinOp,
    Builder,
    Const,
    If,
    KernelIR,
    Load,
    Neg,
    PyOnly,
    ScalarArg,
    Store,
    V,
    cmp0,
    counted,
    divisible,
    print_python,
)
from repro.core.plan import (
    Bind,
    DRIVER,
    ExecNode,
    IntervalEnum,
    LoopNode,
    Plan,
    PlanNode,
    SEARCH,
    SHARED,
    SearchEnum,
    SortedEnum,
    StoredEnum,
    VarLoopNode,
)
from repro.core.spaces import SparseRef, StmtCopy
from repro.instrument import INSTR
from repro.ir.expr import ValExpr, VBin, VConst, VNeg, VParam, VRead
from repro.polyhedra.linexpr import Coeffish, LinExpr


class CodegenError(RuntimeError):
    pass


class _State:
    """Snapshot-able generation state."""

    __slots__ = ("env", "guards", "refstates", "pruned")

    def __init__(self):
        self.env: Dict[str, LinExpr] = {}        # qualified var -> PyVal
        self.guards: Dict[str, list] = {}        # copy label -> IR conditions
        self.refstates: Dict[Tuple[str, int], Tuple[str, ...]] = {}
        self.pruned: Set[str] = set()

    def fork(self) -> "_State":
        s = _State()
        s.env = dict(self.env)
        s.guards = {k: list(v) for k, v in self.guards.items()}
        s.refstates = dict(self.refstates)
        s.pruned = set(self.pruned)
        return s


class PySourceGenerator:
    """Builds the loop IR of one plan.  ``bindings`` are the instances the
    kernel is compiled for: they type the storage arrays (the plan holds
    its formats' structure only)."""

    def __init__(self, plan: Plan, bindings: Mapping[str, object]):
        self.plan = plan
        self.out = Builder()
        self.copies: Dict[str, StmtCopy] = {c.label: c for c in plan.space.copies}
        self.relations: Dict[str, List[LinExpr]] = {
            c.label: [con.expr for con in c.relation().equalities()]
            for c in plan.space.copies
        }
        self.copy_vars: Dict[str, List[str]] = {
            c.label: c.all_vars() for c in plan.space.copies
        }
        # kernel arguments, in signature order: the parameters (unqualified
        # variables mentioned anywhere), the dense operands, then the
        # storage of each reference group as its emitter declares it
        for p in sorted(self._collect_params()):
            self.out.arg(ScalarArg(f"p_{p}", ("param", p)))
        self.dense: Dict[str, ArrayArg] = {
            a: self.out.arg(ArrayArg(f"arr_{a}", ("array", a), "float64", nd))
            for a, nd in sorted(self._collect_dense_arrays().items())
        }
        # one emitter per (matrix instance, path); refs sharing both share it
        self.emitters: Dict[Tuple[str, int], object] = {}
        pool: Dict[Tuple[int, str], object] = {}
        for copy in plan.space.copies:
            for ref in copy.refs:
                key = (id(ref.fmt), ref.path.path_id)
                if key not in pool:
                    pool[key] = make_emitter(ref, f"M{len(pool)}",
                                             bindings[ref.array], self.out)
                self.emitters[ref.key] = pool[key]

    # -- collection ------------------------------------------------------
    def _collect_params(self) -> Set[str]:
        names: Set[str] = set()
        for eqs in self.relations.values():
            for e in eqs:
                _scan_lin(e, names)
        _scan_nodes(self.plan.nodes, names)
        return names

    def _collect_dense_arrays(self) -> Dict[str, int]:
        """Name -> rank of every array accessed densely."""
        sparse = {ref.array for c in self.plan.space.copies for ref in c.refs}
        out: Dict[str, int] = {}
        for copy in self.plan.space.copies:
            stmt = copy.ctx.stmt
            for r in [stmt.lhs] + list(stmt.reads()):
                if r.array != "__var__" and r.array not in sparse:
                    out[r.array] = len(r.indices)
        return out

    # -- symbolic unification ---------------------------------------------
    def _resolve(self, expr: LinExpr, st: _State) -> Tuple[LinExpr, List[Tuple[str, Coeffish]]]:
        """Split an expression over qualified vars/params into a PyVal over
        emitted symbols plus the list of unresolved variables."""
        pv = LinExpr.constant(expr.const)
        unbound: List[Tuple[str, Coeffish]] = []
        for v in expr.variables():
            c = expr.coeff(v)
            if v in st.env:
                pv = pv + st.env[v] * c
            elif "." not in v:
                pv = pv + LinExpr.variable(f"p_{v}") * c
            else:
                unbound.append((v, c))
        return pv, unbound

    @staticmethod
    def _guard(label: str, cond, st: _State) -> None:
        """Record a condition on one copy's execution.  Conditions that
        fold (see :func:`repro.codegen.loopir.cmp0`) never reach the code:
        a true one is dropped, a false one prunes the copy from this point
        of the plan down."""
        if cond is True:
            return
        if cond is False:
            st.pruned.add(label)
            return
        conds = st.guards.setdefault(label, [])
        if cond not in conds:
            conds.append(cond)

    def _bind(self, label: str, v: str, sol: LinExpr, st: _State) -> None:
        """``v = sol``, guarded by the integrality of ``sol``."""
        self._guard(label, divisible(sol), st)
        st.env[v] = sol

    def _unify(self, label: str, expr: LinExpr, value: LinExpr, st: _State) -> None:
        """Symbolically enforce ``expr == value`` for one copy: bind a
        variable or append a guard, then propagate relations."""
        pv, unbound = self._resolve(expr, st)
        residual = value - pv
        if not unbound:
            self._guard(label, cmp0(residual, "=="), st)
            return
        if len(unbound) > 1:
            raise CodegenError(f"cannot unify {expr!r}: several unbound variables")
        v, c = unbound[0]
        self._bind(label, v, residual * (Fraction(1) / c), st)
        self._propagate(label, st)

    def _propagate(self, label: str, st: _State) -> None:
        """Symbolic twin of the interpreter's relation propagation."""
        changed = True
        while changed:
            changed = False
            for eq in self.relations[label]:
                pv, unbound = self._resolve(eq, st)
                if not unbound:
                    self._guard(label, cmp0(pv, "=="), st)
                elif len(unbound) == 1:
                    v, c = unbound[0]
                    self._bind(label, v, pv * (Fraction(-1) / c), st)
                    changed = True
        if all(v in st.env for v in self.copy_vars[label]):
            return
        self._propagate_full(label, st)

    def _propagate_full(self, label: str, st: _State) -> None:
        """Exact symbolic Gaussian elimination: variable columns over
        rationals, the constant column over PyVals."""
        vars_ = [v for v in self.copy_vars[label] if v not in st.env]
        if not vars_:
            return
        index = {v: i for i, v in enumerate(vars_)}
        rows: List[Tuple[List[Fraction], LinExpr]] = []
        for eq in self.relations[label]:
            pv, unbound = self._resolve(eq, st)
            if not unbound:
                continue
            coeffs = [Fraction(0)] * len(vars_)
            skip = False
            for v, c in unbound:
                if v not in index:
                    skip = True
                    break
                coeffs[index[v]] = c
            if skip:
                continue
            rows.append((coeffs, pv))
        # eliminate
        pivot_rows: List[Tuple[List[Fraction], LinExpr, int]] = []
        for coeffs, pv in rows:
            coeffs = list(coeffs)
            for pcoeffs, ppv, pcol in pivot_rows:
                f = coeffs[pcol]
                if f != 0:
                    coeffs = [a - f * b for a, b in zip(coeffs, pcoeffs)]
                    pv = pv - ppv * f
            lead = next((j for j, x in enumerate(coeffs) if x != 0), None)
            if lead is None:
                continue
            inv = Fraction(1) / coeffs[lead]
            coeffs = [x * inv for x in coeffs]
            pv = pv * inv
            pivot_rows.append((coeffs, pv, lead))
        # back-substitute to find fully determined variables
        for coeffs, pv, lead in pivot_rows:
            work_c = list(coeffs)
            work_pv = pv
            for c2, pv2, l2 in pivot_rows:
                if l2 != lead and work_c[l2] != 0:
                    f = work_c[l2]
                    work_c = [a - f * b for a, b in zip(work_c, c2)]
                    work_pv = work_pv - pv2 * f
            if all(x == 0 for j, x in enumerate(work_c) if j != lead):
                v = vars_[lead]
                sol = work_pv * Fraction(-1)
                self._guard(label, divisible(sol), st)
                if v not in st.env:
                    st.env[v] = sol

    # -- generation ----------------------------------------------------------
    def generate(self) -> KernelIR:
        st = _State()
        for label in self.copies:
            # statically inconsistent copies are pruned here and never execute
            self._propagate(label, st)
        self._gen_nodes(self.plan.nodes, st)
        return KernelIR(self.out.args, self.out.body)

    def _gen_nodes(self, nodes: Sequence[PlanNode], st: _State) -> None:
        for n in nodes:
            if isinstance(n, LoopNode):
                self._gen_loop(n, st.fork())
            elif isinstance(n, VarLoopNode):
                self._gen_varloop(n, st.fork())
            elif isinstance(n, ExecNode):
                self._gen_exec(n, st.fork())
            else:
                raise CodegenError(f"unknown node {n!r}")

    def _active_roles(self, node: LoopNode, st: _State):
        return [r for r in node.roles if r.ref.owner_label not in st.pruned]

    def _gen_loop(self, node: LoopNode, st: _State) -> None:
        out = self.out
        self._gen_nodes(node.before, st.fork())
        method = node.method
        driver = method.driver
        em = self.emitters[driver.key]
        dstates = list(st.refstates.get(driver.key, ()))
        base = out.depth
        inner = st.fork()

        if isinstance(method, StoredEnum):
            names, new_states = em.loop(method.step, dstates, method.reverse,
                                        node.dim_names)
            keys = [V(k) for k in names]
        elif isinstance(method, SortedEnum):
            why = "sorted enumeration"
            gather = out.fresh("_gather")
            out.add(PyOnly(f"{gather} = []", why))
            keys0, new0 = em.loop(method.step, dstates, False, ())
            tup = ", ".join(list(keys0) + list(new0))
            out.add(PyOnly(f"{gather}.append(({tup}))", why))
            out.close_to(base)
            signs = method.signs or tuple(1 for _ in keys0)
            sort_key = ", ".join(
                (f"_t[{i}]" if s > 0 else f"-_t[{i}]") for i, s in enumerate(signs)
            )
            out.add(PyOnly(f"{gather}.sort(key=lambda _t: ({sort_key},))", why))
            names = [out.fresh("_sk") for _ in keys0] + [out.fresh("_ss") for _ in new0]
            out.open(PyOnly(f"for {', '.join(names)} in {gather}:", why, []))
            keys = [V(k) for k in names[:len(keys0)]]
            new_states = names[len(keys0):]
        elif isinstance(method, IntervalEnum):
            iv = em.interval(method.step, dstates)
            if iv is None:
                raise CodegenError("interval enumeration without interval bounds")
            v = out.fresh("_iv")
            out.open(counted(v, iv[0], iv[1], method.reverse, node.dim_names))
            keys = [V(v)]
            new_states, found = em.search(method.step, dstates, keys)
            out.open(If(found, []))
        elif isinstance(method, SearchEnum):
            # resolve key expressions through the driver copy's environment
            keys = []
            for e in method.key_exprs:
                pv, unbound = self._resolve(e, inner)
                if unbound:
                    raise CodegenError(f"search key {e!r} not determined")
                keys.append(pv)
            new_states, found = em.search(method.step, dstates, keys)
            out.open(If(found, []))
        else:
            raise CodegenError(f"unknown method {method!r}")

        def key_pv(i: int) -> LinExpr:
            k = keys[i]
            if k.const != 0 or list(k.coeffs.values()) != [1]:
                # a computed search key other copies bind to: name it
                nm = out.fresh("_kv")
                out.add(Assign(nm, k))
                keys[i] = k = V(nm)
            return k

        # record driver/shared states & bind axis variables
        for role in self._active_roles(node, inner):
            ref = role.ref
            if role.role in (DRIVER, SHARED):
                # shared refs use the same emitter, hence the same states
                inner.refstates[ref.key] = tuple(dstates) + tuple(new_states)
            else:  # SEARCH
                rem = self.emitters[ref.key]
                rstates = list(inner.refstates.get(ref.key, ()))
                sstates, found = rem.search(
                    role.step, rstates, [key_pv(i) for i in range(len(keys))])
                self._guard(ref.owner_label, found, inner)
                inner.refstates[ref.key] = tuple(rstates) + tuple(sstates)
            step_axes = ref.path.steps[role.step].names
            for i, axis in enumerate(step_axes):
                var = ref.axis_var(axis)
                if var not in inner.env:
                    self._unify(ref.owner_label, LinExpr.variable(var),
                                key_pv(i), inner)

        # value bindings
        for b in node.binds:
            if b.copy_label in inner.pruned:
                continue
            self._unify(b.copy_label, b.expr, key_pv(b.axis_pos), inner)

        self._gen_nodes(node.body, inner)
        out.close_to(base)
        self._gen_nodes(node.after, st.fork())

    def _gen_varloop(self, node: VarLoopNode, st: _State) -> None:
        out = self.out
        lo_pv, u1 = self._resolve(node.lo, st)
        hi_pv, u2 = self._resolve(node.hi, st)
        if u1 or u2:
            raise CodegenError("loop bounds not determined at emission point")
        v = out.fresh("_v")
        base = out.depth
        out.open(counted(v, lo_pv, hi_pv, node.reverse, (node.dim_name,)))
        inner = st.fork()
        for b in node.binds:
            if b.copy_label in inner.pruned:
                continue
            self._unify(b.copy_label, b.expr, V(v), inner)
        self._gen_nodes(node.body, inner)
        out.close_to(base)

    # -- statement emission -------------------------------------------------
    def _gen_exec(self, node: ExecNode, st: _State) -> None:
        out = self.out
        copy = node.copy
        if copy.label in st.pruned:
            return
        conds = []
        for cond in st.guards.get(copy.label, []):
            conds.extend(cond.terms if isinstance(cond, And) else [cond])
        for g in node.guards:
            pv, unbound = self._resolve(g, st)
            if unbound:
                # an unbound guard variable means this execution point can
                # never be reached with a complete instance
                return
            cond = cmp0(pv, ">=")
            if cond is False:
                return
            if cond is not True and cond not in conds:
                conds.append(cond)
        # all iteration vars must resolve
        for v in copy.ctx.vars:
            q = copy.qual(v)
            if self._resolve(LinExpr.variable(q), st)[1]:
                raise CodegenError(f"iteration variable {q} unbound at execution")
        base = out.depth
        if conds:
            out.open(If(conds[0] if len(conds) == 1 else And(tuple(conds)), []))
        stmt = copy.ctx.stmt
        value = self._value(stmt.rhs, copy, st)
        lhs_ref = copy.ref_by_ordinal(0)
        if lhs_ref is not None:
            em = self.emitters[lhs_ref.key]
            em.set(list(st.refstates.get(lhs_ref.key, ())), value)
        else:
            arr = self.dense[stmt.lhs.array]
            arr.written = True
            out.add(Store(arr, self._index(stmt.lhs.indices, copy, st), value))
        out.close_to(base)

    def _index(self, indices, copy: StmtCopy, st: _State) -> Tuple[LinExpr, ...]:
        qmap = copy.qual_map()
        return tuple(self._resolve(i.rename(qmap).lin, st)[0] for i in indices)

    def _value(self, e: ValExpr, copy: StmtCopy, st: _State):
        """The statement's right-hand side as an IR value expression."""
        if isinstance(e, VConst):
            return Const(e.value)
        if isinstance(e, VParam):
            return V(f"p_{e.name}")
        if isinstance(e, VNeg):
            return Neg(self._value(e.operand, copy, st))
        if isinstance(e, VBin):
            return BinOp(e.op, self._value(e.left, copy, st),
                         self._value(e.right, copy, st))
        if isinstance(e, VRead):
            if e.array == "__var__":
                return self._index(e.indices[:1], copy, st)[0]
            ordinal = self._ordinal_of_read(copy, e)
            if ordinal is not None:
                ref = copy.ref_by_ordinal(ordinal)
                if ref is not None:
                    em = self.emitters[ref.key]
                    return em.get(list(st.refstates.get(ref.key, ())))
            return Load(self.dense[e.array], self._index(e.indices, copy, st))
        raise CodegenError(f"unknown ValExpr {type(e).__name__}")

    def _ordinal_of_read(self, copy: StmtCopy, target: VRead) -> Optional[int]:
        ordinal = 0
        for r in copy.ctx.stmt.reads():
            if r.array == "__var__":
                continue
            ordinal += 1
            if r is target:
                return ordinal
        return None


def _scan_lin(e: LinExpr, names: Set[str]) -> None:
    """Add the unqualified (parameter) variables of ``e`` to ``names``."""
    for v in e.variables():
        if "." not in v:
            names.add(v)


def _scan_nodes(nodes, names: Set[str]) -> None:
    """Add the parameters the plan ``nodes`` read to ``names`` (a module
    function: a nested recursive one leaves a reference cycle per call)."""
    for n in nodes:
        if isinstance(n, LoopNode):
            for b in n.binds:
                _scan_lin(b.expr, names)
            if isinstance(n.method, SearchEnum):
                for e in n.method.key_exprs:
                    _scan_lin(e, names)
            _scan_nodes(n.before, names)
            _scan_nodes(n.body, names)
            _scan_nodes(n.after, names)
        elif isinstance(n, VarLoopNode):
            _scan_lin(n.lo, names)
            _scan_lin(n.hi, names)
            for b in n.binds:
                _scan_lin(b.expr, names)
            _scan_nodes(n.body, names)
        elif isinstance(n, ExecNode):
            for g in n.guards:
                _scan_lin(g, names)
            # statement index expressions use *local* loop-variable
            # names; qualify them first so only true parameters
            # (unqualified after renaming) are collected
            qmap = n.copy.qual_map()
            for i in n.copy.ctx.stmt.lhs.indices:
                _scan_lin(i.rename(qmap).lin, names)
            for r in n.copy.ctx.stmt.reads():
                for i in r.indices:
                    _scan_lin(i.rename(qmap).lin, names)
            _scan_vparams(n.copy.ctx.stmt.rhs, names)


def _scan_vparams(e: ValExpr, names: Set[str]) -> None:
    if isinstance(e, VParam):
        names.add(e.name)
    elif isinstance(e, VNeg):
        _scan_vparams(e.operand, names)
    elif isinstance(e, VBin):
        _scan_vparams(e.left, names)
        _scan_vparams(e.right, names)


def build_loop_ir(plan: Plan, bindings: Mapping[str, object]) -> KernelIR:
    """The loop IR of a plan, its storage arrays typed from ``bindings``."""
    return PySourceGenerator(plan, bindings).generate()


def compile_plan_to_python(ir: KernelIR):
    """(source, callable) for a loop IR; the callable has the signature
    ``kernel(arrays, params)`` and mutates the arrays in place."""
    with INSTR.phase("codegen.total"):
        INSTR.count("codegen.compiles")
        src = print_python(ir)
        fn = source_to_callable(src)
    return src, fn


def source_to_callable(src: str):
    """Exec generated kernel source and return its ``kernel`` callable
    (shared by fresh codegen and the compilation cache's source replay).
    The function leaves its globals, which would otherwise hold it in a
    reference cycle."""
    namespace: Dict[str, object] = {}
    exec(compile(src, "<bernoulli-generated>", "exec"), namespace)
    return namespace.pop("kernel")
