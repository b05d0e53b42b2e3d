"""Loop-IR emitters: the raw-array code of one access path.

An emitter inlines a format's storage operations — loops over
``rowptr``/``colind``, binary searches, permutation lookups — exactly the
code a hand-written library kernel would contain (the point of paper
Section 5's "structurally equivalent to the NIST C library").  It builds
:mod:`repro.codegen.loopir` nodes; what language they are printed in is not
its concern.

A format does not get a class here: it *declares* where its arrays are
(:meth:`~repro.formats.base.SparseFormat.storage`, a level per step of the
path, :mod:`repro.formats.levels`) and :class:`ViewEmitter` composes the
loops and searches from the declaration and the view — a user-defined
format that declares its storage lowers to C like a built-in one.

An emitter serves one *reference group* (one matrix instance bound to one
access path).  Constructing it declares the instance's storage arrays and
sizes as kernel arguments on the :class:`~repro.codegen.loopir.Builder`,
typed from the bound instance.  It then provides:

- ``loop(step, states, reverse, dims)`` — open the stored enumeration of
  a step (one ``For`` carrying the plan dimensions ``dims``), returning
  (key names, new state names); the caller closes the block;
- ``interval(step, states)`` — (lo, hi) index expressions for interval
  steps, or None;
- ``search(step, states, keys)`` — emit a search for the index
  expressions ``keys``, returning (state names, found-condition); a
  search that is not a bounds check is built from
  :meth:`BaseEmitter.bisect` or :meth:`BaseEmitter.scan`, statements at
  the search site like any loop;
- ``get(states)`` / ``set(states, value)`` — the value access.

Keys and states are names of integer locals, accumulated per step.  A
format that declares no storage gets the :class:`GenericEmitter`: dynamic
calls through its :class:`~repro.formats.base.PathRuntime`, every node
``PyOnly``, so such a kernel runs as generated Python only.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.codegen.loopir import (
    And,
    ArrayArg,
    Assign,
    BinOp,
    Builder,
    Cmp,
    If,
    Load,
    Neg,
    PyOnly,
    ScalarArg,
    Select,
    Store,
    V,
    While,
    ZERO,
    counted,
    py_expr,
    within,
)
from repro.core.spaces import SparseRef
from repro.formats.base import check_storage
from repro.formats.levels import Compressed, Coords, Dense, Range, Size, Storage
from repro.formats.views import BINARY
from repro.polyhedra.linexpr import LinExpr

MINUS_ONE = LinExpr.constant(-1)
TWO = LinExpr.constant(2)


class BaseEmitter:
    """Common bookkeeping: a unique name prefix per reference group, the
    argument declarations, and the loop/search shapes formats share."""

    def __init__(self, ref: SparseRef, name: str, inst, b: Builder):
        self.ref = ref
        self.inst = inst          # the bound instance: types the arguments
        self.name = name          # unique prefix, e.g. "M0"
        self.b = b

    # -- argument declarations -------------------------------------------
    def array(self, attr: str) -> ArrayArg:
        data = np.asarray(getattr(self.inst, attr))
        return self.b.arg(ArrayArg(f"{self.name}_{attr}",
                                   ("attr", self.ref.array, attr),
                                   data.dtype.name, max(data.ndim, 1)))

    def size(self, local: str, attr: str, kind: str = "attr") -> LinExpr:
        arg = self.b.arg(ScalarArg(f"{self.name}_{local}",
                                   (kind, self.ref.array, attr)))
        return V(arg.name)

    # -- shared shapes -----------------------------------------------------
    def fresh(self, stem: str) -> str:
        return self.b.fresh(f"{self.name}_{stem}")

    def count(self, stem: str, lo, hi, reverse: bool, dims) -> str:
        """Open the loop over ``[lo, hi)``; returns the loop variable."""
        v = self.fresh(stem)
        self.b.open(counted(v, lo, hi, reverse, dims))
        return v

    def let(self, stem: str, value) -> str:
        v = self.fresh(stem)
        self.b.add(Assign(v, value))
        return v

    def bisect(self, stem: str, lo, hi, key, probe):
        """Binary search of the slots ``[lo, hi)``, sorted ascending
        without duplicates, for ``key``.  ``probe(mid)`` says how slot
        ``mid`` is read: (statements to run first, the slot's key, the
        state a hit yields).  The state is -1 when ``key`` is absent."""
        found = self.let(stem, MINUS_ONE)
        lo, hi = self.let("lo", lo), self.let("hi", hi)
        mid, v = self.fresh("mid"), self.fresh("v")
        setup, slot, hit = probe(V(mid))
        self.b.add(While(Cmp("<", V(lo), V(hi)), [
            Assign(mid, BinOp("//", V(lo) + V(hi), TWO)),
            *setup,
            Assign(v, slot),
            If(Cmp("<", V(v), key), [Assign(lo, V(mid) + 1)]),
            If(Cmp(">", V(v), key), [Assign(hi, V(mid))]),
            If(Cmp("==", V(v), key), [Assign(found, hit),
                                       Assign(lo, V(hi))]),
        ]))
        return [found], Cmp(">=", V(found), ZERO)

    def scan(self, stem: str, lo, hi, hit):
        """Early-exit linear search: the first ``k`` in ``[lo, hi)`` where
        the condition ``hit(k)`` holds, -1 when there is none."""
        found, k = self.let(stem, MINUS_ONE), self.let("at", lo)
        self.b.add(While(And((Cmp("<", V(found), ZERO), Cmp("<", V(k), hi))), [
            If(hit(V(k)), [Assign(found, V(k))]),
            Assign(k, V(k) + 1),
        ]))
        return [found], Cmp(">=", V(found), ZERO)

    def set(self, states: Sequence[str], value) -> None:
        ref = self.get(states)
        ref.array.written = True
        self.b.add(Store(ref.array, ref.idx, value))


class ViewEmitter(BaseEmitter):
    """One access path of a format that declares its storage
    (:mod:`repro.formats.levels`): every step's loop, search and interval
    and the value access are composed from the step's level, and the kind
    of search from the view's ``Axis.search`` — a bounds check for
    ``DIRECT``, :meth:`bisect` for ``BINARY``, :meth:`scan` for ``LINEAR``.
    Each level yields one state: the key itself for ``Dense``/``Range``,
    the slot position otherwise."""

    def __init__(self, ref, name, inst, b, decl: Storage):
        super().__init__(ref, name, inst, b)
        self.how = check_storage(inst, ref.path, decl)
        self.args = {}            # declared name -> ArrayArg | size variable
        for a in decl.args:       # in signature order
            if isinstance(a, Size):
                self.args[a.local] = self.size(*a)
            else:
                self.args[a] = self.array(a)
        self.levels, self.value = decl.levels, decl.value

    def expr(self, e, states):
        """A declared expression (see :mod:`repro.formats.levels`)."""
        if isinstance(e, int):
            return LinExpr.constant(e)
        if isinstance(e, str):
            if e in self.args:
                return self.args[e]
            return V(states[self.ref.path.step_of(e)])
        op, *operands = e
        if op == "at":
            return Load(self.args[operands[0]],
                        (self.expr(operands[1], states),))
        operands = [self.expr(x, states) for x in operands]
        return Neg(*operands) if op == "neg" else BinOp(op, *operands)

    def interval(self, step, states):
        level = self.levels[step]
        if isinstance(level, Dense):
            return ZERO, self.args[level.extent]
        if isinstance(level, Range):
            return self.expr(level.lo, states), self.expr(level.hi, states)
        return None

    def slots(self, step, states):
        """A level that stores coordinates: (first slot, end slot, the
        coordinate arrays, the address of a slot in them)."""
        level = self.levels[step]
        if isinstance(level, Coords):
            return (ZERO, self.args[level.extent],
                    [self.args[i] for i in level.inds], lambda k: (k,))
        p, inds = V(states[step - 1]), [self.args[level.ind]]
        if isinstance(level, Compressed):
            ptr = self.args[level.ptr]
            return (Load(ptr, (p,)), Load(ptr, (p + 1,)), inds,
                    lambda k: (k,))
        count = Load(self.args[level.count], (p,))       # Counted
        return ZERO, count, inds, lambda k: (p, k)

    def loop(self, step, states, reverse, dims):
        names = self.ref.path.steps[step].names
        iv = self.interval(step, states)
        if iv is not None:
            v = self.count(names[0], *iv, reverse, dims)
            return [v], [v]
        level = self.levels[step]
        lo, hi, inds, at = self.slots(step, states)
        k = self.count(level.slot, lo, hi, reverse, dims)
        keys = [self.let(n, Load(ind, at(V(k)))) for n, ind in zip(names, inds)]
        if getattr(level, "off_diagonal", False):
            self.b.open(If(Cmp("!=", V(keys[0]), V(states[step - 1])), []))
        return keys, [k]

    def search(self, step, states, keys):
        iv = self.interval(step, states)
        if iv is not None:
            v = self.let(self.ref.path.steps[step].names[0], keys[0])
            return [v], within(V(v), *iv)
        level = self.levels[step]
        lo, hi, inds, at = self.slots(step, states)
        if self.how[step] == BINARY:
            state, found = self.bisect(
                level.slot, lo, hi, keys[0],
                lambda mid: ([], Load(inds[0], at(mid)), mid))
        else:
            state, found = self.scan(level.slot, lo, hi, lambda k: And(tuple(
                Cmp("==", Load(ind, at(k)), key)
                for ind, key in zip(inds, keys))))
        if getattr(level, "off_diagonal", False):
            found = And((Cmp("!=", keys[0], V(states[step - 1])), found))
        return state, found

    def get(self, states):
        array, *idx = self.value
        return Load(self.args[array],
                    tuple(self.expr(i, states) for i in idx))


class JadEmitter(BaseEmitter):
    """Both JAD perspectives; the rows path mirrors the paper's Figure 9."""

    def __init__(self, ref, name, inst, b):
        super().__init__(ref, name, inst, b)
        self.flat = ref.path.path_id == "flat"
        self.iperm, self.ipermi = self.array("iperm"), self.array("ipermi")
        self.dptr, self.colind = self.array("dptr"), self.array("colind")
        self.values, self.rowcnt = self.array("values"), self.array("rowcnt")
        self.m, self.nnz = self.size("m", "nrows"), self.size("nnz", "nnz")

    def loop(self, step, states, reverse, dims):
        if self.flat:
            # diagonal-major walk, tracking the current diagonal like the
            # paper's JadFlatIterator::frob_d
            d = self.let("d", ZERO)
            jj = self.count("jj", ZERO, self.nnz, False, dims)
            self.b.add(While(Cmp(">=", V(jj), Load(self.dptr, (V(d) + 1,))),
                             [Assign(d, V(d) + 1)]))
            r = self.let("r", Load(self.iperm, (
                BinOp("-", V(jj), Load(self.dptr, (V(d),))),)))
            return [r, self.let("c", Load(self.colind, (V(jj),)))], [jj]
        if step == 0:
            rr = self.count("rr", ZERO, self.m, reverse, dims)
            return [self.let("r", Load(self.iperm, (V(rr),)))], [rr]
        rr = V(states[0])
        dd = self.count("dd", ZERO, Load(self.rowcnt, (rr,)), reverse, dims)
        jj = self.let("jj", BinOp("+", Load(self.dptr, (V(dd),)), rr))
        return [self.let("c", Load(self.colind, (V(jj),)))], [jj]

    def interval(self, step, states):
        return (ZERO, self.m) if not self.flat and step == 0 else None

    def row_search(self, rr, count, key):
        """Column ``key`` among the ``count`` entries of permuted row
        ``rr``: entry ``d`` of the row sits at ``dptr[d] + rr``."""
        jj = self.fresh("pos")
        return self.bisect("jj", ZERO, count, key, lambda mid: (
            [Assign(jj, BinOp("+", Load(self.dptr, (mid,)), rr))],
            Load(self.colind, (V(jj),)), V(jj)))

    def search(self, step, states, keys):
        if not self.flat and step == 1:
            rr = V(states[0])
            return self.row_search(rr, Load(self.rowcnt, (rr,)), keys[0])
        # the paper's Figure 9: search(LHier.begin(), ..., L.unmap(r))
        rr = self.let("rr", Select(within(keys[0], ZERO, self.m),
                                   Load(self.ipermi, (keys[0],)),
                                   MINUS_ONE))
        inside = Cmp(">=", V(rr), ZERO)
        if not self.flat:
            return [rr], inside
        # a row outside the matrix has no entries to search
        return self.row_search(
            V(rr), Select(inside, Load(self.rowcnt, (V(rr),)), ZERO), keys[1])

    def get(self, states):
        return Load(self.values, (V(states[-1]),))


class GenericEmitter(BaseEmitter):
    """Fallback: call the abstract runtime dynamically.  Keeps user-defined
    formats working with the generated Python (slower than inlined code
    but still loop-specialized); every node is ``PyOnly``."""

    WHY = "generic runtime emitter"

    def __init__(self, ref, name, inst, b):
        super().__init__(ref, name, inst, b)
        self.rt = f"{name}_rt"
        b.add(PyOnly(f"{self.rt} = arrays[{ref.array!r}]"
                     f".runtime({ref.path.path_id!r})", self.WHY))

    @staticmethod
    def _tuple(items: Sequence[str]) -> str:
        return "(" + "".join(f"{i}, " for i in items) + ")"

    def loop(self, step, states, reverse, dims):
        keys, st = self.fresh("keys"), self.fresh("st")
        it = f"{self.rt}.enumerate({step}, {self._tuple(states)})"
        if reverse:
            it = f"reversed(list({it}))"
        self.b.open(PyOnly(f"for {keys}, {st} in {it}:", self.WHY, []))
        names = [self.fresh(a) for a in self.ref.path.steps[step].names]
        for i, nm in enumerate(names):
            self.b.add(PyOnly(f"{nm} = {keys}[{i}]", self.WHY))
        return names, [st]

    def interval(self, step, states):
        iv = self.fresh("iv")
        self.b.add(PyOnly(f"{iv} = {self.rt}.interval({step}, "
                          f"{self._tuple(states)})", self.WHY))
        return PyOnly(f"{iv}[0]", self.WHY), PyOnly(f"{iv}[1]", self.WHY)

    def search(self, step, states, keys):
        st = self.fresh("st")
        keys = self._tuple([py_expr(k) for k in keys])
        self.b.add(PyOnly(f"{st} = {self.rt}.search({step}, "
                          f"{self._tuple(states)}, {keys})", self.WHY))
        return [st], PyOnly(f"{st} is not None", self.WHY)

    def get(self, states):
        return PyOnly(f"{self.rt}.get({self._tuple(states)})", self.WHY)

    def set(self, states, value) -> None:
        self.b.add(PyOnly(f"{self.rt}.set({self._tuple(states)}, "
                          f"{py_expr(value)})", self.WHY))


def make_emitter(ref: SparseRef, name: str, inst, b: Builder) -> BaseEmitter:
    decl = inst.storage(ref.path.path_id)
    if decl is not None:
        return ViewEmitter(ref, name, inst, b, decl)
    # JAD keeps a class: the flat walk's ``While`` over the diagonal
    # pointer and the search through the inverse permutation are not levels
    if ref.fmt.format_name == "jad":
        return JadEmitter(ref, name, inst, b)
    return GenericEmitter(ref, name, inst, b)
