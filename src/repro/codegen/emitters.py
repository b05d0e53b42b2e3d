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
loops and searches from the declaration and the view — every built-in
format, JAD's permuted rows included, and a user-defined format that
declares its storage lower to C this way.

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
from repro.formats.levels import Compressed, Coords, Dense, Perm, Range, Size, Storage
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

    def scan(self, stem: str, lo, hi, probe):
        """Early-exit linear search of the slots ``[lo, hi)`` for the first
        that matches: ``probe(k)`` is (statements to run first, the
        condition, the state a hit yields), the state -1 when none does."""
        found, k = self.let(stem, MINUS_ONE), self.let("at", lo)
        setup, cond, hit = probe(V(k))
        self.b.add(While(And((Cmp("<", V(found), ZERO), Cmp("<", V(k), hi))), [
            *setup,
            If(cond, [Assign(found, hit)]),
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
    the stored position for a ``Perm``, else the slot or its address."""

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

    def expr(self, e, states, names=None):
        """A declared expression (see :mod:`repro.formats.levels`) over
        ``names``: the declared arguments, and a slot an address names."""
        names = self.args if names is None else names
        if isinstance(e, int):
            return LinExpr.constant(e)
        if isinstance(e, str):
            if e in names:
                return names[e]
            return V(states[self.ref.path.step_of(e)])
        op, *operands = e
        if op == "at":
            return Load(self.args[operands[0]],
                        (self.expr(operands[1], states, names),))
        operands = [self.expr(x, states, names) for x in operands]
        return Neg(*operands) if op == "neg" else BinOp(op, *operands)

    def interval(self, step, states):
        level = self.levels[step]
        level = level.stored if isinstance(level, Perm) else level
        if isinstance(level, Dense):
            return ZERO, self.args[level.extent]
        if isinstance(level, Range):
            return self.expr(level.lo, states), self.expr(level.hi, states)
        return None

    def slots(self, step, states):
        """A level that stores coordinates: (first slot, end slot, per axis
        the key read at a slot's state, the walks a slot takes first, the
        address of slot ``k`` — None when the state is ``k`` itself)."""
        level, walks = self.levels[step], []
        if isinstance(level, Coords):
            axes = self.ref.path.steps[step].axes
            return (ZERO, self.args[level.extent],
                    [self.coordinate(c, a.perm, walks)
                     for c, a in zip(level.inds, axes)], walks, None)
        p, ind = V(states[step - 1]), self.args[level.ind]
        if isinstance(level, Compressed):
            ptr = self.args[level.ptr]
            return (Load(ptr, (p,)), Load(ptr, (p + 1,)),
                    [lambda s: Load(ind, (s,))], walks, None)
        address = level.address and (     # Counted
            lambda k: self.expr(level.address, states,
                                {**self.args, level.slot: k}))
        return (ZERO, Load(self.args[level.count], (p,)),
                [lambda s: Load(ind, (s,) if address else (p, s))], walks,
                address)

    def coordinate(self, c, perm, walks):
        """How a ``Coords`` level reads one axis' key at slot ``k``: its
        array, or ``perm`` of an ``Offset``, whose segment ``d`` is declared
        here and walked forward by the statement appended to ``walks``."""
        if not isinstance(c, Perm):
            return lambda k: Load(self.args[c], (k,))
        ptr, d = self.args[c.stored.ptr], self.let("d", ZERO)
        walks.append(lambda k: While(Cmp(">=", k, Load(ptr, (V(d) + 1,))),
                                     [Assign(d, V(d) + 1)]))
        return lambda k: Load(self.args[perm], (BinOp("-", k, Load(ptr, (V(d),))),))

    def loop(self, step, states, reverse, dims):
        names, level = self.ref.path.steps[step].names, self.levels[step]
        iv = self.interval(step, states)
        if isinstance(level, Perm):
            x = self.count("rr", *iv, reverse, dims)
            perm = self.args[self.ref.path.steps[step].axes[0].perm]
            return [self.let(names[0], Load(perm, (V(x),)))], [x]
        if iv is not None:
            v = self.count(names[0], *iv, reverse, dims)
            return [v], [v]
        lo, hi, reads, walks, address = self.slots(step, states)
        k = self.count(level.slot, lo, hi, reverse, dims)
        for walk in walks:
            self.b.add(walk(V(k)))
        state = self.let("jj", address(V(k))) if address else k
        keys = [self.let(n, read(V(state))) for n, read in zip(names, reads)]
        if getattr(level, "off_diagonal", False):
            self.b.open(If(Cmp("!=", V(keys[0]), V(states[step - 1])), []))
        return keys, [state]

    def search(self, step, states, keys):
        level = self.levels[step]
        iv = self.interval(step, states)
        if isinstance(level, Perm):
            x = self.let("rr", Select(
                within(keys[0], *iv),
                Load(self.args[level.inverse], (keys[0],)), MINUS_ONE))
            return [x], Cmp(">=", V(x), ZERO)
        if iv is not None:
            v = self.let(self.ref.path.steps[step].names[0], keys[0])
            return [v], within(V(v), *iv)
        lo, hi, reads, walks, address = self.slots(step, states)
        stem, pos = ("jj", self.fresh("pos")) if address else (level.slot, None)

        def probe(k, test):     # slot k: (statements, test(state), state)
            setup = [walk(k) for walk in walks]
            if address:
                setup, k = [*setup, Assign(pos, address(k))], V(pos)
            return setup, test(k), k

        if self.how[step] == BINARY:
            state, found = self.bisect(stem, lo, hi, keys[0],
                                       lambda mid: probe(mid, reads[0]))
        else:
            state, found = self.scan(stem, lo, hi, lambda k: probe(
                k, lambda s: And(tuple(Cmp("==", read(s), key)
                                       for read, key in zip(reads, keys)))))
        if getattr(level, "off_diagonal", False):
            found = And((Cmp("!=", keys[0], V(states[step - 1])), found))
        return state, found

    def get(self, states):
        array, *idx = self.value
        return Load(self.args[array],
                    tuple(self.expr(i, states) for i in idx))


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
    """The :class:`ViewEmitter` of the path's storage declaration; the
    :class:`GenericEmitter` when the format declares none."""
    decl = inst.storage(ref.path.path_id)
    if decl is not None:
        return ViewEmitter(ref, name, inst, b, decl)
    return GenericEmitter(ref, name, inst, b)
