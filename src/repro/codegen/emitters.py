"""Per-format loop-IR emitters.

Each emitter knows how to inline one format's raw-array operations — loops
over ``rowptr``/``colind``, binary searches, permutation lookups — exactly
the code a hand-written library kernel would contain (the point of paper
Section 5's "structurally equivalent to the NIST C library").  It builds
:mod:`repro.codegen.loopir` nodes; what language they are printed in is not
its concern.

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

Keys and states are names of integer locals, accumulated per step.  The
:class:`GenericEmitter` falls back to dynamic calls through the abstract
runtime for formats without a specialized emitter (user-defined formats
stay supported); those are ``PyOnly`` nodes, so such kernels do not lower
to C.
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
from repro.polyhedra.linexpr import LinExpr

MINUS_ONE = LinExpr.constant(-1)
TWO = LinExpr.constant(2)


def slots_of(ind: ArrayArg):
    """The :meth:`BaseEmitter.bisect` probe of a sorted 1-d index array: a
    hit yields its position."""
    return lambda mid: ([], Load(ind, (mid,)), mid)


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

    def segment(self, ptr: ArrayArg, ind: ArrayArg, outer: str, stem: str,
                key: str, reverse: bool, dims):
        """``for jj in range(ptr[outer], ptr[outer+1]): key = ind[jj]``."""
        jj = self.count(stem, Load(ptr, (V(outer),)),
                        Load(ptr, (V(outer) + 1,)), reverse, dims)
        return [self.let(key, Load(ind, (V(jj),)))], [jj]

    def index(self, stem: str, key, extent):
        """A dense axis is 'searched' by bounds-checking the key."""
        v = self.let(stem, key)
        return [v], within(V(v), ZERO, extent)

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

    def scan(self, stem: str, n, hit):
        """Early-exit linear search: the first ``k`` in ``[0, n)`` where
        the condition ``hit(k)`` holds, -1 when there is none."""
        found, k = self.let(stem, MINUS_ONE), self.let("at", ZERO)
        self.b.add(While(And((Cmp("<", V(found), ZERO), Cmp("<", V(k), n))), [
            If(hit(V(k)), [Assign(found, V(k))]),
            Assign(k, V(k) + 1),
        ]))
        return [found], Cmp(">=", V(found), ZERO)

    def interval(self, step: int, states: Sequence[str]):
        return None

    def set(self, states: Sequence[str], value) -> None:
        ref = self.get(states)
        ref.array.written = True
        self.b.add(Store(ref.array, ref.idx, value))


class CompressedEmitter(BaseEmitter):
    """CSR, CSC and the off-diagonal part of MSR: an outer dense axis, then
    a compressed segment per outer index."""

    def __init__(self, ref, name, inst, b, ptr, ind, extent, outer, key):
        super().__init__(ref, name, inst, b)
        self.ptr = self.array(ptr)
        self.ind = self.array(ind)
        self.values = self.array("values")
        self.extent = self.size(*extent)
        self.outer, self.key = outer, key

    def loop(self, step, states, reverse, dims):
        if step == 0:
            v = self.count(self.outer, ZERO, self.extent, reverse, dims)
            return [v], [v]
        return self.segment(self.ptr, self.ind, states[0], "jj", self.key,
                            reverse, dims)

    def interval(self, step, states):
        return (ZERO, self.extent) if step == 0 else None

    def search(self, step, states, keys):
        if step == 0:
            return self.index(self.outer, keys[0], self.extent)
        o = V(states[0])
        return self.bisect("jj", Load(self.ptr, (o,)),
                           Load(self.ptr, (o + 1,)), keys[0],
                           slots_of(self.ind))

    def get(self, states):
        return Load(self.values, (V(states[1]),))


class CooEmitter(BaseEmitter):
    def __init__(self, ref, name, inst, b):
        super().__init__(ref, name, inst, b)
        self.rows, self.cols = self.array("rows"), self.array("cols")
        self.vals = self.array("vals")
        self.nnz = self.size("nnz", "nnz")

    def loop(self, step, states, reverse, dims):
        k = self.count("k", ZERO, self.nnz, reverse, dims)
        r = self.let("r", Load(self.rows, (V(k),)))
        c = self.let("c", Load(self.cols, (V(k),)))
        return [r, c], [k]

    def search(self, step, states, keys):
        return self.scan("k", self.nnz, lambda k: And((
            Cmp("==", Load(self.rows, (k,)), keys[0]),
            Cmp("==", Load(self.cols, (k,)), keys[1]))))

    def get(self, states):
        return Load(self.vals, (V(states[0]),))


class DenseEmitter(BaseEmitter):
    def __init__(self, ref, name, inst, b):
        super().__init__(ref, name, inst, b)
        self.axis_order = (("r", "c") if ref.path.path_id == "rowmajor"
                           else ("c", "r"))
        self.data = self.array("data")
        self.extent = {"r": self.size("m", "nrows"),
                       "c": self.size("n", "ncols")}

    def loop(self, step, states, reverse, dims):
        axis = self.axis_order[step]
        v = self.count(axis, ZERO, self.extent[axis], reverse, dims)
        return [v], [v]

    def interval(self, step, states):
        return (ZERO, self.extent[self.axis_order[step]])

    def search(self, step, states, keys):
        axis = self.axis_order[step]
        return self.index(axis, keys[0], self.extent[axis])

    def get(self, states):
        at = dict(zip(self.axis_order, states))
        return Load(self.data, (V(at["r"]), V(at["c"])))


class EllEmitter(BaseEmitter):
    def __init__(self, ref, name, inst, b):
        super().__init__(ref, name, inst, b)
        self.colind, self.data = self.array("colind"), self.array("data")
        self.rowlen = self.array("rowlen")
        self.m = self.size("m", "nrows")

    def loop(self, step, states, reverse, dims):
        if step == 0:
            r = self.count("r", ZERO, self.m, reverse, dims)
            return [r], [r]
        r = V(states[0])
        kk = self.count("kk", ZERO, Load(self.rowlen, (r,)), reverse, dims)
        return [self.let("c", Load(self.colind, (r, V(kk))))], [kk]

    def interval(self, step, states):
        return (ZERO, self.m) if step == 0 else None

    def search(self, step, states, keys):
        if step == 0:
            return self.index("r", keys[0], self.m)
        r = V(states[0])
        return self.bisect(
            "kk", ZERO, Load(self.rowlen, (r,)), keys[0],
            lambda mid: ([], Load(self.colind, (r, mid)), mid))

    def get(self, states):
        return Load(self.data, (V(states[0]), V(states[1])))


class DiaEmitter(BaseEmitter):
    def __init__(self, ref, name, inst, b):
        super().__init__(ref, name, inst, b)
        self.diags, self.data = self.array("diags"), self.array("data")
        self.m, self.n = self.size("m", "nrows"), self.size("n", "ncols")
        self.nd = self.size("nd", "diags", kind="len")

    def band(self, k: str):
        """The stored offsets ``[lo, hi)`` of diagonal slot ``k``."""
        d = Load(self.diags, (V(k),))
        return (BinOp("max", ZERO, Neg(d)),
                BinOp("min", self.n, BinOp("-", self.m, d)))

    def loop(self, step, states, reverse, dims):
        if step == 0:
            k = self.count("k", ZERO, self.nd, reverse, dims)
            return [self.let("d", Load(self.diags, (V(k),)))], [k]
        o = self.count("o", *self.band(states[0]), reverse, dims)
        return [o], [o]

    def interval(self, step, states):
        return self.band(states[0]) if step == 1 else None

    def search(self, step, states, keys):
        if step == 0:
            return self.bisect("k", ZERO, self.nd, keys[0],
                               slots_of(self.diags))
        o = self.let("o", keys[0])
        return [o], within(V(o), *self.band(states[0]))

    def get(self, states):
        return Load(self.data, (V(states[0]), V(states[1])))


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


class BsrEmitter(BaseEmitter):
    def __init__(self, ref, name, inst, b):
        super().__init__(ref, name, inst, b)
        self.inner_order = (("ri", "ci") if ref.path.path_id == "rows_rc"
                            else ("ci", "ri"))
        self.indptr = self.array("indptr")
        self.blockind, self.data = self.array("blockind"), self.array("data")
        self.brows = self.size("brows", "block_rows")
        self.s = self.size("s", "block_size")

    def loop(self, step, states, reverse, dims):
        if step == 1:
            return self.segment(self.indptr, self.blockind, states[0], "kk",
                                "cb", reverse, dims)
        stem, extent = (("rb", self.brows) if step == 0
                        else (self.inner_order[step - 2], self.s))
        v = self.count(stem, ZERO, extent, reverse, dims)
        return [v], [v]

    def interval(self, step, states):
        if step == 1:
            return None
        return (ZERO, self.brows if step == 0 else self.s)

    def search(self, step, states, keys):
        if step == 0:
            return self.index("rb", keys[0], self.brows)
        if step == 1:
            rb = V(states[0])
            return self.bisect("kk", Load(self.indptr, (rb,)),
                               Load(self.indptr, (rb + 1,)), keys[0],
                               slots_of(self.blockind))
        return self.index("v", keys[0], self.s)

    def get(self, states):
        inner = dict(zip(self.inner_order, states[2:]))
        return Load(self.data, (V(states[1]), V(inner["ri"]),
                                V(inner["ci"])))


class MsrDiagEmitter(BaseEmitter):
    def __init__(self, ref, name, inst, b):
        super().__init__(ref, name, inst, b)
        self.dvals = self.array("dvals")
        self.nd = self.size("nd", "ndiag")

    def loop(self, step, states, reverse, dims):
        i = self.count("i", ZERO, self.nd, reverse, dims)
        return [i], [i]

    def interval(self, step, states):
        return (ZERO, self.nd)

    def search(self, step, states, keys):
        return self.index("i", keys[0], self.nd)

    def get(self, states):
        return Load(self.dvals, (V(states[0]),))


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
    fmt_name = ref.fmt.format_name
    if fmt_name == "csr" or (fmt_name == "msr" and ref.path.path_id != "diag"):
        return CompressedEmitter(ref, name, inst, b, "rowptr", "colind",
                                 ("m", "nrows"), "r", "c")
    if fmt_name == "csc":
        return CompressedEmitter(ref, name, inst, b, "colptr", "rowind",
                                 ("n", "ncols"), "c", "r")
    if fmt_name == "msr":
        return MsrDiagEmitter(ref, name, inst, b)
    cls = {"coo": CooEmitter, "dense": DenseEmitter, "ell": EllEmitter,
           "dia": DiaEmitter, "jad": JadEmitter, "bsr": BsrEmitter}
    return cls.get(fmt_name, GenericEmitter)(ref, name, inst, b)
