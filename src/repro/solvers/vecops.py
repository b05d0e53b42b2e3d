"""The per-iteration vector work of ``cg`` and ``bicgstab``, defined once.

Each step is a dense 1-D loop in the loop IR every kernel is made of
(:data:`ENTRY_POINTS`): one pass over ``i in [0, n)`` that stores one or
two elements, with its scalar coefficients read from a two-element array
``c``.  Two providers execute it, and both round every element exactly as
the NumPy expression in the comment beside the step does — same
operations, same operand order, no contraction (``-ffp-contract=off``):

- :class:`NativeVecOps` — the C print of the IR.  A
  :class:`~repro.solvers.context.SolverContext` asks for the steps as
  extra entry points of its ``mvm`` translation unit, so they cost no
  toolchain invocation of their own; a solve calls them with the
  addresses of the vectors it owns marshalled once.
- :class:`NumpyVecOps` — the same steps as in-place NumPy on one
  workspace per solve: what runs without a native ``mvm`` (Python
  backend, no toolchain, a plain matrix), and what a native step defers
  to for an operand the C loop cannot take as it is.

Reductions (``r @ z``, ``norm``) are not steps: ``np.dot`` is as fast as
a C loop here, and a C reduction would not sum in its order.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterable, List, Mapping, Sequence

import numpy as np

from repro.codegen.loopir import (
    ArrayArg, BinOp, For, KernelIR, Load, ScalarArg, Store, V, ZERO,
)
from repro.instrument import INSTR
from repro.polyhedra.linexpr import LinExpr


def _step(names: str, stores: Callable) -> KernelIR:
    """``kernel(n, c, *names)``: for each ``i``, the stores that
    ``stores(c, e)`` lists as ``(target, value)`` — ``c[k]`` the
    coefficients, ``e[name]`` element ``i`` of an operand."""
    coef = ArrayArg("c", ("array", "c"), "float64", 1)
    arrays = {nm: ArrayArg(nm, ("array", nm), "float64", 1)
              for nm in names.split()}
    i = (V("i"),)
    body = []
    for target, value in stores(
            [Load(coef, (LinExpr.constant(k),)) for k in range(2)],
            {nm: Load(a, i) for nm, a in arrays.items()}):
        arrays[target].written = True
        body.append(Store(arrays[target], i, value))
    return KernelIR([ScalarArg("n", ("param", "n")), coef, *arrays.values()],
                    [For("i", ZERO, V("n"), 1, body)])


_add, _sub, _mul = (partial(BinOp, op) for op in "+-*")


#: step name -> its loop IR; the provider methods take the coefficients,
#: then the operands in the order named here
ENTRY_POINTS: Dict[str, KernelIR] = {
    # cg:  x += alpha * p;  r = r - alpha * q   (q = A p)
    "cg_update": _step("x p r q", lambda c, e: [
        ("x", _add(e["x"], _mul(c[0], e["p"]))),
        ("r", _sub(e["r"], _mul(c[0], e["q"])))]),
    # cg:  p = z + beta * p
    "cg_direction": _step("p z", lambda c, e: [
        ("p", _add(e["z"], _mul(c[0], e["p"])))]),
    # bicgstab:  p = r + beta * (p - omega * v)
    "bicg_direction": _step("p r v", lambda c, e: [
        ("p", _add(e["r"], _mul(c[0], _sub(e["p"], _mul(c[1], e["v"])))))]),
    # bicgstab:  s = r - alpha * v
    "bicg_residual": _step("s r v", lambda c, e: [
        ("s", _sub(e["r"], _mul(c[0], e["v"])))]),
    # bicgstab:  x = x + alpha * ph + omega * sh;  r = s - omega * t
    "bicg_update": _step("x ph sh r s t", lambda c, e: [
        ("x", _add(_add(e["x"], _mul(c[0], e["ph"])), _mul(c[1], e["sh"]))),
        ("r", _sub(e["s"], _mul(c[1], e["t"])))]),
}


class NumpyVecOps:
    """Every step as in-place NumPy; ``n`` sizes the one workspace."""

    kind = "numpy"

    def __init__(self, n: int):
        self._w = np.empty(n)

    def cg_update(self, alpha, x, p, r, q):
        w = self._w
        np.multiply(alpha, p, out=w)
        np.add(x, w, out=x)
        np.multiply(alpha, q, out=w)
        np.subtract(r, w, out=r)

    def cg_direction(self, beta, p, z):
        np.multiply(beta, p, out=p)
        np.add(z, p, out=p)

    def bicg_direction(self, beta, omega, p, r, v):
        w = self._w
        np.multiply(omega, v, out=w)
        np.subtract(p, w, out=p)
        np.multiply(beta, p, out=p)
        np.add(r, p, out=p)

    def bicg_residual(self, alpha, s, r, v):
        np.multiply(alpha, v, out=s)
        np.subtract(r, s, out=s)

    def bicg_update(self, alpha, omega, x, ph, sh, r, s, t):
        w = self._w
        np.multiply(alpha, ph, out=w)
        np.add(x, w, out=x)
        np.multiply(omega, sh, out=w)
        np.add(x, w, out=x)
        np.multiply(omega, t, out=r)
        np.subtract(s, r, out=r)


def _native_step(name: str, ncoef: int):
    twin = getattr(NumpyVecOps, name)

    def step(self, *args):
        try:
            addrs = [self._addr[id(a)] for a in args[ncoef:]]
        except KeyError:
            addrs = [self._address(a) for a in args[ncoef:]]
            if None in addrs:
                # another dtype, stride or array type: NumPy's casting
                # rules, not a conversion of ours, say what this step is
                return twin(self._twin, *args)
        for k in range(ncoef):
            self._c[k] = args[k]
        self._fns[name](self._n, self._caddr, *addrs)

    step.__name__ = name
    return step


class NativeVecOps:
    """Every step through its C entry point (``entries``: name -> bound
    :class:`~repro.core.backend.NativeKernel`).  ``owned`` are the vectors
    the solve allocated and keeps for its whole length: their addresses
    are taken once (the arrays are held, so an ``id`` in the table cannot
    be a recycled one); any other operand — what a user's ``matvec`` or
    ``precond`` returned — is checked and addressed per call."""

    kind = "native"

    def __init__(self, entries: Mapping, n: int, owned: Iterable[np.ndarray]):
        self._fns = {name: entries[name].fn for name in ENTRY_POINTS}
        self._n = n
        self._c = np.zeros(2)
        self._caddr = self._c.ctypes.data
        self._owned = list(owned)
        self._addr = {id(a): a.ctypes.data for a in self._owned}
        self._twin = NumpyVecOps(n)

    def _address(self, a):
        """Of an operand the C loops can take as it is, else None."""
        addr = self._addr.get(id(a))
        if addr is None and (type(a) is np.ndarray and a.dtype == np.float64
                             and a.shape == (self._n,)
                             and a.flags.c_contiguous):
            addr = a.ctypes.data
        return addr

    cg_update = _native_step("cg_update", 1)
    cg_direction = _native_step("cg_direction", 1)
    bicg_direction = _native_step("bicg_direction", 2)
    bicg_residual = _native_step("bicg_residual", 1)
    bicg_update = _native_step("bicg_update", 2)


def provider(context, n: int, owned: List[np.ndarray],
             returned: Sequence[np.ndarray] = ()):
    """The provider of one solve, counted once: native when ``context``
    bound the entry points — unless one of ``returned`` (what a user's
    ``matvec`` / ``precond`` first handed back) overlaps a vector the
    steps write, ``owned``: the loops may not see one buffer under two
    names (their pointers are ``restrict``), so that solve runs on
    NumPy (``solver.vecops.aliased``)."""
    entries = context.vec_entries if context is not None else None
    if entries and any(np.shares_memory(got, mine)
                       for got in returned for mine in owned):
        INSTR.count("solver.vecops.aliased")
        entries = None
    ops = NativeVecOps(entries, n, owned) if entries else NumpyVecOps(n)
    INSTR.count(f"solver.vecops.{ops.kind}")
    return ops
