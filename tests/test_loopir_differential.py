"""IR-level differential: the two printers against each other.

Hypothesis builds small :mod:`repro.codegen.loopir` programs nobody
hand-wrote — one to three nested loops with affine bounds (ascending and
descending, triangular), guards with ``%`` and ``//`` over negative
operands, loads and stores on int32/int64 index arrays and float32/float64
value arrays, a 2-D and a 0-D dense array, read-modify-write
accumulations, indirect (scatter) addresses and the SpMM panel shape —
execs the Python print, compiles the C print (so guard_absorb and
register_tile run on programs they were not written for, under the
``restrict`` signature), and requires ``np.array_equal`` on every array.

Searches are loop IR too (:meth:`BaseEmitter.bisect` / ``scan``): a second
strategy draws sorted index arrays, ranges and keys, builds the search
through those constructors and holds both prints to a
``np.searchsorted`` oracle.

A third wall holds the two readers of a storage declaration
(:mod:`repro.formats.levels`) to each other: for every built-in format x
path that declares its storage, ``ViewEmitter.loop`` / ``interval`` /
``search`` / ``get`` are driven step by step on drawn matrices, printed
both ways at both index widths, and must reproduce what
``LevelRuntime.enumerate`` / ``interval`` / ``search`` / ``get`` of the
same instance say, with no kernel or plan involved.  (That the declaration
itself is right is ``tests/test_formats.py::TestEnumerationRuntime``'s.)

Memory safety by construction: every loop variable stays in ``[0, N)``,
every index expression in ``[0, 2N]``, every array has ``2N + 2`` rows,
and index-array contents are valid rows.  Stored values grow at most
linearly with the trip count, so nothing overflows or produces a NaN.

Determinism: the fast test is ``derandomize=True``; the slow-marked deep
variant pins a seed and buys eight times the examples.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from repro.codegen.emitters import BaseEmitter
from repro.codegen.loopir import (
    And, ArrayArg, Assign, BinOp, Builder, Cmp, Const, For, If, KernelIR, Load,
    Neg, ScalarArg, Store, V, While, ZERO, counted, walk,
)
from repro.core import backend as be
from repro.polyhedra.linexpr import LinExpr
from tests.conftest import run_ir_native, run_ir_python

pytestmark = pytest.mark.skipif(be.find_compiler() is None,
                                reason="no C toolchain")

N = 6                  # loop variables live in [0, N)
ROWS = 2 * N + 2       # every index expression lands in [0, ROWS)
K = 43                 # panel width: two wide tiles, narrow ones, an overlap

QUIET = [HealthCheck.too_slow, HealthCheck.data_too_large]
FAST = settings(max_examples=25, deadline=None, derandomize=True,
                suppress_health_check=QUIET)
DEEP = settings(max_examples=200, deadline=None, suppress_health_check=QUIET)

C = LinExpr.constant


def slots_of(ind):
    """The bisect probe of a sorted 1-d index array: a hit yields its
    position."""
    return lambda mid: ([], Load(ind, (mid,)), mid)


class Program:
    """The arguments of every generated kernel, and which arrays a drawn
    body stores into."""

    SHAPES = {"I32": ("int32", (ROWS,)), "I64": ("int64", (ROWS,)),
              "F32": ("float32", (ROWS,)), "F64": ("float64", (ROWS,)),
              "G64": ("float64", (ROWS,)), "O32": ("int32", (ROWS,)),
              "O64": ("int64", (ROWS,)), "X": ("float64", (ROWS, K)),
              "Y": ("float64", (ROWS, K)), "S0": ("float64", ())}

    def __init__(self):
        self.params = [ScalarArg(f"p_{p}", ("param", p))
                       for p in ("a", "n", "k")]
        self.arrays = {name: ArrayArg(f"arr_{name}", ("array", name), dtype,
                                      len(shape))
                       for name, (dtype, shape) in self.SHAPES.items()}
        self.fresh = 0

    def name(self, stem):
        self.fresh += 1
        return f"{stem}{self.fresh}"

    def store(self, array, idx, value):
        self.arrays[array].written = True
        return Store(self.arrays[array], idx, value)

    def load(self, array, *idx):
        return Load(self.arrays[array], tuple(idx))

    def kernel(self, body):
        return KernelIR(self.params + list(self.arrays.values()), body)


def data_for(rng):
    def halves(shape):
        return rng.integers(-6, 7, size=shape) / 2.0

    return {
        "I32": rng.integers(0, ROWS, ROWS).astype(np.int32),
        "I64": rng.integers(0, ROWS, ROWS).astype(np.int64),
        "F32": halves(ROWS).astype(np.float32), "F64": halves(ROWS),
        "G64": halves(ROWS), "O32": np.zeros(ROWS, np.int32),
        "O64": np.zeros(ROWS, np.int64), "X": halves((ROWS, K)),
        "Y": halves((ROWS, K)), "S0": np.array(0.5),
    }


# -- drawing ------------------------------------------------------------------

def index(draw, scope):
    """An affine index in [0, 2N] over the loop variables in scope."""
    v = V(draw(st.sampled_from(scope)))
    w = V(draw(st.sampled_from(scope)))
    return draw(st.sampled_from([v, v + 1, v + w, C(N) - v, v * 2,
                                 v - w + N, C(draw(st.integers(0, N)))]))


def pure(draw, prog, scope, depth=2):
    """A float64 expression over read-only operands."""
    kind = draw(st.sampled_from(["G64", "const", "X", "var"]
                                + ["bin", "bin", "neg"] * (depth > 0)))
    if kind == "bin":
        return BinOp(draw(st.sampled_from("+-*")),
                     pure(draw, prog, scope, depth - 1),
                     pure(draw, prog, scope, depth - 1))
    if kind == "neg":
        return Neg(pure(draw, prog, scope, depth - 1))
    if kind == "const":
        return Const(draw(st.sampled_from([0.5, 1.5, -2.0, 3.0])))
    if kind == "X":
        return prog.load("X", index(draw, scope),
                         C(draw(st.integers(0, K - 1))))
    if kind == "var":
        # an integer in value position (the program's ``__var__`` reads)
        return BinOp("/", index(draw, scope), Const(2.0))
    return prog.load("G64", index(draw, scope))


def statement(draw, prog, scope):
    """One store.  At most one operand reads an array the program writes,
    and only additively, so values grow linearly with the trip count (no
    overflow, no NaN) while still exercising read-modify-write, shifted
    reads of the stored array (which a vectorizer told ``restrict`` must
    still honor) and float32 targets."""
    kind = draw(st.sampled_from(["float", "float", "int", "acc0", "scatter",
                                 "dense2"]))
    rhs = pure(draw, prog, scope)
    if kind == "float":
        arr, at = draw(st.sampled_from(["F64", "F32"])), index(draw, scope)
        back = draw(st.sampled_from(["none", "rmw", "shifted", "F64"]))
        if back == "rmw":
            rhs = BinOp(draw(st.sampled_from("+-")), prog.load(arr, at), rhs)
        elif back == "shifted":
            rhs = BinOp("+", rhs, prog.load(arr, index(draw, scope)))
        elif back == "F64":
            rhs = BinOp("-", prog.load("F64", index(draw, scope)), rhs)
        return prog.store(arr, (at,), rhs)
    if kind == "int":
        out, src = draw(st.sampled_from([("O64", "I32"), ("O32", "I64")]))
        return prog.store(out, (index(draw, scope),),
                          BinOp("-", prog.load(src, index(draw, scope)),
                                index(draw, scope)))
    if kind == "acc0":
        return prog.store("S0", (), BinOp("+", prog.load("S0"), rhs))
    if kind == "scatter":
        at = prog.load(draw(st.sampled_from(["I32", "I64"])),
                       index(draw, scope))
        return prog.store("F64", (at,), BinOp("+", prog.load("F64", at), rhs))
    i, j = index(draw, scope), C(draw(st.integers(0, K - 1)))
    return prog.store("Y", (i, j), BinOp("+", prog.load("Y", i, j), rhs))


def guard(draw, scope):
    """Affine ±1-coefficient conditions on the innermost variable (what
    the scheduler folds into loop bounds) and ``%`` / ``//`` conditions
    over operands that go negative (which it must leave in place)."""
    v = V(scope[-1])
    w = V(scope[-2]) if len(scope) > 1 else V("p_a")
    affine = [Cmp(">=", v - w, ZERO), Cmp("<", v, w + 2), Cmp(">", v + w, C(1)),
              Cmp("<=", v + 1, C(N - 1)), Cmp(">=", v, C(1))]
    other = [
        Cmp("==", BinOp("%", v - 3, C(2)), ZERO),
        Cmp("==", BinOp("%", v - w - 1, C(3)), ZERO),
        Cmp(">=", LinExpr({scope[-1]: Fraction(1, 2)}, Fraction(-5, 2)), C(-2)),
        Cmp("<", BinOp("//", v - 4, C(3)), ZERO),
        Cmp("<", BinOp("//", C(3) - v, C(-2)), C(1)),
    ]
    terms = (draw(st.lists(st.sampled_from(affine), max_size=2))
             + draw(st.lists(st.sampled_from(other), max_size=1)))
    terms = terms or [other[0]]
    return terms[0] if len(terms) == 1 else And(tuple(terms))


def panel(draw, prog, scope):
    """The SpMM shape: a sparse loop whose last statement accumulates a
    dense panel row, mostly with the loop that fills that row just ahead
    of it — what register_tile rewrites (and, without the fill or with
    the fill of another row, must leave alone)."""
    jj, kk, c, ff = (prog.name(s) for s in ("jj", "kk", "c", "ff"))
    row = index(draw, scope)
    lo = draw(st.integers(0, N))
    upd = prog.store("Y", (row, V(kk)), BinOp(
        "+", prog.load("Y", row, V(kk)),
        BinOp("*", prog.load("G64", V(jj)), prog.load("X", V(c), V(kk)))))
    walk_ = For(jj, C(lo), C(lo + draw(st.integers(0, N))), 1, [
        Assign(c, prog.load("I64", V(jj))),
        For(kk, ZERO, V("p_k"), 1, [upd], ("kk",)),
    ], ("jj",))
    filled = draw(st.sampled_from(["row", "row", "row", "other", "none"]))
    if filled == "none":
        return [walk_]
    at = row if filled == "row" else index(draw, scope)
    value = draw(st.sampled_from([Const(0.0), Const(1.5), ZERO,
                                  prog.load("G64", ZERO)]))
    return [For(ff, ZERO, V("p_k"), 1,
                [prog.store("Y", (at, V(ff)), value)], ("ff",)), walk_]


def nest(draw, prog, scope, depth):
    v = prog.name("v")
    lo = draw(st.sampled_from([ZERO, C(1), V("p_a")] + [V(s) for s in scope]))
    hi = draw(st.sampled_from([C(N), V("p_n"), C(N - 1)]
                              + [V(s) + 1 for s in scope]))
    loop = counted(v, lo, hi, draw(st.booleans()), (v,))
    inner = scope + [v]
    body = loop.body
    if depth > 1 and draw(st.booleans()):
        if draw(st.booleans()):
            body.append(statement(draw, prog, inner))
        body.append(nest(draw, prog, inner, depth - 1))
    else:
        stmts = [statement(draw, prog, inner)
                 for _ in range(draw(st.integers(1, 2)))]
        if draw(st.booleans()):
            stmts.extend(panel(draw, prog, inner))
        if draw(st.booleans()):
            stmts = [If(guard(draw, inner), stmts)]
        body.extend(stmts)
    return loop


@st.composite
def programs(draw):
    prog = Program()
    body = [nest(draw, prog, [], draw(st.integers(1, 3)))
            for _ in range(draw(st.integers(1, 2)))]
    params = {"a": draw(st.integers(0, 2)), "n": draw(st.integers(0, N)),
              "k": draw(st.integers(0, K))}
    return prog.kernel(body), params, draw(st.integers(0, 2 ** 16))


# -- the wall -----------------------------------------------------------------

def check(case):
    ir, params, data_seed = case
    want = data_for(np.random.default_rng(data_seed))
    run_ir_python(ir, want, params)
    got = data_for(np.random.default_rng(data_seed))
    run_ir_native(ir, got, params)
    for name in want:
        assert np.array_equal(want[name], got[name]), name


@FAST
@given(programs())
def test_printers_agree(case):
    check(case)


@pytest.mark.slow
@seed(20260928)
@DEEP
@given(programs())
def test_printers_agree_deep(case):
    check(case)


def test_transforms_are_reached():
    """The wall is only a wall for the scheduler if its programs trigger
    the transforms: a fixed program of each shape must fire each one."""
    from repro.codegen.native import lower_kernel
    from tests.conftest import IRKernel

    prog = Program()
    v, o = V("v1"), V("o2")
    band = For("o2", ZERO, C(N), 1, [If(
        And((Cmp(">=", o - v, ZERO), Cmp("<", o, v + 3))),
        [prog.store("F64", (o,), BinOp("+", prog.load("F64", o),
                                       prog.load("G64", o + v)))])], ("o",))
    jj, kk = V("jj3"), V("kk4")
    fill = For("ff6", ZERO, V("p_k"), 1,
               [prog.store("Y", (v, V("ff6")), Const(0.0))], ("ff",))
    spmm = For("jj3", ZERO, C(N), 1, [
        Assign("c5", prog.load("I64", jj)),
        For("kk4", ZERO, V("p_k"), 1, [prog.store("Y", (v, kk), BinOp(
            "+", prog.load("Y", v, kk),
            BinOp("*", prog.load("G64", jj),
                  prog.load("X", V("c5"), kk))))], ("kk",))], ("jj",))
    ir = prog.kernel([For("v1", ZERO, C(N), 1, [band, fill, spmm], ("v",))])
    spec = lower_kernel(IRKernel(ir))
    assert {"guard_absorb", "register_tile"} <= set(spec.transforms)
    check((ir, {"a": 0, "n": N, "k": K}, 7))


# -- searches -----------------------------------------------------------------

SLOTS = 12             # longest sorted array a search is drawn over
QUERIES = 6


def search_ir(kind, dtype):
    """``out[q] = search(keys[q])`` for every query ``q``, the search built
    by the emitters' constructors over ``ind`` (and ``aux``) of ``dtype``:

    - ``"array"``: bisect ``ind[lo:hi]``;
    - ``"probe"``: bisect slots read through a probe with a setup
      statement, ``ind[aux[mid] + 1]`` (the JAD row shape), a hit yielding
      that address;
    - ``"scan"``: the first ``k < hi`` with ``ind[k] == key`` and
      ``aux[k] == key2`` (the COO shape; duplicates allowed)."""
    b = Builder()
    lo, hi, nq = (V(b.arg(ScalarArg(f"p_{p}", ("param", p))).name)
                  for p in ("lo", "hi", "nq"))
    ind, aux = (b.arg(ArrayArg(n, ("array", n), dtype, 1))
                for n in ("ind", "aux"))
    keys, out = (b.arg(ArrayArg(n, ("array", n), "int64", 1))
                 for n in ("keys", "out"))
    out.written = True
    em = BaseEmitter(None, "S", None, b)
    q = em.count("q", ZERO, nq, False, ("q",))
    key = V(em.let("key", Load(keys, (V(q),))))
    if kind == "array":
        (found,), cond = em.bisect("f", lo, hi, key, slots_of(ind))
    elif kind == "probe":
        pos = em.fresh("pos")
        (found,), cond = em.bisect("f", lo, hi, key, lambda mid: (
            [Assign(pos, BinOp("+", Load(aux, (mid,)), C(1)))],
            Load(ind, (V(pos),)), V(pos)))
    else:
        (found,), cond = em.scan("f", ZERO, hi, lambda k: ([], And((
            Cmp("==", Load(ind, (k,)), key),
            Cmp("==", Load(aux, (k,)), key + 1))), k))
    assert cond == Cmp(">=", V(found), ZERO)
    b.add(Store(out, (V(q),), V(found)))
    return KernelIR(b.args, b.body)


_SEARCH_KERNELS = {}


def ir_runners(ir):
    """(Python callable, C) of one loop IR."""
    from repro.codegen.loopir import print_python
    from repro.codegen.native import lower_kernel
    from repro.codegen.pysource import source_to_callable
    from tests.conftest import IRKernel

    spec = lower_kernel(IRKernel(ir))
    fn, omp = be.compile_native_function(spec.c_source, False, "off")
    return [source_to_callable(print_python(ir)),
            be.NativeKernel(fn, spec, omp)]


def search_kernels(kind, dtype):
    """The runners of one search shape; the IR does not depend on the
    drawn data, so each is built once."""
    if (kind, dtype) not in _SEARCH_KERNELS:
        _SEARCH_KERNELS[kind, dtype] = ir_runners(search_ir(kind, dtype))
    return _SEARCH_KERNELS[kind, dtype]


def search_oracle(kind, ind, aux, lo, hi, key):
    if kind == "scan":
        hits = np.nonzero((ind[:hi] == key) & (aux[:hi] == key + 1))[0]
        return int(hits[0]) if hits.size else -1
    if kind == "probe":
        ind = ind[aux[:hi] + 1] if hi else ind[:0]
    pos = lo + int(np.searchsorted(ind[lo:hi], key))
    if pos == hi or ind[pos] != key:
        return -1
    return int(aux[pos]) + 1 if kind == "probe" else pos


@st.composite
def search_cases(draw):
    kind = draw(st.sampled_from(["array", "probe", "scan"]))
    dtype = draw(st.sampled_from(["int32", "int64"]))
    distinct = st.sets(st.integers(-9, 9), max_size=SLOTS)
    if kind == "scan":
        slots = draw(st.lists(st.integers(-3, 3), max_size=SLOTS))
        aux = [v + draw(st.integers(0, 1)) for v in slots]
    else:
        slots = sorted(draw(distinct))      # no duplicates, by construction
        aux = list(range(len(slots)))
    if kind == "probe":
        # slot mid lives at ind[aux[mid] + 1], aux a drawn permutation
        aux = draw(st.permutations(aux))
        stored = [0] * (len(slots) + 1)
        for mid, at in enumerate(aux):
            stored[at + 1] = slots[mid]
        slots = stored
    hi = draw(st.integers(0, len(aux)))
    lo = draw(st.integers(0, hi))
    keys = draw(st.lists(st.integers(-11, 11), min_size=1, max_size=QUERIES))
    return kind, dtype, slots, aux, lo, hi, keys


def check_search(case):
    kind, dtype, slots, aux, lo, hi, keys = case
    ind, aux = np.array(slots, dtype=dtype), np.array(aux, dtype=dtype)
    keys = np.array(keys, dtype=np.int64)
    want = np.array([search_oracle(kind, ind, aux, lo, hi, int(k))
                     for k in keys])
    for run in search_kernels(kind, dtype):
        out = np.full(len(keys), -7, dtype=np.int64)
        run({"ind": ind, "aux": aux, "keys": keys, "out": out},
            {"lo": lo, "hi": hi, "nq": len(keys)})
        assert np.array_equal(out, want), (run, out, want)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=QUIET)
@given(search_cases())
@example(("array", "int32", [], [], 0, 0, [0]))                  # empty
@example(("array", "int64", [4], [0], 0, 1, [3, 4, 5]))          # one slot
@example(("array", "int32", [1, 3, 5, 7], [0, 1, 2, 3], 1, 3,
          [1, 3, 4, 5, 7, -2]))                 # present outside [lo, hi)
@example(("probe", "int32", [0, 5, 2], [1, 0], 0, 2, [2, 5, 3]))
@example(("scan", "int64", [2, 2, 2], [3, 3, 0], 0, 3, [2, 1]))  # first hit
def test_search_printers_agree(case):
    check_search(case)


def test_a_search_is_statements_the_scheduler_sees_into():
    """No opaque call: the search is ``While``/``If``/``Assign`` nodes, and
    a body holding one is not ``register_tile`` material by the rule that
    transform already has."""
    from repro.codegen.native import lower_kernel
    from tests.conftest import IRKernel

    ir = search_ir("array", "int32")
    assert any(isinstance(n, While) for n in walk(ir.body))
    assert lower_kernel(IRKernel(ir)).transforms == []
    # the SpMM shape with a search among the sparse loop's statements
    prog = Program()
    b = Builder()
    em = BaseEmitter(None, "S", None, b)
    jj = em.count("jj", ZERO, C(N), False, ("jj",))
    (c,), _ = em.bisect("c", ZERO, C(N), V(jj), slots_of(prog.arrays["I64"]))
    b.add(For("kk", ZERO, V("p_k"), 1, [prog.store("Y", (ZERO, V("kk")), BinOp(
        "+", prog.load("Y", ZERO, V("kk")),
        prog.load("X", BinOp("max", V(c), ZERO), V("kk"))))], ("kk",)))
    spec = lower_kernel(IRKernel(prog.kernel(b.body)))
    assert "register_tile" not in spec.transforms


# -- storage declarations against the runtimes --------------------------------

@functools.lru_cache(maxsize=None)
def declared_paths():
    """Every (format, path id) of the built-in formats: each declares its
    storage."""
    from repro.formats import FORMATS

    found, undeclared = [], set()
    for name, cls in FORMATS.items():
        inst = cls.from_dense(np.eye(2))
        for path in inst.paths():
            if inst.storage(path.path_id) is None:
                undeclared.add(name)
            else:
                found.append((name, path.path_id))
    assert undeclared == set() and len(found) == 15
    return found


CAP = 160              # rows of the output arrays: more than any walk emits


def _view_emitter(fmt, path_id, b):
    import types

    from repro.codegen.emitters import ViewEmitter, make_emitter

    ref = types.SimpleNamespace(array="A", fmt=fmt, path=fmt.path(path_id))
    em = make_emitter(ref, "M0", fmt, b)
    assert isinstance(em, ViewEmitter)
    return em


def _outputs(b, *specs):
    arrays = [b.arg(ArrayArg(n, ("array", n), dtype, ndim))
              for n, dtype, ndim in specs]
    for a in arrays:
        a.written = True
    return arrays


def walk_ir(fmt, path_id):
    """The whole path enumerated through ``loop``: the keys of every step
    and the value per stored entry, and ``(lo, hi, step)`` wherever a step
    has an ``interval`` — in visiting order."""
    b = Builder()
    keys_out, vals, ivs, counts = _outputs(
        b, ("KEYS", "int64", 2), ("VALS", "float64", 1), ("IVS", "int64", 2),
        ("COUNTS", "int64", 1))
    em = _view_emitter(fmt, path_id, b)
    b.add(Assign("cnt", ZERO))
    b.add(Assign("cnt_iv", ZERO))
    states, keys = [], []
    for step in range(len(em.ref.path.steps)):
        iv = em.interval(step, states)
        if iv is not None:
            for col, e in enumerate((*iv, C(step))):
                b.add(Store(ivs, (V("cnt_iv"), C(col)), e))
            b.add(Assign("cnt_iv", V("cnt_iv") + 1))
        new_keys, new_states = em.loop(step, states, False, (f"d{step}",))
        keys, states = keys + new_keys, states + new_states
    for col, k in enumerate(keys):
        b.add(Store(keys_out, (V("cnt"), C(col)), V(k)))
    b.add(Store(vals, (V("cnt"),), em.get(states)))
    b.add(Assign("cnt", V("cnt") + 1))
    b.close_to(1)
    b.add(Store(counts, (ZERO,), V("cnt")))
    b.add(Store(counts, (C(1),), V("cnt_iv")))
    return KernelIR(b.args, b.body)


def probe_ir(fmt, path_id):
    """Random access through ``search``: per query (one key per axis of
    the path) the searches of all steps chained, each under the state the
    one before found; records how many steps found their key and, when all
    did, the value ``get`` reads through the searched states."""
    b = Builder()
    nq = V(b.arg(ScalarArg("p_nq", ("param", "nq"))).name)
    queries = b.arg(ArrayArg("Q", ("array", "Q"), "int64", 2))
    depth, vals = _outputs(b, ("DEPTH", "int64", 1), ("VALS", "float64", 1))
    em = _view_emitter(fmt, path_id, b)
    q = em.count("q", ZERO, nq, False, ("q",))
    base = b.depth
    b.add(Assign("depth", ZERO))
    states, col = [], 0
    for step, axes in enumerate(s.names for s in em.ref.path.steps):
        keys = []
        for _ in axes:
            keys.append(V(em.let("key", Load(queries, (V(q), C(col))))))
            col += 1
        new_states, found = em.search(step, states, keys)
        b.open(If(found, []))
        b.add(Assign("depth", C(step + 1)))
        states = states + new_states
    b.add(Store(vals, (V(q),), em.get(states)))
    b.close_to(base)
    b.add(Store(depth, (V(q),), V("depth")))
    return KernelIR(b.args, b.body)


def runtime_walk(rt, step=0, prefix=(), keys=()):
    """What :func:`walk_ir` records, from the runtime."""
    nsteps = len(rt.path.steps)
    if step == nsteps:
        return [(keys, rt.get(prefix))], []
    iv = rt.interval(step, prefix)
    entries, ivs = [], [] if iv is None else [(*iv, step)]
    for k, state in rt.enumerate(step, prefix):
        e, i = runtime_walk(rt, step + 1, prefix + (state,), keys + tuple(k))
        entries, ivs = entries + e, ivs + i
    return entries, ivs


def runtime_probe(rt, query):
    """What :func:`probe_ir` records for one query, from the runtime."""
    prefix, col = (), 0
    for step, s in enumerate(rt.path.steps):
        state = rt.search(step, prefix, tuple(query[col:col + len(s.names)]))
        if state is None:
            return step, -7.0
        prefix, col = prefix + (state,), col + len(s.names)
    return len(rt.path.steps), rt.get(prefix)


_PATH_KERNELS = {}


def path_runners(build, fmt, path_id):
    """The runners of ``build(fmt, path_id)``; the IR depends on the
    instance only through its class and the widths of its arrays, so each
    is compiled once."""
    from tests.conftest import index_arrays

    widths = tuple(sorted((k, v.dtype.name)
                          for k, v in index_arrays(fmt).items()))
    key = (build.__name__, type(fmt).__name__, path_id, widths)
    if key not in _PATH_KERNELS:
        _PATH_KERNELS[key] = ir_runners(build(fmt, path_id))
    return _PATH_KERNELS[key]


def check_declaration(fmt, path_id, extra_queries=()):
    """Hold one instance's declared storage for one path to its runtime;
    ``extra_queries`` are 4-tuples, cut to the path's axis count."""
    rt = fmt.runtime(path_id)
    naxes = len(rt.path.axis_names)
    entries, ivs = runtime_walk(rt)
    assert len(entries) < CAP and len(ivs) < CAP
    for run in path_runners(walk_ir, fmt, path_id):
        got = {"KEYS": np.full((CAP, naxes), -7), "VALS": np.full(CAP, -7.0),
               "IVS": np.full((CAP, 3), -7), "COUNTS": np.zeros(2, np.int64)}
        run({"A": fmt, **got}, {})
        n, ni = got["COUNTS"]
        assert (n, ni) == (len(entries), len(ivs)), run
        assert [tuple(k) for k in got["KEYS"][:n]] == [k for k, _ in entries]
        assert got["VALS"][:n].tolist() == [v for _, v in entries]
        assert [tuple(i) for i in got["IVS"][:ni]] == ivs
    # every stored coordinate tuple is a hit; the drawn ones mostly miss
    queries = np.array([k for k, _ in entries]
                       + [q[:naxes] for q in extra_queries],
                       dtype=np.int64).reshape(-1, naxes)
    want = [runtime_probe(rt, [int(v) for v in row]) for row in queries]
    for run in path_runners(probe_ir, fmt, path_id):
        depth = np.full(len(queries), -7)
        vals = np.full(len(queries), -7.0)
        run({"A": fmt, "Q": queries, "DEPTH": depth, "VALS": vals},
            {"nq": len(queries)})
        assert list(zip(depth.tolist(), vals.tolist())) == want, run


@st.composite
def declaration_cases(draw):
    name, path_id = draw(st.sampled_from(declared_paths()))
    width = draw(st.sampled_from([np.int32, np.int64]))
    m, n = draw(st.sampled_from([2, 4, 6])), draw(st.sampled_from([2, 4, 6]))
    cells = draw(st.lists(st.integers(-2, 3), min_size=m * n, max_size=m * n))
    a = np.array(cells, dtype=float).clip(0).reshape(m, n)  # half the cells 0
    if name == "sym":
        a = a[:, :m] if n >= m else a[:n, :]
        a = np.tril(a) + np.tril(a, -1).T
    queries = draw(st.lists(st.tuples(*[st.integers(-7, 7)] * 4), max_size=6))
    return name, path_id, width, a, queries


def _check_case(case):
    from repro.formats import as_format
    from tests.conftest import at_width

    name, path_id, width, a, queries = case
    kwargs = {"block_size": 2} if name == "bsr" else {}
    fmt = at_width(as_format(a, name, **kwargs), width)
    check_declaration(fmt, path_id, queries)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=QUIET)
@given(declaration_cases())
@example(("csr", "rows", np.int32, np.zeros((2, 4)), [(0, 0, 0, 0)]))
@example(("dia", "diags", np.int64, np.zeros((4, 2)), [(0, 0, 0, 0)]))
@example(("sym", "mirror", np.int32, np.ones((4, 4)), [(2, 2, 0, 0)]))
def test_declarations_agree_with_runtimes(case):
    _check_case(case)


def test_every_declared_path_is_walked():
    """The wall above samples; this visits each of the 15 paths once, at
    both widths, on one matrix with an empty row, an empty column and a
    full diagonal block."""
    a = np.array([[1.0, 0, 2, 0], [0, 3, 0, 0], [2, 0, 4, 0], [0, 0, 0, 0]])
    for name, path_id in declared_paths():
        for width in (np.int32, np.int64):
            _check_case((name, path_id, width, a, [(5,) * 4, (-1,) * 4]))
