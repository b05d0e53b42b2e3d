"""Cross-matrix joins: one statement referencing two different sparse
matrices at the same element — the compiler realizes the enumerate-one,
search-the-other strategy (paper Section 4.1's join strategies).

These are the kernels that contain searches, and a search is loop IR like
the loops around it (:meth:`BaseEmitter.bisect` / ``scan``): the second
half holds every search target to Python == C at both tiers and both
index widths, byte for byte, and to having no helper function in either
print."""

import re
import types
import warnings

import numpy as np
import pytest

from repro.codegen.emitters import ViewEmitter, make_emitter
from repro.codegen.loopir import (
    ArrayArg, Builder, If, KernelIR, Load, Store, V, While, ZERO, walk,
)
from repro.core import (
    LoopNode, NativeBackendWarning, SearchEnum, compile_kernel,
)
from repro.core import backend as be
from repro.formats import as_format
from repro.formats.generate import random_sparse
from repro.ir import execute_dense, parse_program
from repro.polyhedra.linexpr import LinExpr
from tests.conftest import at_width, run_ir_native, run_ir_python

_cache = {}


def hadamard_dot():
    """acc = sum_ij A[i][j] * B[i][j] — the sparse inner product."""
    return parse_program(
        """
        haddot(m, n; A: matrix, B: matrix, acc: scalar) {
            for i = 0 : m {
                for j = 0 : n {
                    acc = acc + A[i][j] * B[i][j];
                }
            }
        }
        """
    )


@pytest.fixture(scope="module")
def mats():
    Ad = random_sparse(7, 9, 0.3, seed=31).to_dense()
    Bd = random_sparse(7, 9, 0.35, seed=32).to_dense()
    return Ad, Bd


def _compiled(key, prog, bindings):
    if key not in _cache:
        _cache[key] = compile_kernel(prog, bindings)
    return _cache[key]


class TestHadamardDot:
    @pytest.mark.parametrize("fa,fb", [
        ("csr", "csr"), ("csr", "csc"), ("coo", "csr"), ("csr", "dia"),
    ])
    def test_correct(self, fa, fb, mats):
        Ad, Bd = mats
        A = as_format(Ad, fa)
        B = as_format(Bd, fb)
        k = _compiled(("hd", fa, fb), hadamard_dot(), {"A": A, "B": B})
        acc = np.array(0.0)
        accd = np.array(0.0)
        execute_dense(hadamard_dot(), {"A": Ad.copy(), "B": Bd.copy(),
                                       "acc": accd}, {"m": 7, "n": 9})
        k({"A": A, "B": B, "acc": acc}, {"m": 7, "n": 9})
        assert np.allclose(acc, accd)
        assert np.allclose(acc, (Ad * Bd).sum())

    def test_second_matrix_searched_not_scanned(self, mats):
        """The chosen plan drives one matrix's enumeration and resolves the
        other by search (an enumerate/search join), not by a nested full
        scan."""
        Ad, Bd = mats
        A = as_format(Ad, "csr")
        B = as_format(Bd, "csr")
        k = _compiled(("hd", "csr", "csr"), hadamard_dot(), {"A": A, "B": B})
        searches = []
        drivers = []

        def walk(nodes):
            for n in nodes:
                if isinstance(n, LoopNode):
                    drivers.append(n.method)
                    searches.extend(r for r in n.roles if r.role == "search")
                    if isinstance(n.method, SearchEnum):
                        searches.append(n.method)
                    walk(n.before)
                    walk(n.body)
                    walk(n.after)

        walk(k.plan.nodes)
        # only one matrix's structure is walked; the other is searched
        walked = {m.driver.array for m in drivers
                  if not isinstance(m, SearchEnum)}
        assert len(walked) == 1
        assert searches, "the second matrix must be searched, not re-walked"

    def test_zero_overlap(self):
        """Structures with disjoint patterns produce exactly zero."""
        a = np.zeros((4, 4))
        b = np.zeros((4, 4))
        a[0, 1] = 3.0
        b[1, 0] = 4.0
        A = as_format(a, "csr")
        B = as_format(b, "csr")
        k = compile_kernel(hadamard_dot(), {"A": A, "B": B})
        acc = np.array(1.5)
        k({"A": A, "B": B, "acc": acc}, {"m": 4, "n": 4})
        assert acc == pytest.approx(1.5)  # accumulator untouched


# ---------------------------------------------------------------------------
# Searches on both backends
# ---------------------------------------------------------------------------

def hadamard_mvm():
    """y[i] += A[i][j] * B[i][j] * x[j] — a join under a dense update."""
    return parse_program(
        """
        hadmv(m, n; A: matrix, B: matrix, x: vector, y: vector) {
            for i = 0 : m {
                for j = 0 : n {
                    y[i] = y[i] + A[i][j] * B[i][j] * x[j];
                }
            }
        }
        """
    )


PROGRAMS = {"haddot": hadamard_dot, "hadmv": hadamard_mvm}

#: (format of A, format of B, format the plan searches): COO is the
#: cheapest structure to walk, so it drives and the other side is searched
JOINS = [("coo", "csr", "csr"), ("coo", "csc", "csc"), ("coo", "coo", "coo"),
         ("coo", "ell", "ell"), ("coo", "jad", "jad"), ("coo", "msr", "msr"),
         ("coo", "dia", "dia"), ("csr", "coo", "csr")]

TIERS = (("python", {}), ("c/none", {"backend": "c", "opt": "none"}),
         ("c/tiled", {"backend": "c", "opt": "tiled"}))


def searched_formats(kernel):
    found = set()

    def visit(nodes):
        for n in nodes:
            if isinstance(n, LoopNode):
                found.update(r.ref.fmt.format_name for r in n.roles
                             if r.role == "search")
                if isinstance(n.method, SearchEnum):
                    found.add(n.method.driver.fmt.format_name)
                visit(n.before)
                visit(n.body)
                visit(n.after)

    visit(kernel.plan.nodes)
    return found


def assert_no_helpers(kernel):
    """A kernel's code is its IR: nothing is defined beside ``kernel``."""
    assert "def " not in kernel.source.split("def kernel")[0]
    if kernel.backend_used == "c":
        assert not re.search(r"static int64_t _\w*(bisect|find)",
                             kernel.c_source)


@pytest.mark.parametrize("width", [np.int32, np.int64],
                         ids=lambda w: np.dtype(w).name)
@pytest.mark.parametrize("fa,fb,target", JOINS)
@pytest.mark.parametrize("name", PROGRAMS)
def test_search_kernels_agree_across_backends(name, fa, fb, target, width,
                                              mats):
    Ad, Bd = mats
    A, B = at_width(as_format(Ad, fa), width), at_width(as_format(Bd, fb), width)
    x = np.random.default_rng(3).random(9)
    results = {}
    for label, kw in TIERS:
        with warnings.catch_warnings():
            # without a toolchain backend="c" is the Python kernel again
            warnings.simplefilter("ignore", NativeBackendWarning)
            k = compile_kernel(PROGRAMS[name](), {"A": A, "B": B}, **kw)
        assert target in searched_formats(k)
        assert any(isinstance(n, While) for n in walk(k.loop_ir().body))
        assert_no_helpers(k)
        if k.backend_used == "c":
            # the inlined loads read the index arrays at the bound width
            narrow = width is np.int32
            assert ("int32_t *" in k.c_source) == narrow
            assert ("int64_t *" in k.c_source) == (not narrow)
        out = {"acc": np.array(0.25), "y": np.full(7, 0.5)}
        k({"A": A, "B": B, "x": x, **out}, {"m": 7, "n": 9})
        results[label] = out["acc" if name == "haddot" else "y"]
    want = ((Ad * Bd).sum() + 0.25 if name == "haddot"
            else (Ad * Bd) @ x + 0.5)
    assert np.allclose(results["python"], want)
    for label, got in results.items():
        assert got.tobytes() == results["python"].tobytes(), label


@pytest.mark.parametrize("width", [np.int32, np.int64],
                         ids=lambda w: np.dtype(w).name)
def test_jad_flat_search(width, mats):
    """The flat perspective's search — a scan of the diagonal-major walk
    for the slot whose permuted row and column match — on keys inside,
    outside and absent; no plan above reaches it."""
    B = at_width(as_format(mats[1], "jad"), width)
    queries = [(r, c) for r in range(-1, 9) for c in range(-1, 11)]
    b = Builder()
    rows, cols = (b.arg(ArrayArg(n, ("array", n), "int64", 1))
                  for n in ("rows", "cols"))
    out = b.arg(ArrayArg("out", ("array", "out"), "float64", 1))
    out.written = True
    ref = types.SimpleNamespace(array="B", path=B.path("flat"))
    em = make_emitter(ref, "M0", B, b)
    assert isinstance(em, ViewEmitter)
    q = em.count("q", ZERO, LinExpr.constant(len(queries)), False, ("q",))
    keys = [V(em.let(n, Load(a, (V(q),)))) for n, a in
            (("r", rows), ("c", cols))]
    states, found = em.search(0, [], keys)
    b.add(If(found, [Store(out, (V(q),), em.get(states))]))
    ir = KernelIR(b.args, b.body)
    assert all(a.dtype == np.dtype(width).name for a in ir.args
               if isinstance(a, ArrayArg) and a.name.startswith("M0_")
               and a.name != "M0_values")
    arrays = {"B": B, "rows": np.array([r for r, _ in queries]),
              "cols": np.array([c for _, c in queries])}
    want = np.array([B.get(r, c) if 0 <= r < 7 and 0 <= c < 9 else 0.0
                     for r, c in queries])
    assert np.count_nonzero(want) == B.nnz
    got = dict(arrays, out=np.zeros(len(queries)))
    run_ir_python(ir, got, {})
    assert got["out"].tobytes() == want.tobytes()
    if be.find_compiler() is None:
        return
    got = dict(arrays, out=np.zeros(len(queries)))
    run_ir_native(ir, got, {})
    assert got["out"].tobytes() == want.tobytes()
