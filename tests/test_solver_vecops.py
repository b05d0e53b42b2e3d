"""The solvers' vector steps (:mod:`repro.solvers.vecops`): one loop IR per
step, a C print inside the context's ``mvm`` translation unit and an
in-place NumPy twin.

- per-step wall: C entry point == NumPy twin == the Python print of the
  same IR, byte for byte (NaN for NaN), on signed zeros, infinities, NaN
  and subnormals;
- trajectories: ``cg`` / ``bicgstab`` return bitwise what the allocating
  bodies they replace return (``tests/oracles/solvers_reference.py``), on
  every provider, format and start;
- a user callable that hands a solver vector back runs that solve on the
  twin; an operand the C loop cannot take as it is defers the one step;
- the entry points cost no toolchain invocation of their own, survive the
  disk cache, and a bare ``compile_kernel`` unit does not have them.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codegen.loopir import Load, walk
from repro.core import backend as be
from repro.core import compile_kernel
from repro.core.cache import clear_compile_cache
from repro.formats import as_format
from repro.formats.generate import laplacian_2d
from repro.instrument import INSTR
from repro.ir import kernels
from repro.solvers import (
    JacobiPreconditioner, SolverContext, TriangularPreconditioner, bicgstab,
    cg, vecops,
)
from tests.conftest import run_ir_python
from tests.oracles import solvers_reference as reference

HAVE_CC = be.find_compiler() is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")

#: provider -> SolverContext keywords (None: the plain matrix, no context)
PROVIDERS = {"plain": None, "python": dict(backend="python")}
if HAVE_CC:
    PROVIDERS["c"] = dict(backend="c", opt="none")
    PROVIDERS["c-tiled"] = dict(backend="c", opt="tiled")
FORMATS = ("csr", "csc", "ell", "dia")

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.core.backend.NativeBackendWarning")


def _delta(before, name):
    return INSTR.get(name) - before.get(name, 0)


def _same(got, want):
    """``(x, iterations, residual)`` bitwise."""
    assert got[1] == want[1], f"iterations {got[1]} != {want[1]}"
    assert got[0].tobytes() == want[0].tobytes()
    assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()


# ---------------------------------------------------------------------------
# (i) one step, three executions
# ---------------------------------------------------------------------------

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308,
           1.0, -1.0, 1e308, -1e308, 1 / 3]
values = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=True, allow_infinity=True, width=64))
SIZES = (0, 1, 2, 3, 7, 64, 1001)
WALL = settings(max_examples=40, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])


def _bits(a):
    """The bytes of ``a`` with every NaN the same NaN.  Which sign and
    payload the NaN of ``nan + (inf * 0)`` carries is the one thing IEEE
    754 leaves open — x86 keeps its first operand's, so it follows the
    operand order a compiler happened to choose, and NumPy's own scalar
    and array paths already disagree.  Signed zeros, subnormals and
    infinities stay bit-exact."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


def _operands(name):
    """(number of coefficients, operand names) of a step, from its IR."""
    ir = vecops.ENTRY_POINTS[name]
    used = {int(node.idx[0].const) for node in walk(ir.body)
            if isinstance(node, Load) and node.array.name == "c"}
    return len(used), [a.name for a in ir.args[2:]]


@pytest.fixture(scope="module")
def entries():
    """tier -> the bound entry points of a native context's mvm unit."""
    out = {}
    for tier in ("none", "tiled") if HAVE_CC else ():
        ctx = SolverContext(laplacian_2d(2), ops=("mvm",), backend="c",
                            opt=tier, register=False)
        assert ctx.vecops == "c", ctx.vecops
        out[tier] = ctx.vec_entries
    return out


@pytest.mark.parametrize("name", sorted(vecops.ENTRY_POINTS))
@WALL
@given(data=st.data())
def test_step_c_equals_numpy_equals_python(name, entries, data):
    ncoef, names = _operands(name)
    n = data.draw(st.sampled_from(SIZES))
    # a few drawn values tiled over the vector: every special meets every
    # other across the operands without drawing a thousand floats
    pool = np.array(data.draw(st.lists(values, min_size=1, max_size=12)))
    seed = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    start = {nm: pool[rng.integers(0, len(pool), n)] for nm in names}
    coefs = [data.draw(values) for _ in range(ncoef)]

    def fresh():
        return [start[nm].copy() for nm in names]

    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        twin = fresh()
        getattr(vecops.NumpyVecOps(n), name)(*coefs, *twin)

        printed = fresh()
        c = np.array(coefs + [0.0] * (2 - ncoef))
        run_ir_python(vecops.ENTRY_POINTS[name],
                      dict(zip(names, printed), c=c), {"n": n})

        runs = {"python print": printed}
        for tier, bound in entries.items():
            solver_path = fresh()       # owned vectors, marshalled once
            getattr(vecops.NativeVecOps(bound, n, solver_path),
                    name)(*coefs, *solver_path)
            foreign = fresh()           # addressed per call
            getattr(vecops.NativeVecOps(bound, n, []), name)(*coefs, *foreign)
            generic = fresh()           # NativeKernel.__call__
            bound[name](dict(zip(names, generic), c=c), {"n": n})
            runs.update({f"{tier} owned": solver_path,
                         f"{tier} foreign": foreign,
                         f"{tier} kernel call": generic})
    for how, got in runs.items():
        for nm, a, b in zip(names, got, twin):
            assert _bits(a) == _bits(b), \
                f"{name}: {how} differs from the NumPy twin in {nm}"


# ---------------------------------------------------------------------------
# (ii) trajectories against the bodies the steps replaced
# ---------------------------------------------------------------------------

N_SIDE = 6


@pytest.fixture(scope="module")
def spd():
    return laplacian_2d(N_SIDE).to_dense()


@pytest.fixture(scope="module")
def nonsym(spd):
    n = spd.shape[0]
    rng = np.random.default_rng(7)
    a = spd + np.triu(rng.random((n, n)) * (np.abs(spd) > 0), 1) * 0.5
    return a + 2.0 * np.eye(n)


@pytest.fixture(scope="module")
def rhs(spd):
    rng = np.random.default_rng(19)
    return rng.random(spd.shape[0]), rng.random(spd.shape[0])


_SYSTEMS = {}


def _system(dense, tag, fmt, provider, ops):
    """The matrix, or a context on it, built once per module."""
    key = (tag, fmt, provider)
    if key not in _SYSTEMS:
        A = as_format(dense, fmt)
        kw = PROVIDERS[provider]
        _SYSTEMS[key] = A if kw is None else SolverContext(
            A, ops=ops, register=False, **kw)
    return _SYSTEMS[key]


def _precond(system, kind):
    if kind == "none":
        return None
    if isinstance(system, SolverContext):
        return system.preconditioner(kind)
    return (JacobiPreconditioner if kind == "jacobi"
            else TriangularPreconditioner)(system)


@pytest.mark.parametrize("with_x0", [False, True], ids=["zero", "x0"])
@pytest.mark.parametrize("kind", ["none", "jacobi", "sgs"])
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("provider", sorted(PROVIDERS))
def test_cg_trajectory_is_the_reference(provider, fmt, kind, with_x0, spd, rhs):
    system = _system(spd, "spd", fmt, provider,
                     ("mvm", "ts_lower", "ts_upper"))
    b, x0 = rhs[0], (rhs[1] if with_x0 else None)
    before = dict(INSTR.counters)
    got = cg(system, b, x0=x0, tol=1e-11, precond=_precond(system, kind))
    native = provider.startswith("c")
    assert _delta(before, "solver.vecops.native") == int(native)
    assert _delta(before, "solver.vecops.numpy") == int(not native)
    assert _delta(before, "native.dispatch.coerced") == 0
    want = reference.cg(system, b, x0=x0, tol=1e-11,
                        precond=_precond(system, kind))
    assert want[1] > 3
    _same(got, want)


@pytest.mark.parametrize("with_x0", [False, True], ids=["zero", "x0"])
@pytest.mark.parametrize("tol", [1e-11, 1e-2], ids=["tight", "loose"])
@pytest.mark.parametrize("kind", ["none", "jacobi"])
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("provider", sorted(PROVIDERS))
def test_bicgstab_trajectory_is_the_reference(provider, fmt, kind, tol,
                                              with_x0, nonsym, rhs):
    system = _system(nonsym, "nonsym", fmt, provider, ("mvm",))
    b, x0 = rhs[0], (rhs[1] if with_x0 else None)
    before = dict(INSTR.counters)
    got = bicgstab(system, b, x0=x0, tol=tol, precond=_precond(system, kind))
    assert _delta(before, "solver.vecops.native") == \
        int(provider.startswith("c"))
    want = reference.bicgstab(system, b, x0=x0, tol=tol,
                              precond=_precond(system, kind))
    assert want[1] >= 1
    _same(got, want)


def test_bicgstab_leaves_through_the_half_step(rhs, monkeypatch):
    """``norm(s) <= tol``: x takes only the alpha step, the residual is s.
    With A = 2 I the first half step is exact."""
    full_steps = []
    update = vecops.NumpyVecOps.bicg_update
    monkeypatch.setattr(vecops.NumpyVecOps, "bicg_update",
                        lambda *a: (full_steps.append(1), update(*a))[1])
    got = bicgstab(None, rhs[0], x0=rhs[1], matvec=lambda v: 2.0 * v)
    assert got[1] == 1 and not full_steps
    _same(got, reference.bicgstab(None, rhs[0], x0=rhs[1],
                                  matvec=lambda v: 2.0 * v))


def test_inputs_are_not_written(spd, rhs):
    A = as_format(spd, "csr")
    b, x0 = rhs[0].copy(), rhs[1].copy()
    x, _, _ = cg(A, b, x0=x0, tol=1e-11)
    assert np.array_equal(b, rhs[0]) and np.array_equal(x0, rhs[1])
    assert not np.shares_memory(x, x0) and not np.shares_memory(x, b)
    x, _, _ = cg(A, b, tol=0.0, max_iter=0)     # r starts as a copy of b
    assert not np.shares_memory(x, b)
    x, _, _ = bicgstab(A, b, x0=list(x0), tol=1e-11)   # any sequence starts
    assert np.array_equal(b, rhs[0])


# ---------------------------------------------------------------------------
# aliasing and operands the C loops cannot take
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def native_ctx(spd):
    return SolverContext(as_format(spd, "csr"), ops=("mvm",),
                         backend="c" if HAVE_CC else "python",
                         opt="tiled" if HAVE_CC else None, register=False)


class SameBuffer:
    """A Jacobi preconditioner that answers in one buffer every call."""

    def __init__(self, diag):
        self.inv, self.out = 1.0 / diag, np.empty_like(diag)

    def __call__(self, r):
        return np.multiply(r, self.inv, out=self.out)


@pytest.mark.parametrize("solve, ref", [(cg, reference.cg),
                                        (bicgstab, reference.bicgstab)])
class TestCallablesThatReturnSolverMemory:
    def test_matvec_returns_its_argument(self, solve, ref, native_ctx, rhs):
        before = dict(INSTR.counters)
        got = solve(native_ctx, rhs[0], matvec=lambda v: v, tol=1e-11)
        assert _delta(before, "solver.vecops.aliased") == int(HAVE_CC)
        assert _delta(before, "solver.vecops.numpy") == 1
        assert _delta(before, "solver.vecops.native") == 0
        _same(got, ref(native_ctx, rhs[0], matvec=lambda v: v, tol=1e-11))

    def test_precond_returns_its_argument(self, solve, ref, native_ctx, rhs):
        before = dict(INSTR.counters)
        got = solve(native_ctx, rhs[0], x0=rhs[1], precond=lambda r: r,
                    tol=1e-11)
        assert _delta(before, "solver.vecops.aliased") == int(HAVE_CC)
        assert _delta(before, "solver.vecops.numpy") == 1
        _same(got, ref(native_ctx, rhs[0], x0=rhs[1], precond=lambda r: r,
                       tol=1e-11))

    def test_precond_answers_in_one_buffer(self, solve, ref, native_ctx, rhs):
        """Not solver memory: the solve stays native, the buffer is
        addressed per call."""
        before = dict(INSTR.counters)
        got = solve(native_ctx, rhs[0],
                    precond=SameBuffer(native_ctx.diag), tol=1e-11)
        assert _delta(before, "solver.vecops.aliased") == 0
        assert _delta(before, "solver.vecops.native") == int(HAVE_CC)
        _same(got, ref(native_ctx, rhs[0],
                       precond=SameBuffer(native_ctx.diag), tol=1e-11))

    @pytest.mark.parametrize("shape", ["float32", "strided", "subclass"])
    def test_operand_the_c_loop_cannot_take(self, solve, ref, shape,
                                            native_ctx, spd, rhs):
        """Another dtype, a stride, not an array: that step is NumPy's,
        with NumPy's casting, as in the reference."""
        def matvec(v):
            y = spd @ v
            if shape == "float32":
                return y.astype(np.float32)
            if shape == "strided":
                wide = np.zeros(2 * len(y))
                wide[::2] = y
                return wide[::2]
            return y.view(type("Sub", (np.ndarray,), {}))

        got = solve(native_ctx, rhs[0], matvec=matvec, tol=1e-5)
        _same(got, ref(native_ctx, rhs[0], matvec=matvec, tol=1e-5))


# ---------------------------------------------------------------------------
# observability, and what the entry points cost
# ---------------------------------------------------------------------------

def test_context_says_who_runs_the_steps(spd):
    A = as_format(spd, "csr")
    ops = ("mvm", "ts_lower", "ts_upper")
    ctx = SolverContext(A, ops=ops, backend="c", register=False)
    assert ctx.vecops == "c" if HAVE_CC else \
        ctx.vecops.startswith("numpy: mvm runs python (native: toolchain")
    # exactly the requested ops: the steps are not ops of their own
    assert tuple(ctx.backends) == ops and set(ctx.fallbacks) <= set(ops)
    assert SolverContext(A, ops=("mvm",), backend="python",
                         register=False).vecops == "numpy: mvm runs python"
    assert SolverContext(A, ops=("ts_lower",), backend="c", register=False
                         ).vecops == "numpy: 'mvm' was not requested"


@needs_cc
def test_steps_ride_in_the_mvm_unit(spd, rhs, monkeypatch, tmp_path):
    """A cold context is still one ``cc`` per requested op, a repeat none;
    with the disk cache the entry points come back out of the stored
    ``.so``."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    A = as_format(spd, "csr")
    ops = ("mvm", "ts_lower", "ts_upper")

    def request(cache):
        before = dict(INSTR.counters)
        ctx = SolverContext(A, ops=ops, backend="c", opt="none", cache=cache,
                            register=False)
        got = cg(ctx, rhs[0], tol=1e-11)
        assert ctx.vecops == "c"
        assert _delta(before, "solver.vecops.native") == 1
        return got, {k: _delta(before, k) for k in
                     ("native.compiles", "native.so_cache.hits.disk")}

    for cache in ("memory", "disk"):
        clear_compile_cache()
        be.reset_toolchain_cache(scratch=True)
        first, cold = request(cache)
        again, warm = request(cache)
        assert cold["native.compiles"] == len(ops)
        assert warm["native.compiles"] == 0
        _same(again, first)
    # what a restarted process finds: no memory layer, the artifacts on disk
    clear_compile_cache()
    be.reset_toolchain_cache(scratch=True)
    reloaded, served = request("disk")
    assert served == {"native.compiles": 0,
                      "native.so_cache.hits.disk": len(ops)}
    _same(reloaded, first)
    be.reset_toolchain_cache()


@needs_cc
def test_bare_compile_kernel_unit_is_the_kernel_alone(spd):
    A = as_format(spd, "csr")
    bare = compile_kernel(kernels.mvm(), {"A": A}, backend="c", opt="none")
    assert bare.c_source.count("\nvoid ") == 1
    assert not bare.native().entries
    ctx = SolverContext(A, ops=("mvm", "mvm_t"), backend="c", opt="none",
                        register=False)
    unit = ctx.bound("mvm").kernel.c_source
    # the same kernel, then the steps; only the mvm unit carries them
    assert unit.startswith(bare.c_source)
    assert [ln.split("(")[0] for ln in unit.splitlines()
            if ln.startswith("void ")] == \
        ["void kernel"] + [f"void {name}" for name in vecops.ENTRY_POINTS]
    assert ctx.bound("mvm_t").kernel.c_source.count("\nvoid ") == 1
