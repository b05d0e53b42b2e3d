"""The index-width wall.

Formats store their index arrays at the narrowest width that holds every
value they store and every address the emitted code computes from them
(:func:`repro.formats.base.index_dtype`); everything *exchanged* between
formats stays int64.  Four ways that can go wrong, one section each:

(a) a ``row * ncols + col`` key formed at the storage width — hunted with
    a 70 001-square matrix (n² > 2³¹, n and nnz far below it) whose
    entries sit in the four corners, pushed through every format's
    constructor, extraction, every conversion route, feature extraction,
    output-format selection and the three SpGEMM tiers, against oracles
    computed in Python integers from the same triples;
(b) generated code that is only right at one width — every built-in
    (kernel, format) pair is compiled at *both* widths (the other one by
    reassigning the arrays after construction: there is no user-facing
    switch, so this is how the int64 path stays exercised) on the Python
    backend and C at ``opt="none"`` and ``"tiled"``, byte-identical to
    each other and to ``tests/oracles/dense_ref``;
(c) the rule itself — a lowered module limit drives small matrices over
    the threshold, each format's address bound included, and a
    narrow×narrow SpGEMM whose *output* crosses it comes back wide;
(d) a silent wrap on the way in — constructors refuse negative, ``>= dim``
    and non-monotone-pointer input instead of narrowing it into range.

Plus the dispatch-side guard: a kernel called with the arrays it was
bound on never pays a coercion copy (``native.dispatch.coerced``).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.blas import api as blas_api
from repro.blas.api import spgemm, spgemm_triples
from repro.core import NativeBackendWarning, PlanError, compile_kernel
from repro.core import backend as be
from repro.formats import FORMATS, as_format, convert
from repro.formats import base as fbase
from repro.formats.bsr import BsrMatrix
from repro.formats.coo import CooMatrix
from repro.formats.csc import CscMatrix
from repro.formats.csr import CsrMatrix
from repro.formats.dia import DiaMatrix
from repro.formats.ell import EllMatrix
from repro.formats.jad import JadMatrix
from repro.formats.msr import MsrMatrix
from repro.formats.sym import SymMatrix
from repro.instrument import INSTR
from repro.ir.kernels import ALL_KERNELS
from repro.search.features import extract_features
from repro.search.format_select import select_output_format
from repro.solvers import SolverContext
from tests.conftest import at_width, index_arrays
from tests.oracles import dense_ref

#: dense is left out of the big-matrix hunt (70 001² doubles) and has no
#: index arrays to get wrong
SPARSE = [f for f in FORMATS if f != "dense"]


# ---------------------------------------------------------------------------
# (a) overflow hunt: n * n > 2**31, entries in all four corners
# ---------------------------------------------------------------------------

BIG = 70_001                      # prime: BSR tiles it at block_size=1
assert BIG * BIG > 2**31          # only, a 70 001-square block grid

#: symmetric, so SYM holds it too: the four corners plus entries whose
#: row-major keys straddle 2**31 from both sides
_BIG_ENTRIES = {
    (0, 0): 1.0, (0, BIG - 1): 2.0, (BIG - 1, 0): 2.0,
    (BIG - 1, BIG - 1): 3.0, (35_000, 35_000): 4.0,
    (1, 35_000): 5.0, (35_000, 1): 5.0,
    (30_678, 30_679): 6.0, (30_679, 30_678): 6.0,     # key ~ 2**31
}
BIG_SHAPE = (BIG, BIG)


def _big_triples():
    items = sorted(_BIG_ENTRIES.items())
    # handed over at the *narrow* width: from_coo must widen before keying
    rows = np.array([r for (r, _), _ in items], dtype=np.int32)
    cols = np.array([c for (_, c), _ in items], dtype=np.int32)
    return rows, cols, np.array([v for _, v in items])


def _kwargs(fmt):
    return {"block_size": 1} if fmt == "bsr" else {}


def _stored_nonzeros(inst):
    """{(r, c): v} of the non-zero stored entries, through the exchange
    contract (padded formats store explicit zeros)."""
    rows, cols, vals = inst.to_coo_arrays()
    assert rows.dtype == np.int64 and cols.dtype == np.int64
    out = {(int(r), int(c)): float(v)
           for r, c, v in zip(rows, cols, vals) if v != 0.0}
    assert len(out) == int(np.count_nonzero(vals)), "duplicate entries"
    return out


@pytest.fixture(scope="module")
def big():
    rows, cols, vals = _big_triples()
    return {f: FORMATS[f].from_coo(rows, cols, vals, BIG_SHAPE, **_kwargs(f))
            for f in SPARSE}


@pytest.mark.parametrize("fmt", SPARSE)
def test_big_from_coo_and_extraction(big, fmt):
    inst = big[fmt]
    assert index_arrays(inst), fmt
    for name, arr in index_arrays(inst).items():
        assert arr.dtype == np.int32, (fmt, name)
    assert _stored_nonzeros(inst) == _BIG_ENTRIES
    for (r, c), v in _BIG_ENTRIES.items():
        assert inst.get(r, c) == v
    assert inst.get(0, 1) == 0.0


@pytest.mark.parametrize("src", SPARSE)
def test_big_every_conversion_route(big, src):
    for dst in SPARSE:
        out = convert(big[src], dst, **_kwargs(dst))
        assert _stored_nonzeros(out) == _BIG_ENTRIES, (src, dst)
        for name, arr in index_arrays(out).items():
            assert arr.dtype == np.int32, (src, dst, name)


def test_big_from_scipy_routes():
    sp = pytest.importorskip("scipy.sparse")
    rows, cols, vals = _big_triples()
    for fmt, make in (("csr", sp.csr_matrix), ("csc", sp.csc_matrix)):
        S = make((vals, (rows, cols)), shape=BIG_SHAPE)
        S.sum_duplicates()
        before = INSTR.get("format.convert.via_coo")
        A = as_format(S, fmt)
        assert _stored_nonzeros(A) == _BIG_ENTRIES
        for arr in index_arrays(A).values():
            assert arr.dtype == np.int32
            assert not np.shares_memory(arr, S.indices)
            assert not np.shares_memory(arr, S.indptr)
        assert not np.shares_memory(A.values, S.data)
        assert INSTR.get("format.convert.via_coo") == before
        # a non-canonical source takes the COO route and still lands right
        S.has_canonical_format = False
        assert _stored_nonzeros(as_format(S, fmt)) == _BIG_ENTRIES


def test_from_scipy_does_not_trust_the_canonical_flag():
    sp = pytest.importorskip("scipy.sparse")
    S = sp.csr_matrix((np.array([1.0, 2.0]), np.array([3, 1]),
                       np.array([0, 2, 2])), shape=(2, 4))
    S.has_canonical_format = True          # a lie: row 0 is unsorted
    A = as_format(S, "csr")
    assert A.colind.tolist() == [1, 3] and A.values.tolist() == [2.0, 1.0]


@pytest.mark.parametrize("fmt", SPARSE)
def test_big_features_match_integer_oracle(big, fmt):
    if fmt in ("dia", "msr"):
        pytest.skip("padded storage: explicit zeros are stored entries")
    f = extract_features(big[fmt])
    pattern = set(_BIG_ENTRIES)
    nnz = len(pattern)
    assert (f.nrows, f.ncols, f.nnz) == (BIG, BIG, nnz)
    assert f.symmetry == sum((c, r) in pattern for r, c in pattern) / nnz == 1.0
    assert f.bandwidth_ratio == max(abs(r - c) for r, c in pattern) / (BIG - 1)
    assert f.diag_fill == sum(r == c for r, c in pattern) / BIG
    blocks = {(r // 2, c // 2) for r, c in pattern}
    assert f.block_fill == nnz / (4 * len(blocks))


def test_big_select_output_format_sees_the_same_pattern(big):
    rows, cols, _ = big["csr"].to_coo_arrays()
    choice = select_output_format(rows, cols, BIG_SHAPE)
    want = extract_features(big["coo"])
    assert choice.features.as_dict() == want.as_dict()
    # the narrow arrays a careless caller might hand over give the same answer
    narrow = select_output_format(rows.astype(np.int32),
                                  cols.astype(np.int32), BIG_SHAPE)
    assert narrow.features.as_dict() == want.as_dict()
    assert narrow.format_name == choice.format_name


def _product_oracle(a, b):
    out = {}
    for (i, k), av in a.items():
        for (k2, j), bv in b.items():
            if k == k2:
                out[i, j] = out.get((i, j), 0.0) + av * bv
    return out


@pytest.mark.parametrize("tier", ["native", "vectorized", "generic"])
def test_big_spgemm_every_tier(big, tier):
    want = _product_oracle(_BIG_ENTRIES, _BIG_ENTRIES)
    A = big["csr"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NativeBackendWarning)
        rows, cols, vals, nmults = spgemm_triples(A, A, tier=tier)
        C = spgemm(A, A, tier=tier)
    assert rows.dtype == np.int64 and cols.dtype == np.int64
    got = {(int(r), int(c)): float(v) for r, c, v in zip(rows, cols, vals)}
    assert got == want and len(got) == rows.size
    keys = rows * BIG + cols
    assert np.all(keys[1:] > keys[:-1]), "triples are not canonical"
    assert nmults == sum(1 for (_, k) in _BIG_ENTRIES
                         for (k2, _) in _BIG_ENTRIES if k == k2)
    assert _stored_nonzeros(C) == want
    assert C.colind.dtype == C.rowptr.dtype == np.int32


def test_big_spgemm_generic_on_other_formats(big):
    want = _product_oracle(_BIG_ENTRIES, _BIG_ENTRIES)
    for fa, fb in (("coo", "csc"), ("jad", "msr"), ("sym", "ell")):
        C = spgemm(big[fa], big[fb], out_format="csc")
        assert _stored_nonzeros(C) == want, (fa, fb)


# ---------------------------------------------------------------------------
# (b) every built-in (kernel, format) pair at both widths
# ---------------------------------------------------------------------------

N = 12                             # even: BSR block_size=2 tiles exactly
K = 5                              # dense panel width of the spmm pairs
KERNELS = ("mvm", "mvm_t", "ts_lower", "ts_upper", "spmm", "spmm_t", "spgemm")

#: pairs whose plan search alone takes 3-5 s (SYM's union under the panel
#: and transposed kernels: 7776 candidates, 2916 plans each); every other
#: pair, spgemm/msr's 46 656-candidate search included, stays in the wall
SLOW_SEARCH = {("spmm", "sym"), ("spmm_t", "sym"), ("mvm_t", "sym")}


def _int_matrix(seed, kind):
    rng = np.random.default_rng(seed)
    a = np.where(rng.random((N, N)) < 0.3,
                 rng.integers(-4, 5, (N, N)), 0).astype(float)
    if kind == "sym":
        a = np.tril(a) + np.tril(a, -1).T
    if kind in ("lower", "upper"):
        # power-of-two diagonal: the substitution stays exact
        a = np.tril(a, -1) + np.diag(rng.choice([1.0, 2.0, -1.0, 4.0], N))
        if kind == "upper":
            a = a.T.copy()
    return a


def _case(kernel, fmt):
    """(array name, dense operand, dense inputs, params, oracle output
    name, oracle) for one pair, or skip."""
    rng = np.random.default_rng(5)
    kind = {"ts_lower": "lower", "ts_upper": "upper"}.get(
        kernel, "sym" if fmt == "sym" else "any")
    if fmt == "sym" and kind != "sym":
        pytest.skip("sym holds symmetric operands only")
    a = _int_matrix(11, kind)
    x = rng.integers(-3, 4, N).astype(float)
    X = rng.integers(-3, 4, (N, K)).astype(float)
    p = {"m": N, "n": N}
    if kernel in ("mvm", "mvm_t"):
        ref = dense_ref.mvm(a, x) if kernel == "mvm" else dense_ref.mvm_t(a, x)
        return "A", a, {"x": x, "y": np.zeros(N)}, p, "y", ref
    if kernel in ("ts_lower", "ts_upper"):
        name = "L" if kernel == "ts_lower" else "U"
        solve = dense_ref.ts_lower if kernel == "ts_lower" else dense_ref.ts_upper
        return name, a, {"b": x.copy()}, p, "b", solve(a, x)
    if kernel in ("spmm", "spmm_t"):
        ref = dense_ref.mm(a, X) if kernel == "spmm" else dense_ref.mm_t(a, X)
        return "A", a, {"X": X, "Y": np.zeros((N, K))}, dict(p, k=K), "Y", ref
    b = _int_matrix(12, "any")
    return ("A", a, {"B": as_format(b, "csr"), "C": np.zeros((N, N))},
            dict(p, k=N), "C", dense_ref.spgemm(a, b))


def _run(kernel, bindings, dense, params, out, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NativeBackendWarning)
        k = compile_kernel(ALL_KERNELS[kernel](), bindings, **kwargs)
    arrays = dict(bindings)
    arrays.update({name: np.array(v) for name, v in dense.items()
                   if isinstance(v, np.ndarray)})
    k(arrays, params)
    return k, arrays[out]


@pytest.mark.parametrize("fmt", SPARSE)
@pytest.mark.parametrize("kernel", KERNELS)
def test_pair_is_width_blind(kernel, fmt):
    if (kernel, fmt) in SLOW_SEARCH:
        pytest.skip("plan search too slow for the tier-1 budget")
    name, a, dense, params, out, ref = _case(kernel, fmt)
    kwargs = {"block_size": 2} if fmt == "bsr" else {}
    try:
        built = as_format(a, fmt, **kwargs)
    except (ValueError, NotImplementedError) as e:
        pytest.skip(f"{fmt} cannot hold this operand: {e}")
    if kernel in ("ts_lower", "ts_upper"):
        built.annotate_triangular("lower" if kernel == "ts_lower" else "upper")
    assert all(v.dtype == np.int32 for v in index_arrays(built).values())
    results = {}
    for width in (np.int32, np.int64):
        inst = at_width(built, width)
        bindings = {name: inst}
        if kernel == "spgemm":
            bindings["B"] = at_width(dense["B"], width)
        for label, kw in (("python", {}),
                          ("c/none", {"backend": "c", "opt": "none"}),
                          ("c/tiled", {"backend": "c", "opt": "tiled"})):
            try:
                k, got = _run(kernel, bindings, dense, params, out, **kw)
            except PlanError as e:
                pytest.skip(f"no legal plan for {kernel} on {fmt}: {e}")
            results[np.dtype(width).name, label] = got
            if label != "python" and fmt == "sym" and be.find_compiler():
                # both branches are declared level pairs: no PyOnly node
                assert k.backend_used == "c", k.fallback_reason
            if label != "python" and k.backend_used != "python":
                narrow = "int32_t *" in k.c_source
                assert narrow == (width is np.int32), (label, width)
    want = np.asarray(ref, dtype=float)
    for key, got in results.items():
        assert got.tobytes() == want.tobytes(), key


# ---------------------------------------------------------------------------
# (c) the rule, with the module limit lowered
# ---------------------------------------------------------------------------

LIMIT = 50


@pytest.fixture
def low_limit(monkeypatch):
    monkeypatch.setattr(fbase, "_INDEX_LIMIT", LIMIT)


def test_rule():
    assert fbase.index_dtype(0) is np.int32
    assert fbase.index_dtype(2**31 - 2) is np.int32
    assert fbase.index_dtype(2**31 - 1) is np.int64
    assert fbase.index_dtype(2**40) is np.int64


def _diag_plus(n, extra):
    """n x n identity plus ``extra`` more entries on the first rows."""
    a = np.eye(n)
    for k in range(extra):
        a[k % n, (k * 7 + 1 + k // n) % n] = 2.0 + k
    return a


#: (format, kwargs, operand under the limit, operand over it only through
#: the named bound)
def _bound_cases():
    yield "csr", {}, _diag_plus(10, 20), _diag_plus(10, 50), "nnz"
    yield "csc", {}, _diag_plus(10, 20), _diag_plus(10, 50), "nnz"
    yield "coo", {}, _diag_plus(10, 20), _diag_plus(10, 50), "nnz"
    yield "msr", {}, _diag_plus(10, 20), _diag_plus(10, 65), "off-diagonal nnz"
    yield "sym", {}, np.eye(10), np.ones((10, 10)), "stored nnz"
    yield "jad", {}, _diag_plus(10, 20), _diag_plus(10, 50), "dptr[-1]"
    yield "csr", {}, np.eye(LIMIT - 1), np.eye(LIMIT), "nrows/ncols"
    # 20 rows x 3 slots = 60 cells, 24 entries
    wide_ell = np.eye(20)
    wide_ell[0, 5] = wide_ell[0, 7] = wide_ell[3, 1] = wide_ell[9, 2] = 3.0
    yield "ell", {}, np.eye(20), wide_ell, "nrows x width"
    # 4 blocks of 4 x 4 = 64 cells in a 16 x 16 matrix
    yield ("bsr", {"block_size": 4}, np.kron(np.eye(2), np.ones((4, 4))),
           np.kron(np.eye(4), np.ones((4, 4))), "nblocks x bs^2")
    # 3 diagonals x 20 columns = 60 cells, m + n = 40
    tri = np.eye(20) + np.eye(20, k=1) + np.eye(20, k=-1)
    yield "dia", {}, np.eye(20), tri, "ndiags x ncols"
    yield "dia", {}, np.eye(20), np.eye(26), "nrows + ncols (|offset|)"


@pytest.mark.parametrize("fmt,kwargs,under,over,what", list(_bound_cases()),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_each_format_bound_drives_the_width(low_limit, fmt, kwargs, under,
                                            over, what):
    for a, want in ((under, np.int32), (over, np.int64)):
        inst = as_format(a, fmt, **kwargs)
        for name, arr in index_arrays(inst).items():
            assert arr.dtype == want, (what, name)
        assert np.array_equal(inst.to_dense(), a)
        rows, cols, _ = inst.to_coo_arrays()
        assert rows.dtype == cols.dtype == np.int64
        if fmt == "sym":
            continue                    # 4 s of plan search per shape
        # and the emitted code agrees with the dense oracle at that width
        x = np.arange(1.0, a.shape[1] + 1)
        for kw in ({}, {"backend": "c", "opt": "tiled"}):
            _, y = _run("mvm", {"A": inst}, {"x": x, "y": np.zeros(a.shape[0])},
                        {"m": a.shape[0], "n": a.shape[1]}, "y", **kw)
            assert y.tobytes() == (a @ x).tobytes()


def test_conversions_follow_the_target_bound(low_limit):
    a = np.eye(10)
    a[0, :6] = 7.0                         # 15 entries: narrow as CSR ...
    A = as_format(a, "csr")
    assert A.colind.dtype == np.int32
    E = convert(A, "ell")                  # ... 10 x 6 cells: wide as ELL
    assert E.slots * 10 >= LIMIT and E.colind.dtype == np.int64
    assert convert(E, "csc").rowind.dtype == np.int32
    assert np.array_equal(convert(E, "csc").to_dense(), a)


@pytest.mark.parametrize("tier", [None, "native", "vectorized", "generic"])
def test_narrow_times_narrow_can_come_back_wide(low_limit, tier):
    n = 8
    a = np.zeros((n, n))
    a[:, 0] = np.arange(1, n + 1)
    a[0, :] = np.arange(1, n + 1)          # an arrow: 15 entries, A A is full
    A = as_format(a, "csr")
    assert A.nnz < LIMIT <= n * n
    assert A.rowptr.dtype == A.colind.dtype == np.int32
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NativeBackendWarning)
        C = spgemm(A, A, tier=tier)
        rows, cols, vals, nmults = spgemm_triples(A, A, tier=tier)
    assert C.rowptr.dtype == C.colind.dtype == np.int64
    assert C.nnz == n * n and C.rowptr[-1] == n * n
    assert np.array_equal(C.to_dense(), a @ a)
    assert rows.dtype == cols.dtype == np.int64
    assert np.array_equal(rows * n + cols, np.arange(n * n))
    assert vals.tobytes() == (a @ a).tobytes()
    # and a product that fits stays narrow, array for array
    small = as_format(np.eye(n), "csr")
    S = spgemm(small, small, tier=tier)
    assert S.rowptr.dtype == S.colind.dtype == np.int32


@pytest.mark.skipif(be.find_compiler() is None, reason="no C compiler")
def test_native_spgemm_output_is_wrapped_not_copied():
    from repro.blas import spgemm_native

    A = as_format(_int_matrix(3, "any"), "csr")
    rowptr, cols, vals, _ = spgemm_native.spgemm_csr_csr_native(A, A)
    assert rowptr.dtype == cols.dtype == np.int32
    C = CsrMatrix(rowptr, cols, vals, (N, N))   # already what the rule picks
    assert C.rowptr is rowptr and C.colind is cols and C.values is vals
    D = spgemm(A, A)
    assert D.rowptr.dtype == D.colind.dtype == np.int32
    assert np.array_equal(D.rowptr, rowptr) and np.array_equal(D.colind, cols)
    assert D.values.tobytes() == vals.tobytes()
    # mixed operand widths run the wide kernel and still agree
    wide = at_width(A, np.int64)
    r2, c2, v2, _ = spgemm_native.spgemm_csr_csr_native(A, wide)
    assert np.array_equal(r2, rowptr) and np.array_equal(c2, cols)
    assert v2.tobytes() == vals.tobytes()


# ---------------------------------------------------------------------------
# (d) constructors refuse what would wrap
# ---------------------------------------------------------------------------

def _i64(*v):
    return np.array(v, dtype=np.int64)


WRAPS_TO_1 = 2**32 + 1            # narrowing this silently gives 1

_V2 = np.ones(2)
_BAD_CONSTRUCTIONS = {
    "csr negative colind": lambda: CsrMatrix([0, 1, 2], [0, -1], _V2, (2, 2)),
    "csr colind >= ncols": lambda: CsrMatrix([0, 1, 2], [0, 2], _V2, (2, 2)),
    "csr colind wraps": lambda: CsrMatrix(
        [0, 1, 2], _i64(0, WRAPS_TO_1), _V2, (2, 2)),
    "csr rowptr not monotone": lambda: CsrMatrix(
        [0, 2, 1, 2], [0, 1], _V2, (3, 2)),
    "csr rowptr wraps": lambda: CsrMatrix(
        _i64(0, 2**32, 2), [0, 1], _V2, (2, 2)),
    "csr rowptr endpoints": lambda: CsrMatrix([0, 1, 1], [0, 1], _V2, (2, 2)),
    "csr rowptr length": lambda: CsrMatrix([0, 2], [0, 1], _V2, (2, 2)),
    "csc negative rowind": lambda: CscMatrix([0, 1, 2], [-1, 0], _V2, (2, 2)),
    "csc rowind >= nrows": lambda: CscMatrix([0, 1, 2], [0, 5], _V2, (2, 2)),
    "csc colptr not monotone": lambda: CscMatrix(
        [0, 2, 1, 2], [0, 1], _V2, (2, 3)),
    "coo negative row": lambda: CooMatrix([-1, 0], [0, 1], _V2, (2, 2)),
    "coo col >= ncols": lambda: CooMatrix([0, 1], [0, 2], _V2, (2, 2)),
    "coo row wraps": lambda: CooMatrix(
        _i64(0, WRAPS_TO_1), [0, 1], _V2, (2, 2)),
    "msr colind >= ncols": lambda: MsrMatrix(
        np.ones(2), [0, 1, 2], [1, 2], _V2, (2, 2)),
    "msr rowptr not monotone": lambda: MsrMatrix(
        np.ones(3), [0, 2, 1, 2], [1, 0], _V2, (3, 3)),
    "sym negative colind": lambda: SymMatrix([0, 1, 2], [0, -1], _V2, (2, 2)),
    "sym rowptr not monotone": lambda: SymMatrix(
        [0, 2, 1, 2], [0, 0], _V2, (3, 3)),
    "jad colind >= ncols": lambda: JadMatrix(
        [0, 1], [0, 2], [0, 2], _V2, (2, 2)),
    "jad iperm >= nrows": lambda: JadMatrix(
        [0, 2], [0, 2], [0, 1], _V2, (2, 2)),
    "jad negative iperm": lambda: JadMatrix(
        [0, -1], [0, 2], [0, 1], _V2, (2, 2)),
    "jad dptr not monotone": lambda: JadMatrix(
        [0, 1], [0, 2, 1, 2], [0, 1], _V2, (2, 2)),
    "ell colind >= ncols": lambda: EllMatrix(
        [[0], [2]], np.ones((2, 1)), [1, 1], (2, 2)),
    "ell negative colind": lambda: EllMatrix(
        [[0], [-1]], np.ones((2, 1)), [1, 1], (2, 2)),
    "ell rowlen > slots": lambda: EllMatrix(
        [[0], [1]], np.ones((2, 1)), [1, 2], (2, 2)),
    "ell negative rowlen": lambda: EllMatrix(
        [[0], [1]], np.ones((2, 1)), [1, -1], (2, 2)),
    "bsr blockind >= block cols": lambda: BsrMatrix(
        [0, 1], [1], np.ones((1, 2, 2)), 2, (2, 2)),
    "bsr negative blockind": lambda: BsrMatrix(
        [0, 1], [-1], np.ones((1, 2, 2)), 2, (2, 2)),
    "bsr indptr not monotone": lambda: BsrMatrix(
        [0, 2, 1, 2], [0, 0], np.ones((2, 2, 2)), 2, (6, 2)),
    "dia offset >= nrows": lambda: DiaMatrix([0, 3], np.ones((2, 3)), (3, 3)),
    "dia offset <= -ncols": lambda: DiaMatrix([-3, 0], np.ones((2, 3)), (3, 3)),
    "dia offset wraps": lambda: DiaMatrix(
        _i64(0, WRAPS_TO_1), np.ones((2, 3)), (3, 3)),
}


@pytest.mark.parametrize("what", list(_BAD_CONSTRUCTIONS))
def test_constructor_refuses(what):
    with pytest.raises(ValueError):
        _BAD_CONSTRUCTIONS[what]()


def test_range_error_names_the_array():
    with pytest.raises(ValueError, match="colind"):
        CsrMatrix([0, 1, 2], [0, 7], _V2, (2, 2))
    with pytest.raises(ValueError, match="rowptr"):
        CsrMatrix(_i64(0, 2**32, 2), [0, 1], _V2, (2, 2))
    with pytest.raises(ValueError, match="diags"):
        DiaMatrix([0, 9], np.ones((2, 3)), (3, 3))


def test_valid_input_is_kept_at_the_storage_width_without_a_copy():
    colind = np.array([0, 1], dtype=np.int32)
    rowptr = np.array([0, 1, 2], dtype=np.int32)
    A = CsrMatrix(rowptr, colind, _V2, (2, 2))
    assert A.colind is colind and A.rowptr is rowptr
    # anything else is converted exactly once
    B = CsrMatrix([0, 1, 2], _i64(0, 1), _V2, (2, 2))
    assert B.colind.dtype == B.rowptr.dtype == np.int32
    assert B.colind.tolist() == [0, 1]


# ---------------------------------------------------------------------------
# dispatch: no per-call coercion on the arrays a kernel was bound on
# ---------------------------------------------------------------------------

@pytest.mark.skipif(be.find_compiler() is None, reason="no C compiler")
def test_bound_handles_never_coerce():
    a = _int_matrix(21, "any") + 8 * np.eye(N)
    A = as_format(a, "csr")
    assert A.colind.dtype == np.int32
    ctx = SolverContext(A, ops=("mvm",), backend="c")
    bound = ctx.bound("mvm")
    assert bound is not None and bound.backend_used != "python"
    x, y = np.arange(1.0, N + 1), np.zeros(N)
    before = INSTR.get("native.dispatch.coerced")
    prepared = INSTR.get("native.dispatch.prepared")
    for _ in range(100):
        bound.apply(x, y)
        assert blas_api.kernel_handle(A, "mvm") is not None
        blas_api.mvm(A, x, y)
    assert y.tobytes() == (a @ x).tobytes()
    assert INSTR.get("native.dispatch.coerced") == before
    assert INSTR.get("native.dispatch.prepared") >= prepared + 198

    # swap an index array for the other width *after* the bind: every call
    # now pays a widening copy — and says so
    A.colind = A.colind.astype(np.int64)
    for _ in range(3):
        bound.apply(x, y)
    assert y.tobytes() == (a @ x).tobytes()
    assert INSTR.get("native.dispatch.coerced") == before + 3
