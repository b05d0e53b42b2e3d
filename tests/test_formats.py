"""Concrete formats: construction, round-trips, random access, enumeration
runtimes, conversions.  Parameterized over all nine formats."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import FORMATS, as_format, convert
from repro.formats.base import SparseFormat
from repro.formats.levels import Compressed, Counted, Perm, Size, at
from tests.conftest import at_width

ALL = ["dense", "coo", "csr", "csc", "dia", "ell", "jad", "bsr", "msr"]


def make(fmt_name, dense):
    kwargs = {"block_size": 2} if fmt_name == "bsr" else {}
    return as_format(dense, fmt_name, **kwargs)


@pytest.fixture(params=ALL)
def fmt_name(request):
    return request.param


class TestRoundTrip:
    def test_dense_roundtrip(self, fmt_name, small_rect):
        f = make(fmt_name, small_rect)
        assert np.allclose(f.to_dense(), small_rect)

    def test_empty_matrix(self, fmt_name):
        f = make(fmt_name, np.zeros((4, 6)))
        assert f.to_dense().shape == (4, 6)
        assert np.allclose(f.to_dense(), 0.0)

    def test_single_element(self, fmt_name):
        a = np.zeros((4, 4))
        a[2, 1] = 7.0
        f = make(fmt_name, a)
        assert np.allclose(f.to_dense(), a)

    def test_full_matrix(self, fmt_name, rng):
        a = rng.random((4, 4)) + 0.1
        f = make(fmt_name, a)
        assert np.allclose(f.to_dense(), a)

    def test_copy_independent(self, fmt_name, small_rect):
        f = make(fmt_name, small_rect)
        g = f.copy()
        r, c = np.nonzero(small_rect)
        g.set(int(r[0]), int(c[0]), 99.0)
        assert f.get(int(r[0]), int(c[0])) != 99.0


class TestRandomAccess:
    def test_get_matches_dense(self, fmt_name, small_rect):
        f = make(fmt_name, small_rect)
        m, n = small_rect.shape
        for r in range(m):
            for c in range(n):
                assert f.get(r, c) == pytest.approx(small_rect[r, c])

    def test_set_stored(self, fmt_name, small_rect):
        f = make(fmt_name, small_rect)
        r, c = map(int, next(zip(*np.nonzero(small_rect))))
        f.set(r, c, 42.0)
        assert f.get(r, c) == 42.0

    def test_set_unstored_raises(self, fmt_name):
        a = np.zeros((4, 4))
        a[0, 0] = 1.0
        f = make(fmt_name, a)
        if fmt_name in ("dense",):
            return  # dense stores everything
        # find a position guaranteed unstored for every compressed format:
        # (3, 1) is off-diagonal, in no stored block/diagonal of this matrix
        with pytest.raises(KeyError):
            f.set(3, 1, 5.0)


def _symmetric(small_rect):
    lower = np.tril(small_rect[:, :6])
    return lower + np.tril(lower, -1).T


@pytest.mark.parametrize("fmt_name", ALL + ["sym"])
@pytest.mark.parametrize("where", [(-1, 0), (0, -1), ("m", 0), (0, "n")])
def test_outside_the_shape_is_an_index_error(fmt_name, where, small_rect):
    """Neither a read nor a write wraps around or reports 0: one check
    names the cell and the shape, and a refused write changes nothing."""
    dense = _symmetric(small_rect) if fmt_name == "sym" else small_rect
    f = make(fmt_name, dense)
    m, n = dense.shape
    r, c = ({"m": m, "n": n}.get(x, x) for x in where)
    before = f.to_dense()
    outside = rf"\({r}, {c}\) is outside the {m}x{n} matrix"
    with pytest.raises(IndexError, match=outside):
        f.get(r, c)
    with pytest.raises(IndexError, match=outside):
        f.set(r, c, 99.0)
    assert np.array_equal(f.to_dense(), before)


@pytest.mark.parametrize("fmt_name", ["csr", "csc", "jad", "msr", "sym"])
def test_rebound_values_are_read(fmt_name, small_rect):
    """README's mutated-arrays contract, for the high-level API: after
    ``A.values`` is rebound, ``get``, ``set`` and ``to_coo_arrays`` read
    and write the new array, never the one they last saw."""
    dense = _symmetric(small_rect) if fmt_name == "sym" else small_rect
    f = make(fmt_name, dense)
    r, c = next((r, c) for r, c in zip(*np.nonzero(dense)) if r > c)
    assert f.get(r, c) == dense[r, c]       # the runtime is built and kept
    old = f.values
    kept = old.copy()
    f.values = old * 2
    assert f.get(r, c) == 2 * dense[r, c]
    f.set(r, c, 7.0)
    assert f.get(r, c) == 7.0 and np.array_equal(old, kept)
    expect = 2 * dense
    if fmt_name == "msr":                   # the diagonal is in dvals
        np.fill_diagonal(expect, np.diag(dense))
    expect[r, c] = 7.0
    if fmt_name == "sym":
        expect[c, r] = 7.0
    rows, cols, vals = f.to_coo_arrays()
    grid = np.zeros_like(dense)
    grid[rows, cols] = vals
    assert np.array_equal(grid, expect)


class TestDuplicates:
    def test_from_coo_sums_duplicates(self, fmt_name):
        rows = [0, 0, 1]
        cols = [1, 1, 0]
        vals = [2.0, 3.0, 4.0]
        kwargs = {"block_size": 2} if fmt_name == "bsr" else {}
        f = FORMATS[fmt_name].from_coo(rows, cols, vals, (2, 2), **kwargs)
        assert f.get(0, 1) == pytest.approx(5.0)
        assert f.get(1, 0) == pytest.approx(4.0)

    def test_out_of_bounds_rejected(self, fmt_name):
        kwargs = {"block_size": 2} if fmt_name == "bsr" else {}
        with pytest.raises(ValueError):
            FORMATS[fmt_name].from_coo([5], [0], [1.0], (2, 2), **kwargs)


def logical(p, keys):
    env = dict(zip(p.axis_names, keys))
    return int(p.subs["r"].evaluate(env)), int(p.subs["c"].evaluate(env))


def walk(f, p):
    """``{axis keys: value}`` of one path, in its runtime's words."""
    rt, out = f.runtime(p.path_id), {}

    def down(step, prefix, keys):
        if step == len(p.steps):
            assert keys not in out
            out[keys] = rt.get(prefix)
            return
        for k, state in rt.enumerate(step, prefix):
            down(step + 1, prefix + (state,), keys + tuple(k))

    down(0, (), ())
    return out


def probes(f, p):
    """``(axis keys, value | None)`` for ``search`` chained down the path on
    every key tuple of a grid reaching one past both ends of every axis."""
    rt = f.runtime(p.path_id)
    grid = [range(lo - 1, hi + 1)
            for lo, hi in map(f.axis_range, p.axis_names)]
    for keys in itertools.product(*grid):
        prefix, at = (), 0
        for step, s in enumerate(p.steps):
            state = rt.search(step, prefix, keys[at:at + len(s.names)])
            if state is None:
                break
            prefix, at = prefix + (state,), at + len(s.names)
        yield keys, None if state is None else rt.get(prefix)


def covers(f):
    """Every way to pick one path per aggregation branch."""
    return itertools.product(*[[p for p in f.paths() if p.branch == br]
                               for br in f.union_branches()])


def reconstructs(f, dense):
    """Walking one path per branch yields every non-zero cell of the dense
    array ``f`` was built from, and no cell twice, each with its value
    (stored zeros — DIA's, BSR's, the dense format's — are cells too)."""
    nonzero = set(zip(*map(np.ndarray.tolist, np.nonzero(dense))))
    for cover in covers(f):
        got = [(*logical(p, keys), v) for p in cover
               for keys, v in walk(f, p).items()]
        cells = [(r, c) for r, c, _ in got]
        assert len(set(cells)) == len(cells), [p.path_id for p in cover]
        assert [v for _, _, v in got] == [dense[r, c] for r, c in cells]
        assert nonzero <= set(cells), [p.path_id for p in cover]


def finds_enumerated(f, dense):
    """Searching down a path for a walked key tuple yields the walked
    value, which is the dense array's."""
    for p in f.paths():
        stored = walk(f, p)
        found = {keys: v for keys, v in probes(f, p) if keys in stored}
        assert found == stored
        assert all(v == dense[logical(p, keys)] for keys, v in found.items())


def misses_absent(f, dense):
    """... and for any other key tuple of the grid — unstored, -1, the
    extent — None."""
    for p in f.paths():
        stored = walk(f, p)
        assert [keys for keys, v in probes(f, p)
                if keys not in stored and v is not None] == []


#: one-word mistakes in a declaration: format, the edit
WRONG = {
    "csr value through the row state":
        ("csr", lambda d: d._replace(value=("values", "r"))),
    "csr pointer and coordinates swapped":
        ("csr", lambda d: d._replace(
            levels=(d.levels[0], Compressed("colind", "rowptr")))),
    "csr wrong extent":
        ("csr", lambda d: d._replace(args=(*d.args[:3], Size("m", "ncols")))),
    "ell (p, k) transposed":
        ("ell", lambda d: d._replace(value=("data", "c", "r"))),
    "sym mirror's off_diagonal dropped":
        ("sym", lambda d: d._replace(
            levels=(d.levels[0], d.levels[1]._replace(off_diagonal=False)))),
    "jad perm and inverse swapped (rows searched through iperm)":
        ("jad", lambda d: d._replace(levels=tuple(
            level._replace(inverse="iperm") if isinstance(level, Perm)
            else level for level in d.levels))),
    "jad row entry at dptr[dd], without + rr":
        ("jad", lambda d: d._replace(levels=tuple(
            level._replace(address=at("dptr", "dd"))
            if isinstance(level, Counted) else level for level in d.levels))),
}


class TestEnumerationRuntime:
    """Every path of every format, at both index widths, against the one
    reference that never reads the declaration the runtime, ``get`` and
    ``to_coo_arrays`` are all read from: the dense array the instance was
    built from, on every cell of the grid."""

    @pytest.fixture(params=ALL + ["sym"])
    def fmt_name(self, request):
        return request.param

    @pytest.fixture
    def dense(self, fmt_name, small_rect):
        return _symmetric(small_rect) if fmt_name == "sym" else small_rect

    @pytest.fixture
    def both_widths(self, fmt_name, dense):
        f = make(fmt_name, dense)
        return [at_width(f, width) for width in (np.int32, np.int64)]

    def test_full_enumeration_reconstructs(self, both_widths, dense):
        """Equal, not close."""
        for f in both_widths:
            reconstructs(f, dense)

    def test_search_finds_enumerated(self, both_widths, dense):
        for f in both_widths:
            finds_enumerated(f, dense)

    def test_search_misses_absent(self, both_widths, dense):
        for f in both_widths:
            misses_absent(f, dense)

    def test_get_and_to_coo_arrays_read_the_grid(self, both_widths, dense):
        """The high-level API and every path's vectorized walk, read from
        the same declaration: ``get`` on every cell; ``to_coo_arrays``,
        and the walks of one path per branch, onto the grid, no cell
        twice."""
        for f in both_widths:
            m, n = dense.shape
            assert [f.get(r, c) for r in range(m) for c in range(n)] \
                == dense.ravel().tolist()
            walks = [[f.runtime(p.path_id).coo() for p in cover]
                     for cover in covers(f)]
            for parts in [[f.to_coo_arrays()], *walks]:
                rows, cols, vals = map(np.concatenate, zip(*parts))
                assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size
                grid = np.zeros_like(dense)
                grid[rows, cols] = vals
                assert np.array_equal(grid, dense)

    @pytest.mark.parametrize("mistake", WRONG)
    def test_a_wrong_declaration_fails(self, mistake):
        """The runtime is read from the declaration; the dense array is
        not, so a mistake in one shows against the other."""
        name, edit = WRONG[mistake]
        a = np.array([[1.0, 0, 2, 0], [0, 3, 0, 0], [2, 0, 5, 6], [0, 0, 6, 0]])
        # ncols < nrows: a row is missed; the rows' order leaves JAD an iperm
        # that is not its own inverse
        a = a if name == "sym" else a[[3, 0, 1, 2], :3]
        right = FORMATS[name]
        wrong = type("Wrong", (right,), {
            "declaration": lambda self: {
                pid: p._replace(storage=edit(p.storage))
                for pid, p in right.declaration(self).items()}})
        for check in (reconstructs, finds_enumerated, misses_absent):
            check(right.from_dense(a), a)
        # the arrays the right declaration assembles, read through the
        # wrong one
        mislabeled = right.from_dense(a)
        mislabeled.__class__ = wrong
        with pytest.raises((AssertionError, IndexError)):
            for check in (reconstructs, finds_enumerated, misses_absent):
                check(mislabeled, a)
        # and assembled by the wrong one: refused, or not the matrix
        with pytest.raises((ValueError, AssertionError, IndexError)):
            for check in (reconstructs, finds_enumerated, misses_absent):
                check(wrong.from_dense(a), a)


class TestCopy:
    @pytest.mark.parametrize("name", sorted(FORMATS))
    def test_a_copy_is_the_same_state_in_new_memory(self, name):
        """``copy()`` keeps what the constructor was given (BSR's block
        size), the annotations and every array at its width — and shares
        no memory with the original."""
        dense = np.tril(np.arange(1.0, 65.0).reshape(8, 8) % 5)
        if name == "sym":
            dense = dense + np.tril(dense, -1).T
        kwargs = {"block_size": 4} if name == "bsr" else {}
        A = FORMATS[name].from_dense(dense, **kwargs)
        A.annotate_triangular("lower")
        C = A.copy()
        assert type(C) is type(A)
        assert getattr(C, "block_size", None) == getattr(A, "block_size", None)
        assert repr(C.bounds()) == repr(A.bounds()) != "None"
        arrays = {k: v for k, v in vars(A).items() if isinstance(v, np.ndarray)}
        assert arrays and arrays.keys() == {
            k for k, v in vars(C).items() if isinstance(v, np.ndarray)}
        for k, a in arrays.items():
            c = getattr(C, k)
            assert (c.dtype, c.shape, c.tobytes()) == (a.dtype, a.shape,
                                                      a.tobytes()), k
            assert not np.shares_memory(c, a), k
        assert np.array_equal(C.to_dense(), dense)

    @pytest.mark.parametrize("name", sorted(FORMATS))
    def test_derived_state_is_neither_pickled_nor_copied(self, name):
        """The paths and the step totals are derived again on use: a pickle
        or a copy made after a compile read them holds neither, and reads
        the same ones."""
        import pickle

        from repro.core.compiler import compile_kernel
        from repro.cost.model import step_totals
        from repro.ir.kernels import mvm

        dense = np.tril(np.arange(1.0, 65.0).reshape(8, 8) % 5)
        if name == "sym":
            dense = dense + np.tril(dense, -1).T
        A = FORMATS[name].from_dense(dense)
        compile_kernel(mvm(), {"A": A}, cache="off")    # paths, plan_cost
        assert {"_paths_cache", "_step_totals_cache"} <= vars(A).keys()
        assert not {"_paths_cache", "_step_totals_cache"} & A.__getstate__().keys()
        want = [(repr(p), step_totals(A, p.path_id)) for p in A.paths()]
        for B in (pickle.loads(pickle.dumps(A)), A.copy()):
            assert [(repr(p), step_totals(B, p.path_id))
                    for p in B.paths()] == want


class TestConversions:
    @pytest.mark.parametrize("src", ALL)
    @pytest.mark.parametrize("dst", ALL)
    def test_all_pairs(self, src, dst, small_rect):
        f = make(src, small_rect)
        kwargs = {"block_size": 2} if dst == "bsr" else {}
        g = convert(f, dst, **kwargs)
        assert np.allclose(g.to_dense(), small_rect)

    def test_bounds_annotation_preserved(self, lower_tri):
        f = as_format(lower_tri, "csr")
        assert f.bounds() is not None
        g = convert(f, "jad")
        assert g.bounds() is not None

    def test_scipy_interop(self, small_rect):
        import scipy.sparse as sps

        f = as_format(small_rect, "csr")
        s = f.to_scipy()
        assert np.allclose(s.toarray(), small_rect)
        g = FORMATS["csc"].from_scipy(sps.csr_matrix(small_rect))
        assert np.allclose(g.to_dense(), small_rect)


class TestFormatSpecifics:
    def test_csr_validation(self):
        from repro.formats.csr import CsrMatrix

        with pytest.raises(ValueError):
            CsrMatrix(np.array([0, 1]), np.array([0]), np.array([1.0]), (3, 3))
        with pytest.raises(ValueError):
            CsrMatrix(np.array([0, 2, 1, 1]), np.array([0]), np.array([1.0]),
                      (3, 3))

    def test_jad_structure(self, small_rect):
        from repro.formats.jad import JadMatrix

        f = JadMatrix.from_coo(*(lambda t: (t[0], t[1], t[2]))(
            (lambda d: (np.nonzero(d)[0], np.nonzero(d)[1],
                        d[np.nonzero(d)]))(small_rect)), small_rect.shape)
        lens = np.diff(f.dptr)
        assert np.all(lens[:-1] >= lens[1:])  # diagonals shrink
        # iperm sorts rows by count decreasing
        counts = (small_rect != 0).sum(axis=1)
        perm_counts = counts[f.iperm]
        assert np.all(perm_counts[:-1] >= perm_counts[1:])
        # inverse permutation is consistent
        assert np.array_equal(f.iperm[f.ipermi], np.arange(f.nrows))

    def test_dia_offset_ranges(self):
        from repro.formats.dia import DiaMatrix

        a = np.eye(4)
        a[0, 3] = 5.0
        f = DiaMatrix.from_dense(a)
        assert set(f.diags.tolist()) == {-3, 0}
        lo, hi = f.offset_range(-3)
        assert (lo, hi) == (3, 4)
        lo, hi = f.offset_range(0)
        assert (lo, hi) == (0, 4)

    def test_bsr_requires_divisible_shape(self):
        from repro.formats.bsr import BsrMatrix

        with pytest.raises(ValueError):
            BsrMatrix.from_coo([0], [0], [1.0], (3, 4), block_size=2)

    def test_msr_separates_diagonal(self, small_square):
        from repro.formats.msr import MsrMatrix

        f = MsrMatrix.from_dense(small_square)
        for i in range(f.ndiag):
            assert f.dvals[i] == pytest.approx(small_square[i, i])
        # off-diagonal structure has no diagonal entries
        rows = np.repeat(np.arange(f.nrows), np.diff(f.rowptr))
        assert np.all(rows != f.colind)

    def test_ell_padding(self):
        from repro.formats.ell import EllMatrix

        a = np.zeros((3, 5))
        a[0, :4] = 1.0
        a[2, 1] = 2.0
        f = EllMatrix.from_dense(a)
        assert f.slots == 4
        assert f.rowlen.tolist() == [4, 0, 1]
        assert np.allclose(f.to_dense(), a)

    def test_axis_ranges(self, small_rect):
        f = make("dia", small_rect)
        m, n = small_rect.shape
        assert f.axis_range("d") == (1 - n, m)
        assert f.axis_range("o") == (0, n)
        assert f.axis_range("r") == (0, m)

    def test_axis_total(self, small_rect):
        assert make("csr", small_rect).axis_total("r") == (0, 6)
        assert make("csr", small_rect).axis_total("c") is None
        assert make("jad", small_rect).axis_total("r") == (0, 6)
        assert make("dia", small_rect).axis_total("d") is None
        assert make("coo", small_rect).axis_total("r") is None


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.floats(0.1, 10.0)), min_size=0, max_size=20))
def test_roundtrip_random_coo(entries):
    dense = np.zeros((6, 6))
    for r, c, v in entries:
        dense[r, c] = v  # later duplicates overwrite, like the dict below
    # build through from_coo with the last-write-wins dense as reference:
    # duplicates are summed by from_coo, so feed unique entries only
    uniq = {}
    for r, c, v in entries:
        uniq[(r, c)] = v
    rows = [k[0] for k in uniq]
    cols = [k[1] for k in uniq]
    vals = [uniq[k] for k in uniq]
    for fmt_name in ALL:
        kwargs = {"block_size": 2} if fmt_name == "bsr" else {}
        f = FORMATS[fmt_name].from_coo(rows, cols, vals, (6, 6), **kwargs)
        assert np.allclose(f.to_dense(), dense), fmt_name
