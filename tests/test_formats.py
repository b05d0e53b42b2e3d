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


def stored_triples(f):
    """Sorted ``(r, c, value)`` of what ``f`` stores, by a route that never
    reads ``storage()``: ``to_coo_arrays`` — and ``to_dense`` for the dense
    format, which stores every cell and reports only the non-zero ones."""
    if f.format_name == "dense":
        d = f.to_dense()
        return [(r, c, float(d[r, c])) for r in range(f.nrows)
                for c in range(f.ncols)]
    rows, cols, vals = f.to_coo_arrays()
    return sorted(zip(rows.tolist(), cols.tolist(), vals.tolist()))


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


def reconstructs(f):
    for cover in covers(f):
        got = sorted((*logical(p, keys), v) for p in cover
                     for keys, v in walk(f, p).items())
        assert got == stored_triples(f), [p.path_id for p in cover]


def finds_enumerated(f):
    for p in f.paths():
        stored = walk(f, p)
        found = {keys: v for keys, v in probes(f, p) if keys in stored}
        assert found == {keys: f.get(*logical(p, keys)) for keys in stored}


def misses_absent(f):
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
    """Every path of every format, at both index widths, against a
    reference that never reads the declaration the runtime is read from:
    the walk against ``to_coo_arrays``, the searches against the walk and
    ``get``."""

    @pytest.fixture(params=ALL + ["sym"])
    def fmt_name(self, request):
        return request.param

    @pytest.fixture
    def both_widths(self, fmt_name, small_rect):
        if fmt_name == "sym":
            lower = np.tril(small_rect[:, :6])
            small_rect = lower + np.tril(lower, -1).T
        f = make(fmt_name, small_rect)
        return [at_width(f, width) for width in (np.int32, np.int64)]

    def test_full_enumeration_reconstructs(self, both_widths):
        """Walking one path per branch yields the stored ``(r, c, value)``
        triples exactly once each — equal, not close."""
        for f in both_widths:
            reconstructs(f)

    def test_search_finds_enumerated(self, both_widths):
        """Searching down a path for an enumerated key tuple yields a
        state reading ``get(r, c)``."""
        for f in both_widths:
            finds_enumerated(f)

    def test_search_misses_absent(self, both_widths):
        """... and for any other — unstored, -1, the extent — None."""
        for f in both_widths:
            misses_absent(f)

    @pytest.mark.parametrize("mistake", WRONG)
    def test_a_wrong_declaration_fails(self, mistake):
        """The runtime is read from the declaration; what is stored is
        not, so a mistake in one shows against the other."""
        name, edit = WRONG[mistake]
        a = np.array([[1.0, 0, 2, 0], [0, 3, 0, 0], [2, 0, 5, 6], [0, 0, 6, 0]])
        # ncols < nrows: a row is missed; the rows' order leaves JAD an iperm
        # that is not its own inverse
        a = a if name == "sym" else a[[3, 0, 1, 2], :3]
        right = FORMATS[name]
        wrong = type("Wrong", (right,), {
            "storage": lambda self, path_id:
                edit(right.storage(self, path_id))})
        for check in (reconstructs, finds_enumerated, misses_absent):
            check(right.from_dense(a))
        with pytest.raises((AssertionError, IndexError)):
            for check in (reconstructs, finds_enumerated, misses_absent):
                check(wrong.from_dense(a))


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
