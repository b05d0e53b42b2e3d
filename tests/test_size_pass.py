"""Formats are ranked by their sizes: the size pass.

:meth:`repro.formats.base.SparseFormat.sized` reads, from the canonical
triples, what building a format would give the cost model — the step
totals of every path — and fills no array.  Three walls hold it:

- **totals and refusals**: for every built-in format, on Hypothesis-drawn
  COO, the five structure families of :mod:`repro.search.features` and
  ``can_1072_like``, every path's sized totals equal ``step_totals`` of the
  built instance, and an input the build refuses is refused with the same
  ``ValueError`` text;
- **ranking**: ``select_format(mode="model")`` ranks as building every
  candidate did (``tests/oracles/ranking.py``): the same order and
  bit-identical model costs;
- **builds**: model mode builds the winner alone, and nothing when the
  winner is the input's own format; a padded format the pattern would blow
  up is refused while sizing, before any instance exists.
"""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.model import step_totals
from repro.formats import FORMATS, as_format
from repro.formats import base as fbase
from repro.formats.base import coo_dedup_sort
from repro.formats.generate import (
    banded,
    block_structured,
    can_1072_like,
    laplacian_2d,
    power_law_rows,
    random_sparse,
)
from repro.ir.kernels import mvm, ts_lower
from repro.search import select_format
from repro.search.format_select import DEFAULT_CANDIDATES
from tests.oracles.ranking import rank_by_building
from tests.test_assembly import ALL, drawn_coo

#: the structure families of search/features.py and the paper's matrix
FAMILIES = {
    "uniform": lambda: random_sparse(60, 60, density=0.05, seed=1),
    "banded": lambda: banded(64, bandwidth=2, seed=2),
    "powerlaw": lambda: power_law_rows(64, 64, seed=3),
    "block": lambda: block_structured(64, block_size=4, seed=4),
    "lap2d": lambda: laplacian_2d(8),
    "can_1072": can_1072_like,
}


def _outcome(fn):
    """``(result, None)``, or ``(None, message)`` of the ValueError raised."""
    try:
        return fn(), None
    except ValueError as e:
        return None, str(e)


def assert_sized_as_built(name, rows, cols, vals, shape, **kw):
    """The size pass of format ``name`` (a built-in, the example's skyline
    or the tests' column-sorted COO) gives the built instance's step totals
    on every path, holds no array, and refuses what the build refuses with
    the same message."""
    cls = ALL[name]
    rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape)
    built, refused = _outcome(lambda: cls._from_canonical_coo(
        rows, cols, vals, shape, **kw))
    sized, sized_refused = _outcome(lambda: cls.sized(rows, cols, vals,
                                                      shape, **kw))
    assert sized_refused == refused, name
    if refused is not None:
        return
    assert sized is not None, f"{name}: a format the size pass cannot size"
    assert type(sized) is cls
    assert not any(isinstance(a, np.ndarray) for a in vars(sized).values()), name
    for p in built.paths():
        assert step_totals(sized, p.path_id) == step_totals(built, p.path_id), (
            name, p.path_id)


@pytest.mark.parametrize("name", sorted(ALL))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_drawn_coo_sizes_as_it_builds(name, data):
    assert_sized_as_built(name, *data.draw(drawn_coo(name)))


@pytest.mark.parametrize("name", sorted(FORMATS))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_drawn_coo_is_refused_as_it_builds(name, data):
    """Drawn for another format (odd extents for BSR, asymmetric for SYM):
    what the build refuses, sizing refuses alike."""
    other = data.draw(st.sampled_from(["coo", "bsr", "sym"]))
    rows, cols, vals, shape = data.draw(drawn_coo(other))
    assert_sized_as_built(name, rows, cols, vals, shape)
    assert_sized_as_built(name, cols, rows, vals, shape[::-1])


@pytest.mark.parametrize("name", sorted(ALL))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_families_size_as_they_build(name, family):
    m = FAMILIES[family]()
    assert_sized_as_built(name, *m.to_coo_arrays(), m.shape)


@pytest.mark.parametrize("block_size", [1, 3, 4])
@pytest.mark.parametrize("family", ["block", "lap2d", "can_1072"])
def test_bsr_sizes_every_block_size(block_size, family):
    m = FAMILIES[family]()
    assert_sized_as_built("bsr", *m.to_coo_arrays(), m.shape,
                          block_size=block_size)


def test_padding_refused_while_sizing(monkeypatch):
    """``check_padding``'s limits, patched down: DIA and ELL refuse at the
    size pass with the build's message."""
    monkeypatch.setattr(fbase, "_PAD_MIN_CELLS", 16)
    monkeypatch.setattr(fbase, "_PAD_RATIO", 2)
    m = power_law_rows(40, 40, seed=5)
    for name in ("dia", "ell"):
        with pytest.raises(ValueError, match=f"{name} would pad"):
            FORMATS[name].sized(*m.to_coo_arrays(), m.shape)
        assert_sized_as_built(name, *m.to_coo_arrays(), m.shape)


def test_a_format_that_assembles_itself_is_built():
    """A class with its own ``_from_canonical_coo`` has no size pass: only
    its build knows its arrays."""
    jad = FORMATS["jad"]
    own = type("OwnJad", (jad,), {"_from_canonical_coo": classmethod(
        lambda cls, *a, **k: jad._from_canonical_coo.__func__(cls, *a, **k))})
    m = FAMILIES["uniform"]()
    assert own.sized(*m.to_coo_arrays(), m.shape) is None
    assert jad.sized(*m.to_coo_arrays(), m.shape) is not None


def test_a_perspective_the_rules_do_not_size_is_built():
    """DIA declared twice over the same arrays: the second path's first
    level holds distinct coordinates, which only the path that built them
    counted — the size pass declines, and selection builds the format to
    rank it."""
    dia = FORMATS["dia"]
    twice = type("DiaTwice", (dia,), {"declaration": lambda self: {
        **dia.declaration(self), "again": dia.declaration(self)["diags"]}})
    m = FAMILIES["banded"]()
    assert twice.sized(*m.to_coo_arrays(), m.shape) is None
    assert dia.sized(*m.to_coo_arrays(), m.shape) is not None


def test_a_mirror_of_unordered_storage_is_built():
    """SYM's mirror over COO storage: the stored branch keeps no order the
    mirror could be walked in without its arrays — the size pass declines."""
    from repro.formats.levels import Coords, Path, Size, Storage
    from repro.polyhedra.linexpr import LinExpr

    def flat(at):
        return Storage((Coords(("rows", "cols"), "nnz"),), ("vals", at),
                       ("rows", "cols", "vals", Size("nnz", "nnz")))

    lower = LinExpr.variable("r") - LinExpr.variable("c")
    mirrored = type("MirroredCoo", (FORMATS["coo"],), {"declaration": lambda self: {
        "lower": Path(("r", "c"), flat("r"), branch="u0", where=(lower,)),
        "mirror": Path(("rr", "cc"), flat("rr"), {"r": "cc", "c": "rr"},
                       branch="u1")}})
    m = FAMILIES["lap2d"]()
    assert mirrored.sized(*m.to_coo_arrays(), m.shape) is None


# ---------------------------------------------------------------------------
# _distinct: the O(n) paths against the sort
# ---------------------------------------------------------------------------

def _distinct_by_sort(key):
    ordered = np.sort(key)
    uniq = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
    return uniq, np.searchsorted(uniq, key)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(st.integers(-2**40, 2**40), max_size=60),
       narrow=st.booleans(), sort=st.booleans())
def test_distinct_is_the_sort(values, narrow, sort):
    """Sorted keys, keys of a range no wider than their number and any
    other keys: the distinct keys and ranks are the sort's, byte for byte."""
    key = np.array(values, dtype=np.int64)
    if narrow:
        key = key % max(1, key.size)
    if sort:
        key = np.sort(key)
    want_uniq, want_rank = _distinct_by_sort(key)
    uniq, rank = fbase._distinct(key)
    assert (uniq.dtype, uniq.tobytes()) == (want_uniq.dtype, want_uniq.tobytes())
    assert (rank.dtype, rank.tobytes()) == (want_rank.dtype, want_rank.tobytes())
    uniq, rank = fbase._distinct(key, ranks=False)
    assert rank is None and uniq.tobytes() == want_uniq.tobytes()


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_model_ranking_is_the_build_everything_ranking(family):
    from repro.core.cache import clear_compile_cache

    m = as_format(FAMILIES[family](), "csr")
    clear_compile_cache()
    res = select_format(mvm(), "A", m)
    got = [(c.format_name, c.model_cost, None if c.ok else c.error)
           for c in res.choices]
    assert got == rank_by_building(mvm(), "A", m, DEFAULT_CANDIDATES)


def test_ts_ranking_is_the_build_everything_ranking():
    L = as_format(random_sparse(30, 30, 0.15, seed=9), "csr")
    L = as_format(np.tril(L.to_dense()) + np.eye(30), "csr")
    L.annotate_triangular("lower")
    res = select_format(ts_lower(), "L", L)
    got = [(c.format_name, c.model_cost, None if c.ok else c.error)
           for c in res.choices]
    assert got == rank_by_building(ts_lower(), "L", L, DEFAULT_CANDIDATES)


@pytest.fixture
def builds(monkeypatch):
    """The formats the process builds from canonical triples, in order."""
    made = []
    assemble = fbase._assemble

    @functools.wraps(assemble)
    def counted(fmt, rows, cols, vals, arrays, placed, sizes=None):
        if sizes is None:
            made.append(fmt.format_name)
        return assemble(fmt, rows, cols, vals, arrays, placed, sizes)

    monkeypatch.setattr(fbase, "_assemble", counted)
    return made


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_model_mode_builds_the_winner_alone(family, builds):
    """Over the default candidates: one build at most, none when the
    input's own format wins — and a loser is built when first asked for,
    its kernel bound to that instance."""
    m = as_format(FAMILIES[family](), "csr")
    builds.clear()
    res = select_format(mvm(), "A", m)
    winner = res.best[0]
    assert builds == ([] if winner == "csr" else [winner])
    assert res.best[1] is (m if winner == "csr" else res.instances[winner])
    loser = next(c for c in res.choices[1:] if c.ok and c.format_name != "csr")
    inst = res.instances[loser.format_name]
    assert builds[-1] == loser.format_name
    assert loser.kernel.bindings["A"] is inst
    x = np.random.default_rng(0).random(m.ncols)
    y = np.zeros(m.nrows)
    loser.kernel({"A": inst, "x": x, "y": y}, {"m": m.nrows, "n": m.ncols})
    assert np.allclose(y, m.to_dense() @ x)


def test_a_loser_kernel_builds_its_instance_on_access(builds):
    m = as_format(FAMILIES["banded"](), "csr")
    builds.clear()
    res = select_format(mvm(), "A", m, candidates=("csr", "ell", "jad"))
    loser = res.choices[-1]
    assert loser.format_name not in builds
    kernel = loser.kernel
    assert builds[-1] == loser.format_name
    assert kernel.bindings["A"] is res.instances[loser.format_name]


def test_a_loser_is_built_once_under_concurrent_access(builds):
    """Threads asking for the same losers' instances and kernels at once:
    one build each, one instance, the kernel bound to it."""
    import sys
    import threading

    m = as_format(FAMILIES["uniform"](), "csr")
    builds.clear()
    res = select_format(mvm(), "A", m, candidates=("csr", "coo", "ell", "jad"))
    losers = [c for c in res.choices[1:] if c.ok]
    got, errors = [], []

    def ask(i):
        try:
            for c in losers[i % 2:] + losers[:i % 2]:
                got.append((c.format_name, id(res.instances[c.format_name]),
                            id(c.kernel.bindings["A"])))
        except Exception as e:          # reported below, not lost in a thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=ask, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    assert sorted(builds) == sorted(c.format_name for c in res.choices
                                    if c.ok and c.format_name != "csr")
    assert len(set(got)) == len(losers)
    assert all(inst == bound for _name, inst, bound in got)


def test_auto_mode_builds_what_it_measures(builds):
    m = as_format(FAMILIES["uniform"](), "csr")
    builds.clear()
    res = select_format(mvm(), "A", m, mode="auto", topk=2, repeats=1,
                        autotune_cache="off",
                        candidates=("csr", "coo", "ell", "jad"))
    measured = [c.format_name for c in res.choices if c.measured is not None]
    assert len(measured) == 2
    assert sorted(builds) == sorted(n for n in measured if n != "csr")


def test_a_winner_whose_build_fails_is_inapplicable(monkeypatch):
    """Sized but out of memory when built: the winner is reported
    inapplicable and the next candidate wins."""
    m = as_format(banded(64, bandwidth=1, seed=0), "csr")
    assert select_format(mvm(), "A", m, candidates=("csr", "dia")).best[0] == "dia"
    assemble = fbase._assemble

    def exhausted(fmt, rows, cols, vals, arrays, placed, sizes=None):
        if sizes is None and fmt.format_name == "dia":
            raise MemoryError("Unable to allocate 1. TiB for an array")
        return assemble(fmt, rows, cols, vals, arrays, placed, sizes)

    monkeypatch.setattr(fbase, "_assemble", exhausted)
    res = select_format(mvm(), "A", m, candidates=("csr", "dia"))
    dia = {c.format_name: c for c in res.choices}["dia"]
    assert res.best[0] == "csr" and "dia" not in res.instances
    assert dia.error == "inapplicable: Unable to allocate 1. TiB for an array"


def test_dia_of_a_block_matrix_is_refused_while_sizing(builds):
    """A 4x4-block matrix at n = 20k occupies ~1.4 n diagonals: DIA would
    pad it to ~n^2 cells.  As a candidate it is reported inapplicable by
    its size pass — no DIA instance is made, and the selection peaks far
    below the refused allocation."""
    from repro.formats.dia import DiaMatrix

    A = as_format(block_structured(20_000, block_size=4, seed=6), "csr")
    builds.clear()
    rows, cols, _ = A.to_coo_arrays()
    cells = np.unique(rows - cols).size * A.ncols
    made = []
    init = DiaMatrix.__init__

    @functools.wraps(init)
    def counted(self, *a, **k):
        made.append(self)
        init(self, *a, **k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DiaMatrix, "__init__", counted)
        tracemalloc.start()
        try:
            res = select_format(mvm(), "A", A,
                                candidates=("csr", "dia", "ell", "bsr"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    dia = {c.format_name: c for c in res.choices}["dia"]
    assert dia.error.startswith(f"inapplicable: dia would pad {rows.size} "
                                f"stored entries to {cells} cells (")
    assert made == [] and "dia" not in builds and "dia" not in res.instances
    assert peak < 16 * rows.nbytes and peak * 100 < cells * 8, peak
