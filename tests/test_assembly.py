"""A format is built from its declaration.

:meth:`repro.formats.base.SparseFormat._from_canonical_coo` assembles
every format whose levels state it — all ten built-ins, the skyline of
``examples/custom_format.py`` and the test suite's ``DeclaredCoo`` — by
one rule per level kind.  Two walls hold it:

- **byte identity** with the hand-written constructors it replaced
  (``tests/oracles/assembly.py``): same attributes, dtypes, shapes and
  bytes, at both index widths, through ``from_coo``, the canonical core
  and ``convert`` — and the same refusals: an input the hand constructor
  refused (BSR's block size, SYM's symmetry, DIA's padding) is refused;
- **round trip**: drawn COO (duplicates, empty rows and columns,
  zero-extent shapes) -> ``from_coo`` -> every path walked by its
  :class:`~repro.formats.base.LevelRuntime` -> the canonical triples, for
  every format.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import FORMATS, convert
from repro.formats import base as fbase
from repro.formats.base import coo_dedup_sort
from repro.formats.generate import can_1072_like, laplacian_2d, random_sparse
from repro.formats.jad import DECLARATION
from tests.oracles.assembly import (
    FROM_CANONICAL,
    declared_coo_from_coo,
    reference_from_coo,
    skyline_from_coo,
)
from tests.test_custom_format import DeclaredCoo

_spec = importlib.util.spec_from_file_location(
    "custom_format_example",
    Path(__file__).resolve().parents[1] / "examples" / "custom_format.py")
_example = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_example)
SkylineMatrix = _example.SkylineMatrix

#: every class whose assembly is derived, and the oracle it is held to
DERIVED = {**{f: (FORMATS[f], reference_from_coo) for f in FROM_CANONICAL},
           "sky": (SkylineMatrix, skyline_from_coo),
           "cscoo": (DeclaredCoo, declared_coo_from_coo)}

#: what the round trip runs on: the built-ins and the two user formats
ALL = {**FORMATS, "sky": SkylineMatrix, "cscoo": DeclaredCoo}

#: formats that store cells no triple named, all holding 0: the dense
#: grid, a DIA diagonal's span, a BSR block, MSR's whole diagonal, a
#: skyline row's profile
FILLED = {"dense", "dia", "bsr", "msr", "sky"}

#: attributes a walk or a search leaves behind, not part of the storage
_CACHES = {"_runtimes", "_paths_cache", "_locators"}


def assert_same_storage(a, b):
    """Same attributes; every array the same dtype, shape and bytes."""
    assert type(a) is type(b)
    va = {k: v for k, v in vars(a).items() if k not in _CACHES}
    vb = {k: v for k, v in vars(b).items() if k not in _CACHES}
    assert set(va) == set(vb)
    for k, x in va.items():
        y = vb[k]
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape) == (y.dtype, y.shape), k
            assert x.tobytes() == y.tobytes(), k
        else:
            assert x == y, k


def assert_same_build(derive, oracle):
    """``derive()`` builds what ``oracle()`` builds, byte for byte, or
    refuses it as the oracle does (a ``ValueError``)."""
    try:
        want = oracle()
    except ValueError:
        with pytest.raises(ValueError):
            derive()
        return
    assert_same_storage(derive(), want)


def _wall_matrices():
    """The matrices the walls share: the paper's can_1072 stand-in, a
    Laplacian, rectangular ones both ways, empty and zero-extent ones."""
    out = {"can_1072": can_1072_like(), "lap": laplacian_2d(7),
           "wide": random_sparse(9, 23, 0.2, seed=3),
           "tall": random_sparse(23, 9, 0.2, seed=4)}
    out = {k: (*m.to_coo_arrays(), m.shape) for k, m in out.items()}
    empty = np.zeros(0, dtype=np.int64)
    for shape in ((5, 7), (0, 4), (4, 0), (0, 0)):
        out[f"empty{shape}"] = (empty, empty, np.zeros(0), shape)
    return out


WALL = _wall_matrices()


@pytest.fixture(params=["narrow", "wide"])
def width(request, monkeypatch):
    """Both index widths: a lowered module limit makes every matrix wide."""
    if request.param == "wide":
        monkeypatch.setattr(fbase, "_INDEX_LIMIT", 0)
    return request.param


def _shuffled(rows, cols, vals, seed=0):
    """The same entries out of order, one of them split in two."""
    perm = np.random.default_rng(seed).permutation(rows.size)
    rows, cols, vals = rows[perm], cols[perm], vals[perm]
    if rows.size:
        rows, cols = np.append(rows, rows[:1]), np.append(cols, cols[:1])
        vals = np.append(vals / 2, vals[:1] / 2)
    return rows, cols, vals


@pytest.mark.parametrize("name", sorted(DERIVED))
@pytest.mark.parametrize("matrix", sorted(WALL))
def test_from_coo_is_the_hand_constructor(name, matrix, width):
    cls, oracle = DERIVED[name]
    rows, cols, vals, shape = WALL[matrix]
    for triples in ((rows, cols, vals), _shuffled(rows, cols, vals)):
        assert_same_build(lambda: cls.from_coo(*triples, shape),
                          lambda: oracle(cls, *triples, shape))
    if width == "wide" and name in FROM_CANONICAL:
        try:
            derived = cls.from_coo(rows, cols, vals, shape)
        except ValueError:
            return
        assert all(a.dtype == np.int64 for a in vars(derived).values()
                   if isinstance(a, np.ndarray) and a.dtype.kind == "i")


@pytest.mark.parametrize("name", sorted(FROM_CANONICAL))
@pytest.mark.parametrize("matrix", sorted(WALL))
def test_canonical_core_is_the_hand_core(name, matrix, width):
    cls = FORMATS[name]
    rows, cols, vals, shape = WALL[matrix]
    assert_same_build(lambda: cls._from_canonical_coo(rows, cols, vals, shape),
                      lambda: FROM_CANONICAL[name](cls, rows, cols, vals, shape))


@pytest.mark.parametrize("src,name", [(s, t) for s in ("csr", "csc", "coo", "ell")
                                      for t in sorted(FROM_CANONICAL) if s != t])
@pytest.mark.parametrize("matrix", ["can_1072", "wide", "tall", "empty(0, 4)"])
def test_every_convert_route_is_the_hand_core(src, name, matrix, width):
    """Whatever route ``convert`` takes — the one route or a direct one —
    the target is what the hand core built from the canonical triples."""
    rows, cols, vals, shape = WALL[matrix]
    source = FORMATS[src].from_coo(rows, cols, vals, shape)
    assert_same_build(lambda: convert(source, name),
                      lambda: FROM_CANONICAL[name](FORMATS[name], rows, cols,
                                                   vals, shape))


def test_derived_assembly_never_aliases_the_caller():
    rows, cols, vals, shape = WALL["can_1072"]
    for name, (cls, _oracle) in DERIVED.items():
        triples = (rows.copy(), cols.copy(), vals.copy())
        out = cls.from_coo(*triples, shape)
        for a in vars(out).values():
            if isinstance(a, np.ndarray):
                assert not any(np.shares_memory(a, t) for t in triples), name


def test_a_format_whose_levels_do_not_state_its_assembly_is_refused():
    """JAD declared by its rows path alone — a ``Perm`` of a ``Dense``
    level above addressed slots — states no assembly: the base names the
    format and what it cannot build."""
    rows_only = type("RowsJad", (FORMATS["jad"],), {
        "declaration": lambda self: {"rows": DECLARATION["rows"]}})
    with pytest.raises(ValueError, match="'jad'.*does not state its assembly"):
        rows_only.from_coo([0], [0], [1.0], (2, 2))


@pytest.mark.parametrize("block_size", [1, 2, 4])
@pytest.mark.parametrize("matrix", ["can_1072", "lap", "wide", "empty(5, 7)",
                                    "empty(0, 4)"])
def test_bsr_blocks_are_the_hand_blocks(block_size, matrix, width):
    """Every block size, and shapes it does not divide (refused)."""
    rows, cols, vals, shape = WALL[matrix]
    bsr = FORMATS["bsr"]
    assert_same_build(
        lambda: bsr.from_coo(rows, cols, vals, shape, block_size=block_size),
        lambda: reference_from_coo(bsr, rows, cols, vals, shape,
                                   block_size=block_size))


#: a symmetric 4 x 4 pattern as (row, column) -> value
_SYM = {(0, 0): 4.0, (1, 0): -1.0, (0, 1): -1.0, (1, 1): 4.0, (2, 1): -2.0,
        (1, 2): -2.0, (3, 0): 0.5, (0, 3): 0.5, (3, 3): 4.0}

#: what each case changes, and whether the hand check refused it
_SYM_CASES = {
    "symmetric": ({}, False),
    "missing mirror": ({(0, 1): None}, True),
    "tiny entry, no mirror": ({(2, 3): 1e-13}, False),
    "mirror off by more": ({(0, 1): -1.0 + 2e-12}, True),
    "mirror off by less": ({(0, 1): -1.0 + 5e-13}, False),
}


@pytest.mark.parametrize("case", sorted(_SYM_CASES))
def test_sym_refuses_what_the_hand_check_refused(case):
    change, refused = _SYM_CASES[case]
    cells = {k: v for k, v in {**_SYM, **change}.items() if v is not None}
    rows, cols = (np.array(a) for a in zip(*cells))
    args = (rows, cols, np.array(list(cells.values())), (4, 4))
    sym = FORMATS["sym"]
    assert_same_build(lambda: sym.from_coo(*args),
                      lambda: reference_from_coo(sym, *args))
    if refused:
        with pytest.raises(ValueError, match="'sym'"):
            sym.from_coo(*args)
    else:
        assert sym.from_coo(*args).get(0, 1) == -1.0


@pytest.mark.parametrize("diagonals,n", [(1, 48), (2, 100)])
def test_dia_pads_as_the_hand_core_did(diagonals, n, monkeypatch):
    """Past ``check_padding``'s limits (64 cells here, and 64 per stored
    entry) both refuse, naming the cells."""
    monkeypatch.setattr(fbase, "_PAD_MIN_CELLS", 64)
    rows = np.arange(diagonals, dtype=np.int64) * (n // diagonals)
    cols = np.zeros(diagonals, dtype=np.int64)
    dia = FORMATS["dia"]
    args = (rows, cols, np.ones(diagonals), (n, n))
    assert_same_build(lambda: dia.from_coo(*args),
                      lambda: reference_from_coo(dia, *args))
    if diagonals > 1:
        with pytest.raises(ValueError, match="dia would pad"):
            dia.from_coo(*args)


def test_jad_keeps_rows_of_equal_count_in_row_order():
    """Rows of equal entry count keep their order in the permutation (a
    stable sort), so the diagonals are the hand constructor's."""
    rows = np.array([0, 1, 1, 2, 3, 3, 4, 5, 5], dtype=np.int64)
    cols = np.array([2, 0, 3, 1, 0, 4, 5, 1, 2], dtype=np.int64)
    args = (rows, cols, np.arange(1.0, 10.0), (6, 6))
    jad = FORMATS["jad"].from_coo(*args)
    assert jad.iperm.tolist() == [1, 3, 5, 0, 2, 4]
    assert jad.dptr.tolist() == [0, 6, 9]
    assert_same_storage(jad, reference_from_coo(FORMATS["jad"], *args))


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

@st.composite
def drawn_coo(draw, name):
    """Raw triples for format ``name``: duplicates, empty rows and columns
    and zero-extent shapes likely; square and mirrored for SYM, even
    extents for BSR's 2 x 2 blocks."""
    step = 2 if name == "bsr" else 1
    m = draw(st.integers(0, 6)) * step
    n = m if name == "sym" else draw(st.integers(0, 6)) * step
    if m == 0 or n == 0:
        e = np.zeros(0, dtype=np.int64)
        return e, e, np.zeros(0), (m, n)
    entries = draw(st.lists(st.tuples(st.integers(0, m - 1),
                                      st.integers(0, n - 1),
                                      st.integers(-3, 3)),
                            max_size=3 * max(m, n)))
    rows = [r for r, _c, _v in entries]
    cols = [c for _r, c, _v in entries]
    vals = [float(v) for _r, _c, v in entries]
    if name == "sym":
        rows, cols, vals = rows + cols, cols + rows, vals + vals
    return (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
            np.array(vals), (m, n))


def _covers(fmt):
    """Every choice of one path per aggregation branch."""
    covers = [[]]
    for branch in fmt.union_branches():
        covers = [c + [p] for c in covers for p in fmt.paths()
                  if p.branch == branch]
    return covers


@pytest.mark.parametrize("name", sorted(ALL))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_round_trip_through_every_path(name, data):
    """At both index widths (a lowered module limit makes every matrix
    wide)."""
    rows, cols, vals, shape = data.draw(drawn_coo(name))
    r, c, v = coo_dedup_sort(rows, cols, vals, shape)
    want = dict(zip(zip(r.tolist(), c.tolist()), v.tolist()))
    for limit in (fbase._INDEX_LIMIT, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fbase, "_INDEX_LIMIT", limit)
            fmt = ALL[name].from_coo(rows, cols, vals, shape)
        _assert_walks_to(fmt, name, want)


def _assert_walks_to(fmt, name, want):
    """Every cover of ``fmt``'s branches walks to the cells ``want``
    holds (and, for a format that stores cells no triple named, zeros)."""
    for cover in _covers(fmt):
        walked = [fmt.runtime(p.path_id).coo() for p in cover]
        r, c, v = (np.concatenate(parts) for parts in zip(*walked))
        got = {}
        for key, value in zip(zip(r.tolist(), c.tolist()), v.tolist()):
            assert key not in got, (name, key)        # no cell twice
            got[key] = value
        if name in FILLED:
            assert all(got.get(k) == x for k, x in want.items()), name
            assert all(x == 0 for k, x in got.items() if k not in want), name
        else:
            assert got == want, name
