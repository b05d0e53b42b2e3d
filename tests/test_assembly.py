"""A format is built from its declaration.

:meth:`repro.formats.base.SparseFormat._from_canonical_coo` assembles
every format whose levels state it — CSR, CSC, COO, ELL, MSR, the
skyline of ``examples/custom_format.py`` and the test suite's
``DeclaredCoo`` — by one rule per level kind.  Two walls hold it:

- **byte identity** with the hand-written constructors it replaced
  (``tests/oracles/assembly.py``): same attributes, dtypes, shapes and
  bytes, at both index widths, through ``from_coo``, the canonical core
  and ``convert``;
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
        derived = cls.from_coo(*triples, shape)
        assert_same_storage(derived, oracle(cls, *triples, shape))
        if width == "wide" and name in FROM_CANONICAL:
            assert all(a.dtype == np.int64 for a in vars(derived).values()
                       if isinstance(a, np.ndarray) and a.dtype.kind == "i")


@pytest.mark.parametrize("name", sorted(FROM_CANONICAL))
@pytest.mark.parametrize("matrix", sorted(WALL))
def test_canonical_core_is_the_hand_core(name, matrix, width):
    cls = FORMATS[name]
    rows, cols, vals, shape = WALL[matrix]
    assert_same_storage(cls._from_canonical_coo(rows, cols, vals, shape),
                        FROM_CANONICAL[name](cls, rows, cols, vals, shape))


@pytest.mark.parametrize("src,name", [(s, t) for s in ("csr", "csc", "coo", "ell")
                                      for t in sorted(FROM_CANONICAL) if s != t])
@pytest.mark.parametrize("matrix", ["can_1072", "wide", "tall", "empty(0, 4)"])
def test_every_convert_route_is_the_hand_core(src, name, matrix, width):
    """Whatever route ``convert`` takes — the one route or a direct one —
    the target is what the hand core built from the canonical triples."""
    rows, cols, vals, shape = WALL[matrix]
    out = convert(FORMATS[src].from_coo(rows, cols, vals, shape), name)
    assert_same_storage(out, FROM_CANONICAL[name](FORMATS[name], rows, cols,
                                                  vals, shape))


def test_derived_assembly_never_aliases_the_caller():
    rows, cols, vals, shape = WALL["lap"]
    for name, (cls, _oracle) in DERIVED.items():
        triples = (rows.copy(), cols.copy(), vals.copy())
        out = cls.from_coo(*triples, shape)
        for a in vars(out).values():
            if isinstance(a, np.ndarray):
                assert not any(np.shares_memory(a, t) for t in triples), name


def test_a_format_whose_levels_do_not_state_its_assembly_is_refused():
    """JAD's permuted rows are a survivor's: without its own assembly the
    base names the format and what it cannot build."""
    jad = FORMATS["jad"]
    bare = type("BareJad", (jad,), {
        "_from_canonical_coo": vars(fbase.SparseFormat)["_from_canonical_coo"]})
    with pytest.raises(ValueError, match="'jad'.*does not state its assembly"):
        bare.from_coo([0], [0], [1.0], (2, 2))


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
    rows, cols, vals, shape = data.draw(drawn_coo(name))
    kwargs = {"block_size": 2} if name == "bsr" else {}
    fmt = ALL[name].from_coo(rows, cols, vals, shape, **kwargs)
    r, c, v = coo_dedup_sort(rows, cols, vals, shape)
    want = dict(zip(zip(r.tolist(), c.tolist()), v.tolist()))
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
