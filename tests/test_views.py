"""Access paths.  Each format's ``paths()``, derived from its declaration
(one rule per level kind), is held to the walk of the view term — the
index-structure grammar of paper Figure 6 — it declared before
(``tests/oracles/views.py``, whose grammar is tested here too)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.formats.views import Axis
from repro.polyhedra.linexpr import LinExpr
from tests.oracles.views import (
    AccessPath,
    BINARY,
    Cross,
    INCREASING,
    Joint,
    LINEAR,
    MapTerm,
    Nest,
    NOSEARCH,
    PermTerm,
    Perspective,
    Union,
    UNORDERED,
    Value,
    access_paths,
    interval_axis,
    union_branches,
)


class TestAxis:
    def test_bad_order(self):
        with pytest.raises(ValueError):
            Axis("r", order="sideways")

    def test_bad_search(self):
        with pytest.raises(ValueError):
            Axis("r", search="psychic")

    def test_interval_axis_properties(self):
        a = interval_axis("r")
        assert a.interval and a.order == INCREASING and a.search == "direct"


class TestNestPaths:
    def test_csr_shape(self):
        term = Nest(interval_axis("r"), Nest(Axis("c", INCREASING, BINARY), Value()))
        paths = access_paths(term)
        assert len(paths) == 1
        p = paths[0]
        assert p.axis_names == ("r", "c")
        assert len(p.steps) == 2
        assert not p.steps[0].joint
        assert p.subs["r"] == LinExpr.variable("r")
        assert p.subs["c"] == LinExpr.variable("c")

    def test_step_of(self):
        term = Nest(interval_axis("r"), Nest(Axis("c", INCREASING, BINARY), Value()))
        p = access_paths(term)[0]
        assert p.step_of("r") == 0 and p.step_of("c") == 1
        with pytest.raises(KeyError):
            p.step_of("z")


class TestJointPaths:
    def test_coo_shape(self):
        term = Joint([Axis("r", UNORDERED, LINEAR), Axis("c", UNORDERED, LINEAR)],
                     Value())
        p = access_paths(term)[0]
        assert len(p.steps) == 1 and p.steps[0].joint
        assert p.axis_names == ("r", "c")


class TestCrossPaths:
    def test_dense_orderings(self):
        term = Cross([interval_axis("r"), interval_axis("c")], Value())
        paths = access_paths(term)
        orders = {p.axis_names for p in paths}
        assert orders == {("r", "c"), ("c", "r")}


class TestMapPaths:
    def test_dia_substitution(self):
        d, o = LinExpr.variable("d"), LinExpr.variable("o")
        term = MapTerm({"r": d + o, "c": o},
                       Nest(Axis("d", INCREASING, BINARY),
                            Nest(interval_axis("o"), Value())))
        p = access_paths(term)[0]
        assert p.axis_names == ("d", "o")
        assert p.subs["r"] == d + o
        assert p.subs["c"] == o

    def test_blocking_substitution(self):
        rb, ri = LinExpr.variable("rb"), LinExpr.variable("ri")
        cb, ci = LinExpr.variable("cb"), LinExpr.variable("ci")
        term = MapTerm(
            {"r": rb * 4 + ri, "c": cb * 4 + ci},
            Nest(interval_axis("rb"),
                 Nest(Axis("cb", INCREASING, BINARY),
                      Cross([interval_axis("ri"), interval_axis("ci")], Value()))))
        paths = access_paths(term)
        assert len(paths) == 2  # ri/ci orderings
        assert paths[0].subs["r"].coeff("rb") == 4

    def test_missing_logical_dim_rejected(self):
        term = MapTerm({"r": LinExpr.variable("d")},
                       Nest(Axis("d", INCREASING, BINARY), Value()))
        with pytest.raises(ValueError):
            access_paths(term)  # "c" neither axis nor mapped


class TestPermPaths:
    def test_jad_like(self):
        flat = Joint([Axis("rr", UNORDERED, NOSEARCH),
                      Axis("c", UNORDERED, NOSEARCH)], Value())
        hier = Nest(interval_axis("rr"),
                    Nest(Axis("c", INCREASING, BINARY), Value()))
        term = PermTerm("r", "rr", "iperm", Perspective(flat, hier))
        paths = access_paths(term)
        assert len(paths) == 2
        flat_p, hier_p = paths
        # the stored axis is renamed to the logical dimension
        assert flat_p.axis_names == ("r", "c")
        assert hier_p.axis_names == ("r", "c")
        # permuted: stored order means nothing for the logical values
        assert flat_p.axis("r").perm == "iperm"
        assert flat_p.axis("r").order == UNORDERED
        assert hier_p.axis("r").order == UNORDERED
        # the hier view keeps its interval/search capabilities
        assert hier_p.axis("r").interval
        assert hier_p.axis("c").order == INCREASING


class TestPerspectiveUnion:
    def test_perspective_multiplies(self):
        a = Nest(interval_axis("r"), Nest(Axis("c", INCREASING, BINARY), Value()))
        b = Nest(interval_axis("c"), Nest(Axis("r", INCREASING, BINARY), Value()))
        term = Perspective(a, b)
        paths = access_paths(term)
        assert len(paths) == 2
        assert {p.branch for p in paths} == {""}

    def test_union_branches(self):
        d = MapTerm({"r": LinExpr.variable("i"), "c": LinExpr.variable("i")},
                    Nest(interval_axis("i"), Value()))
        off = Nest(interval_axis("r"), Nest(Axis("c", INCREASING, BINARY), Value()))
        term = Union(d, off)
        paths = access_paths(term)
        assert [p.branch for p in paths] == ["u0", "u1"]
        assert union_branches(paths) == ["u0", "u1"]

    def test_nested_union_perspective(self):
        leafa = Nest(interval_axis("r"), Nest(Axis("c", INCREASING, BINARY), Value()))
        leafb = Joint([Axis("r", UNORDERED, LINEAR), Axis("c", UNORDERED, LINEAR)],
                      Value())
        term = Union(Perspective(leafa, leafb), leafa)
        paths = access_paths(term)
        assert [p.branch for p in paths] == ["u0", "u0", "u1"]


class TestFormatViews:
    """Each concrete format's declaration must produce its documented
    paths."""

    @pytest.mark.parametrize("fmt_name,expected", [
        ("csr", [("rows", ("r", "c"))]),
        ("csc", [("cols", ("c", "r"))]),
        ("coo", [("flat", ("r", "c"))]),
        ("dia", [("diags", ("d", "o"))]),
        ("ell", [("rows", ("r", "c"))]),
        ("jad", [("flat", ("r", "c")), ("rows", ("r", "c"))]),
        ("dense", [("rowmajor", ("r", "c")), ("colmajor", ("c", "r"))]),
        ("msr", [("diag", ("i",)), ("off", ("r", "c"))]),
        ("bsr", [("rows_rc", ("rb", "cb", "ri", "ci")),
                 ("rows_cr", ("rb", "cb", "ci", "ri"))]),
    ])
    def test_paths(self, fmt_name, expected, small_rect):
        from repro.formats import as_format

        kwargs = {"block_size": 2} if fmt_name == "bsr" else {}
        f = as_format(small_rect, fmt_name, **kwargs)
        got = [(p.path_id, p.axis_names) for p in f.paths()]
        assert got == expected


# -- the equivalence wall: declarations against the views they replaced ------

def _rows(r="r", c="c"):
    return Nest(interval_axis(r), Nest(Axis(c, INCREASING, BINARY), Value()))


def _jad(flat=(Axis("rr", UNORDERED, NOSEARCH),
               Axis("c", UNORDERED, NOSEARCH)), rows=True):
    flat = Joint(list(flat), Value())
    return PermTerm("r", "rr", "iperm", Perspective(flat, _rows("rr"))
                    if rows else flat)


def _bsr(s):
    rb, ri, cb, ci = map(LinExpr.variable, ("rb", "ri", "cb", "ci"))
    return MapTerm({"r": rb * s + ri, "c": cb * s + ci}, Nest(
        interval_axis("rb"), Nest(Axis("cb", INCREASING, BINARY), Cross(
            [interval_axis("ri"), interval_axis("ci")], Value()))))


def _skyline():
    spec = importlib.util.spec_from_file_location(
        "custom_format", Path(__file__).parents[1] / "examples" / "custom_format.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SkylineMatrix


def _cases():
    """(label, the instance, the view term it declared before, that view's
    path ids) for every built-in, the skyline example and every test
    format that declares a well-formed path."""
    from repro.formats import as_format
    from tests.test_custom_format import (
        DeclaredCoo, FlatOnly, Single, UnsortedCsr, walked,
    )

    d, o, i = map(LinExpr.variable, ("d", "o", "i"))
    a = np.kron(np.eye(4), np.ones((2, 2)))
    a[0, 5] = a[5, 0] = 3.0                 # symmetric, blocks of 1, 2 and 4
    views = {
        "csr": (_rows(), ["rows"]),
        "csc": (_rows("c", "r"), ["cols"]),
        "coo": (Joint([Axis("r", UNORDERED, LINEAR),
                       Axis("c", UNORDERED, LINEAR)], Value()), ["flat"]),
        "dense": (Cross([interval_axis("r"), interval_axis("c")], Value()),
                  ["rowmajor", "colmajor"]),
        "dia": (MapTerm({"r": d + o, "c": o}, Nest(
            Axis("d", INCREASING, BINARY), Nest(interval_axis("o"), Value()))),
            ["diags"]),
        "ell": (_rows(), ["rows"]),
        "jad": (_jad(), ["flat", "rows"]),
        "msr": (Union(MapTerm({"r": i, "c": i}, Nest(interval_axis("i"), Value())),
                      _rows()), ["diag", "off"]),
        "sym": (Union(_rows(), MapTerm({"r": LinExpr.variable("cc"),
                                        "c": LinExpr.variable("rr")},
                                       _rows("rr", "cc"))), ["lower", "mirror"]),
    }
    out = [(name, as_format(a, name), *view) for name, view in views.items()]
    out += [(f"bsr{s}", as_format(a, "bsr", block_size=s), _bsr(s),
             ["rows_rc", "rows_cr"]) for s in (1, 2, 4)]
    sky = _skyline()
    out.append(("skyline", sky.from_dense(a), Nest(interval_axis("r"), Nest(
        interval_axis("c"), Value())), ["rows"]))
    coo = DeclaredCoo.from_dense(a)
    ordered = Joint([Axis("c", INCREASING, LINEAR),
                     Axis("r", UNORDERED, LINEAR)], Value())
    out += [("declared_coo", coo, ordered, ["flat"]),
            ("single", Single(coo.rows, coo.cols, coo.vals, coo.shape),
             ordered, ["flat"]),
            ("flat_only", FlatOnly.from_dense(a), _jad(rows=False), ["flat"]),
            ("unsorted_csr", UnsortedCsr.from_dense(a), Nest(interval_axis("r"), Nest(
                Axis("c", UNORDERED, LINEAR), Value())), ["rows"])]
    for c in (Axis("c", INCREASING, NOSEARCH), Axis("c", UNORDERED, BINARY)):
        out.append((f"walked_{c.order}_{c.search}", walked(c).from_dense(a),
                    _jad((Axis("rr", UNORDERED, c.search), c)), ["flat", "rows"]))
    return out


CASES = _cases()


def _fields(p: AccessPath):
    """Everything a path says: its id, steps (joint or not, every
    ``AxisView`` field in order), ``subs`` and branch."""
    return (p.path_id,
            [(s.joint, [(a.name, a.order, a.search, a.interval, a.perm)
                        for a in s.axes]) for s in p.steps],
            p.subs, p.branch)


@pytest.mark.parametrize("label, fmt, term, ids", CASES,
                         ids=[c[0] for c in CASES])
def test_declared_paths_are_the_views(label, fmt, term, ids):
    walked_paths = access_paths(term)
    assert len(walked_paths) == len(ids)
    expected = [AccessPath(pid, p.steps, p.subs, p.branch)
                for pid, p in zip(ids, walked_paths)]
    assert list(map(_fields, fmt.paths())) == list(map(_fields, expected))
    assert fmt.union_branches() == union_branches(expected)


def test_the_wall_covers_every_format():
    from repro.formats import FORMATS

    labels = {c[0] for c in CASES}
    assert set(FORMATS) - {"bsr"} <= labels
    assert {"bsr1", "bsr2", "bsr4", "skyline", "declared_coo"} <= labels
