"""Differential wall: the integer polyhedral core against the ``Fraction``
reference it replaced (``tests/oracles/fraction_polyhedra.py``).

Random small systems (at most six variables, coefficients in -6..6, mixed
GE/EQ, an occasional rational substitution) must get the same feasibility
verdict, the same normalized projection — constraint for constraint, in
order — the same bounds and implied equalities; ``IncrementalRank`` must
report the same ``(dependent, combination)``; and nothing public may hand
back a ``float`` other than the two infinity sentinels, or a number that is
not in canonical form.
"""

from __future__ import annotations

import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.polyhedra import farkas, fm
from repro.polyhedra.linexpr import LinExpr, var
from repro.polyhedra.system import EQ, GE, Constraint, System, ge, le
from repro.util.fractions_linalg import IncrementalRank, canon, exact_div
from tests.oracles import fraction_polyhedra as ref
from tests.oracles.plan_interp import PlanInterpreter, _Ctx

VARS = [f"x{i}" for i in range(6)]

small = st.integers(-6, 6)
rational = st.builds(Fraction, small, st.integers(1, 4))
number = st.one_of(small, small, rational)      # mostly integers
raw_expr = st.tuples(st.dictionaries(st.sampled_from(VARS), small, max_size=4), small)
raw_constraint = st.tuples(raw_expr, st.sampled_from([GE, GE, GE, EQ]))
raw_system = st.lists(raw_constraint, min_size=1, max_size=7)
raw_subst = st.one_of(st.none(), st.tuples(
    st.sampled_from(VARS),
    st.tuples(st.dictionaries(st.sampled_from(VARS), number, max_size=2), number)))


#: the production classes under the names ``build`` asks a module for
NEW = SimpleNamespace(LinExpr=LinExpr, Constraint=Constraint, System=System)


def build(mod, raw, subst):
    """The same raw system in either implementation."""
    system = mod.System(mod.Constraint(mod.LinExpr(*e), kind) for e, kind in raw)
    if subst is not None:
        v, e = subst
        system = system.substitute({v: mod.LinExpr(*e)})
    return system


def build_new(raw, subst):
    # the memos are keyed order-insensitively: an earlier example's answer
    # for the same *set* of constraints may list them in another order
    fm.clear_memos()
    return build(NEW, raw, subst)


def is_canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def assert_exact(x) -> None:
    """No float but the sentinels, no non-canonical number, anywhere."""
    if x is None or isinstance(x, (str, bool)):
        return
    if isinstance(x, float):
        assert x in (fm.NEG_INF, fm.POS_INF), f"float {x!r} from polyhedra"
    elif isinstance(x, (int, Fraction)):
        assert is_canonical(x), f"{x!r} ({type(x).__name__}) is not canonical"
    elif isinstance(x, LinExpr):
        for c in (*x.coeffs.values(), x.const):
            assert_exact(c)
        assert 0 not in x.coeffs.values()
    elif isinstance(x, Constraint):
        assert all(type(c) is int for c in (*x.expr.coeffs.values(), x.expr.const))
    elif isinstance(x, dict):
        for item in x.items():
            assert_exact(item)
    elif isinstance(x, (System, list, tuple, set, frozenset)):
        for item in x:
            assert_exact(item)
    else:
        raise AssertionError(f"unexpected {type(x).__name__} from polyhedra")


def rows(system):
    """Constraints as comparable values, in the system's own order."""
    return [(c.kind, sorted(c.expr.coeffs.items()), c.expr.const) for c in system]


class TestSystemsAgree:
    @settings(max_examples=300, deadline=None)
    @given(raw_system, raw_subst)
    def test_construction_and_normalization(self, raw, subst):
        new, old = build_new(raw, subst), build(ref, raw, subst)
        assert rows(new) == rows(old)
        assert repr(new) == repr(old)
        assert new.has_contradiction == old.has_contradiction
        assert new.variables() == old.variables()
        assert_exact(new)

    @settings(max_examples=300, deadline=None)
    @given(raw_system, raw_subst)
    def test_feasibility(self, raw, subst):
        assert fm.is_feasible(build_new(raw, subst)) == ref.is_feasible(build(ref, raw, subst))

    @settings(max_examples=200, deadline=None)
    @given(raw_system, raw_subst, st.sets(st.sampled_from(VARS), max_size=3))
    def test_projection(self, raw, subst, keep):
        new = fm.project(build_new(raw, subst), sorted(keep))
        old = ref.project(build(ref, raw, subst), sorted(keep))
        assert rows(new) == rows(old)
        assert_exact(new)

    @settings(max_examples=200, deadline=None)
    @given(raw_system, raw_subst, st.sampled_from(VARS))
    def test_single_elimination(self, raw, subst, v):
        new = fm.eliminate_variable(build_new(raw, subst), v)
        old = ref.eliminate_variable(build(ref, raw, subst), v)
        assert rows(new) == rows(old)
        assert_exact(new)

    @settings(max_examples=150, deadline=None)
    @given(raw_system, raw_subst, raw_expr)
    def test_bounds(self, raw, subst, e):
        new, old = build_new(raw, subst), build(ref, raw, subst)
        if not ref.is_feasible(old):
            with pytest.raises(ValueError):
                fm.bounds_of(new, LinExpr(*e))
            return
        got = fm.bounds_of(new, LinExpr(*e))
        assert got == ref.bounds_of(old, ref.LinExpr(*e))
        assert_exact(got)

    @settings(max_examples=60, deadline=None)
    @given(raw_system, raw_subst)
    def test_implied_equalities(self, raw, subst):
        new, old = build_new(raw, subst), build(ref, raw, subst)
        assert fm.implied_equalities(new) == ref.implied_equalities(old)

    @settings(max_examples=100, deadline=None)
    @given(raw_system, raw_subst)
    def test_sample_point_and_certificate_are_exact(self, raw, subst):
        system = build_new(raw, subst)
        point = fm.sample_point(system)
        assert (point is not None) == ref.is_feasible(build(ref, raw, subst))
        assert_exact(point)
        if point is not None:
            assert system.satisfied_by(point)
            assert_exact([c.expr.evaluate(point) for c in system])


def algebra(mod, a, b, s, t, renaming):
    x, y = mod.LinExpr(*a), mod.LinExpr(*b)
    z = (x * s + y) * t - y
    return [x + y, x - y, -x, z, 3 - z, z.rename(renaming),
            z.substitute({"x0": y * s, "x1": x})]


class TestLinExprAgrees:
    @settings(max_examples=300, deadline=None)
    @given(raw_expr, raw_expr, number, number,
           st.dictionaries(st.sampled_from(VARS), st.sampled_from(VARS), max_size=2))
    def test_algebra(self, a, b, s, t, renaming):
        for n, o in zip(algebra(NEW, a, b, s, t, renaming),
                        algebra(ref, a, b, s, t, renaming)):
            assert n.coeffs == o.coeffs and n.const == o.const
            assert repr(n) == repr(o)
            assert hash(n) == hash(o)
            assert_exact(n)

    @given(raw_expr)
    def test_noop_rename_and_substitute_return_self(self, a):
        x = LinExpr(*a)
        assert x.rename({"unrelated": "y"}) is x
        assert x.rename({v: v for v in VARS}) is x
        assert x.substitute({"unrelated": var("y")}) is x
        assert x * 1 is x and x + 0 is x

    def test_fraction_and_int_spellings_are_one_value(self):
        a, b = LinExpr({"x": Fraction(2)}, Fraction(6, 3)), LinExpr({"x": 2}, 2)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == "2*x + 2"
        assert type(a.coeff("x")) is int and type(a.const) is int
        sa = System([Constraint(a, GE), Constraint(a * Fraction(1, 2), EQ)])
        sb = System([Constraint(b * Fraction(1, 2), EQ), Constraint(b, GE)])
        assert fm.system_signature(sa) == fm.system_signature(sb)
        assert hash(fm.system_signature(sa)) == hash(fm.system_signature(sb))
        assert repr(LinExpr({"x": Fraction(1, 2)}, Fraction(-3, 2))) == "1/2*x - 3/2"

    def test_pickle_round_trip_is_canonical(self):
        e = pickle.loads(pickle.dumps(LinExpr({"x": Fraction(4, 2), "y": Fraction(1, 3)})))
        assert type(e.coeff("x")) is int and e.coeff("y") == Fraction(1, 3)
        s = System([ge(var("x") * 2, 3), ge(1, 2)])
        t = pickle.loads(pickle.dumps(s))
        assert rows(t) == rows(s) and t.has_contradiction and t.variables() == ("x",)


class TestExactDivision:
    """Quotients that used to be exact only because an operand happened to
    be a ``Fraction``."""

    def test_bounds_with_non_unit_coefficients(self):
        lo, hi = fm.bounds_of(System([le(var("x") * 2, 3), ge(var("x") * 3, -1)]), var("x"))
        assert (lo, hi) == (Fraction(-1, 3), Fraction(3, 2))
        assert type(lo) is Fraction and type(hi) is Fraction
        lo, hi = fm.bounds_of(System([le(var("x") * 2, 4)]), var("x"))
        assert lo == fm.NEG_INF and hi == 2 and type(hi) is int

    def test_sample_point_with_non_unit_coefficients(self):
        # 1/3 <= x <= 1/2 has no integer point: the midpoint is rational
        s = System([ge(var("x") * 3, 1), le(var("x") * 2, 1), ge(var("y") * 2, var("x"))])
        p = fm.sample_point(s)
        assert p["x"] == Fraction(5, 12) and s.satisfied_by(p)
        assert_exact(p)
        pinned = fm.sample_point(System([Constraint(var("x") * 2 - 3, EQ)]))
        assert pinned == {"x": Fraction(3, 2)} and type(pinned["x"]) is Fraction

    def test_farkas_multipliers_are_exact(self):
        poly = System([ge(var("x") * 2, 3)])
        cert = farkas.farkas_certificate(poly, var("x") * 4 - 6)
        assert cert is not None
        assert_exact(cert)

    def test_exact_div_and_canon(self):
        assert exact_div(6, 3) == 2 and type(exact_div(6, 3)) is int
        assert exact_div(3, 2) == Fraction(3, 2)
        assert exact_div(-3, 2) == Fraction(-3, 2)
        assert exact_div(Fraction(3, 2), Fraction(1, 2)) == 3
        assert type(exact_div(Fraction(3, 2), Fraction(1, 2))) is int
        assert type(canon(True)) is int
        with pytest.raises(TypeError):
            canon(1.5)

    def test_interpreter_propagation_divides_exactly(self):
        """``2*x - y - 3 == 0``: y = 1 binds x = 2; y = 2 has no integer x
        (and must say so, not trip over the float ``1 / 2``)."""
        interp = object.__new__(PlanInterpreter)
        interp.params = {}
        interp.relations = {"S": [var("x") * 2 - var("y") - 3]}
        interp.copy_vars = {"S": ["x", "y"]}
        ctx = _Ctx({"y": 1}, {}, set())
        assert interp._propagate("S", ctx) and ctx.env["x"] == 2
        assert type(ctx.env["x"]) is int
        assert not interp._propagate("S", _Ctx({"y": 2}, {}, set()))


class TestIncrementalRankAgrees:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda w: st.lists(
        st.lists(number, min_size=w, max_size=w), min_size=1, max_size=7)))
    def test_same_verdicts_and_combinations(self, matrix):
        new, old = IncrementalRank(len(matrix[0])), ref.IncrementalRank(len(matrix[0]))
        for row in matrix:
            probe = new.depends(row)
            got, want = new.add(row), old.add(row)
            assert got == want
            assert probe == got[0]
            assert_exact(got)
        assert new.rank == old.rank

    def test_copy_is_independent(self):
        a = IncrementalRank(2)
        a.add([1, 0])
        b = a.copy()
        assert b.add([0, 1]) == (False, None)
        assert a.rank == 1 and b.rank == 2
        assert a.add([0, 2]) == (False, None)       # a never saw b's row
