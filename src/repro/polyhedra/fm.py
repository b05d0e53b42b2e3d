"""Fourier–Motzkin elimination over exact rationals.

Provides the decision procedures the compiler needs:

- :func:`is_feasible` — emptiness test for a rational polyhedron.  Dependence
  polyhedra contain only integer points with integer-coefficient constraints,
  so rational *in*feasibility soundly proves integer infeasibility; rational
  feasibility is treated conservatively by callers.
- :func:`project` — project a system onto a subset of variables.
- :func:`bounds_of` — exact (rational) lower/upper bounds of an affine
  function over a polyhedron.
- :func:`implied_equalities` — variable pairs forced equal everywhere in the
  polyhedron (used to discover common-enumeration alignments from dependence
  classes, paper Section 4.1).
- :func:`sample_point` — a rational point inside a non-empty polyhedron
  (used by the Farkas machinery to exhibit legal embedding coefficients).

Systems in this compiler are small (≈5–15 variables, tens of constraints),
so the classic doubly-exponential worst case never bites; we still substitute
through equalities first and drop duplicate constraints to keep intermediate
systems tight.

Because the compiler asks the same feasibility/projection questions over and
over (every candidate embedding re-tests largely identical dependence
polyhedra), :func:`is_feasible` and :func:`project` are memoized process-wide
under a *canonical signature* of the system — the frozen set of its
normalized constraints, which is order-insensitive and exact.  The memo is
semantics-preserving (same question, same answer) and bounded; call
:func:`clear_memos` to reset it (tests do).
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.instrument import INSTR
from repro.polyhedra.linexpr import Coeffish, LinExpr
from repro.polyhedra.system import Constraint, System, GE, EQ
from repro.util.fractions_linalg import exact_div

#: an exact bound, or one of the two float sentinels below (the only floats
#: this package ever returns)
Bound = Union[Coeffish, float]
NEG_INF = float("-inf")
POS_INF = float("inf")


# ---------------------------------------------------------------------------
# Process-wide memoization
# ---------------------------------------------------------------------------

#: cap per memo; on overflow the oldest half is dropped (insertion order)
_MEMO_CAP = 1 << 17

_FEASIBLE_MEMO: Dict[FrozenSet, bool] = {}
_PROJECT_MEMO: Dict[Tuple[FrozenSet, FrozenSet], System] = {}

#: guards insertion/eviction (the eviction loop iterates the dict, which a
#: concurrent insert would break); lookups stay lock-free ``dict.get``
_MEMO_LOCK = threading.Lock()


#: canonical, order-insensitive signature of a constraint system: the memo
#: key here and in ``core.embedding``
system_signature = System.signature


def _memo_put(memo: Dict, key, value) -> None:
    with _MEMO_LOCK:
        if len(memo) >= _MEMO_CAP:
            for k in list(itertools.islice(iter(memo), len(memo) // 2)):
                del memo[k]
        memo[key] = value


def clear_memos() -> None:
    """Drop the process-wide feasibility/projection memos."""
    with _MEMO_LOCK:
        _FEASIBLE_MEMO.clear()
        _PROJECT_MEMO.clear()


def _combine(p: int, e1: LinExpr, q: int, e2: LinExpr, kind: str) -> Constraint:
    """The constraint ``p*e1 + q*e2 (>=|==) 0`` of two integer rows, for
    non-zero ints ``p`` and ``q``: fraction-free, normalized once."""
    coeffs = {k: p * c for k, c in e1.coeffs.items()}
    for k, c in e2.coeffs.items():
        total = coeffs.get(k, 0) + q * c
        if total:
            coeffs[k] = total
        else:
            del coeffs[k]
    return Constraint(LinExpr._make(coeffs, p * e1.const + q * e2.const), kind)


def eliminate_variable(system: System, v: str) -> System:
    """Project out variable ``v`` (exact rational projection).

    Constraint rows are integer, and a positive multiple of a constraint is
    the same constraint, so every step is an integer combination that
    cancels ``v``; no quotient is ever formed."""
    INSTR.count("fm.eliminations")
    # Prefer substitution through an equality: no constraint blowup.
    for e in system.constraints:
        a = e.expr.coeffs.get(v) if e.kind == EQ else None
        if a:
            # a*v + rest == 0: scale each row by |a| and subtract the
            # multiple of the equality that cancels its v term
            out = []
            for c in system.constraints:
                b = c.expr.coeffs.get(v)
                if not b:
                    out.append(c)
                elif c is not e:
                    out.append(_combine(abs(a), c.expr, -b if a > 0 else b,
                                        e.expr, c.kind))
            return System(out)
    lowers: List[Constraint] = []
    uppers: List[Constraint] = []
    out = []
    for c in system.constraints:
        a = c.expr.coeffs.get(v, 0)
        if a == 0:
            out.append(c)
        elif a > 0:
            lowers.append(c)
        else:
            uppers.append(c)
    for lo, up in itertools.product(lowers, uppers):
        out.append(_combine(-up.expr.coeffs[v], lo.expr,
                            lo.expr.coeffs[v], up.expr, GE))
    return System(out)


def _elimination_order(system: System, keep: Sequence[str] = ()) -> List[str]:
    """Variables to eliminate, cheapest (fewest lower*upper products) first."""
    keep_set = set(keep)
    counts: Dict[str, List[int]] = {}       # v -> [lower, upper, equality] rows
    for c in system.constraints:
        is_eq = c.kind == EQ
        for v, a in c.expr.coeffs.items():
            if v in keep_set:
                continue
            n = counts.get(v)
            if n is None:
                n = counts[v] = [0, 0, 0]
            n[2 if is_eq else 0 if a > 0 else 1] += 1
    # equality substitution is free-ish; otherwise pair count
    return sorted(counts, key=lambda v: (0 if counts[v][2] else
                                         counts[v][0] * counts[v][1], v))


def project(system: System, keep: Sequence[str]) -> System:
    """Project the polyhedron onto the ``keep`` variables (memoized)."""
    INSTR.count("fm.project.calls")
    key = (system_signature(system), frozenset(keep))
    hit = _PROJECT_MEMO.get(key)
    if hit is not None:
        INSTR.count("fm.project.memo_hits")
        return hit
    cur = system
    while True:
        if cur.has_contradiction:
            break
        todo = _elimination_order(cur, keep)
        if not todo:
            break
        cur = eliminate_variable(cur, todo[0])
    _memo_put(_PROJECT_MEMO, key, cur)
    return cur


def is_feasible(system: System) -> bool:
    """Rational feasibility by full elimination (memoized)."""
    INSTR.count("fm.feasible.calls")
    key = system_signature(system)
    hit = _FEASIBLE_MEMO.get(key)
    if hit is not None:
        INSTR.count("fm.feasible.memo_hits")
        return hit
    result = True
    cur = system
    while True:
        if cur.has_contradiction:
            result = False
            break
        if not cur.variables():
            break
        order = _elimination_order(cur)
        cur = eliminate_variable(cur, order[0])
    _memo_put(_FEASIBLE_MEMO, key, result)
    return result


def bounds_of(system: System, expr: LinExpr) -> Tuple[Bound, Bound]:
    """Exact (inf, sup) of ``expr`` over the rational polyhedron.

    Returns (NEG_INF/POS_INF sentinels for unbounded directions).  If the
    system is infeasible raises ValueError.
    """
    if not is_feasible(system):
        raise ValueError("bounds_of on infeasible system")
    t = "__bound_t__"
    while t in system.variables() or expr.coeff(t) != 0:
        t += "_"
    sys_t = system.and_also(Constraint(LinExpr({t: 1}) - expr, EQ))
    proj = project(sys_t, [t])
    lo: Bound = NEG_INF
    hi: Bound = POS_INF
    for c in proj:
        a = c.expr.coeff(t)
        if a == 0:
            continue
        val = exact_div(-c.expr.const, a)   # a t + b (>=|==) 0 at t = -b/a
        if c.kind == EQ or a > 0:           # t >= -b/a
            lo = val if lo == NEG_INF else max(lo, val)
        if c.kind == EQ or a < 0:           # t <= -b/a
            hi = val if hi == POS_INF else min(hi, val)
    return lo, hi


def implies(system: System, constraint: Constraint) -> bool:
    """Does the polyhedron imply the constraint (over the rationals)?"""
    if not is_feasible(system):
        return True
    lo, hi = bounds_of(system, constraint.expr)
    if constraint.kind == GE:
        return lo != NEG_INF and lo >= 0
    return lo == hi == 0


def implied_equalities(system: System, candidates: Optional[Iterable[Tuple[str, str]]] = None
                       ) -> List[Tuple[str, str]]:
    """Pairs of variables (x, y) with x == y everywhere in the polyhedron."""
    names = system.variables()
    pairs = candidates if candidates is not None else itertools.combinations(names, 2)
    out: List[Tuple[str, str]] = []
    if not is_feasible(system):
        return out
    for x, y in pairs:
        lo, hi = bounds_of(system, LinExpr({x: 1, y: -1}))
        if lo == hi == 0:
            out.append((x, y))
    return out


def sample_point(system: System) -> Optional[Dict[str, Coeffish]]:
    """A rational point satisfying the system, or None if infeasible.

    Classic FM back-substitution: eliminate variables one at a time recording
    the pre-elimination system; then assign values in reverse, picking a point
    in the (guaranteed non-empty) interval each variable is confined to.
    """
    stack: List[Tuple[str, System]] = []
    cur = system
    while True:
        if cur.has_contradiction:
            return None
        names = cur.variables()
        if not names:
            break
        v = _elimination_order(cur)[0]
        stack.append((v, cur))
        cur = eliminate_variable(cur, v)
    env: Dict[str, Coeffish] = {}
    for v, sys_v in reversed(stack):
        lo: Bound = NEG_INF
        hi: Bound = POS_INF
        pinned: Optional[Coeffish] = None
        for c in sys_v:
            a = c.expr.coeff(v)
            if a == 0:
                continue
            for k in c.expr.coeffs:
                # a variable whose every constraint vanished with v's
                # elimination was never eliminated itself: it is free
                if k != v:
                    env.setdefault(k, 0)
            rv = c.expr.evaluate({**env, v: 0})
            if c.kind == EQ:
                pinned = exact_div(-rv, a)
            elif a > 0:
                cand = exact_div(-rv, a)
                lo = cand if lo == NEG_INF else max(lo, cand)
            else:
                cand = exact_div(-rv, a)
                hi = cand if hi == POS_INF else min(hi, cand)
        if pinned is not None:
            env[v] = pinned
            continue
        if lo == NEG_INF and hi == POS_INF:
            env[v] = 0
        elif lo == NEG_INF:
            env[v] = hi - 1
        elif hi == POS_INF:
            env[v] = lo + 1 if lo < 0 else lo
        else:
            env[v] = exact_div(lo + hi, 2)
    # make sure unmentioned-but-requested variables exist
    return env
