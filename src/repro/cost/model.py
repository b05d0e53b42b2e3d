"""Cost estimation for enumeration plans (paper Figure 11).

The grammar of costs mirrors the paper's:

    Cost(for iterator { S })          = EnumCost(iterator) * Cost(S)
    Cost(common enum of itr1, itr2)   = CommonEnumCost(itr1, itr2) * Cost(S)
    Cost(search + S)                  = SearchCost + Cost(S)
    Cost(guard)                       = 1
    Cost(S1; S2)                      = Cost(S1) + Cost(S2)

``EnumCost`` depends on whether the enumeration direction is supported by
the format (stored order), realized by interval counting + search, or by
gather-and-sort; ``SearchCost`` on the search capability of the axis
(direct / binary / linear); ``CommonEnumCost`` on how the member references
are combined (shared state is free, searches pay per value).

Because the compiler runs against a concrete matrix instance, trip counts
come from the instance itself — the sizes of its declared levels — not
from symbolic guesses.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.plan import (
    ExecNode,
    IntervalEnum,
    LoopNode,
    Plan,
    PlanNode,
    SEARCH,
    SearchEnum,
    SortedEnum,
    StoredEnum,
    VarLoopNode,
)
from repro.cost import params as P
from repro.formats.base import SparseFormat
from repro.formats.views import BINARY, DIRECT


#: guards creation of the per-instance memo dict and insertion into it
#: (same pattern as the FM/pair memos); lookups stay lock-free ``dict.get``
_STEP_TOTALS_LOCK = threading.Lock()


def step_totals(fmt: SparseFormat, path_id: str) -> List[float]:
    """Total number of (key, state) pairs produced at each step of a path,
    summed over all prefixes — e.g. CSR "rows": [m, nnz] — read from the
    path's declared levels in closed form (:meth:`LevelRuntime.totals`).

    Memoized per format *instance* (instances are immutable once built).
    Insertion is locked: concurrent auto-mode selections share instances,
    and an unguarded ``__dict__.setdefault`` race could hand two threads
    two different memo dicts, losing one's entries.  First writer wins, so
    every caller converges on one shared list per path."""
    cache: Optional[Dict[str, List[float]]] = fmt.__dict__.get(
        "_step_totals_cache")
    if cache is not None:
        hit = cache.get(path_id)
        if hit is not None:
            return hit
    computed = fmt.runtime(path_id).totals()
    with _STEP_TOTALS_LOCK:
        cache = fmt.__dict__.setdefault("_step_totals_cache", {})
        return cache.setdefault(path_id, computed)


def _width(fmt: SparseFormat, path_id: str, step: int) -> float:
    """Entries a step yields per state of the step enclosing it."""
    totals = step_totals(fmt, path_id)
    return totals[step] / max(1.0, totals[step - 1] if step > 0 else 1.0)


def _search_cost(fmt: SparseFormat, path_id: str, step: int) -> float:
    avg_width = _width(fmt, path_id, step)
    cost = 0.0
    for a in fmt.path(path_id).steps[step].axes:
        if a.search == DIRECT or a.interval:
            cost += P.SEARCH_DIRECT
        elif a.search == BINARY:
            cost += P.SEARCH_BINARY_PER_LOG * max(1.0, math.log2(max(2.0, avg_width)))
        else:
            cost += P.SEARCH_LINEAR_PER_ENTRY * avg_width
    return cost


def plan_cost(plan: Plan, param_values: Optional[Mapping[str, int]],
              fmts: Mapping[str, SparseFormat]) -> float:
    """Estimated execution cost of a plan on the matrix instances ``fmts``
    (array name -> instance).  A plan holds its formats' structure only;
    the statistics come from ``fmts`` — the search's bindings, or a new
    matrix's when the compilation cache re-ranks a structurally-identical
    cached plan without rebuilding it."""
    coster = _PlanCoster(param_values, fmts)
    return sum(coster.node_cost(n) for n in plan.nodes)


class _PlanCoster:
    """Figure 11's cost grammar over one plan's nodes (see
    :func:`plan_cost` for the arguments)."""

    __slots__ = ("param_values", "fmts")

    def __init__(self, param_values, fmts):
        self.param_values = dict(param_values or {})
        self.fmts = fmts

    def loop_stats(self, method) -> Tuple[float, float]:
        """(trips per visit, per-trip enumeration cost)."""
        fmt, step = self.fmts[method.driver.array], method.step
        path_id = method.driver.path.path_id
        width = _width(fmt, path_id, step)
        if isinstance(method, StoredEnum):
            return width, P.ENUM_VISIT
        if isinstance(method, SortedEnum):
            logw = max(1.0, math.log2(max(2.0, width)))
            return width, P.ENUM_VISIT + P.SORT_GATHER + logw
        if isinstance(method, SearchEnum):
            # one search; at most one trip survives
            return 1.0, _search_cost(fmt, path_id, step)
        if isinstance(method, IntervalEnum):
            # the counter walks the whole axis range; hits are `width`
            axes = method.driver.path.steps[step].names
            ar = fmt.axis_range(axes[0]) if axes else None
            span = float(ar[1] - ar[0]) if ar else width
            search = _search_cost(fmt, path_id, step)
            # cost charged per *hit*: amortize counter steps over hits
            per_hit = search + P.INTERVAL_STEP * span / max(1.0, width)
            return width, per_hit
        raise TypeError(f"unknown method {method!r}")

    def node_cost(self, node: PlanNode) -> float:
        if isinstance(node, ExecNode):
            return P.EXEC_COST + P.GUARD_COST * len(node.guards)
        if isinstance(node, VarLoopNode):
            lo = _eval_guess(node.lo, self.param_values)
            hi = _eval_guess(node.hi, self.param_values)
            trips = max(0.0, hi - lo)
            body = sum(self.node_cost(c) for c in node.body)
            return trips * (P.BIND_COST * len(node.binds) + body)
        if isinstance(node, LoopNode):
            trips, per_trip = self.loop_stats(node.method)
            search = sum(_search_cost(self.fmts[role.ref.array],
                                      role.ref.path.path_id, role.step)
                         for role in node.roles if role.role == SEARCH)
            body = sum(self.node_cost(c) for c in node.body)
            before = sum(self.node_cost(c) for c in node.before)
            after = sum(self.node_cost(c) for c in node.after)
            per_iter = per_trip + search + P.BIND_COST * len(node.binds) + body
            return before + after + trips * per_iter
        raise TypeError(f"unknown node {node!r}")


def _eval_guess(expr, param_values: Mapping[str, int]) -> float:
    """Evaluate a bound expression, treating unbound (inner) variables as 0
    — a crude but monotone estimate for data-dependent trip counts."""
    total = float(expr.const)
    for v in expr.variables():
        total += float(expr.coeff(v)) * float(param_values.get(v, 0))
    return total
