"""What one search knows about its statement copies, built once.

Every candidate of a path choice shares that choice's statement copies, and
most of what candidate generation, legality and plan construction ask about
a copy depends on the copy alone: its access relation, its guarded domain,
the determinacy its relation equalities imply, the value range of an
expression over its instances, its loop bounds, and the polyhedron of a
dependence class between two copies.  :class:`SearchFacts` builds each of
them on first use and hands the same value to every later candidate.

A table belongs to one :func:`repro.search.search` call and is dropped when
the search returns.  It is keyed by object identity and holds strong
references, so it must not outlive the search: a process-wide table keeps
every copy of every search alive (a tracker refers back to its copy), and
memo slots on the copies would change what the disk cache pickles (an
entry pickled before them would no longer load).  Values are shared
read-only: a ``System`` is immutable, trackers are cloned before they are
pinned, and guard lists are handed out fresh
(:meth:`repro.core.plan.Plan.simplify_guards` rewrites them in place).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.core import embedding
from repro.core.redundancy import DeterminacyTracker
from repro.core.spaces import StmtCopy, copy_var_bounds
from repro.polyhedra.fm import bounds_of, is_feasible
from repro.polyhedra.linexpr import LinExpr
from repro.polyhedra.system import System


class SearchFacts:
    """Per-copy facts of one search, each built once.

    ``param_values`` are the concrete sizes the search runs at; they are
    substituted for the value ranges of :meth:`expr_range`.
    ``pair_results`` is the legality memo of
    :func:`repro.core.embedding.analyze_order`."""

    __slots__ = ("params", "pair_results", "_relation", "_guards", "_tracker",
                 "_instances", "_range", "_bounds", "_pair", "_determined")

    def __init__(self, param_values: Optional[Mapping[str, int]] = None):
        self.params = {p: LinExpr.constant(v)
                       for p, v in (param_values or {}).items()}
        self.pair_results: Dict[Tuple, Tuple] = {}
        self._relation: Dict[StmtCopy, System] = {}
        self._guards: Dict[StmtCopy, Tuple[LinExpr, ...]] = {}
        self._tracker: Dict[StmtCopy, DeterminacyTracker] = {}
        self._instances: Dict[StmtCopy, Optional[System]] = {}
        self._range: Dict[Tuple[StmtCopy, LinExpr], Tuple] = {}
        self._bounds: Dict[StmtCopy, Dict[str, Tuple[LinExpr, LinExpr]]] = {}
        self._pair: Dict[Tuple, System] = {}
        self._determined: Dict[Tuple, bool] = {}

    def relation(self, copy: StmtCopy) -> System:
        """The copy's domain and reference relations (:meth:`StmtCopy.relation`)."""
        rel = self._relation.get(copy)
        if rel is None:
            rel = self._relation[copy] = copy.relation()
        return rel

    def guards(self, copy: StmtCopy) -> List[LinExpr]:
        """The loop-bound inequalities that guard the copy's execution, as
        a fresh list.  Axis ranges are guaranteed by the enumerations
        themselves and bounds annotations are promises about the stored
        structure, so only the domain guards."""
        guards = self._guards.get(copy)
        if guards is None:
            ctx = copy.ctx
            dom = ctx.domain().rename(
                {ctx.qualified(v): copy.qual(v) for v in ctx.vars})
            guards = self._guards[copy] = tuple(
                c.expr for c in dom.inequalities())
        return list(guards)

    def tracker(self, copy: StmtCopy) -> DeterminacyTracker:
        """The copy's tracker with nothing pinned.  Shared: clone before
        pinning."""
        tracker = self._tracker.get(copy)
        if tracker is None:
            tracker = self._tracker[copy] = DeterminacyTracker(
                copy, self.relation(copy))
        return tracker

    def determined(self, copy: StmtCopy, pins: Tuple[LinExpr, ...],
                   expr: LinExpr) -> bool:
        """Whether the copy's tracker, pinned at ``pins``, determines
        ``expr``."""
        key = (copy, pins, expr)
        hit = self._determined.get(key)
        if hit is None:
            tracker = self.tracker(copy).clone()
            for pin in pins:
                tracker.pin(pin)
            hit = self._determined[key] = tracker.is_determined(expr)
        return hit

    def var_bounds(self, copy: StmtCopy) -> Dict[str, Tuple[LinExpr, LinExpr]]:
        """:func:`repro.core.spaces.copy_var_bounds` of the copy."""
        bounds = self._bounds.get(copy)
        if bounds is None:
            bounds = self._bounds[copy] = copy_var_bounds([copy])
        return bounds

    def expr_range(self, copy: StmtCopy, expr: LinExpr) -> Tuple:
        """Numeric (min, max) of ``expr`` over the copy's instances at the
        search's sizes; ``(0, -1)`` when the copy has no instances."""
        key = (copy, expr)
        rng = self._range.get(key)
        if rng is None:
            if copy in self._instances:
                inst = self._instances[copy]
            else:
                inst = self.relation(copy).substitute(self.params)
                if not is_feasible(inst):
                    inst = None
                self._instances[copy] = inst
            if inst is None:
                rng = (0, -1)   # empty instance set: trivially covered
            else:
                rng = bounds_of(inst, expr.substitute(self.params))
            self._range[key] = rng
        return rng

    def pair(self, dep, src_copy: StmtCopy, dst_copy: StmtCopy) -> System:
        """:func:`repro.core.embedding.pair_polyhedron` of the two copies."""
        key = (dep, src_copy, dst_copy)
        poly = self._pair.get(key)
        if poly is None:
            poly = self._pair[key] = embedding.pair_polyhedron(
                dep, src_copy, dst_copy,
                self.relation(src_copy), self.relation(dst_copy))
        return poly
