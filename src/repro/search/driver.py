"""Search driver: generate candidates, filter by legality, lower to plans,
keep each plan once, rank by estimated cost, keep the best (paper Section
4.2's enumerate-estimate-select, with the Section 4.3 heuristics inside the
generator)."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.dependence import DependenceClass, dependences
from repro.core.embedding import analyze_order
from repro.core.facts import SearchFacts
from repro.core.plan import Plan, PlanError, build_plan
from repro.cost.model import plan_cost
from repro.formats.base import SparseFormat
from repro.instrument import INSTR
from repro.ir.program import Program
from repro.search.candidates import Candidate, generate_candidates


class SearchStats:
    """Bookkeeping the benchmarks report (search-space table).

    Beyond the candidate funnel (generated → legal → lowered → distinct
    plans) this carries
    the per-search instrumentation deltas: phase timings (seconds) and the
    Fourier–Motzkin / pair-memo counter movement attributable to this
    search, plus cache provenance (``from_cache``/``reranked``) filled in
    by the compilation cache when it serves a memoized result."""

    def __init__(self):
        self.generated = 0
        self.legal = 0
        self.lowered = 0
        self.distinct = 0
        self.costs: List[float] = []
        self.timings: Dict[str, float] = {}
        self.fm_eliminations = 0
        self.pair_cache_hits = 0
        self.from_cache = False
        self.reranked = False

    def clone(self) -> "SearchStats":
        out = SearchStats()
        out.generated = self.generated
        out.legal = self.legal
        out.lowered = self.lowered
        out.distinct = self.distinct
        out.costs = list(self.costs)
        out.timings = dict(self.timings)
        out.fm_eliminations = self.fm_eliminations
        out.pair_cache_hits = self.pair_cache_hits
        out.from_cache = self.from_cache
        out.reranked = self.reranked
        return out

    def __repr__(self):
        extra = ", from_cache=True" if self.from_cache else ""
        return (f"SearchStats(generated={self.generated}, legal={self.legal}, "
                f"lowered={self.lowered}, distinct={self.distinct}{extra})")


class SearchResult:
    def __init__(self, plan: Plan, cost: float, candidate: Candidate,
                 stats: SearchStats, ranked: List[Tuple[float, Candidate, Plan]]):
        self.plan = plan
        self.cost = cost
        self.candidate = candidate
        self.stats = stats
        self.ranked = ranked  # every distinct lowered plan, best first


def search(
    program: Program,
    bindings: Mapping[str, SparseFormat],
    deps: Optional[Sequence[DependenceClass]] = None,
    param_values: Optional[Mapping[str, int]] = None,
    pick: str = "best",
) -> SearchResult:
    """Find a plan for the program under the given format bindings.

    ``pick`` selects the returned plan: "best" (lowest estimated cost),
    "worst" (highest — the cost-model ablation), or "first" (first legal,
    ignoring the cost model).

    What the candidates share (per-copy relations, guards, trackers, value
    ranges, loop bounds and pair polyhedra) is built once, in a
    :class:`~repro.core.facts.SearchFacts` table that lives as long as this
    call.  Plans are built over a :meth:`~repro.formats.base.SparseFormat.
    stand_in` of each instance; only the cost model reads ``bindings``.

    Candidates whose plans print alike are one plan: it is costed and
    ranked once, under its first candidate, whose ``twins`` list the
    others.  The cost model reads only what ``Plan.pretty()`` prints and
    the number of binds, so such plans cost alike under any statistics and
    a re-rank loses nothing by keeping one.
    """
    # thread-local deltas: concurrent searches in sibling threads (the
    # daemon's request pool) must not pollute this search's attribution
    before = INSTR.thread_snapshot()
    with INSTR.phase("search.total"):
        if deps is None:
            with INSTR.phase("search.dependences"):
                deps = dependences(program)
        stats = SearchStats()
        lowered: List[Tuple[float, Candidate, Plan]] = []
        facts = SearchFacts(param_values)
        # plan text -> the first candidate that lowered to it
        firsts: Dict[str, Candidate] = {}

        # one stand-in per instance: refs to one matrix share it
        stand_ins = {id(fmt): fmt.stand_in() for fmt in bindings.values()}
        structure = {k: stand_ins[id(fmt)] for k, fmt in bindings.items()}
        for cand in generate_candidates(program, structure, deps,
                                        facts=facts):
            stats.generated += 1
            INSTR.count("search.candidates.generated")
            with INSTR.phase("search.legality"):
                order = analyze_order(cand.emb, deps, facts=facts)
            if not order.legal:
                continue
            stats.legal += 1
            INSTR.count("search.candidates.legal")
            try:
                with INSTR.phase("search.lowering"):
                    plan = build_plan(cand.space, cand.emb, order, facts)
                    first = firsts.setdefault(plan.pretty(), cand)
            except PlanError:
                continue
            stats.lowered += 1
            INSTR.count("search.candidates.lowered")
            if first is not cand:
                first.twins.append(cand.descr)
                continue
            stats.distinct += 1
            with INSTR.phase("search.costing"):
                cost = plan_cost(plan, param_values, fmts=bindings)
            stats.costs.append(cost)
            lowered.append((cost, cand, plan))
            if pick == "first":
                break

        if not lowered:
            raise PlanError(
                f"no legal plan found for {program.name} with bindings "
                f"{ {k: v.format_name for k, v in bindings.items()} }"
            )
        lowered.sort(key=lambda t: t[0])
        if pick == "worst":
            cost, cand, plan = lowered[-1]
        else:
            cost, cand, plan = lowered[0]
    after = INSTR.thread_snapshot()
    delta_counts = {
        k: after["counters"].get(k, 0) - before["counters"].get(k, 0)
        for k in after["counters"]
    }
    stats.fm_eliminations = delta_counts.get("fm.eliminations", 0)
    stats.pair_cache_hits = (delta_counts.get("pair.local_hits", 0)
                             + delta_counts.get("pair.memo_hits", 0))
    stats.timings = {
        k: after["timers"].get(k, 0.0) - before["timers"].get(k, 0.0)
        for k in after["timers"]
        if k.startswith("search.")
        and after["timers"].get(k, 0.0) - before["timers"].get(k, 0.0) > 0.0
    }
    return SearchResult(plan, cost, cand, stats, lowered)
