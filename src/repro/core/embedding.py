"""Embedding functions and their legality (paper Section 3.1, problem 2).

Each statement copy is embedded into every product-space dimension by a
*(placement, value)* pair:

- placement AT with an affine ``value`` over the copy's variables puts the
  copy's instances inside the dimension's enumeration at that coordinate;
- placement BEFORE / AFTER puts them outside the whole enumeration of that
  dimension (this is how the imperfectly-nested ``b[j] = b[j]/L[j][j]``
  lives outside the inner loop).

Lexicographic comparison therefore works on the expanded vector

    (placement_1, value_1, placement_2, value_2, ..., copy_order)

with the trailing static dimension carrying original program order.
Legality of an embedding demands, for every dependence class and every pair
of copies it connects, that the destination-minus-source delta of this
vector is lexicographically non-negative over the dependence polyhedron
conjoined with both copies' access relations (exact Fourier–Motzkin tests).

The same machinery yields the *enumeration direction* requirements (paper
Section 4.1): a dimension whose value delta can be the first strictly
positive component must be enumerated in increasing order.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.dependence import DependenceClass, DST, SRC
from repro.analysis.reductions import reduction_array
from repro.core.spaces import ProductDim, ProductSpace, StmtCopy
from repro.instrument import INSTR
from repro.polyhedra.lex import first_positive_dims, lex_nonneg
from repro.polyhedra.linexpr import LinExpr
from repro.polyhedra.system import System

BEFORE = -1
AT = 0
AFTER = 1


class DimEmbedding:
    """Embedding of one copy into one product dimension."""

    __slots__ = ("placement", "value")

    def __init__(self, placement: int, value: Optional[LinExpr] = None):
        if placement == AT and value is None:
            raise ValueError("AT placement requires a value expression")
        if placement not in (BEFORE, AT, AFTER):
            raise ValueError(f"bad placement {placement}")
        self.placement = placement
        self.value = value

    def __repr__(self):
        if self.placement == AT:
            return f"@{self.value!r}"
        return "BEFORE" if self.placement == BEFORE else "AFTER"


class SpaceEmbedding:
    """Embeddings of all copies into all dimensions of one product space."""

    def __init__(self, space: ProductSpace,
                 per_copy: Mapping[str, Sequence[DimEmbedding]]):
        self.space = space
        self.per_copy: Dict[str, List[DimEmbedding]] = {
            k: list(v) for k, v in per_copy.items()
        }
        for copy in space.copies:
            embs = self.per_copy.get(copy.label)
            if embs is None or len(embs) != len(space.dims):
                raise ValueError(f"embedding missing/short for copy {copy.label}")
        self.copy_order: Dict[str, int] = {
            c.label: i for i, c in enumerate(space.copies)
        }

    def of(self, copy: StmtCopy, dim_index: int) -> DimEmbedding:
        return self.per_copy[copy.label][dim_index]

    def __repr__(self):
        lines = []
        for c in self.space.copies:
            embs = self.per_copy[c.label]
            lines.append(f"  {c.label}: " + ", ".join(repr(e) for e in embs))
        return "SpaceEmbedding(\n" + "\n".join(lines) + "\n)"


def _prefix_all(system: System, prefix: str) -> System:
    mapping = {v: prefix + v for v in system.variables() if "." in v}
    return system.rename(mapping)


def _prefix_expr(expr: LinExpr, prefix: str) -> LinExpr:
    return expr.rename({v: prefix + v for v in expr.variables() if "." in v})


def pair_polyhedron(dep: DependenceClass, src_copy: StmtCopy, dst_copy: StmtCopy,
                    src_relation: System, dst_relation: System) -> System:
    """Dependence polyhedron restricted to two concrete copies: the class
    system conjoined with both copies' access relations (role-prefixed),
    which the caller passes in (:meth:`StmtCopy.relation`; a search reads
    them from its :class:`~repro.core.facts.SearchFacts`, which also keeps
    the result).

    The class system names instance variables by *statement* (``s$S2.i``);
    copies qualify variables by copy label (``S2[u0].i``), so the class
    variables are renamed onto the copy labels first."""
    rename = {}
    for v in dep.system.variables():
        if v.startswith(SRC + dep.src.name + "."):
            rename[v] = SRC + src_copy.label + v[len(SRC + dep.src.name):]
        elif v.startswith(DST + dep.dst.name + "."):
            rename[v] = DST + dst_copy.label + v[len(DST + dep.dst.name):]
    sys_ = dep.system.rename(rename)
    sys_ = sys_.conjoin(_prefix_all(src_relation, SRC))
    sys_ = sys_.conjoin(_prefix_all(dst_relation, DST))
    return sys_


def _dim_deltas(src_embs: Sequence[DimEmbedding],
                dst_embs: Sequence[DimEmbedding]) -> List[LinExpr]:
    """(placement, value) delta components, one pair per dimension given."""
    deltas: List[LinExpr] = []
    for es, ed in zip(src_embs, dst_embs):
        deltas.append(LinExpr.constant(ed.placement - es.placement))
        if es.placement == AT and ed.placement == AT:
            deltas.append(_prefix_expr(ed.value, DST) - _prefix_expr(es.value, SRC))
        else:
            deltas.append(LinExpr.constant(0))
    return deltas


def pair_deltas(emb: SpaceEmbedding, src_copy: StmtCopy, dst_copy: StmtCopy) -> List[LinExpr]:
    """The expanded delta vector (placement, value per dim, final static)."""
    deltas = _dim_deltas(emb.per_copy[src_copy.label],
                         emb.per_copy[dst_copy.label])
    deltas.append(LinExpr.constant(
        emb.copy_order[dst_copy.label] - emb.copy_order[src_copy.label]
    ))
    return deltas


def _relevant_pairs(space: ProductSpace, dep: DependenceClass):
    for src_copy in space.copies:
        if src_copy.name != dep.src.name:
            continue
        for dst_copy in space.copies:
            if dst_copy.name != dep.dst.name:
                continue
            yield src_copy, dst_copy


def _is_relaxed(dep: DependenceClass) -> bool:
    """Self-dependences of a reduction statement on its accumulator commute
    (see :mod:`repro.analysis.reductions`)."""
    if dep.src.stmt is not dep.dst.stmt:
        return False
    return reduction_array(dep.src.stmt) == dep.array


INC = 1
DEC = -1


class OrderAnalysis:
    """Result of :func:`analyze_order`: per-dimension direction
    requirements (``INC``/``DEC``/None = any), or illegality."""

    __slots__ = ("directions", "legal", "reason")

    def __init__(self, legal: bool, directions: Optional[Dict[int, int]] = None,
                 reason: str = ""):
        self.legal = legal
        self.directions = directions or {}
        self.reason = reason

    def __repr__(self):
        if not self.legal:
            return f"OrderAnalysis(illegal: {self.reason})"
        return f"OrderAnalysis({self.directions})"


def _emb_signature(embs: Sequence[DimEmbedding]) -> Tuple:
    return tuple(
        (e.placement, e.value) for e in embs
    )


#: process-wide memo for :func:`_analyze_pair_core`, keyed by the *content*
#: of the question (canonical polyhedron signature, delta vector, ndims) so
#: identical legality/direction queries are answered once per process even
#: across different searches/programs.  Bounded; cleared by
#: :func:`clear_pair_memo`.
_PAIR_MEMO: Dict[Tuple, Tuple] = {}
_PAIR_MEMO_CAP = 1 << 16

#: guards flush-on-overflow and clear; lookups stay lock-free ``dict.get``
_PAIR_MEMO_LOCK = threading.Lock()


def clear_pair_memo() -> None:
    with _PAIR_MEMO_LOCK:
        _PAIR_MEMO.clear()


def _analyze_pair_core(poly: System, deltas: Sequence[LinExpr], ndims: int):
    """Walk one (polyhedron, delta vector): returns (legal, need_inc,
    need_dec, reason).  Depends only on its arguments' content, so results
    are memoized process-wide under a canonical key."""
    from repro.polyhedra.fm import is_feasible, system_signature
    from repro.polyhedra.system import Constraint, EQ, GE

    INSTR.count("pair.core_calls")
    key = (system_signature(poly), tuple(deltas), ndims)
    hit = _PAIR_MEMO.get(key)
    if hit is not None:
        INSTR.count("pair.memo_hits")
        return hit

    def _memo(result):
        # freeze the direction sets: the memoized tuple is shared across
        # callers and must never be mutated through a returned reference
        result = (result[0], frozenset(result[1]), frozenset(result[2]), result[3])
        with _PAIR_MEMO_LOCK:
            if len(_PAIR_MEMO) >= _PAIR_MEMO_CAP:
                _PAIR_MEMO.clear()
            _PAIR_MEMO[key] = result
        return result

    need_inc: Set[int] = set()
    need_dec: Set[int] = set()
    prefix = poly
    if not is_feasible(prefix):
        return _memo((True, need_inc, need_dec, ""))
    satisfied = False
    for pos, d in enumerate(deltas):
        dim_idx = pos // 2
        if d.is_constant:
            if d.const > 0:
                satisfied = True
                break
            if d.const < 0:
                return _memo((False, need_inc, need_dec,
                              f"static component {pos} is negative"))
            continue
        if is_feasible(prefix.and_also(Constraint(d - 1, GE))):
            need_inc.add(dim_idx)
        if is_feasible(prefix.and_also(Constraint(-d - 1, GE))):
            need_dec.add(dim_idx)
        prefix = prefix.and_also(Constraint(d, EQ))
        if not is_feasible(prefix):
            satisfied = True
            break
    if not satisfied and is_feasible(prefix):
        return _memo((False, need_inc, need_dec,
                      "dependent instances map to the same point"))
    return _memo((True, need_inc, need_dec, ""))


def _analyze_pair(dep, src_copy, dst_copy, emb, ndims, facts):
    """Walk one (class, copy pair): returns (legal, need_inc, need_dec,
    reason).  Independent of the other copies' embeddings, so results are
    cacheable across candidates; delegates to the content-keyed
    :func:`_analyze_pair_core` memo."""
    poly = facts.pair(dep, src_copy, dst_copy)
    deltas = pair_deltas(emb, src_copy, dst_copy)
    legal, need_inc, need_dec, reason = _analyze_pair_core(poly, deltas, ndims)
    if reason:
        reason = f"{dep!r} between {src_copy.label}->{dst_copy.label}: {reason}"
    return legal, need_inc, need_dec, reason


def _own_facts():
    """A table for one call made outside a search."""
    from repro.core.facts import SearchFacts

    return SearchFacts()


def analyze_order(
    emb: SpaceEmbedding,
    deps: Sequence[DependenceClass],
    relax_reductions: bool = True,
    facts=None,
) -> OrderAnalysis:
    """Decide legality and per-dimension enumeration directions together.

    For each dependence class and copy pair we walk the expanded delta
    vector keeping the polyhedron of points whose earlier components are all
    zero.  At each *placement* component (a static constant) a negative
    value with a non-empty prefix kills the embedding, a positive one
    satisfies all remaining points.  At each *value* component we record
    whether the component can be the first positive (requires increasing
    enumeration of that dimension) and/or the first negative (requires
    decreasing).  A dimension required in both directions — or a
    wrong-sign static component — makes the embedding illegal (paper
    Sections 3.1 and 4.1, extended to decreasing enumerations, which
    backward substitutions like upper triangular solve need).

    ``facts`` is the search's :class:`~repro.core.facts.SearchFacts`: its
    pair polyhedra, and its memo of pair results across candidates (a pair
    whose two copies embed alike in two candidates is walked once).
    Without one, the call builds its own.
    """
    if facts is None:
        facts = _own_facts()
    pair_results = facts.pair_results
    ndims = len(emb.space.dims)
    need_inc: Set[int] = set()
    need_dec: Set[int] = set()

    for di, dep in enumerate(deps):
        if relax_reductions and _is_relaxed(dep):
            continue
        for src_copy, dst_copy in _relevant_pairs(emb.space, dep):
            src, dst = src_copy.label, dst_copy.label
            key = (
                di, src, dst,
                _emb_signature(emb.per_copy[src]),
                _emb_signature(emb.per_copy[dst]),
                emb.copy_order[dst] - emb.copy_order[src],
            )
            hit = pair_results.get(key)
            if hit is None:
                hit = _analyze_pair(dep, src_copy, dst_copy, emb, ndims, facts)
                pair_results[key] = hit
            else:
                INSTR.count("pair.local_hits")
            legal, inc, dec, reason = hit
            if not legal:
                return OrderAnalysis(False, reason=reason)
            need_inc |= inc
            need_dec |= dec

    conflict = need_inc & need_dec
    if conflict:
        return OrderAnalysis(
            False,
            reason=f"dimensions {sorted(conflict)} required both increasing and decreasing",
        )
    directions: Dict[int, int] = {}
    for k in need_inc:
        directions[k] = INC
    for k in need_dec:
        directions[k] = DEC
    return OrderAnalysis(True, directions)


def prefix_legal(
    space: ProductSpace,
    per_copy: Mapping[str, Sequence[Optional[DimEmbedding]]],
    upto: int,
    deps: Sequence[DependenceClass],
    facts,
) -> bool:
    """Could an embedding that starts with ``per_copy[label][:upto]`` for
    every copy be legal?  False when a dependent pair's walk already meets
    a negative placement component in those dimensions, or the directions
    they require conflict: :func:`analyze_order` walks the same components
    first and its direction sets only grow past them.  The walk is cut
    with a positive constant in place of the rest, so a pair the prefix
    does not decide counts as satisfied."""
    pair_results = facts.pair_results
    ndims = len(space.dims)
    need_inc: Set[int] = set()
    need_dec: Set[int] = set()
    for di, dep in enumerate(deps):
        if _is_relaxed(dep):
            continue
        for src_copy, dst_copy in _relevant_pairs(space, dep):
            src = per_copy[src_copy.label][:upto]
            dst = per_copy[dst_copy.label][:upto]
            key = ("prefix", di, src_copy.label, dst_copy.label,
                   _emb_signature(src), _emb_signature(dst))
            hit = pair_results.get(key)
            if hit is None:
                deltas = _dim_deltas(src, dst) + [LinExpr.constant(1)]
                hit = pair_results[key] = _analyze_pair_core(
                    facts.pair(dep, src_copy, dst_copy), deltas, ndims)
            legal, inc, dec, _reason = hit
            if not legal:
                return False
            need_inc |= inc
            need_dec |= dec
    return not need_inc & need_dec


def check_legality(
    emb: SpaceEmbedding,
    deps: Sequence[DependenceClass],
    relax_reductions: bool = True,
) -> bool:
    """Legality under all-increasing enumeration (the paper's base case);
    cross-checkable against :func:`analyze_order`."""
    facts = _own_facts()
    for dep in deps:
        if relax_reductions and _is_relaxed(dep):
            continue
        for src_copy, dst_copy in _relevant_pairs(emb.space, dep):
            poly = facts.pair(dep, src_copy, dst_copy)
            deltas = pair_deltas(emb, src_copy, dst_copy)
            if not lex_nonneg(poly, deltas):
                return False
    return True


def required_directions(
    emb: SpaceEmbedding,
    deps: Sequence[DependenceClass],
    relax_reductions: bool = True,
) -> Set[int]:
    """Dimensions that must be enumerated in increasing order, assuming
    all-increasing legality holds (paper Section 4.1)."""
    ndims = len(emb.space.dims)
    facts = _own_facts()
    required: Set[int] = set()
    for dep in deps:
        if relax_reductions and _is_relaxed(dep):
            continue
        for src_copy, dst_copy in _relevant_pairs(emb.space, dep):
            poly = facts.pair(dep, src_copy, dst_copy)
            deltas = pair_deltas(emb, src_copy, dst_copy)
            for pos in first_positive_dims(poly, deltas):
                if pos < 2 * ndims and pos % 2 == 1:
                    required.add(pos // 2)
    return required
