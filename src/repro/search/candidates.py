"""Candidate generation: the search space of paper Section 4.2, pruned by
the heuristics of Section 4.3.

A candidate is a (product space, embedding) pair.  The generator branches
on exactly the choices the paper identifies:

1. the access structure (perspective) used by each sparse reference, per
   aggregation branch — the "four groups of product spaces" of the running
   example;
2. the order of the data-dimension chains (only data-centric orders, and
   only orders consistent with each path's nesting — Section 4.3's
   restrictions);
3. for each statement and each *foreign* data dimension: a common
   enumeration with a matching dimension (an alignment implied by a
   dependence class), or placement before/after the enumeration —
   Section 4.3's "just three per dimension".

Iteration dimensions always follow all data dimensions (data-centric
execution order) and take the canonical embedding (own variable /
alignment / BEFORE) without branching.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.dependence import DependenceClass, DST, SRC
from repro.core.embedding import AFTER, AT, BEFORE, DimEmbedding, SpaceEmbedding
from repro.core.facts import SearchFacts
from repro.core.spaces import ProductDim, ProductSpace, SparseRef, StmtCopy, build_copies
from repro.formats.base import SparseFormat
from repro.ir.program import Program
from repro.polyhedra.fm import bounds_of, is_feasible
from repro.polyhedra.linexpr import LinExpr
from repro.polyhedra.system import System


class Candidate:
    """One point of the search space, ready for legality analysis."""

    __slots__ = ("space", "emb", "descr")

    def __init__(self, space: ProductSpace, emb: SpaceEmbedding, descr: str):
        self.space = space
        self.emb = emb
        self.descr = descr

    def __repr__(self):
        return f"Candidate({self.descr})"


def _path_choices(program: Program, bindings: Mapping[str, SparseFormat],
                  same_matrix_same_path: bool = True):
    """All combinations of (access, branch) -> path id.

    With ``same_matrix_same_path`` (the paper's Section 4.3 heuristic —
    "use a single enumeration of a sparse matrix"), all references to the
    same matrix choose one perspective together; disabling it restores the
    full cross product (used by the search-space benchmark)."""
    from repro.analysis.accesses import collect_accesses

    slots: List[Tuple[Tuple, List[str]]] = []   # (access key, path ids)
    shared: Dict[Tuple, List[Tuple]] = {}       # (fmt id, branch) -> access keys
    for acc in collect_accesses(program):
        if acc.array not in bindings:
            continue
        fmt = bindings[acc.array]
        for br in fmt.union_branches():
            pids = [p.path_id for p in fmt.paths() if p.branch == br]
            key = (acc.stmt_name, acc.ref_id, br)
            if same_matrix_same_path:
                shared.setdefault((id(fmt), br), []).append((key, pids))
            else:
                slots.append((key, pids))
    if same_matrix_same_path:
        group_keys = list(shared)
        pid_lists = [shared[g][0][1] for g in group_keys]
        for combo in itertools.product(*pid_lists) if group_keys else [()]:
            choice = {}
            for g, pid in zip(group_keys, combo):
                for key, _pids in shared[g]:
                    choice[key] = pid
            yield choice
        return
    if not slots:
        yield {}
        return
    keys = [k for k, _ in slots]
    for combo in itertools.product(*[pids for _, pids in slots]):
        yield dict(zip(keys, combo))


def _interleave_blocks(chains: List[List[object]], cap: int) -> Iterator[Tuple[object, ...]]:
    """Interleavings of the chains' blocks preserving each chain's internal
    order, capped."""
    if not chains:
        return iter([()])
    pool = [list(c) for c in chains]
    return itertools.islice(_interleavings(pool, [0] * len(pool), []), cap)


def _interleavings(pool: List[List[object]], cursors: List[int],
                   acc: List[object]) -> Iterator[Tuple[object, ...]]:
    """Every interleaving that extends ``acc``, depth first."""
    if all(cursors[i] >= len(pool[i]) for i in range(len(pool))):
        yield tuple(acc)
        return
    for i in range(len(pool)):
        if cursors[i] < len(pool[i]):
            cursors[i] += 1
            acc.append(pool[i][cursors[i] - 1])
            yield from _interleavings(pool, cursors, acc)
            acc.pop()
            cursors[i] -= 1


def _alignment_exprs(
    copy: StmtCopy,
    owner_copy: StmtCopy,
    canonical: str,
    deps: Sequence[DependenceClass],
    facts: SearchFacts,
    cache: Optional[Dict] = None,
) -> List[LinExpr]:
    """Variables of ``copy`` provably equal to the dimension's canonical
    variable of ``owner_copy`` in some dependence class connecting the two
    statements (in either orientation)."""
    if cache is not None:
        ck = (copy.label, owner_copy.label, canonical)
        if ck in cache:
            return cache[ck]

    out: List[LinExpr] = []
    seen = set()
    for dep in deps:
        orientations = []
        if dep.src.name == copy.name and dep.dst.name == owner_copy.name:
            orientations.append((copy, owner_copy, SRC, DST))
        if dep.src.name == owner_copy.name and dep.dst.name == copy.name:
            orientations.append((owner_copy, copy, SRC, DST))
        for a, b, pa, pb in orientations:
            poly = facts.pair(dep, a, b)
            if not is_feasible(poly):
                continue
            copy_prefix = pa if a is copy else pb
            owner_prefix = pa if a is owner_copy else pb
            canon_q = owner_prefix + canonical
            for v in copy.iter_vars():
                vq = copy_prefix + v
                if v in seen:
                    continue
                try:
                    lo, hi = bounds_of(poly, LinExpr({canon_q: 1, vq: -1})
                                       if canon_q != vq else LinExpr({}))
                except ValueError:
                    continue
                if lo == 0 and hi == 0:
                    seen.add(v)
                    out.append(LinExpr.variable(v))
    if cache is not None:
        cache[ck] = out
    return out


def generate_candidates(
    program: Program,
    bindings: Mapping[str, SparseFormat],
    deps: Sequence[DependenceClass],
    max_orders: int = 12,
    max_foreign_branching: int = 4096,
    same_matrix_same_path: bool = True,
    facts: Optional[SearchFacts] = None,
) -> Iterator[Candidate]:
    """Yield candidates in deterministic order.

    ``facts`` is the search's table; the pair polyhedra that decide
    alignments are the ones legality reads later.  Without one, the
    generator builds its own."""
    if facts is None:
        facts = SearchFacts()
    for path_choice in _path_choices(program, bindings, same_matrix_same_path):
        copies = build_copies(program, bindings, path_choice)
        copy_by_label = {c.label: c for c in copies}
        align_cache: Dict = {}

        # fused data chains (blocks of (refs, axis)).  Fusing two members of
        # one statement copy into one dimension conjoins their coordinate
        # constraints on that copy's instances, so same-copy references may
        # only share an enumeration when their index functions coincide
        # (smvm_two's twin A[i][j]); one matrix bound to two operand names
        # with different subscripts (spgemm's A[i][j] * B[j][p2] with A and
        # B the same instance) must enumerate independently or the join
        # collapses to the diagonal.  Refs in *different* copies embed
        # separately and may fuse regardless of subscripts (ts reads
        # L[i][j] and L[i][i] from distinct statements over one traversal).
        groups: Dict[Tuple, List[SparseRef]] = {}
        for copy in copies:
            for ref in copy.refs:
                key = (id(ref.fmt), ref.path.branch, ref.path.path_id)
                groups.setdefault(key, []).append(ref)
        split: Dict[Tuple, List[SparseRef]] = {}
        for key, refs in groups.items():
            per_copy: Dict[str, set] = {}
            for ref in refs:
                per_copy.setdefault(ref.owner_label, set()).add(
                    ref.access.indices)
            if all(len(sigs) == 1 for sigs in per_copy.values()):
                split[key] = refs
            else:
                for ref in refs:
                    split[key + (ref.access.indices,)] = split.get(
                        key + (ref.access.indices,), []) + [ref]
        groups = split

        chains: List[List[List[ProductDim]]] = []  # chain -> blocks -> dims
        gi = 0
        for key in groups:
            refs = groups[key]
            path = refs[0].path
            blocks: List[List[ProductDim]] = []
            for si, step in enumerate(path.steps):
                block: List[ProductDim] = []
                for name in step.names:
                    dim = ProductDim(
                        f"g{gi}.{name}",
                        members=[(r, name) for r in refs],
                    )
                    block.append(dim)
                # joint linkage
                if len(block) > 1:
                    block[0].joint_with = block[1:]
                blocks.append(block)
            chains.append(blocks)
            gi += 1

        # iteration dims: per copy, outer-to-inner
        iter_dims: List[ProductDim] = []
        for copy in copies:
            for v in copy.iter_vars():
                iter_dims.append(ProductDim(f"it.{v}", owner_var=v))

        for order_blocks in _interleave_blocks(chains, cap=max_orders):
            data_dims: List[ProductDim] = []
            for block in order_blocks:
                data_dims.extend(block)
            dims = data_dims + iter_dims
            space = ProductSpace(dims, copies)

            # embeddings: collect choice lists per (copy, dim)
            choice_table: List[List[Tuple[str, DimEmbedding]]] = []
            copy_dim_keys: List[Tuple[str, int]] = []
            fixed: Dict[Tuple[str, int], DimEmbedding] = {}

            for di, dim in enumerate(dims):
                if dim.is_data:
                    owner_labels = {r.owner_label for r, _ in dim.members}
                    for copy in copies:
                        if copy.label in owner_labels:
                            ref = next(r for r, a in dim.members
                                       if r.owner_label == copy.label)
                            axis = next(a for r, a in dim.members
                                        if r.owner_label == copy.label)
                            fixed[(copy.label, di)] = DimEmbedding(
                                AT, LinExpr.variable(ref.axis_var(axis))
                            )
                        else:
                            # alignment may be implied through any member's
                            # owner (a dependence between the two statements)
                            aligns: List[LinExpr] = []
                            for m_ref, m_axis in dim.members:
                                owner_copy = copy_by_label[m_ref.owner_label]
                                for e in _alignment_exprs(
                                        copy, owner_copy, m_ref.axis_var(m_axis),
                                        deps, facts, align_cache):
                                    if e not in aligns:
                                        aligns.append(e)
                            options: List[Tuple[str, DimEmbedding]] = []
                            for e in aligns[:2]:
                                options.append((f"{copy.label}@{dim.name}={e!r}",
                                                DimEmbedding(AT, e)))
                            options.append((f"{copy.label}@{dim.name}=BEFORE",
                                            DimEmbedding(BEFORE)))
                            options.append((f"{copy.label}@{dim.name}=AFTER",
                                            DimEmbedding(AFTER)))
                            choice_table.append(options)
                            copy_dim_keys.append((copy.label, di))
                else:
                    owner = dim.owner_var
                    owner_label = owner.rsplit(".", 1)[0]
                    owner_copy = copy_by_label[owner_label]
                    for copy in copies:
                        if copy.label == owner_label:
                            fixed[(copy.label, di)] = DimEmbedding(
                                AT, LinExpr.variable(owner)
                            )
                        else:
                            aligns = _alignment_exprs(copy, owner_copy, owner,
                                                      deps, facts, align_cache)
                            if aligns:
                                fixed[(copy.label, di)] = DimEmbedding(AT, aligns[0])
                            else:
                                fixed[(copy.label, di)] = DimEmbedding(BEFORE)

            # bound the branching
            total = 1
            for options in choice_table:
                total *= len(options)
            if total > max_foreign_branching:
                choice_table = [opts[:1] if len(opts) > 2 else opts
                                for opts in choice_table]

            for combo in itertools.product(*choice_table) if choice_table else [()]:
                per_copy: Dict[str, List[Optional[DimEmbedding]]] = {
                    c.label: [None] * len(dims) for c in copies
                }
                for (label, di), emb in fixed.items():
                    per_copy[label][di] = emb
                descr_parts = [f"paths={path_choice}"] if path_choice else []
                for (label, di), (tag, emb) in zip(copy_dim_keys, combo):
                    per_copy[label][di] = emb
                    descr_parts.append(tag)
                try:
                    emb = SpaceEmbedding(space, per_copy)
                except ValueError:
                    continue
                order_tag = "|".join(d.name for d in data_dims)
                yield Candidate(space, emb, f"[{order_tag}] " + " ".join(descr_parts))
