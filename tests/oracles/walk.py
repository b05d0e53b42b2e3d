"""The entry-by-entry reference of the cost model's step totals: walk
every stored entry of a path through its runtime's ``enumerate`` and count
what each step yields.  :meth:`repro.formats.base.LevelRuntime.totals`
sums the same numbers in closed form from the declaration."""

from __future__ import annotations

from typing import List


def walk_totals(rt) -> List[float]:
    """The ``(key, state)`` pairs each step yields, summed over every
    prefix (CSR "rows": ``[m, nnz]``), by walking every stored entry."""
    totals, stack = [0.0] * len(rt.path.steps), [()]
    while stack:                    # depth first: no last-level prefix kept
        prefix = stack.pop()
        for _keys, st in rt.enumerate(len(prefix), prefix):
            totals[len(prefix)] += 1
            if len(prefix) + 1 < len(totals):
                stack.append(prefix + (st,))
    return totals
