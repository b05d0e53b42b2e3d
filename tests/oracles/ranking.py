"""Format selection by building every candidate: the ranking
``select_format(mode="model")`` made before it sized candidates instead of
building them (``tests/test_size_pass.py`` holds the size pass to it).

Each candidate is built from the canonical triples by its
``_from_canonical_coo`` (the input itself when it is of the format),
compiled from scratch as far as its plan (``cache="off"``) and ranked by
its Figure 11 cost, candidate order breaking ties; a build that refuses
the matrix, and a format with no legal plan, are reported after the
ranked ones."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.compiler import compile_kernel
from repro.core.plan import PlanError
from repro.formats.base import coo_dedup_sort
from repro.formats.convert import FORMATS


def rank_by_building(program, array_name, matrix, candidates, **convert_kwargs
                     ) -> List[Tuple[str, Optional[float], Optional[str]]]:
    """``(format, model cost, error)`` per candidate, best first."""
    rows, cols, vals = coo_dedup_sort(*matrix.to_coo_arrays(), matrix.shape)
    bounds = matrix.bounds()
    ranked, failed = [], []
    for name in candidates:
        cls = FORMATS[name]
        kw = convert_kwargs if name == "bsr" else {}
        try:
            if cls is type(matrix) and not kw:
                inst = matrix
            else:
                inst = cls._from_canonical_coo(rows, cols, vals, matrix.shape, **kw)
                if bounds is not None:
                    inst.annotate_bounds(bounds)
        except (ValueError, MemoryError) as e:
            failed.append((name, None, f"inapplicable: {str(e) or type(e).__name__}"))
            continue
        try:
            kernel = compile_kernel(program, {array_name: inst}, cache="off",
                                    bind=False)
        except PlanError as e:
            failed.append((name, None, str(e)))
            continue
        ranked.append((name, float(kernel.cost), None))
    ranked.sort(key=lambda t: t[1])
    return ranked + failed
