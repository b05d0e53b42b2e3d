"""Parallelism analysis over enumeration plans.

A product dimension is *DOALL* when no dependence class can have a non-zero
delta there with an all-zero prefix — its iterations can run in any order,
hence concurrently.  This is the same first-nonzero machinery that decides
enumeration directions (paper Section 4.1): a dimension with no direction
requirement is exactly an order-free dimension.

Two flavours:

- ``strict`` — reductions are *not* relaxed: concurrent iterations would
  race on the accumulator, so MVM's row dimension is DOALL but its column
  dimension is not;
- ``atomic`` — reductions relaxed (each read-modify-write assumed atomic):
  what a ``#pragma omp parallel for`` with atomic/reduction clauses could
  exploit.  Analysis output only: generated code parallelizes the strict
  loops and nothing else (atomic accumulation measured 3-10x slower than
  the sequential loop on CSC/COO ``mvm`` and reassociates the sums).

Every loop of the generated kernel carries the plan dimensions it
enumerates, so :meth:`ParallelReport.verdict` is the single place a loop's
OpenMP treatment is decided; :func:`annotate_c_source` shows the result —
the C translation unit with pragmas on the DOALL loops, exactly what
``backend="c", parallel="strict"`` hands to the compiler.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from repro.analysis.dependence import DependenceClass
from repro.core.embedding import analyze_order
from repro.core.plan import Plan


class ParallelReport:
    """Which plan dimensions are order-free."""

    def __init__(self, strict: Set[str], atomic: Set[str], all_dims: List[str]):
        #: dimensions safe to parallelize with no synchronization
        self.strict = strict
        #: dimensions safe given atomic accumulations
        self.atomic = atomic
        self.all_dims = all_dims

    def classify(self, dim_name: str) -> str:
        if dim_name in self.strict:
            return "doall"
        if dim_name in self.atomic:
            return "doall-atomic"
        return "sequential"

    def verdict(self, dims: Sequence[str], flavour: str) -> str:
        """How a loop enumerating the plan dimensions ``dims`` may run
        under ``parallel=flavour``: ``"par"`` (strict DOALL) or ``"seq"``.
        Loops that enumerate no plan dimension (introduced by a transform)
        are sequential."""
        if dims and flavour == "strict" and all(d in self.strict for d in dims):
            return "par"
        return "seq"

    def __repr__(self):
        rows = [f"  {d}: {self.classify(d)}" for d in self.all_dims]
        return "ParallelReport(\n" + "\n".join(rows) + "\n)"


def analyze_parallelism(plan: Plan, deps: Sequence[DependenceClass]) -> ParallelReport:
    """Classify every product dimension of a plan."""
    space, emb = plan.space, plan.emb
    dims = [d.name for d in space.dims]

    def free_dims(relax: bool) -> Set[str]:
        oa = analyze_order(emb, deps, relax_reductions=relax)
        if not oa.legal:
            return set()
        constrained = set(oa.directions)
        return {dims[i] for i in range(len(dims)) if i not in constrained}

    return ParallelReport(free_dims(False), free_dims(True), dims)


def parallel_loop_names(plan: Plan, deps: Sequence[DependenceClass],
                        flavour: str = "strict") -> Set[str]:
    """Names of plan dimensions whose loops may run concurrently."""
    rep = analyze_parallelism(plan, deps)
    return rep.strict if flavour == "strict" else rep.atomic


def annotate_c_source(kernel, flavour: str = "strict") -> str:
    """The C translation unit of a compiled kernel with OpenMP pragmas on
    the loops :meth:`ParallelReport.verdict` allows under ``flavour``
    (``"strict"`` or ``"none"``).

    ``kernel`` is a :class:`~repro.core.compiler.CompiledKernel`.  A kernel
    that has no C lowering (sorted enumerations, user-defined formats) gets
    a comment naming its DOALL dimensions and the reason instead."""
    from repro.codegen.native import NativeLoweringError, lower_kernel

    try:
        return lower_kernel(kernel, flavour).c_source
    except NativeLoweringError as e:
        report = kernel.parallel_report()
        doall = sorted(d for d in report.all_dims if d in report.strict)
        return (f"/* DOALL dimensions ({flavour}): "
                f"{', '.join(doall) if doall else 'none'} */\n"
                f"/* no C lowering: {e} */")
