"""Automatic sparse-format selection — the paper's Section 6 extension.

The paper sketches two routes:

1. "make the compiler responsible for making this selection using cost
   estimation rules like the ones described in Section 4" — the ``model``
   mode: compile the kernel for every candidate format and rank by the
   Figure 11 cost estimate;
2. "an empirical optimization approach similar to that used in the ATLAS
   system — the system generates code for a variety of promising formats,
   and determines experimentally which one gives the best performance" —
   the ``empirical`` mode: run each generated kernel on a caller-supplied
   workload and rank by measured time.

``mode="auto"`` combines them into structure-adaptive autotuning: rank
every candidate analytically, micro-benchmark only the top-k
(``REPRO_AUTOTUNE_TOPK``) on a synthetic workload, and cache the measured
winner keyed by the matrix's quantized structure signature
(:mod:`repro.search.features`).  A later selection over any matrix of the
same structure class replays the cached winner — it builds and compiles
one format instead of nine and runs zero measurements (the compile cache
makes the one compile a lookup too).  Concurrent selections of one
structure class tune once (:mod:`repro.search.autotune` single-flight).
(Winner records written while ``opt`` was a search axis carry a ``tier``
field; they replay with it ignored.)

Ranking builds nothing it rejects: every candidate is sized from the
canonical triples (:meth:`~repro.formats.base.SparseFormat.sized`, a
data-free stand-in carrying the step totals the cost model reads), and
compiled on that as far as its plan and Figure 11 cost.  Only a candidate
that is measured, or returned as ``SelectionResult.best``, is built —
``SelectionResult.instances`` builds any other on first access — and only
those are bound natively.

``model`` and ``auto`` return every candidate (formats with no legal plan
are reported, not hidden), ranked best first; a cache-served ``auto``
selection reports only the winner and sets ``SelectionResult.cached``.
"""

from __future__ import annotations

import threading
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Mapping,
                    Optional, Sequence, Tuple, Union)

import numpy as np

from repro.core.plan import PlanError
from repro.formats.base import SparseFormat, coo_dedup_sort
from repro.formats.convert import FORMATS, convert
from repro.instrument import INSTR
from repro.ir.program import Program
from repro.util.timing import best_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.compiler import CompiledKernel

DEFAULT_CANDIDATES = ("csr", "csc", "coo", "dia", "ell", "jad", "msr",
                      "bsr", "sym")

MODES = ("model", "empirical", "auto")


class FormatChoice:
    """One candidate's outcome.

    ``score`` is the ranking key (estimated cost in ``model`` mode,
    measured seconds in ``empirical`` and for tuned ``auto`` candidates);
    ``model_cost`` always carries the analytical estimate when a kernel
    exists, ``measured`` the micro-benchmark seconds when one ran, and
    ``backend_used`` what actually executed the measurement (``"c"``,
    ``"c+openmp"``, or ``"python"``) — so a timing taken through a
    Python-fallback kernel is never silently compared against native
    ones."""

    __slots__ = ("format_name", "_kernel", "score", "error", "model_cost",
                 "measured", "backend_used", "_build")

    def __init__(self, format_name: str, kernel,
                 score: Optional[float], error: Optional[str] = None,
                 model_cost: Optional[float] = None,
                 measured: Optional[float] = None,
                 backend_used: Optional[str] = None):
        self.format_name = format_name
        self._kernel = kernel
        self.score = score
        self.error = error
        self.model_cost = model_cost
        self.measured = measured
        self.backend_used = backend_used
        #: the build of a candidate ranking only sized
        self._build: Optional[_Build] = None

    @property
    def kernel(self):
        """The compiled kernel: ranked on the candidate's sized stand-in,
        and bound to its built instance — built here on first access."""
        if self._build is not None:
            self._build()
        return self._kernel

    @property
    def ok(self) -> bool:
        return self._kernel is not None

    def _refuse(self, error: str) -> None:
        """Report the candidate inapplicable after all (a build that
        failed where its size pass did not: out of memory)."""
        self._kernel = self._build = self.score = self.model_cost = None
        self.error = error

    @property
    def label(self) -> str:
        """The candidate row's name: its format."""
        return self.format_name

    def __repr__(self):
        if not self.ok:
            return f"<{self.label}: no plan ({self.error})>"
        if self.score is None:
            return f"<{self.label}: ok (unscored)>"
        tail = f" [{self.backend_used}]" if self.backend_used else ""
        return f"<{self.label}: score={self.score:.4g}{tail}>"


class _Build:
    """The instance of a candidate ranking only sized: built by
    ``make(name)`` on first call, once, and its kernel rebound to it before
    anything is emitted from it.  (It refers to neither the choice nor the
    selection, so no cycle keeps the triples ``make`` holds alive.)"""

    __slots__ = ("name", "kernel", "array", "make", "inst", "lock")

    def __init__(self, name: str, kernel, array: str,
                 make: Callable[[str], SparseFormat]):
        self.name, self.kernel, self.array, self.make = name, kernel, array, make
        self.inst: Optional[SparseFormat] = None
        self.lock = threading.Lock()

    def __call__(self) -> SparseFormat:
        with self.lock:
            if self.inst is None:
                inst = self.make(self.name)
                self.kernel.bindings[self.array] = inst
                self.inst = inst
        return self.inst


class _Instances(Mapping):
    """The ranked candidates' instances by format name, in candidate
    order: one ranking only sized is built on first access."""

    def __init__(self):
        self._by_name: Dict[str, Union[SparseFormat, _Build]] = {}

    def add(self, name: str, inst: Union[SparseFormat, _Build]) -> None:
        self._by_name[name] = inst

    def drop(self, name: str) -> None:
        self._by_name.pop(name, None)

    def __getitem__(self, name: str) -> SparseFormat:
        inst = self._by_name[name]
        return inst() if isinstance(inst, _Build) else inst

    def __contains__(self, name) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[str]:
        return iter(self._by_name)

    def __len__(self) -> int:
        return len(self._by_name)


class SelectionResult:
    """Ranked outcomes; ``best`` is the winning (format name, instance,
    kernel) triple.  ``instances`` answers for every candidate with a plan
    (a losing one is built on first access).

    ``auto``-mode extras: ``signature`` is the structure signature the
    winner cache was keyed on, and ``cached`` is True when the selection
    was served from the winner cache (zero micro-benchmark runs)."""

    def __init__(self, choices: List[FormatChoice],
                 instances: Dict[str, SparseFormat], mode: str):
        ok = [c for c in choices if c.ok]
        failed = [c for c in choices if not c.ok]
        # ranking tiers: scored choices first (measured seconds or model
        # cost, per mode), then model-estimated-only (auto's untuned
        # candidates), then unscored-but-legal; a None score must not
        # TypeError the sort
        def tier(c: FormatChoice) -> Tuple:
            if c.score is not None:
                return (0, c.score)
            if c.model_cost is not None:
                return (1, c.model_cost)
            return (2, 0.0)

        ok.sort(key=tier)
        self.choices = ok + failed
        self.instances = instances
        self.mode = mode
        self.signature: Optional[str] = None
        self.cached = False
        if not ok:
            raise PlanError("no candidate format admits a legal plan")

    @property
    def best(self) -> Tuple[str, SparseFormat, "CompiledKernel"]:
        c = self.choices[0]
        return c.format_name, self.instances[c.format_name], c.kernel

    def table(self) -> str:
        header = f"format selection ({self.mode}"
        if self.cached:
            header += ", cached winner"
        lines = [header + "):"]
        # the unit is per-mode, not "model or seconds": auto rows mix
        # measured seconds (tuned) with estimated cost (untuned)
        unit = {"model": "estimated cost",
                "empirical": "seconds",
                "auto": "seconds"}.get(self.mode, "score")
        for c in self.choices:
            if not c.ok:
                lines.append(f"  {c.label:10s} {'no legal plan':>14s}")
            elif c.score is not None:
                tag = unit
                if c.backend_used and self.mode != "model":
                    tag += f", {c.backend_used}"
                lines.append(f"  {c.label:10s} {c.score:14.4g}  ({tag})")
            elif self.mode == "auto" and c.model_cost is not None:
                lines.append(f"  {c.label:10s} {c.model_cost:14.4g}  "
                             f"(estimated cost, not tuned)")
            else:
                lines.append(f"  {c.label:10s} {'unscored':>14s}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Candidate construction
# ---------------------------------------------------------------------------

def _format_of(name: str, matrix: SparseFormat, convert_kwargs):
    """Candidate ``name``'s class and constructor keywords, or None when
    ``matrix`` is of it already (the short-circuit ``convert()``
    applies); KeyError for a name no format has."""
    cls = FORMATS.get(name)
    if cls is None:
        raise KeyError(name)
    if cls is type(matrix) and (name != "bsr" or not convert_kwargs):
        return None
    return cls, (convert_kwargs if name == "bsr" else {})


def _build_instance(name: str, matrix: SparseFormat, rows, cols, vals,
                    bounds, convert_kwargs) -> SparseFormat:
    """One candidate instance from the shared canonical COO triples — the
    one place selection fills a format's arrays (raises ValueError/KeyError
    when the format does not admit the matrix, or would pad it out of all
    proportion)."""
    found = _format_of(name, matrix, convert_kwargs)
    if found is None:
        return matrix
    cls, kw = found
    inst = cls._from_canonical_coo(rows, cols, vals, matrix.shape, **kw)
    if bounds is not None:
        inst.annotate_bounds(bounds)
    return inst


def _sized_instance(name: str, matrix: SparseFormat, rows, cols, vals,
                    bounds, convert_kwargs) -> Tuple[SparseFormat, bool]:
    """Candidate ``name`` as ranking reads it, and whether it is built:
    the input itself when of the format, else the format's size pass — a
    data-free stand-in with the step totals its build would have, refusing
    what that build refuses — or, for a format only a build sizes, the
    built instance."""
    found = _format_of(name, matrix, convert_kwargs)
    if found is None:
        return matrix, True
    cls, kw = found
    inst = cls.sized(rows, cols, vals, matrix.shape, **kw)
    if inst is None:
        return _build_instance(name, matrix, rows, cols, vals, bounds,
                               convert_kwargs), True
    if bounds is not None:
        inst.annotate_bounds(bounds)
    return inst, False


def _inapplicable(e: BaseException) -> str:
    return f"inapplicable: {str(e) or type(e).__name__}"


def _built(instances: Mapping[str, SparseFormat], choice: FormatChoice
           ) -> Optional[SparseFormat]:
    """``choice``'s instance, built if ranking only sized it; a build that
    fails where its size pass did not (out of memory) reports the
    candidate inapplicable instead (None)."""
    try:
        return instances[choice.format_name]
    except (ValueError, MemoryError) as e:
        choice._refuse(_inapplicable(e))
        instances.drop(choice.format_name)
        return None


def _settled(choices: List[FormatChoice], instances, mode: str
             ) -> "SelectionResult":
    """The ranking with its winner built: a winner whose build fails is
    reported inapplicable and the next one wins."""
    while True:
        result = SelectionResult(choices, instances, mode)
        if _built(instances, result.choices[0]) is not None:
            return result


#: panel width used for dense-panel (``dmat``) operands and for program
#: parameters no binding can pin (SpMM's ``k``) in synthetic workloads
_DEFAULT_PANEL_WIDTH = 8


def _workload_program(name: str) -> Program:
    """Resolve a workload-family name to its measurement kernel — the
    string form of the workload axis (``workload="spmm"`` ranks the
    candidates under SpMM micro-benchmarks instead of matvec)."""
    from repro.ir import kernels as _kernels

    factories = {"matvec": _kernels.mvm, "mvm": _kernels.mvm,
                 "spmm": _kernels.spmm, "spmm_t": _kernels.spmm_t,
                 "spgemm": _kernels.spgemm}
    factory = factories.get(name)
    if factory is None:
        raise ValueError(f"unknown workload {name!r}; choose from "
                         f"{tuple(sorted(factories))}")
    return factory()


def _synthetic_workload(program: Program, array_name: str,
                        inst: SparseFormat) -> Tuple[Dict, Dict]:
    """A deterministic workload for auto-mode measurement: every vector
    array gets random data long enough for any loop extent, dense panels
    (``dmat``) get ``_DEFAULT_PANEL_WIDTH`` columns, scalars get zero, and
    parameter values are inferred from the bound instance (parameters no
    binding pins — SpMM's panel width — default to the panel width too)."""
    from repro.core.compiler import infer_param_values

    params = {k: int(v) for k, v in
              infer_param_values(program, {array_name: inst}).items()}
    for p in program.params:
        params.setdefault(p, _DEFAULT_PANEL_WIDTH)
    size = max([inst.nrows, inst.ncols, 1] + list(params.values()))
    rng = np.random.default_rng(0)
    arrays: Dict[str, object] = {array_name: inst}
    for name, decl in program.arrays.items():
        if name == array_name:
            continue
        if decl.kind == "vector":
            arrays[name] = rng.random(size)
        elif decl.kind == "dmat":
            arrays[name] = rng.random((size, _DEFAULT_PANEL_WIDTH))
        elif decl.kind == "matrix":
            # an unbound matrix operand (SpGEMM's B when only A drives the
            # selection): a dense square block large enough for any extent
            arrays[name] = rng.random((size, size))
        elif decl.kind == "scalar":
            arrays[name] = np.zeros(())
    return arrays, params


def _measure_choice(choice: FormatChoice, program: Program, array_name: str,
                    inst: SparseFormat,
                    workload: Optional[Callable], repeats: int) -> None:
    """Micro-benchmark one compiled candidate and record the measured
    seconds plus the backend that actually executed (kernel ``__call__``
    dispatches native when available and falls back observably)."""
    kernel = choice.kernel
    if workload is not None:
        arrays, params = workload(inst)
    else:
        arrays, params = _synthetic_workload(program, array_name, inst)
    # materialize the execution path (native bind / lazy codegen) OUTSIDE
    # the timed region, so the first sample measures the kernel, not the
    # code generator
    if kernel.native() is None:
        kernel.callable()
    with INSTR.phase("autotune.measure"):
        secs = best_of(lambda: kernel(dict(arrays), dict(params)),
                       repeats=repeats)
    INSTR.count("autotune.microbench.runs")
    choice.measured = float(secs)
    choice.score = float(secs)
    choice.backend_used = kernel.backend_used


def _rank_candidates(program, array_name, matrix, candidates, rows, cols,
                     vals, bounds, backend, convert_kwargs):
    """Size every candidate, compile its kernel on that as far as the plan,
    and score it by the Figure 11 model — the shared front half of every
    mode.  Nothing is built that a size pass answers for: the instances
    returned build a candidate on first access, and no candidate is bound
    natively here (``bind=False``): whoever measures or returns one binds
    it.  The candidates' searches share one set of dependence classes,
    computed when the first candidate misses the compile cache."""
    from repro.analysis.dependence import dependences
    from repro.core.compiler import compile_kernel

    def make(name: str) -> SparseFormat:
        return _build_instance(name, matrix, rows, cols, vals, bounds,
                               convert_kwargs)

    deps: List = []

    def program_deps() -> List:
        if not deps:
            with INSTR.phase("search.dependences"):
                deps.append(dependences(program))
        return deps[0]

    choices: List[FormatChoice] = []
    instances = _Instances()
    for name in candidates:
        INSTR.count("select.candidates")
        try:
            inst, built = _sized_instance(name, matrix, rows, cols, vals,
                                          bounds, convert_kwargs)
        except (ValueError, KeyError, MemoryError) as e:
            # the format does not admit this matrix at all (BSR needs
            # divisible dimensions, SYM a square symmetric matrix, a padded
            # format past check_padding or past what the machine can
            # allocate, ...): report a skip-with-reason choice rather than
            # crashing
            choices.append(FormatChoice(name, None, None, _inapplicable(e)))
            continue
        try:
            kernel = compile_kernel(program, {array_name: inst},
                                    backend=backend, bind=False,
                                    deps=program_deps)
        except PlanError as e:
            choices.append(FormatChoice(name, None, None, str(e)))
            continue
        choice = FormatChoice(name, kernel, float(kernel.cost),
                              model_cost=float(kernel.cost))
        if not built:
            inst = choice._build = _Build(name, kernel, array_name, make)
        instances.add(name, inst)
        choices.append(choice)
    return choices, instances


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def select_format(
    program: Program,
    array_name: str,
    matrix,
    candidates: Sequence[str] = DEFAULT_CANDIDATES,
    mode: str = "model",
    workload: Union[None, str,
                    Callable[[SparseFormat], Tuple[Mapping, Mapping]]] = None,
    repeats: Optional[int] = None,
    backend: str = "python",
    topk: Optional[int] = None,
    autotune_cache: Optional[str] = None,
    **convert_kwargs,
) -> SelectionResult:
    """Choose the best storage format for ``matrix`` under ``program``.

    ``matrix`` is any format instance (or convertible input); each
    candidate format gets the converted matrix, a compiled kernel, and a
    score.  ``mode="model"`` scores by the compiler's cost estimate;
    ``mode="empirical"`` requires ``workload(fmt) -> (arrays, params)``
    and scores by the best-of-``repeats`` measured time of the generated
    kernel; ``mode="auto"`` micro-benchmarks the analytically top-``topk``
    candidates on a synthetic workload (or ``workload`` when given) and
    serves repeats of the same structure class from the winner cache.

    ``workload`` also accepts a workload-family *name* (``"matvec"`` /
    ``"spmm"`` / ...): the named kernel replaces ``program`` for both
    compilation and measurement, so ``workload="spmm"`` selects the
    format that wins under SpMM micro-benchmarks — the CSR-vs-CSC winner
    flips between matvec and SpMM, which is exactly why the axis exists.
    A named workload measures on the synthetic inputs (empirical mode
    included).

    ``backend`` is forwarded to the compiler; measurements execute
    through the kernel's real dispatch, and each choice records
    ``backend_used`` so a Python-fallback timing is never silently
    compared against native ones.  ``repeats`` defaults to
    ``REPRO_AUTOTUNE_REPEATS`` in auto mode and 3 otherwise;
    ``autotune_cache`` (``"off"`` / ``"memory"`` / ``"disk"``) defaults to
    ``REPRO_AUTOTUNE_CACHE``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    named_workload = isinstance(workload, str)
    if named_workload:
        # the workload axis by name: measure (and compile) the named
        # kernel on its synthetic inputs instead of the caller's program
        program = _workload_program(workload)
        workload = None
    if mode == "empirical" and workload is None and not named_workload:
        raise ValueError("empirical mode requires a workload callable")

    from repro.formats.coo import CooMatrix

    if not isinstance(matrix, SparseFormat):
        matrix = CooMatrix.from_dense(matrix)

    # extract and canonicalize the COO triples ONCE; every candidate is
    # sized from them, and the one that wins built from them
    with INSTR.phase("select.extract"):
        rows, cols, vals = matrix.to_coo_arrays()
        rows, cols, vals = coo_dedup_sort(rows, cols, vals, matrix.shape,
                                          order="row")
    bounds = matrix.bounds()

    if mode == "auto":
        return _select_auto(program, array_name, matrix, candidates,
                            workload, repeats, backend, topk, autotune_cache,
                            rows, cols, vals, bounds, convert_kwargs)

    choices, instances = _rank_candidates(program, array_name, matrix,
                                          candidates, rows, cols, vals,
                                          bounds, backend, convert_kwargs)
    if mode == "empirical":
        reps = 3 if repeats is None else repeats
        for c in choices:
            inst = _built(instances, c) if c.ok else None
            if inst is not None:
                _measure_choice(c, program, array_name, inst, workload, reps)
    result = _settled(choices, instances, mode)
    # ranking bound nothing natively: the choice that is returned is
    result.best[2].native()
    return result


# ---------------------------------------------------------------------------
# Auto mode
# ---------------------------------------------------------------------------

def _select_auto(program, array_name, matrix, candidates, workload, repeats,
                 backend, topk, autotune_cache, rows, cols, vals, bounds,
                 convert_kwargs) -> SelectionResult:
    from repro.core.cache import resolve_mode
    from repro.search import autotune as at
    from repro.search.features import features_from_pattern, structure_signature

    cache_mode = resolve_mode(autotune_cache, "REPRO_AUTOTUNE_CACHE")
    k = at.autotune_topk() if topk is None else max(1, int(topk))
    reps = at.autotune_repeats() if repeats is None else repeats

    INSTR.count("select.auto")
    with INSTR.phase("autotune.features"):
        # rows/cols went through coo_dedup_sort in select_format, so the
        # dedup pass inside feature extraction can be skipped
        signature = structure_signature(
            features_from_pattern(rows, cols, matrix.shape,
                                  assume_canonical=True))
    key = at.winner_key(program, signature, candidates, backend, k)

    def tune() -> Tuple[Dict, SelectionResult]:
        choices, instances = _rank_candidates(program, array_name, matrix,
                                              candidates, rows, cols, vals,
                                              bounds, backend, convert_kwargs)
        ranked_ok = sorted((c for c in choices if c.ok),
                           key=lambda c: c.model_cost)
        for c in ranked_ok[:k]:
            inst = _built(instances, c)
            if inst is not None:
                _measure_choice(c, program, array_name, inst, workload, reps)
        for c in ranked_ok[k:]:
            c.score = None              # untuned: ranked by model_cost tier
        result = _settled(choices, instances, "auto")
        best = result.choices[0]
        record = {
            "format": best.format_name,
            "backend_used": best.backend_used,
            "measured": {c.label: c.measured for c in result.choices
                         if c.measured is not None},
            "signature": signature,
            "topk": k,
            "repeats": reps,
        }
        return record, result

    record, payload, origin = at.winner_for(key, cache_mode, tune)
    if payload is not None:                       # we were the tuning leader
        payload.signature = signature
        return payload

    # warm path: the cached winner — build and compile ONLY that format
    try:
        result = _replay_winner(program, array_name, matrix, record, rows,
                                cols, vals, bounds, backend, convert_kwargs)
    except (PlanError, ValueError, KeyError) as e:
        # the cached winner does not admit this particular matrix (e.g. a
        # BSR divisibility change within the same signature bucket): tune
        # fresh and overwrite the stale record
        INSTR.count("autotune.replay_failures")
        record, result = tune()
        INSTR.count("autotune.tunes")
        at.store(key, record, cache_mode)
        result.signature = signature
        return result
    INSTR.count("autotune.replays")
    result.signature = signature
    result.cached = True
    return result


def _replay_winner(program, array_name, matrix, record, rows, cols, vals,
                   bounds, backend, convert_kwargs) -> SelectionResult:
    """Serve a cached winner: one instance build, one (cached) compile,
    zero measurements.  A record from when ``opt`` was a search axis names
    the winning ``tier`` and keys its winner's time ``format+tier``; the
    tier is ignored, the time still read."""
    from repro.core.compiler import compile_kernel

    name = record["format"]
    inst = _build_instance(name, matrix, rows, cols, vals, bounds,
                           convert_kwargs)
    kernel = compile_kernel(program, {array_name: inst}, backend=backend)
    times = record.get("measured") or {}
    measured = times.get(f"{name}+{record.get('tier')}", times.get(name))
    choice = FormatChoice(name, kernel,
                          float(measured) if measured is not None
                          else float(kernel.cost),
                          model_cost=float(kernel.cost),
                          measured=measured,
                          backend_used=record.get("backend_used"))
    return SelectionResult([choice], {name: inst}, "auto")


# ---------------------------------------------------------------------------
# Output-format selection from a computed pattern (SpGEMM)
# ---------------------------------------------------------------------------

#: candidate *output* formats for a computed pattern.  ``sym`` is excluded
#: by construction: pattern symmetry never implies value symmetry, and an
#: SpGEMM product with a symmetric pattern is generally not value-symmetric.
OUTPUT_CANDIDATES = ("csr", "csc", "coo", "ell", "dia", "jad", "msr", "bsr")


class OutputFormatChoice:
    """The winning output format for a computed sparsity pattern, plus the
    full per-candidate score map for inspection.  ``format_kwargs`` carries
    construction keywords (BSR's ``block_size``); pass both straight to the
    winning class's ``_from_canonical_coo``."""

    __slots__ = ("format_name", "format_kwargs", "score", "scores",
                 "features")

    def __init__(self, format_name: str, format_kwargs: Dict,
                 score: float, scores: Dict[str, float], features):
        self.format_name = format_name
        self.format_kwargs = format_kwargs
        self.score = score
        self.scores = scores
        self.features = features

    def table(self) -> str:
        lines = ["output-format selection (structure-driven):"]
        for name, s in sorted(self.scores.items(), key=lambda kv: kv[1]):
            mark = " *" if name == self.format_name else ""
            lines.append(f"  {name:6s} {s:10.4g}{mark}")
        return "\n".join(lines)

    def __repr__(self):
        return (f"<OutputFormatChoice {self.format_name} "
                f"score={self.score:.4g}>")


def select_output_format(rows, cols, shape,
                         candidates: Sequence[str] = OUTPUT_CANDIDATES,
                         ) -> OutputFormatChoice:
    """Choose a storage format for a *computed* sparsity pattern — the
    SpGEMM output, whose structure exists only after the symbolic pass, so
    no input-side selection can have decided it.

    Unlike :func:`select_format` there is no kernel to compile or measure
    against (the product is about to be *packed*, not consumed by a known
    workload), so the ranking is purely structural: each candidate gets a
    relative packing-plus-storage cost from the O(nnz) pattern features
    (:func:`repro.search.features.features_from_pattern`), CSR = 1.0
    baseline.  The constants encode each format's failure mode:

    - ``csc`` (1.05) / ``coo`` (1.15) / ``jad`` (1.10): fixed re-sort or
      permutation overhead over row-major triples, structure-independent;
    - ``ell``: padding — storage is ``nrows * max_row``, so the cost
      scales with ``row_max_ratio`` (1.0 for perfectly regular rows,
      unbounded for a power-law row);
    - ``dia``: band area — cost scales with ``1 / band_fill`` (a dense
      band beats CSR, a scattered pattern spanning the matrix loses);
    - ``bsr``: tile padding — ``1 / block_fill`` at the 2x2 probe size,
      only when both dimensions divide (``block_size=2`` is forwarded in
      ``format_kwargs``);
    - ``msr``: wins only as the diagonal fills (square matrices only).

    ``rows``/``cols`` must already be canonical (deduplicated) — exactly
    what the SpGEMM symbolic pass hands over.  An empty pattern short-
    circuits to CSR.  The caller still owns packing failure: a scored
    winner can be inapplicable to the *values* side, and
    :func:`repro.blas.api.spgemm` falls back to CSR observably.
    """
    from repro.search.features import features_from_pattern

    m, n = int(shape[0]), int(shape[1])
    feats = features_from_pattern(rows, cols, (m, n), assume_canonical=True)
    if feats.nnz == 0:
        return OutputFormatChoice("csr", {}, 1.0, {"csr": 1.0}, feats)

    scores: Dict[str, float] = {}
    kwargs: Dict[str, Dict] = {}
    for name in candidates:
        if name == "csr":
            scores[name] = 1.0
        elif name == "csc":
            scores[name] = 1.05
        elif name == "coo":
            scores[name] = 1.15
        elif name == "jad":
            scores[name] = 1.10
        elif name == "ell":
            scores[name] = 0.95 * max(1.0, feats.row_max_ratio)
        elif name == "dia":
            if feats.band_fill > 0.0:
                scores[name] = 0.90 / feats.band_fill
        elif name == "bsr":
            if m % 2 == 0 and n % 2 == 0 and feats.block_fill > 0.0:
                scores[name] = 0.95 / feats.block_fill
                kwargs[name] = {"block_size": 2}
        elif name == "msr":
            if m == n:
                scores[name] = 1.08 - 0.10 * feats.diag_fill
        # unknown / excluded candidates (sym) are silently inapplicable
    if not scores:
        scores = {"csr": 1.0}
    winner = min(scores, key=lambda k: (scores[k], k))
    INSTR.count("spgemm.output_select")
    return OutputFormatChoice(winner, kwargs.get(winner, {}),
                              scores[winner], scores, feats)
