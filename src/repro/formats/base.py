"""Base classes of the sparse-format substrate.

A format implements two APIs, mirroring the paper's two-API design
(Section 1):

- the **high-level API** (`get`, `set`, `to_dense`, shape/nnz): the
  dense-matrix view used by algorithm designers and by the reference
  interpreters;
- the **low-level API** (`view`, `paths`, `storage`, `runtime`): the index
  structure exposed to the restructuring compiler and where its arrays
  are.  The per-path enumeration/search runtime (the analog of the paper's
  ``term_nesting`` / iterator classes: what the plan interpreter and the
  generic BLAS walk) is derived from the two — :class:`LevelRuntime`; only
  a format that declares no storage writes a :class:`PathRuntime`.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.formats.levels import (
    Compressed, Coords, Dense, Offset, Perm, Range, Size, Storage,
)
from repro.formats.views import (
    AccessPath, BINARY, DIRECT, LINEAR, NOSEARCH, SEARCHES, UNORDERED, Term,
    access_paths, union_branches,
)
from repro.polyhedra.system import System


class PathRuntime:
    """Enumeration/search runtime for one access path of one matrix.

    States are opaque per-step handles; ``prefix`` is the tuple of states of
    all enclosing steps.  ``keys`` are the *logical* (post-map) coordinate
    values of the step's axes — permutations are resolved inside the runtime
    (enumerating a permuted axis yields logical values; searching one applies
    the inverse permutation).
    """

    #: the AccessPath this runtime implements (set by the format)
    path: AccessPath

    def enumerate(self, step: int, prefix: Tuple) -> Iterator[Tuple[Tuple[int, ...], object]]:
        """Yield ``(keys, state)`` for every stored entry of this step under
        the given prefix, in the path's stored order."""
        raise NotImplementedError

    def search(self, step: int, prefix: Tuple, keys: Tuple[int, ...]) -> Optional[object]:
        """State for the entry with the given keys, or None if absent.
        Only valid when every axis of the step is searchable."""
        raise NotImplementedError

    def interval(self, step: int, prefix: Tuple) -> Optional[Tuple[int, int]]:
        """Half-open [lo, hi) coordinate range when the (single) axis of the
        step is an interval; None otherwise."""
        return None

    def get(self, prefix: Tuple) -> float:
        """The stored value once all steps have states."""
        raise NotImplementedError

    def set(self, prefix: Tuple, value: float) -> None:
        raise NotImplementedError

    def totals(self) -> List[float]:
        """The ``(key, state)`` pairs each step yields, summed over every
        prefix (CSR "rows": ``[m, nnz]``), by walking every stored entry;
        a declared path sums its levels (:meth:`LevelRuntime.totals`)."""
        totals, stack = [0.0] * len(self.path.steps), [()]
        while stack:                    # depth first: no last-level prefix kept
            prefix = stack.pop()
            for _keys, st in self.enumerate(len(prefix), prefix):
                totals[len(prefix)] += 1
                if len(prefix) + 1 < len(totals):
                    stack.append(prefix + (st,))
        return totals


def check_storage(fmt: "SparseFormat", path: AccessPath,
                  decl: Storage) -> List[str]:
    """Hold a declaration to the path it is for and the instance it names —
    a level per step, every named attribute present, a search each level
    can build — and return the kind of search per step: the weakest its
    axes declare.  Whoever reads a declaration (the emitter, the
    :class:`LevelRuntime`) checks it here first."""
    where = f"format {fmt.format_name!r}, path {path.path_id!r}"
    if len(decl.levels) != len(path.steps):
        raise ValueError(
            f"{where}: {len(decl.levels)} levels declared for the "
            f"{len(path.steps)} steps {' -> '.join(map(repr, path.steps))}")
    for a in decl.args:
        attr = a.attr if isinstance(a, Size) else a
        if not hasattr(fmt, attr):
            raise ValueError(
                f"{where} (axes {', '.join(path.axis_names)}): "
                f"the storage names {attr!r}, an attribute "
                f"{type(fmt).__name__} does not have")
    kinds = []
    for step, level in zip(path.steps, decl.levels):
        axes = ", ".join(step.names)
        coords = level.inds if isinstance(level, Coords) else (level,)
        for a, coord in zip(step.axes, coords):
            # a Perm of a Dense level, or of a Coords coordinate's Offset
            inner = Dense if coord is level else Offset
            permuted = isinstance(coord, Perm) and isinstance(coord.stored, inner)
            if a.perm and not permuted:
                raise ValueError(f"{where}, axis {a.name}: the view permutes it "
                                 f"through {a.perm!r}, the storage declares "
                                 f"no Perm of {inner.__name__}")
            if not a.perm and isinstance(coord, (Perm, Offset)):
                raise ValueError(f"{where}, axis {a.name}: a Perm or Offset "
                                 "on an axis the view does not permute")
        if (isinstance(level, Coords) and any(a.perm for a in step.axes)
                and any(a.order != UNORDERED for a in step.axes)):
            raise ValueError(f"{where}, axis {axes}: an Offset is walked "
                             "forward, its step cannot be ordered")
        how = min((a.search for a in step.axes), key=SEARCHES.index)
        if isinstance(level, (Dense, Range, Perm)):
            can = (DIRECT,)
        else:  # slots: scanned, or bisected on one unpermuted coordinate
            can = ((LINEAR, BINARY) if [a.perm for a in step.axes] == [None]
                   else (LINEAR,))
        if how != NOSEARCH and how not in can:
            raise ValueError(
                f"{where}, axis {axes}: the view declares a {how} "
                f"search, a {type(level).__name__} level builds "
                f"{' or '.join(can)}")
        kinds.append(how)
    return kinds


_OPS = {"+": operator.add, "-": operator.sub, "min": min, "max": max,
        "neg": operator.neg}
#: the same operators over arrays of states, an entry per prefix
_ELEMENTWISE = dict(_OPS, min=np.minimum, max=np.maximum)


class LevelRuntime(PathRuntime):
    """The runtime of a path that declares its storage
    (:mod:`repro.formats.levels`): every level is resolved once, here —
    its arrays, its sizes, its declared expressions as closures over the
    prefix — into what walking it takes.  A ``Dense``/``Range`` level is
    its interval, and its state the key; a level that stores coordinates
    is its slots, and its state the slot or its address; a ``Perm`` is
    both: the states and keys :class:`~repro.codegen.emitters.ViewEmitter`
    produces."""

    def __init__(self, fmt: "SparseFormat", path: AccessPath, decl: Storage):
        self.path = path
        self.how = check_storage(fmt, path, decl)
        self._levels = decl.levels
        self._sizes, self._arrays = {}, {}
        for a in decl.args:
            if not isinstance(a, Size):
                self._arrays[a] = getattr(fmt, a)
            elif a.kind == "len":
                self._sizes[a.local] = len(getattr(fmt, a.attr))
            else:
                self._sizes[a.local] = int(getattr(fmt, a.attr))
        self._intervals, self._slots, self._inverses = zip(
            *map(self._level, path.steps, decl.levels))
        self._skips_diagonal = [getattr(level, "off_diagonal", False)
                                for level in decl.levels]
        array, *index = decl.value
        self._values = self._arrays[array]
        index = [self._expr(i) for i in index]
        self._address = index[0] if len(index) == 1 else (
            lambda prefix: tuple([i(prefix) for i in index]))

    def _expr(self, e, slot: str = "",
              elementwise: bool = False) -> Callable[[Tuple], int]:
        """A declared expression as a function of the prefix (followed by
        the slot position, where the expression may name ``slot``); with
        ``elementwise``, of state arrays, an entry per prefix."""
        if isinstance(e, int):
            return lambda prefix: e
        if isinstance(e, str):
            if e in self._sizes:
                size = self._sizes[e]
                return lambda prefix: size
            if e == slot:
                return operator.itemgetter(-1)
            return operator.itemgetter(self.path.step_of(e))
        op, *operands = e
        if op == "at":
            array = self._arrays[operands[0]]
            index = self._expr(operands[1], slot, elementwise)
            if elementwise:
                return lambda prefix: array[index(prefix)].astype(np.int64)
            return lambda prefix: int(array[index(prefix)])
        fn = (_ELEMENTWISE if elementwise else _OPS)[op]
        operands = [self._expr(x, slot, elementwise) for x in operands]
        return lambda prefix: fn(*[x(prefix) for x in operands])

    def _level(self, step, level):
        """One level as functions of the prefix: ``interval`` for every
        coordinate of ``[lo, hi)``, ``slots`` for stored ones — the states
        of this prefix' slots and, per axis, their keys — and the
        ``inverse`` a permuted interval is searched through."""
        if isinstance(level, Perm):                         # over Dense
            m = self._sizes[level.stored.extent]
            every = range(m), [self._arrays[step.axes[0].perm][:m]]
            return ((lambda prefix: (0, m)), (lambda prefix: every),
                    self._arrays[level.inverse])
        if isinstance(level, Dense):
            whole = (0, self._sizes[level.extent])
            return (lambda prefix: whole), None, None
        if isinstance(level, Range):
            lo, hi = self._expr(level.lo), self._expr(level.hi)
            return (lambda prefix: (lo(prefix), hi(prefix))), None, None
        if isinstance(level, Coords):
            extent = self._sizes[level.extent]
            every = range(extent), [self._coordinate(c, a.perm, extent)
                                    for c, a in zip(level.inds, step.axes)]
            return None, lambda prefix: every, None
        ind = self._arrays[level.ind]
        if isinstance(level, Compressed):
            ptr = self._arrays[level.ptr]

            def segment(prefix):
                lo, hi = int(ptr[prefix[-1]]), int(ptr[prefix[-1] + 1])
                return range(lo, hi), [ind[lo:hi]]
            return None, segment, None
        count, address = self._arrays[level.count], level.address  # Counted
        address = address and self._expr(address, level.slot)

        def counted(prefix):
            slots = range(count[prefix[-1]])
            if not address:
                return slots, [ind[prefix[-1], :len(slots)]]
            states = [address(prefix + (k,)) for k in slots]
            return states, [ind[states]]
        return None, counted, None

    def _coordinate(self, coord, perm: Optional[str], extent: int) -> np.ndarray:
        """The keys of slots ``0 .. extent`` on one axis of a ``Coords``
        level (``perm``: the array the view permutes the axis through)."""
        if not isinstance(coord, Perm):
            return self._arrays[coord][:extent]
        ptr, k = self._arrays[coord.stored.ptr], np.arange(extent)
        return self._arrays[perm][k - ptr[np.searchsorted(ptr, k, "right") - 1]]

    def totals(self) -> List[int]:
        """:meth:`PathRuntime.totals` in closed form per level: ``Dense``
        (permuted or not) and ``Coords`` are the enclosing count × the
        extent, ``Compressed`` its segment lengths less the diagonal slot
        under ``off_diagonal``, ``Counted`` its counts, ``Range`` the sum
        of ``max(0, hi - lo)``.  A level holding slots, or a ``Range``,
        reports at least 1.  The enclosing states (an array per step, an
        entry per prefix) are built only for a level that reads them."""
        totals, prefix = [], ()
        for step, level in enumerate(self._levels):
            level = level.stored if isinstance(level, Perm) else level
            width = len(prefix[-1]) if prefix else 1
            if isinstance(level, (Dense, Coords)):
                extent = self._sizes[level.extent]
                lo, lens = 0, np.full(width, extent)
                total = (totals[-1] if totals else 1) * extent
            else:
                if isinstance(level, Range):
                    lo, hi = (np.broadcast_to(
                        self._expr(e, elementwise=True)(prefix), width)
                        for e in (level.lo, level.hi))
                    lens = np.maximum(0, hi - lo)
                elif isinstance(level, Compressed):
                    ptr, p = self._arrays[level.ptr], prefix[-1]
                    lo = ptr[p]
                    lens = ptr[1:][p] - lo
                else:  # Counted
                    lo, lens = 0, self._arrays[level.count][prefix[-1]]
                total = int(lens.sum())
            skip = self._skips_diagonal[step]
            if skip or not all(isinstance(deeper, (Dense, Perm, Coords))
                               for deeper in self._levels[step + 1:]):
                enclosing = tuple(np.repeat(s, lens) for s in prefix)
                states = np.arange(lens.sum()) + np.repeat(
                    lo - (np.cumsum(lens) - lens), lens)
                if skip:
                    off = self._arrays[level.ind][states] != enclosing[-1]
                    total = int(np.count_nonzero(off))
                    enclosing = tuple(s[off] for s in enclosing)
                    states = states[off]
                if getattr(level, "address", None) is not None:
                    states = self._expr(level.address, level.slot, True)(
                        enclosing + (states,))
                prefix = enclosing + (states,)
            totals.append(total if isinstance(level, Dense) else max(1, total))
        return totals

    def interval(self, step: int, prefix: Tuple) -> Optional[Tuple[int, int]]:
        iv = self._intervals[step]
        return iv(prefix) if iv else None

    def enumerate(self, step: int, prefix: Tuple) -> Iterator[Tuple[Tuple[int, ...], object]]:
        slots = self._slots[step]
        if slots is None:
            for v in range(*self._intervals[step](prefix)):
                yield (v,), v
            return
        states, segments = slots(prefix)
        entries = zip(states, zip(*[s.tolist() for s in segments]))
        if self._skips_diagonal[step]:
            for k, keys in entries:
                if keys[0] != prefix[-1]:
                    yield keys, k
        else:
            for k, keys in entries:
                yield keys, k

    def search(self, step: int, prefix: Tuple, keys: Tuple[int, ...]) -> Optional[object]:
        iv = self._intervals[step]
        if iv:
            lo, hi = iv(prefix)
            if not lo <= keys[0] < hi:
                return None
            inverse = self._inverses[step]
            return keys[0] if inverse is None else int(inverse[keys[0]])
        if self._skips_diagonal[step] and keys[0] == prefix[-1]:
            return None
        states, segments = self._slots[step](prefix)
        if self.how[step] == BINARY:
            (segment,), (key,) = segments, keys
            k = int(np.searchsorted(segment, key))
            return states[k] if k < len(segment) and segment[k] == key else None
        hits = np.nonzero(np.logical_and.reduce(
            [s == key for s, key in zip(segments, keys)]))[0]
        return states[int(hits[0])] if hits.size else None

    def get(self, prefix: Tuple) -> float:
        return float(self._values[self._address(prefix)])

    def set(self, prefix: Tuple, value: float) -> None:
        self._values[self._address(prefix)] = value


class SparseFormat:
    """Base class: shape bookkeeping, COO interchange, random access,
    and the low-level view/path/runtime API."""

    #: short format tag ("csr", "jad", ...)
    format_name: str = "abstract"

    def __init__(self, shape: Tuple[int, int]):
        m, n = shape
        if m < 0 or n < 0:
            raise ValueError(f"bad shape {shape}")
        self.shape = (int(m), int(n))

    # -- high-level API ----------------------------------------------------
    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        raise NotImplementedError

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the stored values (float64 for the stock constructors):
        that of the value array the first path declares, so hand-built or
        non-double instances report truthfully; a format that declares no
        storage is probed for the usual names.  The BLAS layer promotes
        with ``np.result_type(A.dtype, x.dtype)`` when allocating outputs."""
        decl = self.storage(self.paths()[0].path_id)
        if decl is not None:
            return np.asarray(getattr(self, decl.value[0])).dtype
        for attr in ("values", "vals", "data", "dvals"):
            v = getattr(self, attr, None)
            if isinstance(v, np.ndarray):
                return v.dtype
        return np.dtype(np.float64)

    def get(self, r: int, c: int) -> float:
        """Random access (0 for unstored elements) — the JadRandom analog."""
        raise NotImplementedError

    def set(self, r: int, c: int, v: float) -> None:
        """Update a *stored* element; raises KeyError for unstored positions
        (no fill, paper Section 1)."""
        raise NotImplementedError

    def to_coo_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of all stored entries, any order.

        Contract (relied upon by the conversion fast paths and the native
        backend): ``rows``/``cols`` are int64 — the *exchange* width,
        whatever width the format stores its own index arrays at (see
        :func:`index_dtype`) — and ``values`` is C-contiguous; all three
        are freshly allocated (mutating them never aliases the format's
        own storage)."""
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        rows, cols, vals = self.to_coo_arrays()
        out = np.zeros(self.shape)
        # additive densification would hide duplicate entries; formats keep
        # entries unique, so plain assignment is correct and catches bugs
        out[rows, cols] = vals
        return out

    def copy(self) -> "SparseFormat":
        rows, cols, vals = self.to_coo_arrays()
        return type(self).from_coo(rows, cols, vals.copy(), self.shape)

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "SparseFormat":
        raise NotImplementedError

    @classmethod
    def _from_canonical_coo(cls, rows, cols, vals, shape, **kwargs) -> "SparseFormat":
        """Construct from triples already in canonical row-major form
        (sorted by ``(row, col)``, unique, in bounds, int64/float64 — the
        exchange width; the built instance stores its index arrays at
        :func:`index_dtype` of its own bound, converted once on the way in).

        This is the construction core the vectorized data plane shares:
        :func:`repro.formats.convert.convert` fast paths and
        :func:`repro.search.format_select.select_format` canonicalize the
        triples *once* and hand them to every target through this entry
        point.  The default routes through :meth:`from_coo`, whose
        canonicalization detects already-sorted input in O(nnz), so
        custom formats stay correct without overriding."""
        return cls.from_coo(rows, cols, vals, shape, **kwargs)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseFormat":
        a = np.asarray(a)
        rows, cols = np.nonzero(a)
        return cls.from_coo(rows, cols, a[rows, cols].astype(float), a.shape)

    @classmethod
    def from_scipy(cls, sp, **kwargs) -> "SparseFormat":
        coo = sp.tocoo()
        return cls.from_coo(coo.row, coo.col, coo.data.astype(float), coo.shape,
                            **kwargs)

    def to_scipy(self):
        import scipy.sparse as sps

        rows, cols, vals = self.to_coo_arrays()
        return sps.coo_matrix((vals, (rows, cols)), shape=self.shape)

    # -- low-level API -------------------------------------------------------
    def view(self) -> Term:
        """The index-structure term (paper Figure 6 grammar)."""
        raise NotImplementedError

    def paths(self) -> List[AccessPath]:
        """Access paths of the view, with this format's stable path ids."""
        cached = getattr(self, "_paths_cache", None)
        if cached is None:
            cached = access_paths(self.view())
            ids = self.path_ids()
            if ids is not None:
                if len(ids) != len(cached):
                    raise ValueError(
                        f"{self.format_name}: {len(ids)} path ids for {len(cached)} paths"
                    )
                cached = [AccessPath(pid, p.steps, p.subs, p.branch)
                          for pid, p in zip(ids, cached)]
            self._paths_cache = cached
        return list(cached)

    def path_ids(self) -> Optional[List[str]]:
        """Human-readable ids, in the order :func:`access_paths` produces
        them; None keeps the generated p0/p1/... ids."""
        return None

    def path(self, path_id: str) -> AccessPath:
        for p in self.paths():
            if p.path_id == path_id:
                return p
        raise KeyError(f"{self.format_name} has no path {path_id!r}")

    def union_branches(self) -> List[str]:
        return union_branches(self.paths())

    def runtime(self, path_id: str) -> PathRuntime:
        """Enumeration runtime for one path: read from its :meth:`storage`
        declaration; a format that declares none writes its own."""
        decl = self.storage(path_id)
        if decl is None:
            raise NotImplementedError
        return LevelRuntime(self, self.path(path_id), decl)

    def storage(self, path_id: str) -> Optional[Storage]:
        """Where this path's arrays are, as a
        :class:`repro.formats.levels.Storage` — what the compiler emits
        raw-array loops (and C) from and the :meth:`runtime` walks; None
        leaves both to a :meth:`runtime` the format writes."""
        return None

    def axis_range(self, axis_name: str) -> Optional[Tuple[int, int]]:
        """Half-open value range of a (possibly post-map) axis when it is
        known from the shape alone: logical rows are [0, m), columns [0, n).
        Formats with mapped axes (DIA's d/o) extend this."""
        if axis_name == "r":
            return (0, self.nrows)
        if axis_name == "c":
            return (0, self.ncols)
        return None

    def axis_total(self, axis_name: str) -> Optional[Tuple[int, int]]:
        """The half-open range an *enumeration* of this axis is guaranteed
        to visit in full, for every prefix — or None when the enumeration
        only visits stored coordinates (a compressed axis).

        The plan builder uses this to decide whether a statement with no
        stored data on a dimension can be fused into its enumeration (the
        enumeration must be *total* over the statement's instances, or some
        instances would silently never execute).  Default: the axes of a
        declared ``Dense`` level, permuted or not (a format that declares
        no storage overrides this)."""
        for p in self.paths():
            decl = self.storage(p.path_id)
            if (decl is None or axis_name not in p.axis_names
                    or len(decl.levels) != len(p.steps)):
                continue
            level = decl.levels[p.step_of(axis_name)]
            level = level.stored if isinstance(level, Perm) else level
            if isinstance(level, Dense):
                for a in decl.args:
                    if (isinstance(a, Size) and a.local == level.extent
                            and a.kind == "attr"):
                        return (0, getattr(self, a.attr))
        return None

    def bounds(self) -> Optional[System]:
        """Optional annotation constraining stored coordinates (e.g.
        ``c <= r`` for a lower-triangular matrix); over variables "r","c".
        Used to discharge guards the stored structure already implies.
        (Paper Section 2: "Enumeration bounds ... conveyed to the compiler
        using a pragma".)"""
        return getattr(self, "_bounds", None)

    def annotate_bounds(self, system: System) -> "SparseFormat":
        """Attach an enumeration-bounds annotation (returns self)."""
        self._bounds = system
        return self

    def annotate_triangular(self, kind: str) -> "SparseFormat":
        """Convenience bounds annotation: 'lower' (c <= r) or 'upper'
        (r <= c)."""
        from repro.polyhedra.linexpr import LinExpr
        from repro.polyhedra.system import Constraint, GE

        r = LinExpr.variable("r")
        c = LinExpr.variable("c")
        if kind == "lower":
            sys_ = System([Constraint(r - c, GE)])
        elif kind == "upper":
            sys_ = System([Constraint(c - r, GE)])
        else:
            raise ValueError(f"kind must be 'lower' or 'upper', got {kind!r}")
        return self.annotate_bounds(sys_)

    # -- misc -----------------------------------------------------------------
    def __repr__(self):
        return f"<{self.format_name} {self.nrows}x{self.ncols}, nnz={self.nnz}>"


def coo_dedup_sort(rows, cols, vals, shape, order: str = "row") -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonicalize COO triples: sum duplicates, sort row-major or
    column-major, validate bounds.  Shared by the concrete constructors.

    Already-canonical input (strictly increasing keys, the common case for
    triples coming out of another format's ``to_coo_arrays``) is detected
    with one O(nnz) comparison and skips the sort entirely."""
    # exchange contract: triples are int64 whatever the caller stored them
    # at, so the row-major keys below cannot overflow a storage width
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    vals = np.asarray(vals, dtype=np.float64).ravel()
    if not (rows.shape == cols.shape == vals.shape):
        raise ValueError("rows/cols/vals length mismatch")
    m, n = shape
    if rows.size:
        if rows.min() < 0 or rows.max() >= m or cols.min() < 0 or cols.max() >= n:
            raise ValueError("COO indices out of bounds for shape")
    if order == "row":
        keys = rows * n + cols
    elif order == "col":
        keys = cols * m + rows
    else:
        raise ValueError(f"unknown order {order!r}")
    if keys.size == 0 or bool(np.all(keys[1:] > keys[:-1])):
        # already canonical: skip the sort; copy so the constructed format
        # never aliases caller-owned arrays (the sorted path's fancy
        # indexing used to guarantee that)
        return rows.copy(), cols.copy(), vals.copy()
    perm = np.argsort(keys, kind="stable")
    rows, cols, vals, keys = rows[perm], cols[perm], vals[perm], keys[perm]
    if keys.size and np.any(keys[1:] == keys[:-1]):
        uniq, inverse = np.unique(keys, return_inverse=True)
        summed = np.zeros(uniq.size)
        np.add.at(summed, inverse, vals)
        first = np.searchsorted(keys, uniq)
        rows, cols, vals = rows[first], cols[first], summed
    return rows, cols, vals


def coo_contract(rows: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply the ``to_coo_arrays`` output contract: int64 indices — the
    exchange width; this is where a format's narrower storage arrays are
    widened — and a C-contiguous value array (no copy when the input
    already complies)."""
    return (np.ascontiguousarray(rows, dtype=np.int64),
            np.ascontiguousarray(cols, dtype=np.int64),
            np.ascontiguousarray(vals))


# ---------------------------------------------------------------------------
# Index width
# ---------------------------------------------------------------------------

#: the first bound the narrow index type no longer holds (module limit:
#: the index-width tests lower it to drive small matrices over the edge)
_INDEX_LIMIT = 2**31 - 1


def index_dtype(bound: int):
    """The storage width of a format's index arrays: ``int32`` when
    ``bound`` fits, ``int64`` otherwise.  ``bound`` is the largest value
    the arrays store *or any address the emitted code computes from
    them* — each format names its own (rows, columns and stored entries
    for the compressed formats; the padded cell count for ELL/DIA; the
    block-cube size for BSR).  Storage width only: triples exchanged
    between formats (``to_coo_arrays``, ``from_coo``, SpGEMM triples, the
    wire) are always int64."""
    return np.int32 if bound < _INDEX_LIMIT else np.int64


#: DIA and ELL refuse a pattern whose padded cells exceed both this
#: multiple of its entries and this many cells (128 MiB of float64)
_PAD_RATIO = 64
_PAD_MIN_CELLS = 1 << 24


def check_padding(name: str, entries: int, cells: int) -> None:
    """Raise ValueError, before a padded format allocates its ``cells``,
    when they dwarf its ``entries``."""
    if cells > max(_PAD_MIN_CELLS, _PAD_RATIO * entries):
        raise ValueError(f"{name} would pad {entries} stored entries to "
                         f"{cells} cells ({cells * 8 / 2**30:.1f} GiB)")


def storage_index_dtype(shape: Tuple[int, int], cells: int):
    """:func:`index_dtype` of a format that stores coordinates below
    ``shape`` and addresses ``cells`` stored cells — the entry count the
    pointers of CSR/CSC/COO/MSR/SYM/JAD run up to, the padded cell count
    of ELL, the block cube of BSR."""
    return index_dtype(max(shape[0], shape[1], cells))


def index_array(a, dtype, name: str, stop: int, start: int = 0,
                copy: bool = False) -> np.ndarray:
    """``a`` as an index array of ``dtype`` after an O(size) check that
    every value lies in ``[start, stop)``.  The check runs at the width
    the values arrive in, so an out-of-range value raises instead of
    wrapping into range when the array is narrowed.  An array that is
    already of ``dtype`` is returned as it is unless ``copy`` is set."""
    a = np.asarray(a)
    if a.dtype.kind not in "iu":
        a = a.astype(np.int64)  # exchange width until checked
    if a.size and (a.min() < start or a.max() >= stop):
        raise ValueError(f"{name}: value outside [{start}, {stop})")
    return a.astype(dtype) if copy else np.asarray(a, dtype=dtype)


def pointer_array(ptr, dtype, name: str, count: int, total: int) -> np.ndarray:
    """A compressed axis' pointer array (``rowptr``/``colptr``/...) at
    ``dtype``: ``count + 1`` non-decreasing offsets from 0 to ``total``."""
    ptr = np.asarray(ptr)
    if ptr.shape != (count + 1,):
        raise ValueError(f"{name} must have {count}+1 entries")
    ptr = index_array(ptr, dtype, name, total + 1)
    if ptr[0] != 0 or ptr[-1] != total:
        raise ValueError(f"{name} endpoints inconsistent with nnz")
    if np.any(ptr[1:] < ptr[:-1]):
        raise ValueError(f"{name} must be non-decreasing")
    return ptr


def csr_rowptr(rows: np.ndarray, nrows: int, dtype) -> np.ndarray:
    """Row-pointer array from sorted row indices in O(nnz): a bincount
    cumulatively summed straight into an array of the target width."""
    rowptr = np.zeros(nrows + 1, dtype=dtype)
    if rows.size:
        np.cumsum(np.bincount(rows, minlength=nrows), out=rowptr[1:])
    return rowptr


def compress(major: np.ndarray, minor: np.ndarray, nmajor: int,
             shape: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
    """``(pointer, minor index)`` arrays of a compressed axis from triples
    sorted on ``major``, both built once at the storage width of a matrix
    of ``shape`` holding them.  ``minor`` is copied, never aliased."""
    idx = storage_index_dtype(shape, minor.size)
    return csr_rowptr(major, nmajor, idx), minor.astype(idx)


def compressed_is_canonical(ptr: np.ndarray, ind: np.ndarray) -> bool:
    """Are the minor indices strictly increasing within every segment of
    a pointer array — the sorted-unique invariant the constructors do not
    check?  One O(nnz) comparison: adjacent pairs must increase except
    across a segment boundary."""
    if ind.size < 2:
        return True
    rising = ind[1:] > ind[:-1]
    cuts = ptr[1:-1]
    rising[cuts[(cuts > 0) & (cuts < ind.size)] - 1] = True
    return bool(rising.all())


def scipy_compressed(sp, fmt: str):
    """``(pointer, index, data)`` of a scipy ``fmt`` ("csr"/"csc") matrix
    in canonical format — range-checked, copied once at the storage width
    (never aliasing ``sp``) and checked sorted-unique, since the flag is
    scipy's claim, not a proof — or None when ``sp`` is anything else."""
    if getattr(sp, "format", None) != fmt or not sp.has_canonical_format:
        return None
    idx = storage_index_dtype(sp.shape, sp.nnz)
    nminor = sp.shape[1] if fmt == "csr" else sp.shape[0]
    ptr = index_array(sp.indptr, idx, "indptr", sp.nnz + 1, copy=True)
    ind = index_array(sp.indices, idx, "indices", nminor, copy=True)
    if not compressed_is_canonical(ptr, ind):
        return None
    return ptr, ind, sp.data.astype(np.float64)
