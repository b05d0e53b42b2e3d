"""Base classes of the sparse-format substrate.

A format implements two APIs, mirroring the paper's two-API design
(Section 1):

- the **low-level API** (`declaration`, read as `paths` and `storage`):
  the index structure exposed to the restructuring compiler and where its
  arrays are — with a constructor and ``nnz``, all a format designer
  writes;
- the **high-level API** (`get`, `set`, `to_coo_arrays`, `to_dense`,
  shape/nnz): the dense-matrix view used by algorithm designers, derived
  here from the low-level one.

Between the two sits one :class:`LevelRuntime` per path (the analog of the
paper's ``term_nesting`` / iterator classes), read from the path's
declaration: it enumerates and searches one prefix at a time — what the
generic BLAS, the tests' reference plan interpreter, ``get`` and ``set``
walk — or every prefix at once — ``to_coo_arrays`` and the cost model's
step totals.  A format that declares nothing is refused.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import operator
from copy import deepcopy
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.formats.levels import (
    Compressed, Coords, Counted, Dense, Offset, Path, Perm, Range, Size,
    Storage,
)
from repro.formats.views import (
    AccessPath, Axis, AxisView, BINARY, DIRECT, INCREASING, LINEAR, NOSEARCH,
    SEARCHES, Step, UNORDERED, union_branches,
)
from repro.polyhedra.system import System

#: an axis' ``(order, search, interval)`` by the kind of its level — what
#: the level enumerates in and can build a search for
_KINDS = {
    Dense: (INCREASING, DIRECT, True),
    Range: (INCREASING, DIRECT, True),
    Compressed: (INCREASING, BINARY, False),
    Counted: (INCREASING, BINARY, False),
    Coords: (UNORDERED, LINEAR, False),
}


def axis_views(level, axes, where: str) -> List[AxisView]:
    """The axes one level yields (``axes``: their declared names or
    :class:`Axis` overrides), by the rule of its kind: a ``Perm`` of a
    ``Dense`` level is that level unordered, and a ``Coords`` level holding
    a ``Perm`` of an ``Offset`` is walked, never searched; an override
    states its axis' order and search."""
    listed = isinstance(level, Coords)
    coords = level.inds if listed else (level,)
    inner = Offset if listed else Dense
    if any(isinstance(c, Offset) or isinstance(c, Perm)
           and not isinstance(c.stored, inner) for c in coords):
        raise ValueError(f"{where}: a Perm holds a Dense level or, as a "
                         "Coords coordinate, an Offset")
    order, search, interval = _KINDS[type(getattr(level, "stored", level))]
    if any(isinstance(c, Perm) for c in coords):
        order, search = UNORDERED, (NOSEARCH if listed else search)
    return [AxisView(*((a.name, a.order, a.search) if isinstance(a, Axis)
                       else (a, order, search)),
                     interval, getattr(c, "forward", None))
            for a, c in zip(axes, coords)]


def access_path(where: str, path_id: str, decl: Path) -> AccessPath:
    """A declared path as the compiler sees it: a step per level, the
    axes of each read off its kind, ``subs`` completed with the logical
    dimensions that are axes themselves."""
    steps, first = [], 0
    for level in decl.storage.levels:
        n = len(level.inds) if isinstance(level, Coords) else 1
        steps.append(Step(axis_views(level, decl.axes[first:first + n], where),
                          joint=n > 1))
        first += n
    if first != len(decl.axes):
        raise ValueError(f"{where}: {len(decl.axes)} axes named for the "
                         f"{first} its levels take")
    subs, names = dict(decl.subs or {}), [a.name for s in steps for a in s.axes]
    for d in ("r", "c"):
        if d not in subs and d not in names:
            raise ValueError(f"{where}: the logical {d!r} is neither an axis "
                             "nor given in subs")
    return AccessPath(path_id, steps, {d: subs.get(d, d) for d in ("r", "c")},
                      decl.branch)


def check_storage(fmt: "SparseFormat", path: AccessPath,
                  decl: Storage) -> List[str]:
    """Hold a declaration to the instance it names and its axes to their
    levels — every named attribute present, a search each level can build
    — and return the kind of search per step: the weakest its axes
    declare.  Whoever reads a declaration (the emitter, the
    :class:`LevelRuntime`) checks it here first."""
    where = f"format {fmt.format_name!r}, path {path.path_id!r}"
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
                f"{where}, axis {axes}: a {how} search is declared, "
                f"a {type(level).__name__} level builds "
                f"{' or '.join(can)}")
        kinds.append(how)
    return kinds


#: a declared expression's operators, over ints or arrays of states
_OPS = {"+": operator.add, "-": operator.sub, "min": np.minimum,
        "max": np.maximum, "neg": operator.neg}


def _array(states):
    """A step's states as an array (a slice stands for consecutive ones)."""
    if isinstance(states, slice):
        return np.arange(states.start, states.stop)
    return states


def _affine(e, keys) -> np.ndarray:
    """A logical coordinate (a ``path.subs`` expression) of every entry,
    from the keys of every axis: the one key itself, or int64 arithmetic."""
    (name, coef), *more = e.coeffs.items()
    if coef == 1 and not more and not e.const:
        return keys[name]
    out = int(e.const)
    for name, coef in e.coeffs.items():
        out = out + np.asarray(keys[name], dtype=np.int64) * int(coef)
    return out


def _coordinate(arrays, coord, states) -> np.ndarray:
    """The keys at ``states`` on one axis of a ``Coords`` level whose
    runtime holds ``arrays``."""
    if not isinstance(coord, Perm):
        return arrays[coord][states]
    ptr, k = arrays[coord.stored.ptr], _array(states)
    if isinstance(states, slice):       # consecutive slots: by segment
        segment = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))[states]
    else:
        segment = np.searchsorted(ptr, k, "right") - 1
    return arrays[coord.forward][k - ptr[segment]]


class LevelRuntime:
    """The runtime of one access path, read from its storage declaration
    (:mod:`repro.formats.levels`): every level is resolved once, here —
    its arrays, its sizes, its declared expressions as closures over the
    prefix — into what walking it takes.  A ``Dense``/``Range`` level is
    its interval, and its state the key; a level that stores coordinates
    is its slots, and its state the slot or its address; a ``Perm`` is
    both: the states and keys :class:`~repro.codegen.emitters.ViewEmitter`
    produces.

    A ``prefix`` is the tuple of the states of the enclosing steps; the
    ``keys`` of a step are the *logical* (post-map) values of its axes —
    a permuted axis yields the permuted value and is searched through the
    inverse.  It walks one prefix at a time (:meth:`enumerate`,
    :meth:`search`) or every prefix at once (:meth:`totals`,
    :meth:`coo`)."""

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
        self._skips = [getattr(level, "off_diagonal", False)
                       for level in decl.levels]
        self._bounds, self._readers = zip(*map(
            self._level, range(len(decl.levels)), decl.levels))
        self._slots = [None if isinstance(level, (Dense, Range))
                       else self._slotter(step, level)
                       for step, level in enumerate(decl.levels)]
        self._finds = [self._finder(step, level)
                       for step, level in enumerate(decl.levels)]
        ends = np.cumsum([len(s.axes) for s in path.steps]).tolist()
        self._chain = list(zip(self._finds, [0] + ends, ends))
        array, *self._index = decl.value
        self._values = self._arrays[array]
        index = [self._expr(i) for i in self._index]
        self._address = index[0] if len(index) == 1 else (
            lambda prefix: tuple([i(prefix) for i in index]))

    def _expr(self, e, slot: str = "") -> Callable[[Tuple], int]:
        """A declared expression as a function of the prefix (followed by
        the slot position, where the expression may name ``slot``): of
        one prefix, or of state arrays with an entry per prefix."""
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
            index = self._expr(operands[1], slot)
            return lambda prefix: array[index(prefix)].astype(np.int64)
        fn = _OPS[op]
        a, *b = [self._expr(x, slot) for x in operands]
        if not b:
            return lambda prefix: fn(a(prefix))
        b, = b
        return lambda prefix: fn(a(prefix), b(prefix))

    def _level(self, step, level):
        """One level as two functions, of one prefix (ints) or of every
        prefix (an array per enclosing step): ``bounds(prefix)``, the
        half-open ``[lo, hi)`` of its interval's keys or of its slots, and
        ``read(states, prefix)``, per axis the keys at ``states`` (an
        array, or a slice of consecutive slots)."""
        if isinstance(level, Range):
            lo, hi = self._expr(level.lo), self._expr(level.hi)
            return (lambda prefix: (lo(prefix), hi(prefix)),
                    lambda states, prefix: [_array(states)])
        if isinstance(level, (Dense, Perm, Coords)):
            extent = self._sizes[getattr(level, "stored", level).extent]
            whole = lambda prefix: (0, extent)              # noqa: E731
            if isinstance(level, Dense):
                return whole, lambda states, prefix: [_array(states)]
            if isinstance(level, Perm):
                perm = self._arrays[level.forward]
                return whole, lambda states, prefix: [perm[states]]
            arrays = self._arrays       # not self: no cycle keeps them alive
            return whole, lambda states, prefix: [
                _coordinate(arrays, c, states) for c in level.inds]
        ind = self._arrays[level.ind]
        if isinstance(level, Compressed):
            ptr = self._arrays[level.ptr]
            return (lambda prefix: (ptr[prefix[-1]], ptr[prefix[-1] + 1]),
                    lambda states, prefix: [ind[states]])
        count = self._arrays[level.count]                   # Counted
        if level.address is None:
            return (lambda prefix: (0, count[prefix[-1]]),
                    lambda states, prefix: [ind[prefix[-1], states]])
        return (lambda prefix: (0, count[prefix[-1]]),
                lambda states, prefix: [ind[states]])

    def _slotter(self, step, level):
        """``slots(prefix)``: the states of one prefix' slots (a range, or
        their addresses) and, per axis, their keys — a ``Perm``'s
        positions and the permuted values."""
        bounds, read = self._bounds[step], self._readers[step]
        if isinstance(level, (Coords, Perm)):
            every = functools.lru_cache(None)(lambda: (
                range(*bounds(())), read(slice(*bounds(())), ())))
            return lambda prefix: every()
        if getattr(level, "address", None) is None:
            def slots(prefix):
                lo, hi = bounds(prefix)
                return range(lo, hi), read(slice(lo, hi), prefix)
            return slots
        address = self._expr(level.address, level.slot)

        def addressed(prefix):
            states = address(prefix + (np.arange(*bounds(prefix)),))
            return states, read(states, prefix)
        return addressed

    def _finder(self, step, level):
        """``find(prefix, keys)``: the state of the entry with ``keys``
        under ``prefix``, or None — by a bounds check on an interval
        (through the inverse of a ``Perm``), a bisection on one sorted
        coordinate, or a scan; a diagonal the level skips is never
        found."""
        bounds, slots = self._bounds[step], self._slots[step]
        if isinstance(level, (Dense, Range, Perm)):
            inverse = (self._arrays[level.inverse] if isinstance(level, Perm)
                       else None)

            def find(prefix, keys):
                lo, hi = bounds(prefix)
                if not lo <= keys[0] < hi:
                    return None
                return keys[0] if inverse is None else int(inverse[keys[0]])
        elif self.how[step] == BINARY:
            def find(prefix, keys):
                states, (segment,) = slots(prefix)
                k = bisect.bisect_left(segment, keys[0])
                return (int(states[k]) if k < len(segment) and segment[k] == keys[0]
                        else None)
        else:
            def find(prefix, keys):
                states, segments = slots(prefix)
                hits = functools.reduce(operator.and_,
                                        map(operator.eq, segments, keys))
                k = int(hits.argmax()) if hits.size else 0
                return int(states[k]) if hits.size and hits[k] else None
        if not self._skips[step]:
            return find
        return lambda prefix, keys: (None if keys[0] == prefix[-1]
                                     else find(prefix, keys))

    def _expand(self, every: bool = False):
        """Every prefix at once: per step, the ``(key, state)`` pairs it
        yields summed over every prefix, and the states of every entry of
        the deepest step built — per step an array, or a slice where they
        are consecutive (under one prefix, or compressed under consecutive
        ones).  ``Dense``, ``Perm`` and ``Coords`` yield the enclosing
        count × their extent, the others the sum of their ``hi - lo``
        (less the diagonal slot under ``off_diagonal``), and report at
        least 1.  Unless ``every``, states are built only as deep as a
        level reads them."""
        totals, prefix = [], ()
        for step, level in enumerate(self._levels):
            enclosing = tuple(map(_array, prefix))
            lo, hi = self._bounds[step](enclosing)
            lens = np.broadcast_to(np.maximum(0, hi - lo),
                                   (len(enclosing[-1]) if prefix else 1,))
            count = int(lens.sum())
            extent = isinstance(level, (Dense, Perm, Coords))
            total = (totals[-1] if totals else 1) * hi if extent else count
            skip = self._skips[step]
            if every or skip or not all(
                    isinstance(deeper, (Dense, Perm, Coords))
                    for deeper in self._levels[step + 1:]):
                enclosing = tuple(np.repeat(s, lens) for s in enclosing)
                if not prefix or (isinstance(level, Compressed)
                                  and isinstance(prefix[-1], slice)):
                    first = int(np.ravel(lo)[0]) if count else 0
                    states = slice(first, first + count)
                else:
                    states = np.repeat(lo - (np.cumsum(lens) - lens), lens)
                    states += np.arange(count)
                if skip:
                    off = self._arrays[level.ind][states] != enclosing[-1]
                    total = int(np.count_nonzero(off))
                    enclosing = tuple(s[off] for s in enclosing)
                    states = (np.flatnonzero(off) + states.start
                              if isinstance(states, slice) else states[off])
                if getattr(level, "address", None) is not None:
                    states = self._expr(level.address, level.slot)(
                        enclosing + (_array(states),))
                prefix = enclosing + (states,)
            totals.append(total if isinstance(level, (Dense, Perm)) else max(1, total))
        return totals, prefix

    def totals(self) -> List[int]:
        """The ``(key, state)`` pairs each step yields, summed over every
        prefix (CSR "rows": ``[m, nnz]``), in closed form per level; the
        states of the enclosing steps are built only for a level that
        reads them."""
        return self._expand()[0]

    def coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, values)`` of every entry of the path, in its
        stored order, in one pass over every prefix: the keys read at
        every step's states, the logical coordinates from ``path.subs``,
        the values through the declared index — possibly views of the
        format's arrays, at their width."""
        prefix = self._expand(every=True)[1]
        keys = {}
        for step, s in enumerate(self.path.steps):
            keys.update(zip(s.names, self._readers[step](prefix[step], prefix[:step])))
        rows, cols = (_affine(self.path.subs[d], keys) for d in ("r", "c"))
        del keys
        return rows, cols, self._values[self._cells(prefix)]

    def _cells(self, prefix: Tuple) -> Tuple:
        """The value index of every entry whose states ``prefix`` holds."""
        if len(self._index) > 1 or not isinstance(self._index[0], str):
            prefix = tuple(map(_array, prefix))
        return tuple(self._expr(i)(prefix) for i in self._index)

    def interval(self, step: int, prefix: Tuple) -> Optional[Tuple[int, int]]:
        """Half-open ``[lo, hi)`` of the step's (one) axis when it is an
        interval; None otherwise."""
        if isinstance(self._levels[step], (Dense, Range, Perm)):
            return self._bounds[step](prefix)
        return None

    def enumerate(self, step: int, prefix: Tuple) -> Iterator[Tuple[Tuple[int, ...], object]]:
        """``(keys, state)`` of every stored entry of the step under
        ``prefix``, in the path's stored order."""
        slots = self._slots[step]
        if slots is None:
            for v in range(*self._bounds[step](prefix)):
                yield (v,), v
            return
        states, segments = slots(prefix)
        states = states if isinstance(states, range) else states.tolist()
        entries = zip(states, zip(*[s.tolist() for s in segments]))
        if self._skips[step]:
            for k, keys in entries:
                if keys[0] != prefix[-1]:
                    yield keys, k
        else:
            for k, keys in entries:
                yield keys, k

    def search(self, step: int, prefix: Tuple, keys: Tuple[int, ...]) -> Optional[object]:
        """The state of the entry with the given keys under ``prefix``, or
        None if absent; every axis of the step must be searchable."""
        return self._finds[step](prefix, keys)

    def locate(self, keys) -> Optional[Tuple]:
        """The prefix of the entry with the given keys (every axis of the
        path, in order) — a search down every step — or None."""
        prefix = ()
        for find, lo, hi in self._chain:
            state = find(prefix, keys[lo:hi])
            if state is None:
                return None
            prefix += (state,)
        return prefix

    def get(self, prefix: Tuple) -> float:
        """The stored value once every step has a state."""
        return float(self._values[self._address(prefix)])

    def set(self, prefix: Tuple, value: float) -> None:
        self._values[self._address(prefix)] = value


def _solution(fmt: "SparseFormat", path_id: str
              ) -> Optional[Tuple[List[str], List[str]]]:
    """The path's ``subs`` solved for the keys of its axes (in order): per
    axis a Python expression in ``r`` and ``c``, and the checks an entry
    of the path passes — an equation left with no unknown (MSR's diagonal
    holds ``r == c`` only) and the declared ``where``.  An equation is
    solved for an unknown alone in it with a unit coefficient, or for two,
    ``x = s*u + w`` with ``w``'s level ``Dense`` of extent ``s``, as
    ``u = x // s`` and ``w = x % s`` (BSR's blocks).  None when ``subs``
    do not solve that way."""
    path, where = fmt.path(path_id), fmt.declaration()[path_id].where
    todo, keys = [(d, path.subs[d]) for d in ("r", "c")], {}
    checks = [" + ".join([f"{k} * {v}" for v, k in w.coeffs.items()]
                         + [f"{w.const} >= 0"]) for w in where]
    while todo:
        for d, e in todo:
            unknown = [v for v in e.coeffs if v not in keys]
            split = [(u, w) for u, w in ([unknown, unknown[::-1]]
                                         if len(unknown) == 2 else [])
                     if e.coeffs[w] == 1
                     and fmt.axis_total(w) == (0, e.coeffs[u])]
            if split or len(unknown) < 2 and all(
                    e.coeffs[v] in (1, -1) for v in unknown):
                break
        else:
            return None
        todo.remove((d, e))
        value = d + (f" - {e.const}" if e.const else "") + "".join(
            f" - {'' if k == 1 else f'{k} * '}({keys[v]})"
            for v, k in e.coeffs.items() if v in keys)
        if split:
            (u, w), = split
            keys[u] = f"({value}) // {e.coeffs[u]}"
            keys[w] = f"({value}) % {e.coeffs[u]}"
        elif not unknown:
            checks.append(f"{value} == 0")
        else:
            keys[unknown[0]] = value if e.coeffs[unknown[0]] == 1 else f"-({value})"
    if len(keys) < len(path.axis_names):
        return None
    return [keys[a] for a in path.axis_names], checks


@functools.lru_cache(maxsize=None)
def _function(body: str) -> Callable:
    """``lambda r, c: body``, compiled once per body."""
    return eval(f"lambda r, c: {body}")


def _evaluate(e, name: Callable, arrays):
    """A declared expression over whole arrays: ``name`` resolves a name
    (an axis' states or a size), ``arrays`` the arrays ``at`` reads."""
    if not isinstance(e, tuple):
        return e if isinstance(e, int) else name(e)
    op, *x = e
    if op == "at":
        return arrays[x[0]][_evaluate(x[1], name, arrays)]
    return _OPS[op](*[_evaluate(a, name, arrays) for a in x])


def _unbuilt(e, arrays) -> List[str]:
    """The arrays ``e`` reads through ``at`` that ``arrays`` lacks."""
    if not isinstance(e, tuple):
        return []
    return ([e[1]] if e[0] == "at" and e[1] not in arrays else []) + [
        a for x in e[1:] for a in _unbuilt(x, arrays)]


class _Unstated(ValueError):
    """A declaration whose levels do not state its assembly."""


#: how far an entry may stray from the value its mirror stores (SYM)
_MIRROR_TOLERANCE = 1e-12


def _level(level, keys, group, names, arrays, shape, extent: int, fmt: str,
           last: bool, ordered: bool):
    """A level built by the rule of its kind from the keys of its axes,
    ``group`` the enclosing level's states and their number, ``names`` the
    sizes and the enclosing axis (a prefix each), ``extent`` the logical
    extent of its first key, ``ordered`` whether the entries are in the
    path's key order under each prefix: every entry's state, and the
    number of states.  A sparse level above others stores the distinct
    keys of each prefix, which the levels below address within."""
    n = keys[0].size
    if isinstance(level, Dense) and isinstance(names.get(level.extent), int):
        return keys[0], names[level.extent]
    if isinstance(level, Coords) and all(isinstance(i, str) for i in level.inds):
        if last:
            arrays.update((i, k.astype(storage_index_dtype(shape, n)))
                          for i, k in zip(level.inds, keys))
            return slice(0, n), n
        if len(keys) == 1:
            arrays[level.inds[0]], state = _distinct(keys[0])
            return state, arrays[level.inds[0]].size
    if (isinstance(level, Coords) and ordered and isinstance(level.inds[0], Perm)
            and all(isinstance(i, str) for i in level.inds[1:])):
        return _permuted(level, keys, arrays, shape, extent), n
    if (group is None or not isinstance(level, (Compressed, Counted, Range))
            or getattr(level, "off_diagonal", False)
            or getattr(level, "address", None)):
        raise _Unstated(f"a {type(level).__name__} level here")
    (parent, prefixes), key = group, keys[0]
    if isinstance(level, Range):
        return _range(level, key, parent, prefixes, names, arrays, ordered)
    if isinstance(level, Compressed) and not last:
        span = int(key.max(initial=0)) + 1
        uniq, state = _distinct(parent * span + key)
        parent, key = np.divmod(uniq, span)
    elif not ordered:
        raise _Unstated(f"a {type(level).__name__} level under unordered keys")
    if isinstance(level, Compressed):
        idx = storage_index_dtype(shape, n)
        arrays[level.ptr] = csr_rowptr(parent, prefixes, idx)
        arrays[level.ind] = key.astype(idx)
        return (state, key.size) if not last else (slice(0, n), n)
    counts = np.bincount(parent, minlength=prefixes)
    longest = int(counts.max(initial=0))
    check_padding(fmt, n, prefixes * longest)
    width = max(longest, min(extent, 1))   # padding holds coordinate 0
    arrays[level.count], arrays[level.ind] = counts, np.zeros(
        (prefixes, width), dtype=storage_index_dtype(shape, prefixes * width))
    slot = np.arange(n) - (np.cumsum(counts) - counts)[parent]
    arrays[level.ind][parent, slot] = key
    return slot, width


def _distinct(key):
    """The distinct keys, sorted, and the rank of each key among them."""
    ordered = np.sort(key)
    uniq = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
    return uniq, np.searchsorted(uniq, key)


def _range(level, key, parent, prefixes, names, arrays, ordered):
    """A ``Range`` level: a bound that reads an array not yet built is
    solved for it — per prefix the first and one past the last key, as
    that array plus the rest (a skyline's ``first[r] + length[r]``) — and
    every entry is checked to lie within the bounds (DIA's offsets)."""
    if any(_unbuilt(b, arrays) for b in (level.lo, level.hi)):
        if not ordered:
            raise _Unstated("a Range level under unordered keys")
        counts = np.bincount(parent, minlength=prefixes)
        ends, held = np.cumsum(counts), counts > 0
        bounds = np.zeros((2, prefixes), dtype=np.int64)
        bounds[:, held] = (key[ends[held] - counts[held]],
                           key[ends[held] - 1] + 1)
        for bound, target in zip((level.lo, level.hi), bounds):
            for a in _unbuilt(bound, arrays):
                arrays[a] = np.zeros(prefixes, dtype=np.int64)
                arrays[a] = target - _evaluate(bound, names.get, arrays)
    lo, hi = (np.broadcast_to(_evaluate(b, names.get, arrays), (prefixes,))
              for b in (level.lo, level.hi))
    for at in range(0, key.size, _CHUNK):
        p, k = parent[at:at + _CHUNK], key[at:at + _CHUNK]
        if not np.all((lo[p] <= k) & (k < hi[p])):
            raise _Unstated(f"entries outside the Range {level!r}")
    return key, int(np.maximum(hi - lo, 0).sum())


def _permuted(level, keys, arrays, shape, extent: int):
    """A ``Coords`` level whose first coordinate is a ``Perm`` of an
    ``Offset`` (JAD's flat path): the permutation orders the keys by entry
    count, decreasing and stable; the ``e``-th entry of a key goes to
    segment ``e`` at the key's position, the other coordinates to its
    slot.  Returns the slots."""
    perm, n = level.inds[0], keys[0].size
    idx = storage_index_dtype(shape, n)
    counts = np.bincount(keys[0], minlength=extent)
    forward = np.argsort(-counts, kind="stable").astype(idx)
    inverse = np.empty(extent, dtype=idx)
    inverse[forward] = np.arange(extent, dtype=idx)
    # segment e holds the keys with more than e entries, a prefix of forward
    lens = extent - np.searchsorted(counts[forward][::-1], np.arange(
        counts.max(initial=0)), side="right")
    ptr = np.zeros(lens.size + 1, dtype=idx)
    np.cumsum(lens, out=ptr[1:])
    slot = (ptr[np.arange(n) - (np.cumsum(counts) - counts)[keys[0]]]
            + inverse[keys[0]])
    arrays.update({perm.forward: forward, perm.inverse: inverse,
                   perm.stored.ptr: ptr})
    for name, key in zip(level.inds[1:], keys[1:]):
        arrays[name] = np.empty(n, dtype=idx)
        arrays[name][slot] = key
    return slot


def _mirrored(fmt, path, rows, cols, vals, arrays) -> None:
    """Hold the entries routed to a branch whose arrays an earlier branch
    built (SYM's mirror) to those the branch walks there: equal within
    :data:`_MIRROR_TOLERANCE`, an entry missing on either side read as
    0.0."""
    vars(fmt).update(arrays)
    wr, wc, wv = fmt.runtime(path.path_id).coo()
    keys = np.append(rows * fmt.ncols + cols, -1)   # sorted; -1: none
    walked = np.asarray(wr, dtype=np.int64) * fmt.ncols + wc
    pos = np.searchsorted(keys[:-1], walked)
    pos[keys[pos] != walked] = vals.size
    alone = np.bincount(pos, minlength=vals.size + 1)[:-1] == 0
    off = np.concatenate((np.abs(wv - np.append(vals, 0.0)[pos]),
                          np.abs(vals[alone]))) > _MIRROR_TOLERANCE
    if off.any():
        r, c = divmod(int(np.append(walked, keys[:-1][alone])[off.argmax()]),
                      fmt.ncols)
        raise ValueError(f"format {fmt.format_name!r}: ({r}, {c}) is not "
                         f"mirrored within {_MIRROR_TOLERANCE} (branch "
                         f"{path.branch!r})")


def _branch(fmt, path, rows, cols, vals, left, arrays, placed):
    """One aggregation branch's arrays, from its first ``path``, out of
    the entries no earlier branch took (``left``, a mask; None: all) that
    its ``subs`` solve for; returns the entries left."""
    decl, solution = fmt.storage(path.path_id), _solution(fmt, path.path_id)
    if solution is None:
        raise _Unstated(f"path {path.path_id!r} does not solve for (r, c)")
    exprs, checks = solution
    r, c, v = ((rows, cols, vals) if left is None
               else (rows[left], cols[left], vals[left]))
    if checks:
        mine = _function(" & ".join(f"({x})" for x in checks))(r, c)
        r, c, v = r[mine], c[mine], v[mine]
        if left is None:
            left = ~mine
        elif isinstance(left, np.ndarray):
            left[left] = ~mine
    else:
        left = slice(0)             # every entry is placed
    if all(a in arrays for a in decl.args if not isinstance(a, Size)):
        _mirrored(fmt, path, r, c, v, arrays)
        return left
    keys = list(_function(f"({''.join(x + ', ' for x in exprs)})")(r, c))
    del r, c
    # into the path's key order, unless in it or the first level sorts
    # its own keys
    levels = decl.levels
    ordered = exprs[0] == "r" or bool(np.all(keys[0][1:] >= keys[0][:-1]))
    if not ordered and not (isinstance(levels[0], Coords) and len(levels) > 1):
        perm = np.argsort(keys[0], kind="stable")
        keys, v, ordered = [k[perm] for k in keys], v[perm], True
        del perm
    sizes = {a.local: getattr(fmt, a.attr, None) for a in decl.args
             if isinstance(a, Size) and a.kind == "attr"}   # of the shape
    group, outer, states, spans, first = None, (), [], {}, 0
    for step, level in zip(path.steps, levels):
        names = ({**sizes, **dict.fromkeys(outer, np.arange(group[1]))}
                 if isinstance(level, Range) and group else sizes)
        x, last = exprs[first], first + len(step.axes)
        extent = fmt.shape["rc".index(x)] if x in ("r", "c") else 1
        state, span = _level(level, keys[first:last], group, names, arrays,
                             fmt.shape, extent, fmt.format_name,
                             level is levels[-1], ordered)
        if isinstance(level, Dense) and x not in ("r", "c") and state.size and (
                state.min() < 0 or state.max() >= span):
            raise ValueError(f"format {fmt.format_name!r}: an entry lies "
                             f"outside the {span} keys of level {level!r}")
        ordered &= level is levels[-1] or not isinstance(level, (Coords, Compressed))
        group = (state, span)
        states.append(state)
        # a Range addresses its cells by key
        spans.update(dict.fromkeys(
            step.names, extent if isinstance(level, Range) else span))
        outer, first = step.names, last
    array, *index = decl.value
    if all(isinstance(i, str) for i in index):   # states address the cells
        shape = tuple(spans[i] for i in index)
        if any(isinstance(levels[path.step_of(i)], Range) for i in index):
            check_padding(fmt.format_name, v.size, int(np.prod(shape)))
        arrays[array] = np.zeros(shape)
        arrays[array][tuple(states[path.step_of(i)] for i in index)] = v
    else:              # an expression over the instance's arrays: later
        arrays[array] = np.zeros(span)
        placed.append((path.path_id, tuple(states), v))
    return left


class SparseFormat:
    """Base class: shape bookkeeping, COO interchange, random access,
    and the low-level declaration/path/runtime API."""

    #: short format tag ("csr", "jad", ...)
    format_name: str = "abstract"

    def __init__(self, shape: Tuple[int, int]):
        m, n = shape
        if any(d < 0 or d != int(d) for d in shape):
            raise ValueError(f"bad shape {shape}: not non-negative whole numbers")
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
        non-double instances report truthfully.  The BLAS layer promotes
        with ``np.result_type(A.dtype, x.dtype)`` when allocating outputs."""
        decl = self.storage(self.paths()[0].path_id)
        return np.asarray(getattr(self, decl.value[0])).dtype

    def _check_index(self, r: int, c: int) -> None:
        """Raise IndexError unless ``(r, c)`` lies inside the shape."""
        m, n = self.shape
        if not (0 <= r < m and 0 <= c < n):
            raise IndexError(f"({r}, {c}) is outside the {m}x{n} matrix")

    def _locate(self, r: int, c: int):
        """``(runtime, prefix)`` of the stored entry at ``(r, c)``, or
        None: per aggregation branch, a search down its first path whose
        every axis is searchable, the keys solved from ``(r, c)``."""
        self._check_index(r, c)
        locators = self.__dict__.get("_locators")
        if locators is None:
            locators = []
            for branch in self.union_branches():
                path = next((p for p in self.paths() if p.branch == branch
                             and NOSEARCH not in (a.search for s in p.steps
                                                  for a in s.axes)), None)
                keys, checks = path and _solution(self, path.path_id) or (None, None)
                if keys is None:
                    raise ValueError(
                        f"format {self.format_name!r}: no path of branch "
                        f"{branch!r} is searchable from (r, c)")
                # the keys of (r, c), or None where a check fails
                locators.append((path.path_id, _function(
                    "(" + "".join(f"{k}, " for k in keys) + ")" + (
                        f" if {' and '.join(checks)} else None" if checks else ""))))
            self._locators = locators
        for path_id, solve in locators:
            keys = solve(r, c)
            if keys is not None:
                rt = self.runtime(path_id)
                prefix = rt.locate(keys)
                if prefix is not None:
                    return rt, prefix
        return None

    def get(self, r: int, c: int) -> float:
        """Random access (0 for unstored elements) — the JadRandom analog;
        IndexError outside the shape."""
        found = self._locate(r, c)
        return 0.0 if found is None else found[0].get(found[1])

    def set(self, r: int, c: int, v: float) -> None:
        """Update a *stored* element; raises KeyError for unstored positions
        (no fill, paper Section 1), IndexError outside the shape."""
        found = self._locate(r, c)
        if found is None:
            raise KeyError(f"({r},{c}) is not stored (fill is not supported)")
        found[0].set(found[1], v)

    def to_coo_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of all stored entries: each aggregation
        branch's first path walked in its stored order, the branches in
        :meth:`union_branches` order.

        Contract (relied upon by the conversion fast paths and the native
        backend): ``rows``/``cols`` are int64 — the *exchange* width,
        whatever width the format stores its own index arrays at (see
        :func:`index_dtype`) — and ``values`` is C-contiguous; all three
        are freshly allocated (mutating them never aliases the format's
        own storage)."""
        runtimes = [self.runtime(next(p for p in self.paths()
                                      if p.branch == branch).path_id)
                    for branch in self.union_branches()]
        stored, out = [a for rt in runtimes for a in rt._arrays.values()], []
        for dtype, parts in zip((np.int64, np.int64, None),
                                zip(*[rt.coo() for rt in runtimes])):
            a = (np.concatenate(parts, dtype=dtype) if len(parts) > 1
                 else np.asarray(parts[0], dtype=dtype))
            if any(np.may_share_memory(a, b) for b in stored + out):
                a = a.copy()
            out.append(a)
        return tuple(out)

    def to_dense(self) -> np.ndarray:
        rows, cols, vals = self.to_coo_arrays()
        out = np.zeros(self.shape)
        # additive densification would hide duplicate entries; formats keep
        # entries unique, so plain assignment is correct and catches bugs
        out[rows, cols] = vals
        return out

    def copy(self) -> "SparseFormat":
        """A deep copy of the state :meth:`__getstate__` keeps: the same
        arrays at the same dtypes, constructor parameters (BSR's block
        size) and annotations, sharing no memory with this one."""
        return deepcopy(self)

    @classmethod
    def from_coo(cls, rows, cols, vals, shape, **kwargs) -> "SparseFormat":
        """From triples in any order, duplicates summed, ``kwargs`` to the
        constructor; never aliasing the caller's arrays."""
        rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape)
        return cls._from_canonical_coo(rows, cols, vals, shape, **kwargs)

    @classmethod
    def _from_canonical_coo(cls, rows, cols, vals, shape, **kwargs) -> "SparseFormat":
        """Construct from triples already in canonical row-major form
        (sorted, unique, in bounds, int64/float64), by the declaration
        alone: the core ``from_coo``, ``convert``, ``select_format`` and
        SpGEMM's output share.  Each entry goes to the first branch whose
        map solves for it, each level is built by the rule of its kind
        (README, "Format designers") and the values go in through the
        declared value index — all fresh arrays.  A format whose levels
        do not state its assembly overrides this."""
        params = inspect.signature(cls).parameters
        # a constructor keyword not given reads its default off the class
        # (BSR's block_size)
        kwargs = {**{p: getattr(cls, p) for p in params if hasattr(cls, p)},
                  **kwargs}
        fmt = cls._bare(shape, kwargs)
        arrays, placed, left = {"shape": fmt.shape}, [], None
        try:
            for branch in fmt.union_branches():
                path = next(p for p in fmt.paths() if p.branch == branch)
                left = _branch(fmt, path, rows, cols, vals, left, arrays, placed)
            if isinstance(left, np.ndarray) and left.any():
                i = int(left.argmax())
                raise _Unstated(f"no branch holds ({rows[i]}, {cols[i]})")
        except _Unstated as e:
            raise ValueError(f"format {cls.format_name!r}: the declaration "
                             f"does not state its assembly ({e}); define "
                             "_from_canonical_coo") from None
        out = cls(**{p: arrays[p] for p in params if p in arrays}, **kwargs)
        for path_id, states, v in placed:   # through the instance's arrays
            rt = out.runtime(path_id)
            rt._values[rt._cells(states)] = v
        return out

    @classmethod
    def _bare(cls, shape, kwargs) -> "SparseFormat":
        """An instance holding the shape and the constructor keywords
        ``kwargs`` and no array: all a declaration and its paths read."""
        fmt = cls.__new__(cls)
        SparseFormat.__init__(fmt, shape)
        vars(fmt).update(kwargs)
        return fmt

    def stand_in(self) -> "SparseFormat":
        """A data-free instance of this one's structure: its shape, its
        constructor keywords (BSR's block size) and its bounds annotation.
        A search builds its plans over it, so a cached plan neither keeps
        the matrix alive nor pickles it."""
        cls = type(self)
        return cls._bare(self.shape, {
            p: getattr(self, p) for p in inspect.signature(cls).parameters
            if hasattr(cls, p)}).annotate_bounds(self.bounds())

    @classmethod
    def from_dense(cls, a: np.ndarray, **kwargs) -> "SparseFormat":
        a = np.asarray(a)
        rows, cols = np.nonzero(a)
        return cls.from_coo(rows, cols, a[rows, cols], a.shape, **kwargs)

    @classmethod
    def from_scipy(cls, sp, **kwargs) -> "SparseFormat":
        coo = sp.tocoo()
        return cls.from_coo(coo.row, coo.col, coo.data, coo.shape, **kwargs)

    def to_scipy(self):
        import scipy.sparse as sps

        rows, cols, vals = self.to_coo_arrays()
        return sps.coo_matrix((vals, (rows, cols)), shape=self.shape)

    # -- low-level API -------------------------------------------------------
    def declaration(self) -> Mapping[str, Path]:
        """The format: an ordered mapping from path id to
        :class:`repro.formats.levels.Path` — what the compiler emits loops
        (and C) from and the :meth:`runtime` walks.  Every format declares
        it: one that does not is refused here."""
        raise ValueError(f"format {self.format_name!r}: no declaration (a "
                         "format is compiled and walked from its "
                         "declaration(); see formats.levels)")

    def _declared(self) -> Dict[str, Tuple[AccessPath, Storage]]:
        """Per path id, the access path and the storage of the
        declaration, derived once per instance."""
        found = self.__dict__.get("_paths_cache")
        if found is None:
            found = self._paths_cache = {
                pid: (access_path(f"format {self.format_name!r}, path {pid!r}",
                                  pid, p), p.storage)
                for pid, p in self.declaration().items()}
        return found

    def paths(self) -> List[AccessPath]:
        """The declared access paths, in the declaration's order."""
        return [p for p, _ in self._declared().values()]

    def path(self, path_id: str) -> AccessPath:
        return self._entry(path_id)[0]

    def storage(self, path_id: str) -> Storage:
        """Where one path's arrays are: its declared
        :class:`repro.formats.levels.Storage`."""
        return self._entry(path_id)[1]

    def _entry(self, path_id: str) -> Tuple[AccessPath, Storage]:
        found = self._declared().get(path_id)
        if found is None:
            raise KeyError(f"{self.format_name} has no path {path_id!r}")
        return found

    def union_branches(self) -> List[str]:
        return union_branches(self.paths())

    def runtime(self, path_id: str) -> LevelRuntime:
        """The runtime of one path, read from its :meth:`storage`
        declaration: built once per instance and path, and again when an
        array the declaration names is no longer the same object."""
        runtimes = self.__dict__.setdefault("_runtimes", {})
        hit = runtimes.get(path_id)
        if hit is not None and all(map(operator.is_, hit[0](self), hit[1])):
            return hit[2]
        decl = self.storage(path_id)
        names = [a.attr if isinstance(a, Size) else a for a in decl.args
                 if not isinstance(a, Size) or a.kind == "len"]
        arrays = operator.attrgetter("shape", *names)     # always a tuple
        rt = LevelRuntime(self, self.path(path_id), decl)
        runtimes[path_id] = (arrays, arrays(self), rt)
        return rt

    def __getstate__(self):
        # runtimes are closures over the arrays and kernel handles are
        # bound to this instance (blas.api); the paths and the step totals
        # are derived again on use: none of them is pickled nor copied
        state = dict(self.__dict__)
        for derived in ("_runtimes", "_locators", "_kernel_handles",
                        "_paths_cache", "_step_totals_cache"):
            state.pop(derived, None)
        return state

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
        instances would silently never execute): the axes of a declared
        ``Dense`` level, permuted or not."""
        for p, decl in self._declared().values():
            if axis_name not in p.axis_names:
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
        nnz = getattr(self, "nnz", "-")     # a stand-in holds no entries
        return f"<{self.format_name} {self.nrows}x{self.ncols}, nnz={nnz}>"


#: elements :func:`coo_dedup_sort` checks at a time
_CHUNK = 1 << 15


def coo_dedup_sort(rows, cols, vals, shape, order: str = "row") -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonicalize COO triples: sum duplicates, sort row-major or
    column-major, validate bounds, refuse coordinates that are not whole
    numbers and values with an imaginary part.  Canonical input (another
    format's ``to_coo_arrays``) is checked a cache-sized chunk at a time
    and returned as it came, uncopied: the construction cores build fresh
    arrays from it."""
    # exchange contract: triples are int64 whatever the caller stored them
    # at, so the row-major keys below cannot overflow a storage width
    rows = np.asarray(whole_numbers(rows, "rows"), dtype=np.int64).ravel()
    cols = np.asarray(whole_numbers(cols, "cols"), dtype=np.int64).ravel()
    vals = real_values(vals, "vals").ravel()
    if not (rows.shape == cols.shape == vals.shape):
        raise ValueError("rows/cols/vals length mismatch")
    m, n = shape
    if order not in ("row", "col"):
        raise ValueError(f"unknown order {order!r}")
    major, minor, span = (rows, cols, n) if order == "row" else (cols, rows, m)
    canonical, last = True, -1
    for lo in range(0, rows.size, _CHUNK):
        hi = lo + _CHUNK
        r, c = rows[lo:hi], cols[lo:hi]
        if r.min() < 0 or r.max() >= m or c.min() < 0 or c.max() >= n:
            raise ValueError("COO indices out of bounds for shape")
        if canonical:
            keys = major[lo:hi] * span + minor[lo:hi]
            canonical = keys[0] > last and bool(np.all(keys[1:] > keys[:-1]))
            last = keys[-1]
    if canonical:
        return rows, cols, vals
    keys = major * span + minor
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


def _refuse(a: np.ndarray, bad: np.ndarray, what: str) -> None:
    if bad.any():
        raise ValueError(what.format(a[bad][:1].tolist()[0]))


def whole_numbers(a, name: str) -> np.ndarray:
    """``a`` as integers — as it is when its dtype is integral, else int64
    — refusing, by its value, one that is not a whole number."""
    a = np.asarray(a)
    if a.dtype.kind in "iu":
        return a
    kind = a.dtype.kind     # bools and objects: what survives int64
    _refuse(a, ~np.isfinite(a) | (a != np.trunc(a)) if kind == "f" else
            np.full(a.shape, True) if kind == "c" else a.astype(np.int64) != a,
            name + ": {!r} is not a whole number")
    return a.astype(np.int64)


def real_values(vals, name: str) -> np.ndarray:
    """``vals`` as float64 (not copied when they are), refusing, by its
    value, one whose imaginary part a cast would drop."""
    vals = np.asarray(vals)
    if vals.dtype.kind == "c":
        _refuse(vals, vals.imag != 0, name + ": {!r} has an imaginary part")
        vals = vals.real.copy()
    return np.asarray(vals, dtype=np.float64)


def index_array(a, dtype, name: str, stop: int, start: int = 0,
                copy: bool = False) -> np.ndarray:
    """``a`` as an index array of ``dtype`` after an O(size) check that
    every value lies in ``[start, stop)``.  The check runs at the width
    the values arrive in, so an out-of-range value raises instead of
    wrapping into range when the array is narrowed.  An array that is
    already of ``dtype`` is returned as it is unless ``copy`` is set."""
    a = whole_numbers(a, name)  # at least the exchange width until checked
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
    return ptr, ind, real_values(sp.data, "data").copy()
