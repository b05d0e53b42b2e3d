"""Storage declarations: where the arrays behind a view are.

A format's ``view()`` says how its index structure *can be walked* and
searched; its ``storage(path_id)`` says where one access path keeps that
structure — a :class:`Storage` with one level per step of the path, the
value array, and the kernel arguments in signature order.  It has two
readers: the compiler (:class:`repro.codegen.emitters.ViewEmitter`)
composes loops, searches and the value access from it, in Python and in
C, and :class:`repro.formats.base.LevelRuntime` walks it for the generic
BLAS and the tests' reference plan interpreter.  A format that declares
nothing writes its own :class:`~repro.formats.base.PathRuntime` and runs
as Python only.

A level names attributes of the format instance (arrays) and declared
sizes.  Where a level takes an *expression* (``Range`` bounds, a slot's
address, the value's index) it is an ``int``, the local name of a
:class:`Size`, the name of an axis of the path (the state its level
yields: the key for ``Dense``/``Range``, the position for a :class:`Perm`,
the slot — or its address — for the others), :func:`at`, or ``(op,
operand, ...)`` with ``op`` one of ``+ - min max neg``.

An axis the view permutes (``perm{P(in) |-> out : E}``) is declared by a
:class:`Perm`, and no other is: a ``Perm`` of a ``Dense`` level, or, as a
``Coords`` coordinate, of an :class:`Offset` — a slot's offset in its
pointer segment.  JAD's two paths use both.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Dense(NamedTuple):
    """Every coordinate in ``[0, extent)``."""
    extent: str


class Range(NamedTuple):
    """Every coordinate in ``[lo, hi)``, two expressions over the enclosing
    levels (DIA's offsets within a diagonal, a skyline row's columns)."""
    lo: object
    hi: object


class Compressed(NamedTuple):
    """Slots ``ptr[p] .. ptr[p + 1]`` of the coordinate array ``ind``, sorted
    within the segment, ``p`` the enclosing level's state.  With
    ``off_diagonal`` the slot whose coordinate equals ``p`` is not part of
    this path (SYM's mirrored triangle)."""
    ptr: str
    ind: str
    slot: str = "jj"
    off_diagonal: bool = False


class Counted(NamedTuple):
    """Slots ``0 .. count[p]`` of row ``p`` of the 2-d coordinate array
    ``ind`` (ELL) — or, given an ``address`` expression that may name
    ``slot``, of a 1-d ``ind`` at that address, which is then the state
    (JAD's rows: ``dptr[dd] + rr``)."""
    count: str
    ind: str
    slot: str = "kk"
    address: object = None


class Coords(NamedTuple):
    """Slots ``0 .. extent`` of coordinates enumerated together, one per
    axis of a joint step (COO): an array holding the coordinate of every
    slot, or a :class:`Perm` of an :class:`Offset`."""
    inds: Tuple
    extent: str
    slot: str = "k"


class Perm(NamedTuple):
    """An axis the view permutes through ``P``: ``stored`` (a ``Dense``
    level, or an ``Offset``) holds positions ``x``, each the key ``P[x]``.
    Over ``Dense`` the state is ``x``; a search for ``r`` is ``inverse[r]``
    if ``0 <= r < extent`` (else absent), and the interval stays ``[0,
    extent)``: ``P`` is a bijection of it."""
    stored: object
    inverse: str


class Offset(NamedTuple):
    """Slot ``k``'s coordinate ``k - ptr[d]``, ``d`` the segment holding
    ``k``, walked forward as the slots are visited: its step is unordered
    and, when searched, scanned."""
    ptr: str


def Sorted(ind: str, extent: str, slot: str = "k") -> Coords:
    """One sorted coordinate list (DIA's stored diagonals)."""
    return Coords((ind,), extent, slot)


def at(array: str, index) -> Tuple:
    """The expression ``array[index]``."""
    return ("at", array, index)


class Size(NamedTuple):
    """A scalar kernel argument ``local``, read from attribute ``attr`` of
    the instance (``kind="len"``: the length of that attribute)."""
    local: str
    attr: str
    kind: str = "attr"


class Storage(NamedTuple):
    """One access path's storage: ``levels`` (one per step, outermost
    first), ``value`` = ``(array, index expression, ...)``, and ``args`` —
    array attribute names and :class:`Size` s in the order the kernel takes
    them."""
    levels: Tuple
    value: Tuple
    args: Tuple
