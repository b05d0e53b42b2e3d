"""Storage declarations: where the arrays behind a view are.

A format's ``view()`` says how its index structure *can be walked* and
searched; its ``storage(path_id)`` says where one access path keeps that
structure — a :class:`Storage` with one level per step of the path, the
value array, and the kernel arguments in signature order.  It has two
readers: the compiler (:class:`repro.codegen.emitters.ViewEmitter`)
composes loops, searches and the value access from it, in Python and in
C, and :class:`repro.formats.base.LevelRuntime` walks it for the plan
interpreter and the generic BLAS.  A format that declares nothing writes
its own :class:`~repro.formats.base.PathRuntime` and runs as Python only.

A level names attributes of the format instance (arrays) and declared
sizes.  Where a level takes an *expression* (``Range`` bounds, the value's
index) it is an ``int``, the local name of a :class:`Size`, the name of an
axis of the path (the state its level yields: the key for ``Dense`` and
``Range``, the slot position for the others), :func:`at`, or
``(op, operand, ...)`` with ``op`` one of ``+ - min max neg``.
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
    ``ind`` (ELL)."""
    count: str
    ind: str
    slot: str = "kk"


class Coords(NamedTuple):
    """Slots ``0 .. extent`` of coordinate arrays enumerated together, one
    per axis of a joint step (COO)."""
    inds: Tuple[str, ...]
    extent: str
    slot: str = "k"


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
