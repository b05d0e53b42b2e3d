"""Format declarations: a format is an ordered mapping from path id to
:class:`Path`, the paper's index-structure grammar (Figure 6) written as
levels.

A :class:`Path` is one way of walking the format down to its values: the
names of its axes, outermost first, and a :class:`Storage` — one level per
step, the value array, the kernel arguments in signature order.  The
grammar maps onto it as follows: nesting is the level stack; a tuple
``<a, b>`` is a :class:`Coords` level with several axes; ``map{}`` is
``subs`` (the logical row ``r`` and column ``c`` as affine expressions
over the axes); ``U`` is ``branch``; ``(+)`` is several paths in one
branch; a cross ``(a x b)`` is its orders listed as paths; ``perm{}`` is a
:class:`Perm` level.  Each axis' order and search follow from the kind of
its level (:func:`repro.formats.base.axis_views`); an :class:`Axis` in
place of a name states others, which the level must be able to build.

The declaration has two readers: the compiler
(:class:`repro.codegen.emitters.ViewEmitter`) composes loops, searches and
the value access from it, in Python and in C, and
:class:`repro.formats.base.LevelRuntime` walks it — for the format's own
``get``, ``set``, ``to_coo_arrays`` and assembly, the generic BLAS, the
cost model's step totals and the tests' reference plan interpreter.
``compile_kernel`` refuses a format that declares nothing.

A level names attributes of the format instance (arrays) and declared
sizes.  Where a level takes an *expression* (``Range`` bounds, a slot's
address, the value's index) it is an ``int``, the local name of a
:class:`Size`, the name of an axis of the path (the state its level
yields: the key for ``Dense``/``Range``, the position for a :class:`Perm`,
the slot — or its address — for the others), :func:`at`, or ``(op,
operand, ...)`` with ``op`` one of ``+ - min max neg``.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Tuple


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
    """A permuted axis (``perm{P(x) |-> r}``): ``stored`` (a ``Dense``
    level, or as a ``Coords`` coordinate an ``Offset``) holds positions
    ``x``, each the key ``forward[x]``.  Over ``Dense`` the state is
    ``x``; a search for ``r`` is ``inverse[r]`` if ``0 <= r < extent``
    (else absent), and the interval stays ``[0, extent)``: the permutation
    is a bijection of it."""
    stored: object
    forward: str
    inverse: str


class Offset(NamedTuple):
    """Slot ``k``'s coordinate ``k - ptr[d]``, ``d`` the segment holding
    ``k``, walked forward as the slots are visited: the positions of a
    ``Perm`` coordinate (JAD's flat path), whose step is unordered and not
    searched."""
    ptr: str


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


class Path(NamedTuple):
    """One access path: ``axes`` names the axes outermost first — one per
    level, as many as its coordinates for a ``Coords`` level — each a name,
    or an :class:`~repro.formats.views.Axis` whose order and search
    override its level's; ``subs`` gives the logical ``r`` and ``c`` as
    affine expressions over the axes where they are not axes themselves;
    paths of one aggregation ``branch`` are alternatives (perspectives),
    the branches are all walked; ``where`` lists affine expressions over
    ``r`` and ``c``, each ``>= 0`` on every entry of the path (SYM's
    stored triangle: ``r - c``)."""
    axes: Tuple
    storage: Storage
    subs: Optional[Mapping] = None
    branch: str = ""
    where: Tuple = ()
