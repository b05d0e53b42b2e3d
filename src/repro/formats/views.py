"""The sparse-matrix abstraction: the index-structure grammar of paper
Figure 6, with enumeration properties.

A format designer describes *how a format can be walked* with a term::

    E := Index -> E                    (nesting)
       | map{F(in) |-> out : E}        (affine change of coordinates)
       | perm{P(in) |-> out : E}       (permutation of one coordinate)
       | E U E                         (aggregation: both parts must be walked)
       | E (+) E                       (perspective: either part may be walked)
       | v                             (the stored value)

    Index := attribute                 (a single coordinate)
           | <attr, ..., attr>         (coordinates enumerated jointly)
           | (attr x ... x attr)       (independent dense coordinates)

Each attribute carries *enumeration properties*: the order in which stored
entries yield the coordinate (increasing / decreasing / unordered), how the
coordinate can be searched (none / linear / binary / direct), and whether the
coordinate is a dense interval (in which case it can be enumerated in any
direction and searched directly).

:func:`access_paths` flattens a view term into the set of alternative
*access paths*.  Perspectives multiply alternatives; aggregations produce
paths tagged with a branch id (the compiler executes statements once per
branch, paper Section 4); maps rewrite the relation between the matrix's
logical dimensions (row ``r``, column ``c``) and the stored axes;
permutations keep the logical dimension but mark that its stored enumeration
order is meaningless and that searching it goes through the permutation's
inverse.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.polyhedra.linexpr import LinExpr

# enumeration orders
INCREASING = "increasing"
DECREASING = "decreasing"
UNORDERED = "unordered"

# search methods
NOSEARCH = "none"
LINEAR = "linear"
BINARY = "binary"
DIRECT = "direct"

_ORDERS = (INCREASING, DECREASING, UNORDERED)
SEARCHES = (NOSEARCH, LINEAR, BINARY, DIRECT)    # weakest first


class Axis:
    """An attribute with its enumeration properties."""

    __slots__ = ("name", "order", "search", "interval")

    def __init__(self, name: str, order: str = UNORDERED, search: str = NOSEARCH,
                 interval: bool = False):
        if order not in _ORDERS:
            raise ValueError(f"unknown order {order!r}")
        if search not in SEARCHES:
            raise ValueError(f"unknown search {search!r}")
        self.name = name
        self.order = order
        self.search = search
        self.interval = interval

    def __repr__(self):
        extra = ",interval" if self.interval else ""
        return f"Axis({self.name},{self.order},{self.search}{extra})"


def interval_axis(name: str) -> Axis:
    """A dense interval coordinate: any direction, direct search."""
    return Axis(name, order=INCREASING, search=DIRECT, interval=True)


# ---------------------------------------------------------------------------
# View terms
# ---------------------------------------------------------------------------

class Term:
    """Base class of view terms."""

    __slots__ = ()


class Value(Term):
    """The stored value leaf ``v``."""

    __slots__ = ()

    def __repr__(self):
        return "v"


class Nest(Term):
    """``axis -> child``."""

    __slots__ = ("axis", "child")

    def __init__(self, axis: Axis, child: Term):
        self.axis = axis
        self.child = child

    def __repr__(self):
        return f"{self.axis.name} -> {self.child!r}"


class Joint(Term):
    """``<a, b, ...> -> child`` — coordinates enumerated together (COO)."""

    __slots__ = ("axes", "child")

    def __init__(self, axes: Sequence[Axis], child: Term):
        self.axes = tuple(axes)
        self.child = child

    def __repr__(self):
        names = ", ".join(a.name for a in self.axes)
        return f"<{names}> -> {self.child!r}"


class Cross(Term):
    """``(a x b x ...) -> child`` — independent dense coordinates; every
    ordering of the coordinates is a valid nesting (dense storage)."""

    __slots__ = ("axes", "child")

    def __init__(self, axes: Sequence[Axis], child: Term):
        self.axes = tuple(axes)
        self.child = child

    def __repr__(self):
        names = " x ".join(a.name for a in self.axes)
        return f"({names}) -> {self.child!r}"


class MapTerm(Term):
    """``map{F(in) |-> out : child}`` — affine coordinate change.

    ``mapping`` gives, for each *output* (logical) coordinate, an affine
    expression over the child's (stored) coordinates, e.g. for DIA
    ``{"r": d + o, "c": o}``.
    """

    __slots__ = ("mapping", "child")

    def __init__(self, mapping: Mapping[str, LinExpr], child: Term):
        self.mapping = {k: LinExpr.coerce(v) for k, v in mapping.items()}
        self.child = child

    def __repr__(self):
        m = ", ".join(f"{v!r} |-> {k}" for k, v in self.mapping.items())
        return f"map{{{m} : {self.child!r}}}"


class PermTerm(Term):
    """``perm{P(stored) |-> logical : child}`` — one coordinate goes through
    a permutation vector named ``perm_name`` (JAD's ``iperm``)."""

    __slots__ = ("logical", "stored", "perm_name", "child")

    def __init__(self, logical: str, stored: str, perm_name: str, child: Term):
        self.logical = logical
        self.stored = stored
        self.perm_name = perm_name
        self.child = child

    def __repr__(self):
        return f"perm{{{self.perm_name}[{self.stored}] |-> {self.logical} : {self.child!r}}}"


class Union(Term):
    """``left U right`` — both structures must be enumerated (aggregation)."""

    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        self.left = left
        self.right = right

    def __repr__(self):
        return f"({self.left!r}) U ({self.right!r})"


class Perspective(Term):
    """``left (+) right`` — the matrix can be accessed through either
    structure."""

    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        self.left = left
        self.right = right

    def __repr__(self):
        return f"({self.left!r}) (+) ({self.right!r})"


# ---------------------------------------------------------------------------
# Access paths
# ---------------------------------------------------------------------------

class AxisView:
    """How one product-space (logical or post-map) coordinate behaves along
    a particular access path."""

    __slots__ = ("name", "order", "search", "interval", "perm")

    def __init__(self, name: str, order: str, search: str, interval: bool,
                 perm: Optional[str] = None):
        self.name = name
        self.order = order
        self.search = search
        self.interval = interval
        self.perm = perm  # name of the permutation vector, if any

    def __repr__(self):
        p = f",perm={self.perm}" if self.perm else ""
        return f"AxisView({self.name},{self.order},{self.search}{p})"


class Step:
    """One enumeration level of an access path: one axis (nesting) or a
    tuple of axes produced together (joint)."""

    __slots__ = ("axes", "joint")

    def __init__(self, axes: Sequence[AxisView], joint: bool):
        self.axes = tuple(axes)
        self.joint = joint

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.axes)

    def __repr__(self):
        names = ",".join(self.names)
        return f"Step({'<' + names + '>' if self.joint else names})"


class AccessPath:
    """A complete way of walking a format down to its values.

    - ``steps`` — the enumeration levels, outermost first;
    - ``subs`` — for each logical matrix dimension ("r"/"c"), an affine
      expression over the step axis names (identity unless a map intervened);
    - ``branch`` — aggregation branch id ("" when the view has no Union);
    - ``path_id`` — stable identifier used to look up the runtime.
    """

    __slots__ = ("path_id", "steps", "subs", "branch")

    def __init__(self, path_id: str, steps: Sequence[Step],
                 subs: Mapping[str, LinExpr], branch: str = ""):
        self.path_id = path_id
        self.steps = tuple(steps)
        self.subs = {k: LinExpr.coerce(v) for k, v in subs.items()}
        self.branch = branch

    @property
    def axis_names(self) -> Tuple[str, ...]:
        out: List[str] = []
        for s in self.steps:
            out.extend(s.names)
        return tuple(out)

    def axis(self, name: str) -> AxisView:
        for s in self.steps:
            for a in s.axes:
                if a.name == name:
                    return a
        raise KeyError(name)

    def step_of(self, name: str) -> int:
        for i, s in enumerate(self.steps):
            if name in s.names:
                return i
        raise KeyError(name)

    def __repr__(self):
        chain = " -> ".join(repr(s) for s in self.steps)
        br = f" [{self.branch}]" if self.branch else ""
        return f"AccessPath({self.path_id}: {chain}{br})"


def access_paths(term: Term, logical_dims: Sequence[str] = ("r", "c")) -> List[AccessPath]:
    """Flatten a view term into its access paths.

    Path ids are assigned deterministically from the traversal; formats that
    need specific ids should rename afterwards (see
    :meth:`~repro.formats.base.SparseFormat.with_path_ids`).
    """

    def walk(t: Term) -> List[Tuple[List[Step], Dict[str, LinExpr], str]]:
        if isinstance(t, Value):
            return [([], {}, "")]
        if isinstance(t, Nest):
            av = AxisView(t.axis.name, t.axis.order, t.axis.search, t.axis.interval)
            out = []
            for steps, subs, br in walk(t.child):
                out.append(([Step([av], joint=False)] + steps, subs, br))
            return out
        if isinstance(t, Joint):
            avs = [AxisView(a.name, a.order, a.search, a.interval) for a in t.axes]
            out = []
            for steps, subs, br in walk(t.child):
                out.append(([Step(avs, joint=True)] + steps, subs, br))
            return out
        if isinstance(t, Cross):
            out = []
            for perm_axes in itertools.permutations(t.axes):
                head = [Step([AxisView(a.name, a.order, a.search, a.interval)], joint=False)
                        for a in perm_axes]
                for steps, subs, br in walk(t.child):
                    out.append((head + list(steps), subs, br))
            return out
        if isinstance(t, MapTerm):
            out = []
            for steps, subs, br in walk(t.child):
                new_subs = dict(subs)
                for logical, expr in t.mapping.items():
                    # compose: the logical dim is `expr` over the child's axes;
                    # child's own subs may already rewrite those axes
                    new_subs[logical] = expr.substitute(subs) if subs else expr
                out.append((list(steps), new_subs, br))
            return out
        if isinstance(t, PermTerm):
            out = []
            for steps, subs, br in walk(t.child):
                renamed: List[Step] = []
                for s in steps:
                    axes = []
                    for a in s.axes:
                        if a.name == t.stored:
                            # logical coordinate: stored order is meaningless
                            # for the logical values; searching goes through
                            # the inverse permutation (direct once built).
                            axes.append(AxisView(
                                t.logical,
                                UNORDERED,
                                a.search if a.search != NOSEARCH else NOSEARCH,
                                a.interval,
                                perm=t.perm_name,
                            ))
                        else:
                            axes.append(a)
                    renamed.append(Step(axes, s.joint))
                new_subs = {k: v.rename({t.stored: t.logical}) for k, v in subs.items()}
                out.append((renamed, new_subs, br))
            return out
        if isinstance(t, Perspective):
            return walk(t.left) + walk(t.right)
        if isinstance(t, Union):
            out = []
            for steps, subs, br in walk(t.left):
                out.append((steps, subs, ("u0" + br) if br else "u0"))
            for steps, subs, br in walk(t.right):
                out.append((steps, subs, ("u1" + br) if br else "u1"))
            return out
        raise TypeError(f"unknown view term {type(t).__name__}")

    results = walk(term)
    paths: List[AccessPath] = []
    for i, (steps, subs, br) in enumerate(results):
        full_subs: Dict[str, LinExpr] = {}
        axis_names = [a.name for s in steps for a in s.axes]
        for d in logical_dims:
            if d in subs:
                full_subs[d] = subs[d]
            elif d in axis_names:
                full_subs[d] = LinExpr.variable(d)
            else:
                raise ValueError(
                    f"logical dimension {d!r} is neither an axis nor produced by a map "
                    f"in path {i} of {term!r}"
                )
        paths.append(AccessPath(f"p{i}", steps, full_subs, br))
    return paths


def union_branches(paths: Sequence[AccessPath]) -> List[str]:
    """Distinct aggregation branch ids among the paths ('' = no union)."""
    seen: List[str] = []
    for p in paths:
        if p.branch not in seen:
            seen.append(p.branch)
    return seen
