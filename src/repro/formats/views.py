"""Access paths: what the compiler sees of a format's index structure.

A format declares its paths (:mod:`repro.formats.levels`); each becomes an
:class:`AccessPath` — its steps, one per level, each yielding one axis or,
jointly, several; the logical row and column as affine expressions over
the axes (``subs``); its aggregation branch.  Every axis carries the
*enumeration properties* of paper Figure 6 (:class:`AxisView`): the order
in which stored entries yield it (increasing / decreasing / unordered),
how it can be searched (none / linear / binary / direct), whether it is a
dense interval, and the permutation it goes through, if any — read off
the kind of its level, or stated by an :class:`Axis` override.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

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
    """An attribute with its enumeration properties; in a declaration
    (:class:`~repro.formats.levels.Path`), the order and search an axis
    has in place of its level's."""

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
    - ``branch`` — aggregation branch id ("" when the format has one);
    - ``path_id`` — the id the format declares it under.
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


def union_branches(paths: Sequence[AccessPath]) -> List[str]:
    """Distinct aggregation branch ids among the paths ('' = no union)."""
    seen: List[str] = []
    for p in paths:
        if p.branch not in seen:
            seen.append(p.branch)
    return seen
