"""Constraint systems (polyhedra) over named variables.

A :class:`System` is a conjunction of constraints ``expr >= 0`` / ``expr == 0``
stored as integer rows (any rational constraint scales to one).  Dependence
classes (paper Section 3, ``D (i_s, i_d)^T + d >= 0``) are represented this
way, as are the derived legality systems.
"""

from __future__ import annotations

import math
from typing import FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.polyhedra.linexpr import Coeffish, LinExpr

GE = "GE"  # expr >= 0
EQ = "EQ"  # expr == 0


class Constraint:
    """A single affine constraint ``expr (>=|==) 0``, kept in a normalized
    form — an all-``int`` row with gcd 1 — so that duplicates hash equal."""

    __slots__ = ("expr", "kind")

    def __init__(self, expr: LinExpr, kind: str = GE):
        if kind not in (GE, EQ):
            raise ValueError(f"constraint kind must be GE or EQ, got {kind!r}")
        self.expr = _normalize(expr, kind)
        self.kind = kind

    def variables(self) -> Tuple[str, ...]:
        return self.expr.variables()

    @property
    def is_trivial(self) -> bool:
        """Constant constraint that always holds."""
        if self.expr.coeffs:
            return False
        if self.kind == GE:
            return self.expr.const >= 0
        return self.expr.const == 0

    @property
    def is_contradiction(self) -> bool:
        return not self.expr.coeffs and not self.is_trivial

    def satisfied_by(self, env: Mapping[str, Coeffish]) -> bool:
        v = self.expr.evaluate(env)
        return v >= 0 if self.kind == GE else v == 0

    def rename(self, mapping: Mapping[str, str]) -> "Constraint":
        expr = self.expr.rename(mapping)
        return self if expr is self.expr else Constraint(expr, self.kind)

    def substitute(self, bindings: Mapping[str, LinExpr]) -> "Constraint":
        expr = self.expr.substitute(bindings)
        return self if expr is self.expr else Constraint(expr, self.kind)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Constraint)
            and self.kind == other.kind
            and self.expr == other.expr
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.expr))

    def __repr__(self) -> str:
        op = ">=" if self.kind == GE else "=="
        return f"{self.expr!r} {op} 0"


def _normalize(expr: LinExpr, kind: str) -> LinExpr:
    """Scale to an all-``int`` row with gcd 1 (any positive multiple of a
    constraint is the same constraint).  For EQ also fix the sign of the
    leading coefficient, making x==0 and -x==0 identical.  Returns ``expr``
    itself when it already is that row."""
    coeffs, const = expr.coeffs, expr.const
    scale = math.lcm(*(c.denominator for c in coeffs.values() if type(c) is not int),
                     1 if type(const) is int else const.denominator)
    if scale != 1:      # c * scale is integral: int() is exact
        coeffs = {k: int(c * scale) for k, c in coeffs.items()}
        const = int(const * scale)
    g = math.gcd(const, *coeffs.values()) or 1
    if kind == EQ and coeffs and coeffs[min(coeffs)] < 0:
        g = -g                  # dividing by -g flips the sign as well
    if g == 1:
        return expr if scale == 1 else LinExpr._make(coeffs, const)
    return LinExpr._make({k: c // g for k, c in coeffs.items()}, const // g)


class System:
    """A conjunction of constraints; the polyhedron they define.  Treated as
    immutable once built: the variable set and the signature are cached."""

    def __init__(self, constraints: Iterable[Constraint] = ()):  # noqa: D401
        self.constraints: List[Constraint] = []
        #: some constant constraint is false
        self.has_contradiction = False
        seen: Set[Constraint] = set()
        for c in constraints:
            if not c.expr.coeffs:
                if c.is_trivial:
                    continue
                self.has_contradiction = True
            n = len(seen)
            seen.add(c)
            if len(seen) != n:      # first occurrence (one hash, not two)
                self.constraints.append(c)
        self._variables: Optional[Tuple[str, ...]] = None
        self._signature: Optional[FrozenSet[Constraint]] = None

    def __reduce__(self):
        return (System, (self.constraints,))

    def __setstate__(self, state):
        # a system pickled before the cached fields existed (disk cache of
        # an older build): its state is the bare constraint list
        self.__init__(state["constraints"])

    # -- construction helpers --------------------------------------------
    @staticmethod
    def of(*constraints: Constraint) -> "System":
        return System(constraints)

    def and_also(self, *constraints: Constraint) -> "System":
        return System(self.constraints + list(constraints))

    def conjoin(self, other: "System") -> "System":
        return System(self.constraints + other.constraints)

    # -- queries ------------------------------------------------------------
    def variables(self) -> Tuple[str, ...]:
        if self._variables is None:
            names: Set[str] = set()
            for c in self.constraints:
                names.update(c.expr.coeffs)
            self._variables = tuple(sorted(names))
        return self._variables

    def signature(self) -> FrozenSet[Constraint]:
        """Canonical, order-insensitive identity of the conjunction:
        constraints are normalized, so two systems denoting the same set of
        constraints — however they were built — share a signature."""
        if self._signature is None:
            self._signature = frozenset(self.constraints)
        return self._signature

    def satisfied_by(self, env: Mapping[str, Coeffish]) -> bool:
        return all(c.satisfied_by(env) for c in self.constraints)

    def rename(self, mapping: Mapping[str, str]) -> "System":
        return System(c.rename(mapping) for c in self.constraints)

    def substitute(self, bindings: Mapping[str, LinExpr]) -> "System":
        return System(c.substitute(bindings) for c in self.constraints)

    def equalities(self) -> List[Constraint]:
        return [c for c in self.constraints if c.kind == EQ]

    def inequalities(self) -> List[Constraint]:
        return [c for c in self.constraints if c.kind == GE]

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def __repr__(self) -> str:
        if not self.constraints:
            return "System{ true }"
        body = ", ".join(repr(c) for c in self.constraints)
        return f"System{{ {body} }}"


# -- convenience constraint builders ---------------------------------------

def ge(lhs, rhs) -> Constraint:
    """lhs >= rhs."""
    return Constraint(LinExpr.coerce(lhs) - LinExpr.coerce(rhs), GE)


def le(lhs, rhs) -> Constraint:
    """lhs <= rhs."""
    return Constraint(LinExpr.coerce(rhs) - LinExpr.coerce(lhs), GE)


def eq(lhs, rhs) -> Constraint:
    """lhs == rhs."""
    return Constraint(LinExpr.coerce(lhs) - LinExpr.coerce(rhs), EQ)


def gt(lhs, rhs) -> Constraint:
    """lhs >= rhs + 1 (strict, for integer points)."""
    return Constraint(LinExpr.coerce(lhs) - LinExpr.coerce(rhs) - 1, GE)


def lt(lhs, rhs) -> Constraint:
    """lhs <= rhs - 1 (strict, for integer points)."""
    return Constraint(LinExpr.coerce(rhs) - LinExpr.coerce(lhs) - 1, GE)
