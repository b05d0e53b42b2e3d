"""The ``Fraction``-everywhere polyhedral core, kept as the reference.

Until the integer core replaced it this was ``repro.polyhedra`` (``LinExpr``,
``Constraint``/``_normalize``, ``System``, Fourier–Motzkin elimination) and
``repro.util.fractions_linalg.IncrementalRank``: every coefficient is a
``fractions.Fraction``, every operation builds a fresh dict of them, and
``Constraint`` scales the result back to gcd-1 integers.  It is slow and
obviously exact, which is what ``tests/test_polyhedra_differential.py``
needs.  No memo, no instrumentation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

Coeffish = Union[int, Fraction]

GE = "GE"
EQ = "EQ"
NEG_INF = float("-inf")
POS_INF = float("inf")


def _frac(x: Coeffish) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"affine coefficients must be int/Fraction, got {type(x).__name__}")


class LinExpr:
    """Immutable affine expression ``sum(coeffs[v] * v) + const``."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Mapping[str, Coeffish] = (), const: Coeffish = 0):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        self.coeffs: Dict[str, Fraction] = {}
        for k, v in items:
            fv = _frac(v)
            if fv != 0:
                self.coeffs[k] = fv
        self.const = _frac(const)

    @staticmethod
    def coerce(x) -> "LinExpr":
        if isinstance(x, LinExpr):
            return x
        if isinstance(x, (int, Fraction)):
            return LinExpr({}, x)
        if isinstance(x, str):
            return LinExpr({x: 1})
        raise TypeError(f"cannot coerce {type(x).__name__} to LinExpr")

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def variables(self) -> Tuple[str, ...]:
        return tuple(sorted(self.coeffs))

    def coeff(self, name: str) -> Fraction:
        return self.coeffs.get(name, Fraction(0))

    def evaluate(self, env: Mapping[str, Coeffish]) -> Fraction:
        total = self.const
        for k, c in self.coeffs.items():
            total += c * _frac(env[k])
        return total

    def __add__(self, other) -> "LinExpr":
        other = LinExpr.coerce(other)
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, Fraction(0)) + v
        return LinExpr(coeffs, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr({k: -v for k, v in self.coeffs.items()}, -self.const)

    def __sub__(self, other) -> "LinExpr":
        return self + (-LinExpr.coerce(other))

    def __rsub__(self, other) -> "LinExpr":
        return LinExpr.coerce(other) - self

    def __mul__(self, scalar: Coeffish) -> "LinExpr":
        s = _frac(scalar)
        return LinExpr({k: v * s for k, v in self.coeffs.items()}, self.const * s)

    __rmul__ = __mul__

    def substitute(self, bindings: Mapping[str, "LinExpr"]) -> "LinExpr":
        out = LinExpr({}, self.const)
        for k, c in self.coeffs.items():
            if k in bindings:
                out = out + LinExpr.coerce(bindings[k]) * c
            else:
                out = out + LinExpr({k: c})
        return out

    def rename(self, mapping: Mapping[str, str]) -> "LinExpr":
        return LinExpr({mapping.get(k, k): v for k, v in self.coeffs.items()}, self.const)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self) -> int:
        return hash((tuple(sorted(self.coeffs.items())), self.const))

    def __repr__(self) -> str:
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if c == 1:
                parts.append(f"+ {k}")
            elif c == -1:
                parts.append(f"- {k}")
            elif c > 0:
                parts.append(f"+ {c}*{k}")
            else:
                parts.append(f"- {-c}*{k}")
        if self.const != 0 or not parts:
            parts.append(f"+ {self.const}" if self.const >= 0 else f"- {-self.const}")
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else ("-" + s[2:] if s.startswith("- ") else s)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a if a else 1


def _normalize(expr: LinExpr, kind: str) -> LinExpr:
    """Scale so all coefficients are integers with gcd 1.  For EQ also fix
    the sign of the leading coefficient, making x==0 and -x==0 identical."""
    denoms = [c.denominator for c in expr.coeffs.values()] + [expr.const.denominator]
    lcm = 1
    for d in denoms:
        g = _gcd(lcm, d)
        lcm = lcm // g * d
    scaled = expr * lcm
    numers = [abs(c.numerator) for c in scaled.coeffs.values()] + [abs(scaled.const.numerator)]
    numers = [n for n in numers if n]
    if numers:
        g = numers[0]
        for n in numers[1:]:
            g = _gcd(g, n)
        if g > 1:
            scaled = scaled * Fraction(1, g)
    if kind == EQ and scaled.coeffs:
        lead = scaled.coeffs[min(scaled.coeffs)]
        if lead < 0:
            scaled = scaled * -1
    return scaled


class Constraint:
    __slots__ = ("expr", "kind")

    def __init__(self, expr: LinExpr, kind: str = GE):
        self.expr = _normalize(expr, kind)
        self.kind = kind

    @property
    def is_trivial(self) -> bool:
        if not self.expr.is_constant:
            return False
        return self.expr.const >= 0 if self.kind == GE else self.expr.const == 0

    @property
    def is_contradiction(self) -> bool:
        return self.expr.is_constant and not self.is_trivial

    def substitute(self, bindings: Mapping[str, LinExpr]) -> "Constraint":
        return Constraint(self.expr.substitute(bindings), self.kind)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Constraint) and self.kind == other.kind
                and self.expr == other.expr)

    def __hash__(self) -> int:
        return hash((self.kind, self.expr))

    def __repr__(self) -> str:
        return f"{self.expr!r} {'>=' if self.kind == GE else '=='} 0"


class System:
    def __init__(self, constraints: Iterable[Constraint] = ()):
        self.constraints: List[Constraint] = []
        seen: Set[Constraint] = set()
        for c in constraints:
            if not c.is_trivial and c not in seen:
                seen.add(c)
                self.constraints.append(c)

    def and_also(self, *constraints: Constraint) -> "System":
        return System(self.constraints + list(constraints))

    def variables(self) -> Tuple[str, ...]:
        names: Set[str] = set()
        for c in self.constraints:
            names.update(c.expr.coeffs)
        return tuple(sorted(names))

    @property
    def has_contradiction(self) -> bool:
        return any(c.is_contradiction for c in self.constraints)

    def substitute(self, bindings: Mapping[str, LinExpr]) -> "System":
        return System(c.substitute(bindings) for c in self.constraints)

    def equalities(self) -> List[Constraint]:
        return [c for c in self.constraints if c.kind == EQ]

    def __iter__(self):
        return iter(self.constraints)

    def __repr__(self) -> str:
        return "System{ " + (", ".join(map(repr, self.constraints)) or "true") + " }"


def eliminate_variable(system: System, v: str) -> System:
    for c in system.equalities():
        a = c.expr.coeff(v)
        if a != 0:
            rest = c.expr - LinExpr({v: a})
            return system.substitute({v: rest * Fraction(-1, 1) * (Fraction(1) / a)})
    lowers: List[Constraint] = []
    uppers: List[Constraint] = []
    out: List[Constraint] = []
    for c in system:
        a = c.expr.coeff(v)
        (out if a == 0 else lowers if a > 0 else uppers).append(c)
    for lo, up in itertools.product(lowers, uppers):
        combined = lo.expr * (-up.expr.coeff(v)) + up.expr * lo.expr.coeff(v)
        out.append(Constraint(combined, GE))
    return System(out)


def _elimination_order(system: System, keep: Sequence[str] = ()) -> List[str]:
    keep_set = set(keep)

    def cost(v: str) -> Tuple[int, str]:
        n_lo = n_up = n_eq = 0
        for c in system:
            a = c.expr.coeff(v)
            if a == 0:
                continue
            if c.kind == EQ:
                n_eq += 1
            elif a > 0:
                n_lo += 1
            else:
                n_up += 1
        return ((0 if n_eq else n_lo * n_up), v)

    return sorted((v for v in system.variables() if v not in keep_set), key=cost)


def project(system: System, keep: Sequence[str]) -> System:
    cur = system
    while not cur.has_contradiction:
        todo = _elimination_order(cur, keep)
        if not todo:
            break
        cur = eliminate_variable(cur, todo[0])
    return cur


def is_feasible(system: System) -> bool:
    return not project(system, ()).has_contradiction


def bounds_of(system: System, expr: LinExpr):
    if not is_feasible(system):
        raise ValueError("bounds_of on infeasible system")
    t = "__bound_t__"
    while t in system.variables() or expr.coeff(t) != 0:
        t += "_"
    proj = project(system.and_also(Constraint(LinExpr({t: 1}) - expr, EQ)), [t])
    lo, hi = NEG_INF, POS_INF
    for c in proj:
        a = c.expr.coeff(t)
        if a == 0:
            continue
        val = -c.expr.const / a
        if c.kind == EQ or a > 0:
            lo = val if lo == NEG_INF else max(lo, val)
        if c.kind == EQ or a < 0:
            hi = val if hi == POS_INF else min(hi, val)
    return lo, hi


def implied_equalities(system: System, candidates: Optional[Iterable[Tuple[str, str]]] = None
                       ) -> List[Tuple[str, str]]:
    pairs = candidates if candidates is not None else itertools.combinations(system.variables(), 2)
    if not is_feasible(system):
        return []
    out = []
    for x, y in pairs:
        lo, hi = bounds_of(system, LinExpr({x: 1, y: -1}))
        if lo == hi == 0:
            out.append((x, y))
    return out


class IncrementalRank:
    """Row-by-row linear-dependence test; ``add(row)`` returns
    ``(dependent, combination over original independent-row indices)``."""

    def __init__(self, width: int):
        self.width = width
        self._rows: List[Tuple[List[Fraction], dict]] = []
        self._count = 0

    def add(self, row: Sequence) -> Tuple[bool, Optional[dict]]:
        row = [_frac(x) for x in row]
        if len(row) != self.width:
            raise ValueError("row width mismatch")
        idx = self._count
        self._count += 1
        work = list(row)
        combo: dict = {}
        for base, base_combo in self._rows:
            lead = next((j for j, x in enumerate(base) if x != 0), None)
            if lead is None:
                continue
            if work[lead] != 0:
                f = work[lead] / base[lead]
                work = [a - f * b for a, b in zip(work, base)]
                for k, c in base_combo.items():
                    combo[k] = combo.get(k, Fraction(0)) + f * c
        if all(x == 0 for x in work):
            return True, {k: v for k, v in combo.items() if v != 0}
        expansion = {idx: Fraction(1)}
        for k, c in combo.items():
            if c != 0:
                expansion[k] = expansion.get(k, Fraction(0)) - c
        self._rows.append((work, expansion))
        return False, None

    @property
    def rank(self) -> int:
        return len(self._rows)
