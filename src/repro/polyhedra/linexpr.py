"""Affine (linear + constant) expressions over named variables, exact.

``LinExpr`` is an immutable mapping ``{var_name: coefficient}`` plus a
constant.  Numbers are kept in one *canonical* form: a plain ``int``
whenever the value is integral, a ``fractions.Fraction`` only for a
genuinely rational value (``Fraction(4, 2)`` is stored as ``2``).  Almost
every expression the compiler builds is integral, so its arithmetic is
plain-``int`` arithmetic; ``Fraction(2) == 2`` and they hash alike, so the
form is invisible to equality, hashing and ``repr``.

Variable names are arbitrary strings; the IR uses qualified names like
``"S2.i"`` (iteration variable ``i`` of statement ``S2``) and ``"S2.A.r"``
(row data axis of the reference to ``A`` in ``S2``) so that expressions
from different statements can live in one system.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Tuple, Union

from repro.util.fractions_linalg import Exact, canon

#: a coefficient: canonical on the way out, either spelling on the way in
Coeffish = Exact

_set = object.__setattr__       # LinExpr.__setattr__ refuses: it is immutable


class LinExpr:
    """Immutable affine expression ``sum(coeffs[v] * v) + const``."""

    __slots__ = ("coeffs", "const", "_hash")

    def __init__(self, coeffs: Mapping[str, Coeffish] = (), const: Coeffish = 0):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        cleaned: Dict[str, Coeffish] = {}
        for k, v in items:
            if type(v) is not int:
                v = canon(v)
            if v:
                cleaned[k] = v
        _set(self, "coeffs", cleaned)
        _set(self, "const", const if type(const) is int else canon(const))
        _set(self, "_hash", None)

    @staticmethod
    def _make(coeffs: Dict[str, Coeffish], const: Coeffish) -> "LinExpr":
        """Trusted constructor: ``coeffs`` is a dict this expression may
        own, holding no zero, and every number is already canonical."""
        self = object.__new__(LinExpr)
        _set(self, "coeffs", coeffs)
        _set(self, "const", const)
        _set(self, "_hash", None)
        return self

    def __setattr__(self, *a):  # immutability
        raise AttributeError("LinExpr is immutable")

    def __reduce__(self):
        # pickle via the constructor: the default slot protocol would
        # setattr() on load, which immutability forbids
        return (LinExpr, (self.coeffs, self.const))

    # -- constructors ----------------------------------------------------
    @staticmethod
    def variable(name: str) -> "LinExpr":
        return LinExpr._make({name: 1}, 0)

    @staticmethod
    def constant(c: Coeffish) -> "LinExpr":
        return LinExpr._make({}, canon(c))

    @staticmethod
    def coerce(x: Union["LinExpr", int, Fraction, str]) -> "LinExpr":
        if isinstance(x, LinExpr):
            return x
        if isinstance(x, (int, Fraction)):
            return LinExpr.constant(x)
        if isinstance(x, str):
            return LinExpr.variable(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to LinExpr")

    # -- queries ----------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def variables(self) -> Tuple[str, ...]:
        return tuple(sorted(self.coeffs))

    def coeff(self, name: str) -> Coeffish:
        return self.coeffs.get(name, 0)

    def evaluate(self, env: Mapping[str, Coeffish]) -> Coeffish:
        total = self.const
        for k, c in self.coeffs.items():
            if k not in env:
                raise KeyError(f"no value for variable {k!r}")
            total += c * canon(env[k])
        return canon(total)

    # -- algebra ----------------------------------------------------------
    def __add__(self, other) -> "LinExpr":
        if type(other) is not LinExpr:
            other = LinExpr.coerce(other)
        const = self.const + other.const
        if type(const) is not int:
            const = canon(const)
        if not other.coeffs:
            return self if const == self.const else LinExpr._make(self.coeffs, const)
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            mine = coeffs.get(k)
            if mine is None:
                coeffs[k] = v
                continue
            total = mine + v
            if type(total) is not int:
                total = canon(total)
            if total:
                coeffs[k] = total
            else:
                del coeffs[k]
        return LinExpr._make(coeffs, const)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr._make({k: -v for k, v in self.coeffs.items()}, -self.const)

    def __sub__(self, other) -> "LinExpr":
        return self + (-LinExpr.coerce(other))

    def __rsub__(self, other) -> "LinExpr":
        return LinExpr.coerce(other) - self

    def __mul__(self, scalar: Coeffish) -> "LinExpr":
        s = scalar if type(scalar) is int else canon(scalar)
        if s == 1:
            return self
        if s == 0:
            return _ZERO
        # a product of non-zeros is non-zero; only a Fraction operand can
        # yield a non-canonical one
        coeffs = {k: p if type(p := v * s) is int else canon(p)
                  for k, v in self.coeffs.items()}
        return LinExpr._make(coeffs, canon(self.const * s))

    __rmul__ = __mul__

    def substitute(self, bindings: Mapping[str, "LinExpr"]) -> "LinExpr":
        """Replace variables with affine expressions (``self`` when none of
        its variables is bound)."""
        out = self
        for k, c in self.coeffs.items():
            if k in bindings:
                out = out + (LinExpr.coerce(bindings[k]) - LinExpr._make({k: 1}, 0)) * c
        return out

    def rename(self, mapping: Mapping[str, str]) -> "LinExpr":
        if not any(mapping.get(k, k) != k for k in self.coeffs):
            return self
        return LinExpr._make({mapping.get(k, k): v for k, v in self.coeffs.items()},
                             self.const)

    # -- protocol ----------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((tuple(sorted(self.coeffs.items())), self.const))
            _set(self, "_hash", h)
        return h

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


_ZERO = LinExpr._make({}, 0)


def var(name: str) -> LinExpr:
    """Shorthand for a single-variable expression."""
    return LinExpr.variable(name)


def const(c: Coeffish) -> LinExpr:
    """Shorthand for a constant expression."""
    return LinExpr.constant(c)


def zero() -> LinExpr:
    return _ZERO
