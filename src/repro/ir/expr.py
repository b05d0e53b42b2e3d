"""Expressions of the dense-program IR.

Two expression languages, deliberately separate:

- :class:`AffExpr` — *index* expressions.  These must be affine in the
  surrounding loop variables and symbolic constants (paper Section 3
  assumption (iii)); they index arrays and bound loops, and are the objects
  the polyhedral machinery manipulates.
- :class:`ValExpr` — *value* expressions.  Arbitrary arithmetic over array
  reads and literals; the compiler never reasons about their algebra, only
  about which array elements they read.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Sequence, Tuple, Union

from repro.polyhedra.linexpr import Coeffish, LinExpr


class AffExpr:
    """An affine index expression: rational-coefficient combination of loop
    variables and symbolic parameters, plus a constant.

    Wraps :class:`~repro.polyhedra.linexpr.LinExpr` with IR-level niceties
    (operator overloading against ints/strings, evaluation over integer
    environments).
    """

    __slots__ = ("lin",)

    def __init__(self, lin: Union[LinExpr, int, str, "AffExpr"]):
        if isinstance(lin, AffExpr):
            lin = lin.lin
        elif isinstance(lin, int):
            lin = LinExpr.constant(lin)
        elif isinstance(lin, str):
            lin = LinExpr.variable(lin)
        elif not isinstance(lin, LinExpr):
            raise TypeError(f"cannot build AffExpr from {type(lin).__name__}")
        object.__setattr__(self, "lin", lin)

    def __setattr__(self, *a):
        raise AttributeError("AffExpr is immutable")

    def __reduce__(self):
        # pickle via the constructor (slot protocol would setattr on load)
        return (AffExpr, (self.lin,))

    # -- queries --------------------------------------------------------
    def variables(self) -> Tuple[str, ...]:
        return self.lin.variables()

    def coeff(self, name: str) -> Coeffish:
        return self.lin.coeff(name)

    @property
    def const(self) -> Coeffish:
        return self.lin.const

    @property
    def is_constant(self) -> bool:
        return self.lin.is_constant

    def evaluate(self, env: Mapping[str, int]) -> int:
        v = self.lin.evaluate(env)
        if v.denominator != 1:
            raise ValueError(f"index expression evaluated to non-integer {v}")
        return int(v)

    def rename(self, mapping: Mapping[str, str]) -> "AffExpr":
        return AffExpr(self.lin.rename(mapping))

    def substitute(self, bindings: Mapping[str, "AffExpr"]) -> "AffExpr":
        return AffExpr(self.lin.substitute({k: v.lin for k, v in bindings.items()}))

    # -- algebra ----------------------------------------------------------
    def __add__(self, other) -> "AffExpr":
        return AffExpr(self.lin + AffExpr(other).lin)

    __radd__ = __add__

    def __sub__(self, other) -> "AffExpr":
        return AffExpr(self.lin - AffExpr(other).lin)

    def __rsub__(self, other) -> "AffExpr":
        return AffExpr(AffExpr(other).lin - self.lin)

    def __neg__(self) -> "AffExpr":
        return AffExpr(-self.lin)

    def __mul__(self, scalar: int) -> "AffExpr":
        return AffExpr(self.lin * scalar)

    __rmul__ = __mul__

    # -- protocol ----------------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = AffExpr(other)
        if not isinstance(other, AffExpr):
            return NotImplemented
        return self.lin == other.lin

    def __hash__(self) -> int:
        return hash(self.lin)

    def __repr__(self) -> str:
        return repr(self.lin)


# ---------------------------------------------------------------------------
# Value expressions
# ---------------------------------------------------------------------------

class ValExpr:
    """Base class of scalar value expressions."""

    __slots__ = ()

    def reads(self) -> Iterator["VRead"]:
        """All array reads in this expression, left-to-right."""
        raise NotImplementedError

    def rename_vars(self, mapping: Mapping[str, str]) -> "ValExpr":
        raise NotImplementedError


class VConst(ValExpr):
    """A numeric literal."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value

    def reads(self):
        return iter(())

    def rename_vars(self, mapping):
        return self

    def __eq__(self, other):
        return isinstance(other, VConst) and self.value == other.value

    def __hash__(self):
        return hash(("VConst", self.value))

    def __repr__(self):
        return repr(self.value)


class VParam(ValExpr):
    """A scalar symbolic parameter (e.g. alpha in alpha*A*x)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def reads(self):
        return iter(())

    def rename_vars(self, mapping):
        return self

    def __eq__(self, other):
        return isinstance(other, VParam) and self.name == other.name

    def __hash__(self):
        return hash(("VParam", self.name))

    def __repr__(self):
        return self.name


class VRead(ValExpr):
    """A read of an array element; indices are affine expressions."""

    __slots__ = ("array", "indices")

    def __init__(self, array: str, indices: Sequence[AffExpr]):
        self.array = array
        self.indices = tuple(AffExpr(i) for i in indices)

    def reads(self):
        yield self

    def rename_vars(self, mapping):
        return VRead(self.array, tuple(i.rename(mapping) for i in self.indices))

    def __eq__(self, other):
        return (
            isinstance(other, VRead)
            and self.array == other.array
            and self.indices == other.indices
        )

    def __hash__(self):
        return hash(("VRead", self.array, self.indices))

    def __repr__(self):
        idx = "".join(f"[{i!r}]" for i in self.indices)
        return f"{self.array}{idx}"


class VBin(ValExpr):
    """Binary arithmetic: + - * /."""

    __slots__ = ("op", "left", "right")

    OPS = ("+", "-", "*", "/")

    def __init__(self, op: str, left: ValExpr, right: ValExpr):
        if op not in self.OPS:
            raise ValueError(f"unknown binary op {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def reads(self):
        yield from self.left.reads()
        yield from self.right.reads()

    def rename_vars(self, mapping):
        return VBin(self.op, self.left.rename_vars(mapping), self.right.rename_vars(mapping))

    def __eq__(self, other):
        return (
            isinstance(other, VBin)
            and self.op == other.op
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash(("VBin", self.op, self.left, self.right))

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class VNeg(ValExpr):
    """Unary negation."""

    __slots__ = ("operand",)

    def __init__(self, operand: ValExpr):
        self.operand = operand

    def reads(self):
        yield from self.operand.reads()

    def rename_vars(self, mapping):
        return VNeg(self.operand.rename_vars(mapping))

    def __eq__(self, other):
        return isinstance(other, VNeg) and self.operand == other.operand

    def __hash__(self):
        return hash(("VNeg", self.operand))

    def __repr__(self):
        return f"(-{self.operand!r})"
