"""The loop IR between enumeration plans and the two code printers.

The generator (:mod:`repro.codegen.pysource`) and the storage emitters
(:mod:`repro.codegen.emitters`) build a tree of these nodes once per
kernel; Python is printed from it here (:func:`print_python`) and C99 in
:mod:`repro.codegen.native`.  Everything a printer or a loop transform
needs is on the nodes — nothing is recovered from text:

- integer index expressions are :class:`~repro.polyhedra.linexpr.LinExpr`
  over emitted scalar names (a fractional coefficient means an exact
  floor division), so bounds and guards stay affine for the transforms;
- array accesses are :class:`Load` / :class:`Store` on an
  :class:`ArrayArg` that carries its dtype, rank and how to load it from
  the ``(arrays, params)`` call — taken from the bound instance when the
  emitter declared it;
- every :class:`For` carries the plan dimensions it enumerates (``dims``),
  which is what parallelism verdicts are looked up by;
- a search is statements too — ``Assign``/``While``/``If`` built at the
  search site by :meth:`repro.codegen.emitters.BaseEmitter.bisect` and
  ``scan`` — so a printed kernel is one function and nothing beside it;
- :class:`PyOnly` is the one node without a C printer: the gather-and-sort
  enumeration.

Expression nodes compare and hash structurally (a read-modify-write store
is ``value.left == Load(array, idx)``); statements and arguments are
compared by identity.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.polyhedra.linexpr import LinExpr

ZERO = LinExpr.constant(0)
V = LinExpr.variable


class Node:
    """Base of all IR nodes; the fields are the class's ``__slots__``."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            setattr(self, name, value)

    def __repr__(self):
        fields = ", ".join(repr(getattr(self, n)) for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Expr(Node):
    """Expression nodes: immutable by convention, structural equality."""

    __slots__ = ()

    def _key(self):
        return tuple(getattr(self, n) for n in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__,) + self._key())


# -- expressions -------------------------------------------------------------

class Const(Expr):
    """A value literal (the program's float constants)."""
    __slots__ = ("value",)


class Load(Expr):
    """``array[idx]``; ``idx`` is a tuple with one entry per dimension
    (empty for a 0-d array)."""
    __slots__ = ("array", "idx")


class BinOp(Expr):
    """``+ - * /`` on values and indices, ``// %`` and ``min``/``max`` on
    indices.  ``//`` floors and ``/`` is true division, as in Python."""
    __slots__ = ("op", "left", "right")


class Neg(Expr):
    __slots__ = ("operand",)


class Cmp(Expr):
    """``left op right`` with op one of ``< <= > >= == !=``."""
    __slots__ = ("op", "left", "right")


class And(Expr):
    __slots__ = ("terms",)


class Select(Expr):
    """``then if cond else orelse`` (only the chosen side is evaluated)."""
    __slots__ = ("cond", "then", "orelse")


# -- statements --------------------------------------------------------------

class For(Node):
    """``for var in range(lo, hi, step)``; ``step`` is a positive constant
    or -1.  ``dims`` names the plan dimensions the loop enumerates (empty
    for loops a transform introduced); ``pragma`` is set by the native
    scheduler: ``"parallel"`` or None."""

    __slots__ = ("var", "lo", "hi", "step", "body", "dims", "pragma")

    def __init__(self, var, lo, hi, step, body, dims=(), pragma=None):
        super().__init__(var, lo, hi, step, body, tuple(dims), pragma)


class While(Node):
    __slots__ = ("cond", "body")


class If(Node):
    __slots__ = ("cond", "body")


class Assign(Node):
    """Assign an integer scalar local (declared by its first assignment)."""
    __slots__ = ("var", "value")


class Store(Node):
    """``array[idx] = value``."""
    __slots__ = ("array", "idx", "value")


class Local(Node):
    """Declare an uninitialised 1-d local array; the node itself is the
    array operand of the :class:`Load`/:class:`Store` nodes that use it."""

    __slots__ = ("name", "dtype", "size")
    ndim = 1


class PyOnly(Node):
    """Python text with no C equivalent: a statement line, a block header
    (``body`` is then the list of nested statements) or an expression.
    ``why`` names the construct in the lowering error."""

    __slots__ = ("text", "why", "body")

    def __init__(self, text, why, body=None):
        super().__init__(text, why, body)


# -- kernel arguments --------------------------------------------------------

def _loader(source: Tuple) -> Callable:
    kind, key = source[0], source[1]
    if kind == "param":
        return lambda arrays, params: int(params[key])
    if kind == "array":
        return lambda arrays, params: arrays[key]
    attr = source[2]
    if kind == "attr":
        return lambda arrays, params: getattr(arrays[key], attr)
    if kind == "len":
        return lambda arrays, params: len(getattr(arrays[key], attr))
    raise ValueError(f"unknown argument source {source!r}")


class ScalarArg(Node):
    """An ``int64`` kernel argument.  ``source`` says where its value comes
    from at call time: ``("param", name)``, ``("attr", array, attribute)``
    or ``("len", array, attribute)``; ``loader(arrays, params)`` fetches
    it."""

    __slots__ = ("name", "source", "loader")
    kind = "scalar"

    def __init__(self, name, source):
        super().__init__(name, source, _loader(source))


class ArrayArg(Node):
    """A typed array argument: ``source`` is ``("array", name)`` for a
    dense operand or ``("attr", array, attribute)`` for a storage array of
    a bound format instance, ``dtype``/``ndim`` are that array's.  In C it
    is a pointer followed by ``ndim - 1`` row-major stride arguments (a
    length the code needs is a :class:`ScalarArg` of its own).  ``written``
    is set when the emitter stores into it."""

    __slots__ = ("name", "source", "dtype", "ndim", "written", "loader")
    kind = "array"

    def __init__(self, name, source, dtype, ndim):
        super().__init__(name, source, dtype, ndim, False, _loader(source))


class KernelIR:
    """One kernel: ordered arguments and the statement list."""

    def __init__(self, args: Sequence[Node], body: List[Node]):
        self.args = list(args)
        self.body = body

    def typed_for(self, bindings: Mapping[str, object]) -> bool:
        """Do the storage arrays of ``bindings`` have the dtypes and ranks
        this IR was typed with (so it can be shared with their kernel)?"""
        for a in self.args:
            if isinstance(a, ArrayArg) and a.source[0] == "attr":
                data = np.asarray(getattr(bindings[a.source[1]], a.source[2]))
                if (data.dtype.name, max(data.ndim, 1)) != (a.dtype, a.ndim):
                    return False
        return True


#: every node class a printer has to handle (LinExpr is the index leaf)
NODE_CLASSES = (LinExpr, Const, Load, BinOp, Neg, Cmp, And, Select,
                For, While, If, Assign, Store, Local, PyOnly,
                ScalarArg, ArrayArg)


# -- construction helpers ----------------------------------------------------

class Builder:
    """Where emitters put what they build: the argument list, the statement
    list with a cursor into the innermost open block, and fresh names."""

    def __init__(self):
        self.args: List[Node] = []
        self.body: List[Node] = []
        self._open: List[List[Node]] = [self.body]
        self._counter = 0

    def fresh(self, stem: str) -> str:
        self._counter += 1
        return f"{stem}{self._counter}"

    def arg(self, node):
        self.args.append(node)
        return node

    def add(self, stmt: Node) -> None:
        self._open[-1].append(stmt)

    def open(self, block: Node) -> None:
        """Append a block statement and make its body the cursor."""
        self.add(block)
        self._open.append(block.body)

    @property
    def depth(self) -> int:
        return len(self._open)

    def close_to(self, depth: int) -> None:
        del self._open[depth:]


def plus(e, k: int):
    """``e + k`` for an index expression (kept affine when ``e`` is)."""
    if isinstance(e, LinExpr):
        return e + k
    return BinOp("+", e, LinExpr.constant(k))


def counted(var: str, lo, hi, reverse: bool, dims=()) -> For:
    """The loop over ``[lo, hi)``, descending when ``reverse``."""
    if reverse:
        return For(var, plus(hi, -1), plus(lo, -1), -1, [], dims)
    return For(var, lo, hi, 1, [], dims)


def within(e, lo, hi) -> And:
    """``lo <= e < hi``."""
    return And((Cmp("<=", lo, e), Cmp("<", e, hi)))


def denominator(lin: LinExpr) -> int:
    """Least common denominator of the coefficients and the constant."""
    return math.lcm(lin.const.denominator,
                    *(c.denominator for c in lin.coeffs.values()))


def cmp0(lin: LinExpr, op: str):
    """The guard ``lin op 0`` (``op`` is ``>=`` or ``==``) with fractions
    cleared; a constant side folds to ``True``/``False``."""
    if lin.is_constant:
        return lin.const >= 0 if op == ">=" else lin.const == 0
    return Cmp(op, lin * denominator(lin), ZERO)


def divisible(lin: LinExpr):
    """The guard that ``lin`` (rational coefficients) is an integer, or
    ``True``/``False`` when that is known statically."""
    q = denominator(lin)
    if q == 1:
        return True
    scaled = lin * q
    if scaled.is_constant:
        return int(scaled.const) % q == 0
    return Cmp("==", BinOp("%", scaled, LinExpr.constant(q)), ZERO)


# -- traversal ---------------------------------------------------------------

def children(node) -> Iterator:
    if isinstance(node, Node):
        for name in node.__slots__:
            value = getattr(node, name)
            if isinstance(value, (Node, LinExpr)):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, (Node, LinExpr)):
                        yield item


def walk(node) -> Iterator:
    """The node (or each node of a statement list) and all descendants."""
    if isinstance(node, (list, tuple)):
        for item in node:
            yield from walk(item)
        return
    yield node
    for child in children(node):
        yield from walk(child)


def map_index(e, fn: Callable[[LinExpr], LinExpr]):
    """Rebuild an expression with ``fn`` applied to every affine leaf."""
    if isinstance(e, LinExpr):
        return fn(e)
    if isinstance(e, (Const, PyOnly)):
        return e
    values = []
    for name in e.__slots__:
        value = getattr(e, name)
        if isinstance(value, tuple):
            value = tuple(map_index(x, fn) if isinstance(x, (Expr, LinExpr))
                          else x for x in value)
        elif isinstance(value, (Expr, LinExpr)):
            value = map_index(value, fn)
        values.append(value)
    return type(e)(*values)


# -- the Python printer ------------------------------------------------------

def render_lin(pv: LinExpr) -> str:
    """An affine expression over scalar names as integer arithmetic (valid
    Python and C).  Integer coefficients only — see :func:`denominator`."""
    parts: List[str] = []
    for v in sorted(pv.coeffs):
        ci = int(pv.coeffs[v])
        if ci == 1:
            term = v
        elif ci == -1:
            term = f"-{v}"
        else:
            term = f"{ci}*{v}"
        if parts and not term.startswith("-"):
            parts.append(f"+ {term}")
        elif parts:
            parts.append(f"- {term[1:]}")
        else:
            parts.append(term)
    ci = int(pv.const)
    if ci != 0 or not parts:
        if parts:
            parts.append(f"+ {ci}" if ci > 0 else f"- {-ci}")
        else:
            parts.append(str(ci))
    return " ".join(parts)


# binding strength of the printed Python forms, loosest first
_TOP, _SELECT, _AND, _CMP, _ADD, _MUL, _UNARY, _ATOM = range(8)
_BIN_PREC = {"+": _ADD, "-": _ADD, "*": _MUL, "/": _MUL, "//": _MUL,
             "%": _MUL}


def _py_lin(e: LinExpr) -> Tuple[str, int]:
    q = denominator(e)
    if q != 1:
        # exact floor division; callers guard divisibility where it is
        # not already guaranteed
        return f"({render_lin(e * q)}) // {q}", _MUL
    text = render_lin(e)
    return text, (_ATOM if text.isidentifier() or text.isdigit() else _ADD)


def _py_ref(array, idx) -> str:
    return f"{array.name}[{', '.join(map(py_expr, idx)) if idx else '()'}]"


def _py_binop(e: BinOp):
    if e.op in ("min", "max"):
        return f"{e.op}({py_expr(e.left)}, {py_expr(e.right)})", _ATOM
    p = _BIN_PREC[e.op]
    return f"{py_expr(e.left, p)} {e.op} {py_expr(e.right, p + 1)}", p


def _py_cmp(e: Cmp):
    return f"{py_expr(e.left, _ADD)} {e.op} {py_expr(e.right, _ADD)}", _CMP


def _py_select(e: Select):
    return (f"{py_expr(e.then, _AND)} if {py_expr(e.cond, _AND)} "
            f"else {py_expr(e.orelse, _SELECT)}"), _SELECT


#: expression class -> printer returning (text, binding strength)
PY_EXPR: Dict[type, Callable] = {
    LinExpr: _py_lin,
    Const: lambda e: (repr(e.value), _ATOM),
    Load: lambda e: (_py_ref(e.array, e.idx), _ATOM),
    BinOp: _py_binop,
    Neg: lambda e: (f"-{py_expr(e.operand, _UNARY)}", _UNARY),
    Cmp: _py_cmp,
    And: lambda e: (" and ".join(py_expr(t, _CMP) for t in e.terms), _AND),
    Select: _py_select,
    PyOnly: lambda e: (e.text, _TOP),
}


def py_expr(e, ctx: int = _TOP) -> str:
    """Python text of an expression, parenthesised when it binds looser
    than its context ``ctx``."""
    text, prec = PY_EXPR[type(e)](e)
    return f"({text})" if prec < ctx else text


def _py_source(source: Tuple) -> str:
    kind, key = source[0], source[1]
    if kind == "param":
        return f"params[{key!r}]"
    if kind == "array":
        return f"arrays[{key!r}]"
    text = f"arrays[{key!r}].{source[2]}"
    return f"len({text})" if kind == "len" else text


def _py_for(s: For) -> str:
    lo, hi = py_expr(s.lo), py_expr(s.hi)
    if s.step != 1:
        return f"for {s.var} in range({lo}, {hi}, {s.step}):"
    if s.lo == ZERO:
        return f"for {s.var} in range({hi}):"
    return f"for {s.var} in range({lo}, {hi}):"


def _py_arg(s) -> str:
    return f"{s.name} = {_py_source(s.source)}"


#: statement class -> printer of its line (block statements: the header)
PY_STMT: Dict[type, Callable] = {
    For: _py_for,
    While: lambda s: f"while {py_expr(s.cond)}:",
    If: lambda s: f"if {py_expr(s.cond)}:",
    Assign: lambda s: f"{s.var} = {py_expr(s.value)}",
    Store: lambda s: f"{_py_ref(s.array, s.idx)} = {py_expr(s.value)}",
    Local: lambda s: f"{s.name} = _np.empty({s.size}, dtype=_np.{s.dtype})",
    PyOnly: lambda s: s.text,
    ScalarArg: _py_arg,
    ArrayArg: _py_arg,
}


def _py_block(stmts: Sequence[Node], out: List[str], pad: str) -> None:
    if not stmts:
        out.append(pad + "pass")
    for s in stmts:
        out.append(pad + PY_STMT[type(s)](s))
        body = getattr(s, "body", None)
        if body is not None:
            _py_block(body, out, pad + "    ")


def print_python(ir: KernelIR) -> str:
    """The kernel as Python source: ``kernel(arrays, params)`` unpacks the
    arguments into locals and runs the loops on the raw arrays."""
    out = ["import numpy as _np", "", "def kernel(arrays, params):"]
    _py_block(list(ir.args) + list(ir.body), out, "    ")
    out.append("    return None")
    return "\n".join(out)

