"""Native C99 lowering of generated kernels.

The generator (:mod:`repro.codegen.pysource`) builds one loop IR per
kernel (:mod:`repro.codegen.loopir`); this module prints that IR as
standalone C99 — typed pointer arguments for the numpy arrays
(``int32_t``/``int64_t`` index arrays, ``double`` values), ``int64_t``
scalars, row-major stride arguments for multi-dimensional arrays — and
includes no header (:data:`UNIT_PREAMBLE` names the two types).  A
search is loop IR like everything else (the emitters build it), so the
only helper functions a unit can carry are ``_fdiv``/``_imax``/``_imin``.
The result is the real compiled analog of the paper's Figure 9
instantiation:
the same raw index-array loops a hand-written NIST library kernel
contains, handed to the system C compiler (:mod:`repro.core.backend`).
Types, ranks, which arrays are stored to and which expressions are affine
are read off the IR nodes; nothing is recovered from text.

Floor division is printed through ``_fdiv`` (floor-correct for negative
operands — C ``/`` truncates toward zero, Python ``//`` floors), and
``%`` appears only in ``== 0`` divisibility guards, where C and Python
agree on zero-ness.

Parallelism: every ``For`` carries the plan dimensions it enumerates, and
:meth:`repro.core.parallel.ParallelReport.verdict` says how such a loop
may run.  Strict-DOALL loops get ``#pragma omp parallel for``; one that
sits inside a sequential loop would fork a thread team per outer
iteration, so it is printed twice behind a trip-count test and forks only
when it is at least ``_FORK_MIN_TRIP`` iterations long (DIA's offset loop
is, a CSC column segment is not).  Loops nested inside a parallel loop,
loops a transform introduced, and loops that assign a scalar declared
ahead of them (JAD's diagonal walk) stay sequential.

The schedule: before printing, one pass rewrites the IR with three
transforms that are *byte-identical* to the loops the generator built —
every floating-point value is produced by the same operations in the same
order, only integer control flow and memory scheduling change:

- **guard_absorb** — an inner loop whose body is a single conjunctive
  guard of affine ``±1``-coefficient conditions on the loop variable has
  those conditions folded into hoisted ``max``/``min`` loop bounds (the
  iterations removed executed nothing), and the loop bounds are hoisted
  out of the per-iteration condition.  This is what lets the compiler
  vectorize DIA-style diagonal loops.
- **register_tile** — the fill of an output panel row followed by a
  sparse loop whose last statement accumulates into that row (the CSR
  SpMM shape) is column-blocked: sixteen output columns at a time, then
  eight (the last block moved back to end at the panel's edge), one for
  a panel narrower than that, are held in a local accumulator that
  starts from the fill value, lives across the sparse loop and is
  written back once.  Per output element the accumulation order is
  unchanged.
- **row_pair** — a sequential row loop whose body fills ``y[r]`` and then
  accumulates one sparse row into it (CSR's and ELL's matvec) walks two
  rows at a time: two rows of one length share one inner loop with two
  local accumulators, rows of different lengths run one after the other,
  and past the end the second row is absent.  A 5- or 9-entry row is one
  latency-bound add chain; two independent chains hide each other.  A
  kernel this fires on is printed at ``-O1`` (:meth:`_CPrinter.function`).

Every pointer argument with a source of its own is ``restrict``: that is
what lets the C compiler keep a row sum in a register and vectorize the
loops above.  The promise is kept by the caller of the compiled function —
:class:`repro.core.backend.NativeKernel` checks each written operand
against the others before it passes them, and runs the Python kernel
instead when two overlap.  Descending loops are left untouched.

A translation unit may hold more than ``kernel``: ``lower_kernel(...,
entry_points=)`` prints further loop IRs as additional functions of it (the
solvers' vector steps ride in their context's ``mvm`` unit this way), one
toolchain invocation for all of them.

A node either has a C printer (:data:`C_PRINTERS`) or it is ``PyOnly``
(gather-and-sort enumerations, the generic dynamic-runtime emitter); the
latter, and an array of a dtype C has no name for, raise
:class:`NativeLoweringError` naming the node.  The backend treats that as
"fall back to the Python kernel", never as a hard failure.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.codegen.loopir import (
    And,
    ArrayArg,
    Assign,
    BinOp,
    Cmp,
    Const,
    For,
    If,
    KernelIR,
    Load,
    Local,
    Neg,
    ScalarArg,
    Select,
    Store,
    V,
    While,
    ZERO,
    denominator,
    map_index,
    render_lin,
    walk,
)
from repro.polyhedra.linexpr import LinExpr


class NativeLoweringError(RuntimeError):
    """The generated kernel uses a construct the C backend cannot express."""


#: numpy dtype name -> C type of the element
_CTYPES = {
    "int32": "int32_t",
    "int64": "int64_t",
    "float32": "float",
    "float64": "double",
}

#: first lines of every unit: the two integer types from the compiler's
#: own predefined macros (gcc and clang both have them), so ``cc1`` parses
#: no header
UNIT_PREAMBLE = ("typedef __INT32_TYPE__ int32_t;",
                 "typedef __INT64_TYPE__ int64_t;")


class NativeSpec:
    """A lowered kernel: the C translation unit, the IR's ordered argument
    nodes (:class:`~repro.codegen.loopir.ScalarArg` /
    :class:`~repro.codegen.loopir.ArrayArg`), whether any OpenMP pragma
    was emitted, and ``transforms``, the loop rewrites that fired (e.g.
    ``["guard_absorb"]``).  ``entries`` maps the name of
    every additional function of the same translation unit to its own
    spec (same ``c_source``, its own ``args``)."""

    __slots__ = ("c_source", "args", "uses_openmp", "flavour", "transforms",
                 "entries")

    def __init__(self, c_source: str, args: List, uses_openmp: bool,
                 flavour: str, transforms: Optional[List[str]] = None):
        self.c_source = c_source
        self.args = args
        self.uses_openmp = uses_openmp
        self.flavour = flavour
        self.transforms = list(transforms or [])
        self.entries: Dict[str, "NativeSpec"] = {}


# ---------------------------------------------------------------------------
# The integer helpers C has no operator for
# ---------------------------------------------------------------------------

def _helper_fdiv() -> str:
    return (
        "static inline int64_t _fdiv(int64_t a, int64_t b) {\n"
        "    int64_t q = a / b;\n"
        "    if ((a % b != 0) && ((a < 0) != (b < 0))) q -= 1;\n"
        "    return q;\n"
        "}\n"
    )


def _helper_minmax() -> str:
    return (
        "static inline int64_t _imax(int64_t a, int64_t b) "
        "{ return a > b ? a : b; }\n"
        "static inline int64_t _imin(int64_t a, int64_t b) "
        "{ return a < b ? a : b; }\n"
    )


# ---------------------------------------------------------------------------
# What the transforms need to know about a piece of IR
# ---------------------------------------------------------------------------

def _names(e) -> Set[str]:
    """Scalar names in the affine leaves of an expression."""
    return {v for n in walk(e) if isinstance(n, LinExpr) for v in n.coeffs}


def _mentions(e, arrays) -> bool:
    """Does the expression (or statement list) touch one of ``arrays``?"""
    return any(n in arrays for n in walk(e)
               if isinstance(n, (ArrayArg, Local)))


def _assigned(stmts) -> Set[str]:
    """Scalars assigned anywhere inside ``stmts``, loop variables included."""
    return {n.var for n in walk(stmts) if isinstance(n, (Assign, For))}


def _rmw_op(store: Store) -> Optional[str]:
    """``+ - * /`` when the store is ``target = target op expr`` and
    ``expr`` does not read the target."""
    value, target = store.value, Load(store.array, store.idx)
    if not (isinstance(value, BinOp) and value.op in ("+", "-", "*", "/")
            and value.left == target):
        return None
    if any(n == target for n in walk(value.right)):
        return None
    return value.op


def _absorb_one(cmp, v: str, assigned: Set[str]):
    """Fold one affine conjunct into a loop bound: ``("lo", e)`` meaning
    ``v >= e``, ``("hi", e)`` meaning ``v < e``, or None when it is not
    absorbable."""
    if not (isinstance(cmp, Cmp) and isinstance(cmp.left, LinExpr)
            and isinstance(cmp.right, LinExpr)):
        return None
    # normalize to  diff >= need
    if cmp.op in (">=", ">"):
        diff, need = cmp.left - cmp.right, int(cmp.op == ">")
    elif cmp.op in ("<=", "<"):
        diff, need = cmp.right - cmp.left, int(cmp.op == "<")
    else:
        return None
    cv = diff.coeff(v)
    if denominator(diff) != 1 or cv not in (1, -1):
        return None
    rest = diff - V(v) * cv
    if set(rest.coeffs) & assigned:
        return None                 # not invariant across the loop body
    if cv == 1:
        return "lo", need - rest
    return "hi", rest - need + 1


# ---------------------------------------------------------------------------
# Scheduling: parallel verdicts and the IR -> IR transforms
# ---------------------------------------------------------------------------

#: output columns a register tile holds, (wide, narrow): a k = 16 panel
#: walks each sparse row once, and any panel of 8 columns or more is all
#: tiles
_PANELS = (16, 8)

#: shortest nested loop worth a thread team of its own: a fork-join
#: measured ~2 us (250k of them: 400-500 ms on 2 threads) against 1-2 ns
#: per iteration of the accumulation bodies these loops carry
_FORK_MIN_TRIP = 4096


class _Scheduler:
    """One top-down rewrite of a kernel body.  Per ``For`` it decides the
    OpenMP verdict from the loop's plan dimensions and applies
    register_tile, row_pair (never to a loop OpenMP runs, or one inside
    it) or guard_absorb.  A search is ordinary statements to
    it: the ``While`` it is made of keeps a body from being
    ``register_tile`` material, by the rule that already has.  The input
    IR is never mutated (a kernel's IR is shared by every lowering)."""

    def __init__(self, report, flavour: str, written: Set[ArrayArg]):
        self.report = report        # ParallelReport, None when sequential
        self.flavour = flavour
        self.written = written
        self.transforms: List[str] = []
        self._uid = 0

    def uid(self) -> int:
        self._uid += 1
        return self._uid

    def block(self, stmts: Sequence, depth: int = 0, in_par: bool = False,
              seen: Set[str] = frozenset()) -> List:
        out: List = []
        start = 0       # where the output of the statement before begins
        for i, s in enumerate(stmts):
            if isinstance(s, For):
                new, both = self.loop(s, depth, in_par,
                                      stmts[i - 1] if i else None, seen)
                if both:        # a tile: it stands for the fill before it too
                    del out[start:]
            elif isinstance(s, (While, If)):
                new = [type(s)(s.cond, self.block(s.body, depth, in_par, seen))]
            else:
                new = [s]
            seen = seen | _assigned([s])    # scalars declared ahead of the next
            start = len(out)
            out.extend(new)
        return out

    def loop(self, f: For, depth: int, in_par: bool, before,
             seen: Set[str]) -> Tuple[List, bool]:
        """The statements ``f`` becomes, and whether they also stand for
        ``before``, the statement ahead of it in its block."""
        # only an outermost order-free loop carrying no scalar runs in parallel
        par = (self.report is not None and not in_par
               and self.report.verdict(f.dims, self.flavour) == "par"
               and not _assigned(f.body) & seen)
        # inside a sequential loop it must be able to decline the fork,
        # which needs bounds the body cannot move
        nested = par and depth > 0
        if nested and _mentions((f.lo, f.hi), self.written):
            par = nested = False
        pre, lo, hi, body = [], f.lo, f.hi, f.body
        if f.step == 1:
            if not par:
                tiled = self.register_tile(f, before)
                if tiled is not None:
                    return tiled
            if not (par or in_par):
                paired = self.row_pair(f)
                if paired is not None:
                    return paired, False
            absorbed = self.guard_absorb(f)
            if absorbed is not None:
                pre, lo, hi, body = absorbed
        body = self.block(body, depth + 1, in_par or par, seen)
        if nested:
            return pre + self.fork_if_long(
                For(f.var, lo, hi, f.step, body, f.dims)), False
        return pre + [For(f.var, lo, hi, f.step, body, f.dims,
                          "parallel" if par else None)], False

    def fork_if_long(self, f: For) -> List:
        """An order-free loop nested in a sequential one, two-versioned on
        its trip count: short, it runs as ``f`` stands (an OpenMP ``if()``
        clause would still pay ~0.4 us per declined region); from
        ``_FORK_MIN_TRIP`` iterations on, the same loop forks a team.  The
        sequential copy is printed first — gcc lays the other order out
        3x slower on the short path."""
        pre, lo, hi = [], f.lo, f.hi
        if not (isinstance(lo, LinExpr) and isinstance(hi, LinExpr)):
            uid = self.uid()
            lo, hi = V(f"_lo{uid}"), V(f"_hi{uid}")
            pre = [Assign(f"_lo{uid}", f.lo), Assign(f"_hi{uid}", f.hi)]
        trip = (hi - lo) * (1 if f.step > 0 else -1)
        least = LinExpr.constant(_FORK_MIN_TRIP)
        return pre + [
            If(Cmp("<", trip, least),
               [For(f.var, lo, hi, f.step, f.body, f.dims, f.pragma)]),
            If(Cmp(">=", trip, least),
               [For(f.var, lo, hi, f.step, f.body, f.dims, "parallel")]),
        ]

    def guard_absorb(self, f: For):
        """Guard absorption + bound hoisting: a unit-step loop whose body
        is a single conjunctive ``If`` has every affine ``±1``-coefficient
        condition on the loop variable folded into hoisted ``max``/``min``
        bounds.  The removed iterations executed nothing, so this is
        exactly byte-identical.  Returns ``(pre, lo, hi, body)`` or None."""
        if len(f.body) != 1 or not isinstance(f.body[0], If):
            return None
        guard = f.body[0]
        assigned = _assigned(f.body)
        bounds: Dict[str, List] = {"lo": [], "hi": []}
        rest = []
        cond = guard.cond
        for c in cond.terms if isinstance(cond, And) else (cond,):
            hit = _absorb_one(c, f.var, assigned)
            if hit is None:
                rest.append(c)
            else:
                bounds[hit[0]].append(hit[1])
        if not bounds["lo"] and not bounds["hi"]:
            return None
        self.transforms.append("guard_absorb")
        uid = self.uid()
        lov, hiv = f"_lo{uid}", f"_hi{uid}"
        pre = [Assign(lov, f.lo), Assign(hiv, f.hi)]
        pre += [Assign(lov, BinOp("max", V(lov), b)) for b in bounds["lo"]]
        pre += [Assign(hiv, BinOp("min", V(hiv), b)) for b in bounds["hi"]]
        body = guard.body
        if rest:
            body = [If(rest[0] if len(rest) == 1 else And(tuple(rest)), body)]
        return pre, V(lov), V(hiv), body

    def register_tile(self, f: For, before):
        """Register-tile the SpMM accumulation shape: ``before`` fills a
        panel row of the output with a loop-invariant value and ``f`` is
        the sparse loop that then accumulates into it, its last statement
        an inner DOALL loop over that same panel.  The panel's whole
        reduction moves into local accumulators — ``_PANELS`` columns at a
        time, the wide tile while it fits, then the narrow one, whose last
        block is moved back to end at the panel's edge — which start from
        the fill value and are stored once.  A column two blocks share is
        computed twice, to the same bytes: per output element the
        accumulation order is unchanged.  A panel narrower than the narrow
        tile goes a column at a time (a k = 1 panel is a matvec; the
        loops as they were ran it 4x slower, per-nonzero loop overhead).

        Declined unless the fill is right there: with no fill to start
        from, a tile would have to load the panel and store it back around
        every instance of ``f``, which costs more than it saves when ``f``
        is short (BSR's loop over one block's columns).  Only assignments
        may precede the panel loop, so a sparse loop that searches (a
        ``While``) is declined too.  Returns the replacement statements
        and True (they stand for ``before`` as well), or None."""
        if not f.body or not isinstance(f.body[-1], For):
            return None
        pre, inner = f.body[:-1], f.body[-1]
        if not all(isinstance(s, Assign) for s in pre):
            return None
        if inner.step != 1 or len(inner.body) != 1:
            return None
        st = inner.body[0]
        if not (isinstance(st, Store) and isinstance(st.array, ArrayArg)
                and st.array.dtype in ("float32", "float64")
                and _rmw_op(st) == "+" and st.idx
                and st.idx[-1] == V(inner.var)):
            return None
        acc_expr = st.value.right
        varying = {s.var for s in pre} | {f.var, inner.var}
        target = {st.array}
        # outer panel indices and the panel bounds must be invariant across
        # the sparse loop, and nothing it reads may be the panel itself
        if (_names(st.idx[:-1]) | _names((inner.lo, inner.hi))) & varying:
            return None
        if _mentions((acc_expr, inner.lo, inner.hi, f.lo, f.hi,
                      [s.value for s in pre]), target):
            return None

        def at(e, column):          # e with the panel column replaced
            return map_index(e, lambda lin: lin.substitute(
                {inner.var: column}))

        if not (isinstance(before, For) and before.step == 1
                and (before.lo, before.hi) == (inner.lo, inner.hi)
                and len(before.body) == 1):
            return None
        fill = before.body[0]
        if not (isinstance(fill, Store) and fill.array is st.array
                and fill.idx == tuple(at(i, V(before.var)) for i in st.idx)
                and not _names(fill.value)
                and not _mentions(fill.value, target)):
            return None
        self.transforms.append("register_tile")
        uid = self.uid()
        pv, hv, qv = f"_vp{uid}", f"_vh{uid}", f"_vq{uid}"
        p, h, lane = V(pv), V(hv), (V(qv),)
        slot = tuple(at(i, p + V(qv)) for i in st.idx)

        def tile(width):
            acc = Local(f"_acc{uid}", st.array.dtype, width)

            def lanes(stmt):
                return For(qv, ZERO, LinExpr.constant(width), 1, [stmt])

            return [
                acc,
                lanes(Store(acc, lane, fill.value)),
                For(f.var, f.lo, f.hi, 1, list(pre) + [lanes(Store(
                    acc, lane,
                    BinOp("+", Load(acc, lane), at(acc_expr, p + V(qv)))))]),
                lanes(Store(st.array, slot, Load(acc, lane))),
                Assign(pv, p + width),
            ]

        wide, narrow = _PANELS
        return [
            Assign(pv, inner.lo),
            Assign(hv, inner.hi),
            If(Cmp("<=", p + narrow, h), [
                While(Cmp("<=", p + wide, h), tile(wide)),
                While(Cmp("<", p, h), [
                    Assign(pv, BinOp("min", p, h - narrow)), *tile(narrow)]),
            ]),
            While(Cmp("<", p, h), tile(1)),
        ], True

    def row_pair(self, f: For):
        """Two rows of a row reduction at a time: ``f`` walks rows ``r``
        over affine bounds, and its body is the fill of ``y[r]`` followed
        by one loop over ``[L(r), H(r))`` whose only store is ``y[r] =
        y[r] op e`` (CSR's and ELL's matvec).  ``f`` steps by 2; each
        row's sum moves into a local accumulator that starts from the
        fill value and is stored once.  Two rows of the same length share
        one walk, the second row's slot offset from the first's, so two
        independent chains hide each other's latency; rows of different
        lengths run one after the other.  Past the end the second row is
        absent: an empty row, neither filled nor stored.  Each ``y[r]``
        is the same sum in the same order.

        Declined unless ``y`` is indexed by ``r`` alone and nothing the
        rows read — fill, bounds, ``e`` — is a written array (a
        triangular solve reads ``y``; a scatter, JAD's permuted target
        and a panel row are other shapes).  Returns the replacement
        statements, or None."""
        if not (len(f.body) == 2 and isinstance(f.body[1], For)
                and isinstance(f.lo, LinExpr) and isinstance(f.hi, LinExpr)):
            return None
        fill, inner = f.body
        if not (isinstance(fill, Store) and isinstance(fill.array, ArrayArg)
                and fill.array.dtype in ("float32", "float64")
                and fill.idx == (V(f.var),) and inner.step == 1
                and inner.body and isinstance(inner.body[-1], Store)
                and all(isinstance(s, Assign) for s in inner.body[:-1])):
            return None
        st, y, pre = inner.body[-1], fill.array, inner.body[:-1]
        if not (st.array is y and st.idx == fill.idx and _rmw_op(st)):
            return None
        if _mentions((fill.value, inner.lo, inner.hi, st.value.right,
                      [s.value for s in pre]), self.written):
            return None
        if _names((f.lo, f.hi)) & _assigned(f.body):
            return None
        self.transforms.append("row_pair")
        uid = self.uid()
        acc = Local(f"_acc{uid}", y.dtype, 2)
        la, ha, lb, hb, d = (f"_{n}{uid}" for n in ("la", "ha", "lb", "hb",
                                                    "d"))
        r, jj = V(f.var), V(inner.var)
        second = {f.var: r + 1, **{s.var: V(f"{s.var}__1") for s in pre}}
        present = Cmp("<", r + 1, f.hi)
        slots = (LinExpr.constant(0),), (LinExpr.constant(1),)

        def at(e, sub):
            return map_index(e, lambda lin: lin.substitute(sub))

        def row(k, sub):
            """The loop body accumulating row ``r`` (``sub`` applied) into
            accumulator ``k``."""
            return [Assign(f"{s.var}__1" if k else s.var, at(s.value, sub))
                    for s in pre] + [
                Store(acc, slots[k], BinOp(st.value.op, Load(acc, slots[k]),
                                           at(st.value.right, sub)))]

        same = (V(hb) - V(lb), V(ha) - V(la))
        return [acc, For(f.var, f.lo, f.hi, 2, [
            Assign(la, inner.lo), Assign(ha, inner.hi),
            Assign(lb, Select(present, at(inner.lo, second), ZERO)),
            Assign(hb, Select(present, at(inner.hi, second), ZERO)),
            Store(acc, slots[0], fill.value),
            If(present, [Store(acc, slots[1], at(fill.value, second))]),
            If(Cmp("==", *same), [Assign(d, V(lb) - V(la)), For(
                inner.var, V(la), V(ha), 1,
                row(0, {}) + row(1, {**second, inner.var: jj + V(d)}))]),
            If(Cmp("!=", *same), [
                For(inner.var, V(la), V(ha), 1, row(0, {})),
                For(inner.var, V(lb), V(hb), 1, row(1, second))]),
            Store(y, (r,), Load(acc, slots[0])),
            If(present, [Store(y, (r + 1,), Load(acc, slots[1]))]),
        ], f.dims)]


# ---------------------------------------------------------------------------
# The C printer
# ---------------------------------------------------------------------------

class _CPrinter:
    def __init__(self):
        self.helpers: Dict[str, str] = {}       # fn name -> definition text
        self.lines: List[str] = []
        self.indent = 1
        self.scopes: List[Set[str]] = [set()]   # declared scalars per block
        self.uses_openmp = False

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def helper(self, name: str, text: str) -> str:
        self.helpers.setdefault(name, text)
        return name

    # -- expressions: every printer returns a self-delimiting string -------

    def expr(self, e) -> str:
        return self.EXPR[type(e)](self, e)

    def top(self, e) -> str:
        """An expression where no enclosing parentheses are needed."""
        if isinstance(e, LinExpr) and denominator(e) == 1:
            return render_lin(e)
        return self.expr(e)

    def _lin(self, e: LinExpr) -> str:
        q = denominator(e)
        if q != 1:
            # C '/' truncates toward zero; the IR's division floors
            self.helper("_fdiv", _helper_fdiv())
            return f"_fdiv({render_lin(e * q)}, {q})"
        text = render_lin(e)
        return text if text.isidentifier() or text.isdigit() else f"({text})"

    def _const(self, e: Const) -> str:
        value = e.value
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, int):
            return str(value) if value >= 0 else f"({value})"
        s = repr(float(value))
        if "." not in s and "e" not in s and "E" not in s:
            s += ".0"
        return s if value >= 0 else f"({s})"

    def ref(self, array, idx) -> str:
        if array.ndim == 0:
            return f"{array.name}[0]"
        if len(idx) != array.ndim:
            raise NativeLoweringError(
                f"{type(array).__name__} {array.name}: {len(idx)} indices "
                f"for ndim {array.ndim}")
        flat = self.top(idx[0])
        for k in range(1, array.ndim):
            flat = f"({flat}) * {array.name}__s{k - 1} + {self.expr(idx[k])}"
        return f"{array.name}[{flat}]"

    def _binop(self, e: BinOp) -> str:
        l, r = self.expr(e.left), self.expr(e.right)
        if e.op in ("+", "-", "*"):
            return f"({l} {e.op} {r})"
        if e.op == "/":
            # true division; cast both sides so int/int cannot truncate
            # (double/double is unchanged)
            return f"((double){l} / (double){r})"
        if e.op == "//":
            return f"{self.helper('_fdiv', _helper_fdiv())}({l}, {r})"
        if e.op == "%":
            # only built for divisibility guards ('% q == 0'), where C and
            # Python agree on zero-ness regardless of sign
            return f"({l} % {r})"
        self.helper("_imax", _helper_minmax())
        return f"{'_imax' if e.op == 'max' else '_imin'}({l}, {r})"

    EXPR = {
        LinExpr: _lin,
        Const: _const,
        Load: lambda self, e: self.ref(e.array, e.idx),
        BinOp: _binop,
        Neg: lambda self, e: f"(-{self.expr(e.operand)})",
        Cmp: lambda self, e: (f"({self.expr(e.left)} {e.op} "
                              f"{self.expr(e.right)})"),
        And: lambda self, e: "(" + " && ".join(map(self.expr, e.terms)) + ")",
        Select: lambda self, e: (f"({self.expr(e.cond)} ? "
                                 f"{self.expr(e.then)} : "
                                 f"{self.expr(e.orelse)})"),
    }

    # -- statements -------------------------------------------------------

    def block(self, stmts: Sequence, declare: Sequence[str] = ()) -> None:
        self.indent += 1
        self.scopes.append(set(declare))
        for s in stmts:
            self.STMT[type(s)](self, s)
        self.scopes.pop()
        self.indent -= 1
        self.emit("}")

    def _for(self, s: For) -> None:
        if s.pragma == "parallel":
            self.emit("#pragma omp parallel for")
            self.uses_openmp = True
        v, lo, hi = s.var, self.top(s.lo), self.top(s.hi)
        if s.step > 0:
            inc = f"{v}++" if s.step == 1 else f"{v} += {s.step}"
            self.emit(f"for (int64_t {v} = {lo}; {v} < {hi}; {inc}) {{")
        else:
            self.emit(f"for (int64_t {v} = {lo}; {v} > {hi}; {v}--) {{")
        self.block(s.body, (v,))

    def _while(self, s: While) -> None:
        self.emit(f"while {self.expr(s.cond)} {{")
        self.block(s.body)

    def _if(self, s: If) -> None:
        self.emit(f"if {self.expr(s.cond)} {{")
        self.block(s.body)

    def _assign(self, s: Assign) -> None:
        if any(s.var in scope for scope in self.scopes):
            self.emit(f"{s.var} = {self.top(s.value)};")
        else:
            self.scopes[-1].add(s.var)
            self.emit(f"int64_t {s.var} = {self.top(s.value)};")

    def _store(self, s: Store) -> None:
        self.emit(f"{self.ref(s.array, s.idx)} = {self.top(s.value)};")

    def _local(self, s: Local) -> None:
        self.emit(f"{_CTYPES[s.dtype]} {s.name}[{s.size}];")

    STMT = {For: _for, While: _while, If: _if, Assign: _assign,
            Store: _store, Local: _local}

    # -- assembly ---------------------------------------------------------

    def signature(self, args: Sequence) -> str:
        # two paths of one matrix (SYM's triangle and its mirror) take the
        # same array twice: those pointers alias and cannot be ``restrict``
        sources = [a.source for a in args]
        parts: List[str] = []
        for a in args:
            alone = sources.count(a.source) == 1
            parts.extend(self.ARG[type(a)](self, a, " restrict" if alone else ""))
        return ", ".join(parts) if parts else "void"

    def _array_arg(self, a: ArrayArg, qual: str) -> List[str]:
        parts = [f"{_CTYPES[a.dtype]} *{qual} {a.name}"]
        return parts + [f"int64_t {a.name}__s{k}" for k in range(a.ndim - 1)]

    ARG = {ScalarArg: lambda self, a, qual: [f"int64_t {a.name}"],
           ArrayArg: _array_arg}

    def function(self, name: str, args: Sequence, body: Sequence,
                 o1: bool) -> List[str]:
        """``o1``: compiled at ``-O1`` — an entry point riding in a
        kernel's unit, which must not cost that kernel's cold compile the
        8-10 ms per loop of ``-O3``'s vectorizer, and a kernel whose rows
        run in pairs, whose reductions no ``-O`` level may vectorize
        (DESIGN.md §7)."""
        self.lines, self.scopes, self.indent = [], [set()], 0
        sig = self.signature(args)
        self.block(body)
        head = ['__attribute__((optimize("O1")))'] if o1 else []
        return head + [f"void {name}({sig}) {{"] + self.lines

    def translation_unit(self, functions: Sequence[Tuple]) -> str:
        """``(name, args, body, o1)`` as one unit: the helpers any of
        them uses, then the functions in order, a blank line apart."""
        printed = [self.function(*f) for f in functions]
        out = [*UNIT_PREAMBLE, ""] + list(self.helpers.values())
        for k, lines in enumerate(printed):
            out.extend(([""] if k else []) + lines)
        return "\n".join(out + [""])


#: node class -> its C printer; a class that is not here (PyOnly) makes
#: the kernel fall back to Python
C_PRINTERS = {**_CPrinter.EXPR, **_CPrinter.STMT, **_CPrinter.ARG}


def _check_lowerable(ir: KernelIR) -> None:
    for n in walk(list(ir.args) + list(ir.body)):
        if type(n) not in C_PRINTERS:
            raise NativeLoweringError(
                f"{type(n).__name__} node has no C printer "
                f"({getattr(n, 'why', 'unknown node')})")
        if isinstance(n, (ArrayArg, Local)) and n.dtype not in _CTYPES:
            raise NativeLoweringError(
                f"{type(n).__name__} {n.name}: unsupported dtype {n.dtype}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _written(ir: KernelIR) -> Set[ArrayArg]:
    return {a for a in ir.args if isinstance(a, ArrayArg) and a.written}


def lower_kernel(kernel, parallel: str = "none",
                 entry_points: Optional[Mapping[str, KernelIR]] = None
                 ) -> NativeSpec:
    """Lower a :class:`~repro.core.compiler.CompiledKernel`'s loop IR to a
    C99 translation unit, scheduled as the module docstring says, with
    OpenMP pragmas on the loops its
    :class:`~repro.core.parallel.ParallelReport` proves order-free.

    ``entry_points`` names further loop IRs to print as sequential
    functions of the same unit, after ``kernel`` and under the same
    schedule (``NativeSpec.entries``)."""
    from repro.instrument import INSTR

    with INSTR.phase("c_lower"):
        if parallel not in ("none", "strict"):
            raise ValueError(
                f"parallel must be 'none' or 'strict', got {parallel!r}")
        ir = kernel.loop_ir()
        _check_lowerable(ir)
        report = kernel.parallel_report() if parallel != "none" else None
        sched = _Scheduler(report, parallel, _written(ir))
        body = sched.block(ir.body)
        functions = [("kernel", ir.args, body, "row_pair" in sched.transforms)]
        entries = {}
        for name, e in (entry_points or {}).items():
            _check_lowerable(e)
            own = _Scheduler(None, "none", _written(e))
            functions.append((name, e.args, own.block(e.body), True))
            entries[name] = (e.args, own.transforms)
        printer = _CPrinter()
        c_source = printer.translation_unit(functions)
        spec = NativeSpec(c_source, ir.args, printer.uses_openmp, parallel,
                          sched.transforms)
        for name, (args, transforms) in entries.items():
            spec.entries[name] = NativeSpec(c_source, args, False, "none",
                                            transforms)
        return spec
