"""Scalar expression trees for vector fields and verification conditions.

Expressions are immutable ASTs over variables x1..xn supporting parsing,
symbolic differentiation and printing.  For evaluation, `compile` flattens
one or more trees into a `Tape`, a post-order list of slots in which
structurally equal subtrees share one slot; point evaluation (here),
interval evaluation and HC4 contraction (`zubov.interval`) and SMT-LIB
export (`zubov.verify`) all loop over that list.  The grammar is
deliberately small: + - * / ^ (non-negative integer exponents only),
unary minus, and the functions tanh/exp/ln.  Keeping the operator set
this small means every node has a cheap interval extension and a
closed-form derivative.  `parse` reads text with Python's own parser
(`ast`), whose precedence table is the grammar's once ``^`` is spelled
``**``, and converts only the grammar's nodes.
"""

from __future__ import annotations

import ast
import re
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

__all__ = [
    "Expr", "Constant", "Var", "Add", "Sub", "Mul", "Div", "Neg",
    "IntPow", "Tanh", "Exp", "Ln", "VectorField", "Tape",
    "ParseError", "DomainError",
    "parse", "compile", "evaluate_many", "diff", "fold", "to_str",
]


class ParseError(ValueError):
    """Malformed expression text. ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ArithmeticError):
    """Interval evaluation met ln over values <= 0 or division by an
    interval containing zero."""


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based coordinate

    def __post_init__(self):
        if self.index < 0:
            raise IndexError(f"variable index must be >= 0, got {self.index}")


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class IntPow:
    base: "Expr"
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ValueError(f"IntPow exponent must be a non-negative integer, got {self.exponent!r}")


@dataclass(frozen=True)
class Tanh:
    arg: "Expr"


@dataclass(frozen=True)
class Exp:
    arg: "Expr"


@dataclass(frozen=True)
class Ln:
    arg: "Expr"


Expr = Union[Constant, Var, Add, Sub, Mul, Div, Neg, IntPow, Tanh, Exp, Ln]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_FUNCS = {"tanh": Tanh, "exp": Exp, "ln": Ln}
_BINOPS = {ast.Add: Add, ast.Sub: Sub, ast.Mult: Mul, ast.Div: Div}
_BAD_CHAR = re.compile(r"[^A-Za-z0-9_.+\-*/^()\s]|\*\*", re.ASCII)
_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


def parse(text: str, dim: int) -> Expr:
    """Parse an infix expression over x1..x{dim} into an AST.

    Precedence: ``^`` (integer exponents only) binds tighter than unary
    minus, which binds tighter than ``* /``, which bind tighter than
    ``+ -``; ``a^b^c`` needs parentheses.  Whitespace is insignificant.
    Any other character, a literal ``**`` and every other Python construct
    raise `ParseError`, at an offset into ``text`` at or before the fault.
    """
    bad = _BAD_CHAR.search(text)
    if bad:
        raise ParseError(f"unexpected {bad.group()!r}", bad.start())
    # one line without a leading indent, as Python's parser wants; where[i]
    # is the offset in text of character i of src
    lead = len(text) - len(text.lstrip())
    src = re.sub(r"\s", " ", text[lead:], flags=re.ASCII).replace("^", "**")
    where = [i for i in range(lead, len(text)) for _ in range(1 + (text[i] == "^"))] + [len(text)]

    def at(col) -> int:
        return where[min(col, len(src))]

    try:
        tree = ast.parse(src, mode="eval").body
    except (SyntaxError, ValueError) as e:
        col = max((getattr(e, "offset", None) or 1) - 1, 0)
        raise ParseError(getattr(e, "msg", str(e)), at(col)) from None

    def seg(node) -> str:
        return src[node.col_offset:node.end_col_offset]

    def conv(node) -> Expr:
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](conv(node.left), conv(node.right))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            k = node.right
            if isinstance(k, ast.BinOp) and isinstance(k.op, ast.Pow):
                raise ParseError("a^b^c is ambiguous: write (a^b)^c", at(k.col_offset))
            if not (isinstance(k, ast.Constant) and seg(k).isdigit()):
                raise ParseError("exponent must be a non-negative integer literal",
                                 at(k.col_offset))
            return IntPow(conv(node.left), int(seg(k)))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            arg = conv(node.operand)
            return Neg(arg) if isinstance(node.op, ast.USub) else arg
        if isinstance(node, ast.Constant) and _NUMBER.fullmatch(seg(node)):
            return Constant(float(seg(node)))
        if isinstance(node, ast.Name) and re.fullmatch(r"x\d+", node.id):
            idx = int(node.id[1:])
            if idx < 1:
                raise ParseError("variables are named x1, x2, ...", at(node.col_offset))
            if idx > dim:
                raise IndexError(f"variable {node.id} exceeds dimension {dim}")
            return Var(idx - 1)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCS and len(node.args) == 1 and not node.keywords):
            return _FUNCS[node.func.id](conv(node.args[0]))
        raise ParseError(f"{seg(node)!r} is not in the expression grammar", at(node.col_offset))

    return conv(tree)


# ---------------------------------------------------------------------------
# Compiled tapes and point evaluation
# ---------------------------------------------------------------------------

# op codes of a tape slot
CONST, VAR, ADD, SUB, MUL, DIV, NEG, POW, TANH, EXP, LN = range(11)

_OPS = {Add: ADD, Sub: SUB, Mul: MUL, Div: DIV, Neg: NEG, Tanh: TANH, Exp: EXP, Ln: LN}


@dataclass(frozen=True)
class Tape:
    """One or more expressions flattened into a post-order list of slots.

    Slot ``s`` is ``(op, args, k)``: an op code, the slots of its
    arguments (all below ``s``), and the value of a CONST, the index of a
    VAR or the exponent of a POW (None otherwise).  Structurally equal
    subtrees share one slot.  ``outputs`` holds the slot of each root, in
    the order given to `compile`.
    """

    slots: tuple
    outputs: tuple

    @property
    def max_var_index(self) -> int:
        """Largest Var index on the tape, or -1 if there are no variables."""
        return max((k for op, _, k in self.slots if op == VAR), default=-1)

    @cached_property
    def _point_plan(self) -> tuple:
        """For `_point_pass`: the last slot that reads each slot (-1 if
        none), and the set of slots that no op but a correctly rounded one
        (`_EXACT_OPS`) reads."""
        last, inexact = [-1] * len(self.slots), set()
        for s, (op, a, _) in enumerate(self.slots):
            for j in a:
                last[j] = s
                if op not in _EXACT_OPS:
                    inexact.add(j)
        return last, set(range(len(self.slots))) - inexact

    def run(self, leaf, ops: dict) -> list:
        """The value of every slot, in slot order: ``leaf(op, k)`` for a
        CONST or VAR, ``ops[op](k, *args)`` from the arguments' values for
        any other slot."""
        v: list = []
        for op, a, k in self.slots:
            v.append(ops[op](k, v[a[0]], v[a[1]]) if len(a) == 2 else
                     ops[op](k, v[a[0]]) if a else leaf(op, k))
        return v


def compile(exprs) -> Tape:
    """Flatten the roots ``exprs`` into one `Tape`.

    No constant is folded and no operation reordered, so every evaluator
    over the tape computes bit for bit what a walk of the trees would.
    Constants are keyed by their bit pattern: 0.0 and -0.0 stay apart.
    """
    slots: list = []
    index: dict = {}    # slot key -> slot
    seen: dict = {}     # id(node) -> slot, so a shared node is walked once

    def visit(e) -> int:
        s = seen.get(id(e))
        if s is not None:
            return s
        if isinstance(e, Constant):
            v = float(e.value)
            slot, key = (CONST, (), v), (CONST, (), struct.pack("<d", v))
        elif isinstance(e, Var):
            slot = key = (VAR, (), e.index)
        elif isinstance(e, IntPow):
            slot = key = (POW, (visit(e.base),), e.exponent)
        elif isinstance(e, (Add, Sub, Mul, Div)):
            slot = key = (_OPS[type(e)], (visit(e.left), visit(e.right)), None)
        elif isinstance(e, (Neg, Tanh, Exp, Ln)):
            slot = key = (_OPS[type(e)], (visit(e.arg),), None)
        else:
            raise TypeError(f"not an Expr node: {e!r}")
        s = index.get(key)
        if s is None:
            s = index[key] = len(slots)
            slots.append(slot)
        seen[id(e)] = s
        return s

    outputs = tuple(visit(e) for e in exprs)
    return Tape(tuple(slots), outputs)


def _quiet(f, *args):
    """``f(*args)`` without division-by-zero and invalid-value warnings."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return f(*args)


# each op writes into ``o`` when it is given (an output column)
_POINT_OPS = {
    ADD: lambda k, a, b, o: np.add(a, b, o),
    SUB: lambda k, a, b, o: np.subtract(a, b, o),
    MUL: lambda k, a, b, o: np.multiply(a, b, o),
    DIV: lambda k, a, b, o: _quiet(np.divide, a, b, o),
    NEG: lambda k, a, o: np.negative(a, o),
    # ``**`` picks its own kernel by exponent (a square is a * a): keep it
    POW: lambda k, a, o: a ** k,
    TANH: lambda k, a, o: np.tanh(a, o),
    EXP: lambda k, a, o: np.exp(a, o),
    LN: lambda k, a, o: _quiet(np.log, a, o),
}
# correctly rounded ops, whose bits do not depend on the memory layout; the
# others may run a SIMD kernel on contiguous arrays and libm's on strided
# ones, so they get contiguous operands and write only into a contiguous o
_EXACT_OPS = {ADD, SUB, MUL, DIV, NEG}


def _point_pass(tape: Tape, X: np.ndarray, out: np.ndarray) -> None:
    """Evaluate the tape over the points X of shape (K, n) into ``out``.

    Output i goes to ``out[:, i]`` of the (K, outputs) array ``out``,
    which must not overlap X: an op slot straight, a CONST or VAR slot, a
    power, a slot that is also an earlier output or (see _EXACT_OPS) an
    inexact op into a strided column by a copy.  VAR slots are views of X.
    A slot's value is dropped after its last reader.  A CONST that only
    correctly rounded ops read stays a scalar, which gives the same bits;
    any other slot that would be a scalar is filled out to (K,), so that
    tanh, exp, ln and powers run on the arrays they always did.
    """
    X = np.asarray(X, dtype=float)
    K = X.shape[0]
    col = {s: i for i, s in reversed(list(enumerate(tape.outputs)))}
    last, exact_only = tape._point_plan
    v: list = []
    for s, (op, a, k) in enumerate(tape.slots):
        o = out[:, col[s]] if s in col else None
        if op == CONST:
            r = k if s in exact_only else np.full(K, k)
        elif op == VAR:
            r = X[:, k]
        elif op in _EXACT_OPS:
            r = _POINT_OPS[op](k, *[v[j] for j in a], o)
            if np.ndim(r) == 0 and s not in exact_only:
                r = np.full(K, r)
        else:
            r = _POINT_OPS[op](k, *[np.ascontiguousarray(v[j]) for j in a],
                               o if o is not None and o.flags.c_contiguous else None)
        if o is not None and r is not o:
            o[...] = r
            r = o
        v.append(r)
        for j in a:
            if last[j] == s and j not in col:
                v[j] = None
    for i, s in enumerate(tape.outputs):
        if col[s] != i:
            out[:, i] = v[s]


def evaluate_many(tape: Tape, X: np.ndarray) -> list:
    """Vectorized evaluation over points X of shape (K, n): a list of (K,)
    arrays, one per output of ``tape`` (the rows of one array).
    Out-of-domain points silently produce inf/nan, so a batch is never
    aborted by a single bad sample.
    """
    out = np.empty((len(tape.outputs), np.shape(X)[0]))
    _point_pass(tape, X, out.T)
    return list(out)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def diff(e: Expr, var: int) -> Expr:
    """Symbolic partial derivative with respect to x_{var+1}.  Unreduced
    (`fold` reduces it), so the SMT-LIB export of W_N's gradient keeps its form."""
    if isinstance(e, Constant):
        return Constant(0.0)
    if isinstance(e, Var):
        return Constant(1.0) if e.index == var else Constant(0.0)
    if isinstance(e, Add):
        return Add(diff(e.left, var), diff(e.right, var))
    if isinstance(e, Sub):
        return Sub(diff(e.left, var), diff(e.right, var))
    if isinstance(e, Mul):
        return Add(Mul(diff(e.left, var), e.right), Mul(e.left, diff(e.right, var)))
    if isinstance(e, Div):
        num = Sub(Mul(diff(e.left, var), e.right), Mul(e.left, diff(e.right, var)))
        return Div(num, IntPow(e.right, 2))
    if isinstance(e, Neg):
        return Neg(diff(e.arg, var))
    if isinstance(e, IntPow):
        if e.exponent == 0:
            return Constant(0.0)
        if e.exponent == 1:
            return diff(e.base, var)
        return Mul(Mul(Constant(float(e.exponent)), IntPow(e.base, e.exponent - 1)),
                   diff(e.base, var))
    if isinstance(e, Tanh):
        return Mul(Sub(Constant(1.0), IntPow(Tanh(e.arg), 2)), diff(e.arg, var))
    if isinstance(e, Exp):
        return Mul(Exp(e.arg), diff(e.arg, var))
    if isinstance(e, Ln):
        return Div(diff(e.arg, var), e.arg)
    raise TypeError(f"not an Expr node: {e!r}")


def _is(e: Expr, v: float) -> bool:
    return isinstance(e, Constant) and e.value == v   # 0.0 matches -0.0


def _neg(a: Expr) -> Expr:
    """-a, with -c of a constant folded (and -0 to 0)."""
    if isinstance(a, Constant):
        return Constant(-a.value if a.value != 0 else 0.0)
    return Neg(a)


def _excludes_zero(e: Expr) -> bool:
    """True if ``e`` has no variables and its interval enclosure excludes 0."""
    from . import interval as iv    # it builds on this module

    t = compile([e])
    if t.max_var_index >= 0:
        return False
    try:
        with np.errstate(all="ignore"):
            lo, hi = iv.expr_interval_many(t, np.zeros((1, 0)), np.zeros((1, 0)))[0]
    except DomainError:
        return False
    return bool(lo[0] > 0 or hi[0] < 0)


def fold(e: Expr) -> Expr:
    """``e`` with 0*x = x*0 = 0, 1*x = x*1 = x, x + 0 = 0 + x = x - 0 = x,
    0 - x = -x, x^1 = x, -c = (the constant -c), c - c = 0 for a finite
    constant c, and 0/e = 0 for an ``e`` without variables whose enclosure
    excludes 0, applied bottom up.  Each holds for every real x, so point
    values stay equal (``==``) where finite, and enclosures only lose
    outward widening.  0/x and x - x are kept: 0/x keeps its domain check."""
    if isinstance(e, (Add, Sub, Mul, Div)):
        a, b = fold(e.left), fold(e.right)
        if isinstance(e, Mul):
            if _is(a, 0.0) or _is(b, 0.0):
                return Constant(0.0)
            if _is(a, 1.0) or _is(b, 1.0):
                return b if _is(a, 1.0) else a
        elif isinstance(e, Div):
            if _is(a, 0.0) and _excludes_zero(b):
                return Constant(0.0)
        elif _is(b, 0.0):
            return a
        elif _is(a, 0.0):
            return b if isinstance(e, Add) else _neg(b)
        elif (isinstance(e, Sub) and isinstance(a, Constant) and a == b
              and np.isfinite(a.value)):
            return Constant(0.0)
        return type(e)(a, b)
    if isinstance(e, Neg):
        return _neg(fold(e.arg))
    if isinstance(e, IntPow):
        return fold(e.base) if e.exponent == 1 else IntPow(fold(e.base), e.exponent)
    if isinstance(e, (Tanh, Exp, Ln)):
        return type(e)(fold(e.arg))
    return e


# ---------------------------------------------------------------------------
# Printing (round-trips through parse)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5
_SYMBOLS = {Add: " + ", Sub: " - ", Mul: "*", Div: "/"}
_FUNC_NAMES = {f: name for name, f in _FUNCS.items()}


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_UNARY
    if isinstance(e, IntPow):
        return _PREC_POW
    if isinstance(e, Constant) and (e.value < 0 or (e.value == 0 and np.signbit(e.value))):
        return _PREC_UNARY  # prints with a leading minus
    return _PREC_ATOM


def _wrap(e: Expr, parent_prec: int) -> str:
    s = to_str(e)
    return f"({s})" if _prec(e) < parent_prec else s


def to_str(e: Expr) -> str:
    """Render to the concrete grammar; `parse(to_str(e), n)` evaluates identically."""
    if isinstance(e, Constant):
        return repr(e.value)
    if isinstance(e, Var):
        return f"x{e.index + 1}"
    if type(e) in _SYMBOLS:
        p = _prec(e)
        return f"{_wrap(e.left, p)}{_SYMBOLS[type(e)]}{_wrap(e.right, p + 1)}"
    if isinstance(e, Neg):
        return f"-{_wrap(e.arg, _PREC_UNARY)}"
    if isinstance(e, IntPow):
        return f"{_wrap(e.base, _PREC_ATOM)}^{e.exponent}"
    if type(e) in _FUNC_NAMES:
        return f"{_FUNC_NAMES[type(e)]}({to_str(e.arg)})"
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# Vector fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorField:
    """An n-dimensional vector field with one Expr per component."""

    dim: int
    components: tuple
    tape: Tape = field(init=False, repr=False, compare=False)  # one output per component

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) != self.dim:
            raise ValueError(f"expected {self.dim} components, got {len(comps)}")
        object.__setattr__(self, "tape", compile(comps))
        k = self.tape.max_var_index
        if k >= self.dim:
            raise IndexError(f"the field references x{k + 1} beyond dimension {self.dim}")

    def eval_many(self, X: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
        """(K, n) points -> (K, n) field values, in the first n columns of
        ``out`` if given (which must not overlap X)."""
        out = np.empty((X.shape[0], self.dim)) if out is None else out
        _point_pass(self.tape, X, out)
        return out

    def jacobian_exprs(self) -> list:
        """Row-major list of lists: entry [i][j] = d f_i / d x_j, folded
        (`fold`), so its tapes carry no product with a constant 0 or 1."""
        return [[fold(diff(c, j)) for j in range(self.dim)] for c in self.components]

    @cached_property
    def jacobian_tape(self) -> Tape:
        """The `jacobian_exprs` entries compiled row-major: output i*n + j
        is d f_i / d x_j.  Built on first use and kept."""
        return compile([e for row in self.jacobian_exprs() for e in row])
