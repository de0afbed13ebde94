"""Minimal arithmetic expressions for coefficient functions of (x, y, z).

Grammar (standard precedence, ``^`` right-associative and binding tighter
than unary minus)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := number | 'pi' | 'e' | 'x' | 'y' | 'z'
            | name '(' expr ')' | '(' expr ')'

Recognized functions: sin, cos, exp, sqrt, abs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "sqrt": math.sqrt,
    "abs": abs,
}
_CONSTANTS = {"pi": math.pi, "e": math.e}
_VARIABLES = ("x", "y", "z")


class ExprError(ValueError):
    """Parse or evaluation failure, carrying the byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Const:
    value: float
    offset: int = 0


@dataclass(frozen=True)
class Var:
    name: str
    offset: int = 0


@dataclass(frozen=True)
class Neg:
    operand: "ExprAst"
    offset: int = 0


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "ExprAst"
    right: "ExprAst"
    offset: int = 0


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ExprAst"
    offset: int = 0


ExprAst = Union[Const, Var, Neg, BinOp, Call]


def is_expr(obj) -> bool:
    """True when ``obj`` is an expression AST node."""
    return isinstance(obj, (Const, Var, Neg, BinOp, Call))


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            if src[pos:].strip() == "":
                break
            bad = len(src) - len(src[pos:].lstrip())
            raise ExprError(f"unexpected character {src[bad]!r}", bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r}", off)
        return self.take()

    def parse(self) -> ExprAst:
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprError(f"trailing input {val!r}", off)
        return node

    def expr(self) -> ExprAst:
        node = self.term()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                node = BinOp(val, node, self.term(), off)
            else:
                return node

    def term(self) -> ExprAst:
        node = self.unary()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                node = BinOp(val, node, self.unary(), off)
            else:
                return node

    def unary(self) -> ExprAst:
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return Neg(self.unary(), off)
        return self.power()

    def power(self) -> ExprAst:
        node = self.atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.take()
            return BinOp("^", node, self.unary(), off)
        return node

    def atom(self) -> ExprAst:
        kind, val, off = self.take()
        if kind == "num":
            return Const(float(val), off)
        if kind == "name":
            if val in _VARIABLES:
                return Var(val, off)
            if val in _CONSTANTS:
                return Const(_CONSTANTS[val], off)
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg, off)
            raise ExprError(f"unknown identifier {val!r}", off)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprError(f"unexpected token {val!r}" if val else "unexpected end of input", off)


def parse(src: str) -> ExprAst:
    """Parse ``src`` into an AST; raises :class:`ExprError` with an offset."""
    return _Parser(src).parse()


def evaluate(ast: ExprAst, x: float, y: float, z: float) -> float:
    """Evaluate at a point.  Division by zero, out-of-domain function
    arguments and function overflow raise :class:`ExprError` rather than
    propagating NaN."""
    if isinstance(ast, Const):
        return ast.value
    if isinstance(ast, Var):
        return {"x": x, "y": y, "z": z}[ast.name]
    if isinstance(ast, Neg):
        return -evaluate(ast.operand, x, y, z)
    if isinstance(ast, Call):
        arg = evaluate(ast.arg, x, y, z)
        try:
            return float(_FUNCTIONS[ast.func](arg))
        except ValueError:
            raise ExprError(f"domain error in {ast.func}({arg!r})", ast.offset) from None
        except OverflowError:
            raise ExprError(f"overflow in {ast.func}({arg!r})", ast.offset) from None
    if isinstance(ast, BinOp):
        a = evaluate(ast.left, x, y, z)
        b = evaluate(ast.right, x, y, z)
        if ast.op == "+":
            return a + b
        if ast.op == "-":
            return a - b
        if ast.op == "*":
            return a * b
        if ast.op == "/":
            if b == 0.0:
                raise ExprError("division by zero", ast.offset)
            return a / b
        try:
            v = a ** b
        except (OverflowError, ZeroDivisionError) as exc:
            raise ExprError(f"power error: {exc}", ast.offset) from None
        if isinstance(v, complex):
            raise ExprError("power produced a complex value", ast.offset)
        return float(v)
    raise TypeError(f"not an expression node: {ast!r}")


_NP_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
}
_NP_OPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
}


def _compile(ast: ExprAst):
    """NumPy closure of ``(x, y, z)`` arrays for ``ast``.

    Constants are ``np.float64`` so that every operation, including one on
    constants only, reports a domain failure through ``np.errstate``; a
    division whose divisor has a zero raises ``FloatingPointError`` itself.
    """
    if isinstance(ast, Const):
        value = np.float64(ast.value)
        return lambda p: value
    if isinstance(ast, Var):
        index = _VARIABLES.index(ast.name)
        return lambda p: p[index]
    if isinstance(ast, Neg):
        operand = _compile(ast.operand)
        return lambda p: -operand(p)
    if isinstance(ast, Call):
        fn, arg = _NP_FUNCTIONS[ast.func], _compile(ast.arg)
        return lambda p: fn(arg(p))
    if isinstance(ast, BinOp):
        op, left, right = _NP_OPS[ast.op], _compile(ast.left), _compile(ast.right)
        if ast.op != "/":
            return lambda p: op(left(p), right(p))

        def divide(p):
            b = right(p)
            if np.any(b == 0.0):
                raise FloatingPointError("division by zero")
            return op(left(p), b)

        return divide
    raise TypeError(f"not an expression node: {ast!r}")


def to_callable(ast: ExprAst):
    """Vectorized closure over ndarray inputs (used by interpolation).

    The AST is evaluated with NumPy.  When that raises a floating-point
    error or gives a non-finite value, the points are re-evaluated one at a
    time by :func:`evaluate`, which raises the :class:`ExprError` of the
    first failing point or returns the scalar results.
    """
    compiled = _compile(ast)

    def f(x, y, z):
        pts = [np.asarray(v, dtype=float) for v in (x, y, z)]
        shape = np.broadcast_shapes(*(v.shape for v in pts))
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise", under="ignore"):
                out = np.array(np.broadcast_to(compiled(pts), shape), dtype=float)
            if np.all(np.isfinite(out)):
                return out
        except FloatingPointError:
            pass
        out = np.empty(shape)
        flat = out.ravel()
        for i, (xi, yi, zi) in enumerate(np.broadcast(*pts)):
            flat[i] = evaluate(ast, float(xi), float(yi), float(zi))
        return out

    return f
