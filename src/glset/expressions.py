"""Expression language for authoring functionals in whitened coordinates.

The grammar is :data:`GRAMMAR`, which ``glset grammar`` prints; a leading
sign on the first term is accepted (so ``exp(-norm2())`` parses).
ASTs evaluate vectorized over sample batches and differentiate symbolically;
derivatives of ``abs``/``min``/``max`` use internal sign/branch nodes that
are exact away from the (measure zero) kink sets.  All arithmetic, on
constants too, is numpy's float64: an overflow or ``0^-1`` gives inf and a
``0/0`` NaN, never an exception, and a non-finite value is left to the
finite checks of the pass that reads it.  :func:`simplify` folds constant
subtrees and makes only rewrites that keep every bit of the value: ``1*x``,
``x*1``, ``x/1``, ``x^1`` and ``--x`` to ``x``, ``x - 0`` (+0.0 only) to
``x``, and a branch with equal sides to that side.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

import numpy as np

from .functionals import Functional, rowsum

GRAMMAR = """\
expr    := ('+' | '-')? term (('+' | '-') term)*
term    := factor (('*' | '/') factor)*
factor  := primary ('^' int)*
primary := number
         | 'xi' '(' int ')'                   # whitened coordinate, 1-based
         | 'norm2' '(' ')'                    # sum of squared coordinates
         | ('exp'|'sin'|'cos'|'abs') '(' expr ')'
         | ('min'|'max') '(' expr ',' expr ')'
         | '(' expr ')'

Expressions are authored in whitened coordinates xi(1), xi(2), ...;
gradients and Hessians are produced by symbolic differentiation of the
syntax tree.  '^' takes an integer exponent (negative allowed).
"""


class ExpressionError(ValueError):
    """Malformed expression, with the character offset of the problem."""

    def __init__(self, message: str, pos: int, source: str = ""):
        self.pos = pos
        self.source = source
        super().__init__(f"{message} (at position {pos})")


# ----------------------------- AST -----------------------------

@dataclass(frozen=True, eq=False)
class Num:
    """A constant; equal to another only with the same sign, so -0.0 and
    +0.0 are different nodes (and evaluation memo keys)."""

    value: float

    def _key(self):
        return self.value, math.copysign(1.0, self.value)

    def __eq__(self, other):
        return isinstance(other, Num) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class Xi:
    k: int


@dataclass(frozen=True)
class Add:
    a: object
    b: object


@dataclass(frozen=True)
class Sub:
    a: object
    b: object


@dataclass(frozen=True)
class Mul:
    a: object
    b: object


@dataclass(frozen=True)
class DivOp:
    a: object
    b: object


@dataclass(frozen=True)
class PowInt:
    base: object
    exponent: int


@dataclass(frozen=True)
class Neg:
    a: object


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


# derivative-only nodes (not expressible in the surface grammar)

@dataclass(frozen=True)
class SignOf:
    a: object


@dataclass(frozen=True)
class IfLe:
    """``then`` where a <= b, otherwise ``other``."""

    a: object
    b: object
    then: object
    other: object


ZERO = Num(0.0)
ONE = Num(1.0)

_UNARY_FN = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "abs": np.abs}
_BINARY_FN = {"min": np.minimum, "max": np.maximum}


# ----------------------------- tokenizer / parser -----------------------------

_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class ParsedExpression:
    """Parse result: the tree plus source metadata for later validation."""

    ast: object
    source: str
    xi_refs: tuple[tuple[int, int], ...]  # (index, source offset) pairs

    @property
    def max_index(self) -> int:
        return max((k for k, _ in self.xi_refs), default=0)


class _Parser:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0
        self.xi_refs: list[tuple[int, int]] = []

    def error(self, message, pos=None):
        raise ExpressionError(message, self.pos if pos is None else pos, self.src)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def accept(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.accept(ch):
            self.error(f"expected {ch!r}")

    def number(self) -> float:
        self.skip_ws()
        m = _NUMBER.match(self.src, self.pos)
        if not m:
            self.error("expected a number")
        self.pos = m.end()
        return float(m.group())

    def integer(self) -> int:
        self.skip_ws()
        neg = self.accept("-")
        start = self.pos
        m = _NUMBER.match(self.src, self.pos)
        if not m or any(c in m.group() for c in ".eE"):
            self.error("expected an integer", start)
        self.pos = m.end()
        v = int(m.group())
        return -v if neg else v

    def parse(self):
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            self.error("unexpected trailing input")
        return node

    def expr(self):
        if self.accept("-"):
            node = Neg(self.term())
        else:
            self.accept("+")
            node = self.term()
        while True:
            if self.accept("+"):
                node = Add(node, self.term())
            elif self.accept("-"):
                node = Sub(node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            if self.accept("*"):
                node = Mul(node, self.factor())
            elif self.accept("/"):
                node = DivOp(node, self.factor())
            else:
                return node

    def factor(self):
        node = self.primary()
        while self.accept("^"):
            node = PowInt(node, self.integer())
        return node

    def primary(self):
        self.skip_ws()
        if self.pos >= len(self.src):
            self.error("unexpected end of expression")
        ch = self.src[self.pos]
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        if ch.isdigit():
            return Num(self.number())
        m = _IDENT.match(self.src, self.pos)
        if not m:
            self.error(f"unexpected character {ch!r}")
        name = m.group()
        name_pos = self.pos
        self.pos = m.end()
        if name == "xi":
            self.expect("(")
            idx_pos = self.pos
            k = self.integer()
            if k < 1:
                self.error("coordinate index must be >= 1", idx_pos)
            self.expect(")")
            self.xi_refs.append((k, name_pos))
            return Xi(k)
        if name == "norm2":
            self.expect("(")
            self.expect(")")
            return Call("norm2", ())
        if name in _UNARY_FN:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Call(name, (arg,))
        if name in _BINARY_FN:
            self.expect("(")
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect(")")
            return Call(name, (a, b))
        self.error(f"unknown function {name!r}", name_pos)


def parse_expression(source: str) -> ParsedExpression:
    p = _Parser(source)
    ast = p.parse()
    return ParsedExpression(ast=ast, source=source, xi_refs=tuple(p.xi_refs))


# ----------------------------- printing -----------------------------

def _prec(node) -> int:
    if isinstance(node, (Add, Sub)):
        return 1
    if isinstance(node, (Mul, DivOp)):
        return 2
    if isinstance(node, PowInt):
        return 3
    if isinstance(node, Neg):
        return 0
    if isinstance(node, Num) and node.value < 0:
        return 0
    return 4


def _wrap(node, minimum: int) -> str:
    text = to_string(node)
    return f"({text})" if _prec(node) < minimum else text


def to_string(node) -> str:
    """Grammar-conformant text; ``parse(to_string(ast)) == ast``."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Xi):
        return f"xi({node.k})"
    if isinstance(node, Add):
        return f"{_wrap(node.a, 1)} + {_wrap(node.b, 2)}"
    if isinstance(node, Sub):
        return f"{_wrap(node.a, 1)} - {_wrap(node.b, 2)}"
    if isinstance(node, Mul):
        return f"{_wrap(node.a, 2)}*{_wrap(node.b, 3)}"
    if isinstance(node, DivOp):
        return f"{_wrap(node.a, 2)}/{_wrap(node.b, 3)}"
    if isinstance(node, PowInt):
        return f"{_wrap(node.base, 4)}^{node.exponent}"
    if isinstance(node, Neg):
        return f"-{_wrap(node.a, 2)}"
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(to_string(a) for a in node.args)})"
    if isinstance(node, SignOf):
        return f"sign({to_string(node.a)})"
    if isinstance(node, IfLe):
        return (f"ifle({to_string(node.a)}, {to_string(node.b)}, "
                f"{to_string(node.then)}, {to_string(node.other)})")
    raise TypeError(f"not an expression node: {node!r}")


# ----------------------------- evaluation -----------------------------

def _eval(node, xi: np.ndarray, memo: dict):
    got = memo.get(node)
    if got is not None:
        return got
    if isinstance(node, Num):
        out = np.float64(node.value)
    elif isinstance(node, Xi):
        out = xi[:, node.k - 1]
    elif isinstance(node, Add):
        out = _eval(node.a, xi, memo) + _eval(node.b, xi, memo)
    elif isinstance(node, Sub):
        out = _eval(node.a, xi, memo) - _eval(node.b, xi, memo)
    elif isinstance(node, Mul):
        out = _eval(node.a, xi, memo) * _eval(node.b, xi, memo)
    elif isinstance(node, DivOp):
        out = _eval(node.a, xi, memo) / _eval(node.b, xi, memo)
    elif isinstance(node, PowInt):
        base = _eval(node.base, xi, memo)
        out = np.float_power(base, node.exponent) if node.exponent < 0 \
            else base ** node.exponent
    elif isinstance(node, Neg):
        out = -_eval(node.a, xi, memo)
    elif isinstance(node, Call):
        if node.fn == "norm2":
            out = rowsum(xi * xi)
        elif node.fn in _UNARY_FN:
            out = _UNARY_FN[node.fn](_eval(node.args[0], xi, memo))
        else:
            out = _BINARY_FN[node.fn](_eval(node.args[0], xi, memo),
                                      _eval(node.args[1], xi, memo))
    elif isinstance(node, SignOf):
        out = np.sign(_eval(node.a, xi, memo))
    elif isinstance(node, IfLe):
        a = _eval(node.a, xi, memo)
        b = _eval(node.b, xi, memo)
        out = np.where(a <= b, _eval(node.then, xi, memo),
                       _eval(node.other, xi, memo))
    else:
        raise TypeError(f"not an expression node: {node!r}")
    memo[node] = out
    return out


def evaluate(node, xi: np.ndarray, memo=None) -> np.ndarray:
    """The value of ``node`` at the rows of ``xi``, warning-free: a
    non-finite result is left to the finite checks of the pass."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    with np.errstate(all="ignore"):
        out = _eval(node, xi, {} if memo is None else memo)
    return np.broadcast_to(np.asarray(out, dtype=float), (xi.shape[0],))


# ----------------------------- differentiation -----------------------------

def _plus(a, b):
    """``a + b`` where either may be the zero derivative ``ZERO``."""
    if a is ZERO:
        return b
    return a if b is ZERO else Add(a, b)


def _minus(a, b):
    if b is ZERO:
        return a
    return Neg(b) if a is ZERO else Sub(a, b)


def _times(a, b):
    return ZERO if a is ZERO or b is ZERO else Mul(a, b)


def _branch(a, b, then, other):
    return ZERO if then is ZERO and other is ZERO else IfLe(a, b, then, other)


def diff(node, k: int):
    """Symbolic partial derivative with respect to xi_k.  It is ``ZERO``
    itself for a node that does not depend on xi_k, and no term is built
    from such a zero: ``d(c x) = c dx`` for a constant c, not ``0 x + c dx``,
    which differs where x is not finite."""
    if isinstance(node, (Num, SignOf)):
        return ZERO
    if isinstance(node, Xi):
        return ONE if node.k == k else ZERO
    if isinstance(node, Add):
        return _plus(diff(node.a, k), diff(node.b, k))
    if isinstance(node, Sub):
        return _minus(diff(node.a, k), diff(node.b, k))
    if isinstance(node, Mul):
        return _plus(_times(diff(node.a, k), node.b), _times(node.a, diff(node.b, k)))
    if isinstance(node, DivOp):
        num = _minus(_times(diff(node.a, k), node.b), _times(node.a, diff(node.b, k)))
        return num if num is ZERO else DivOp(num, PowInt(node.b, 2))
    if isinstance(node, PowInt):
        if node.exponent in (0, 1):
            return ZERO if node.exponent == 0 else diff(node.base, k)
        return _times(Mul(Num(float(node.exponent)), PowInt(node.base, node.exponent - 1)),
                      diff(node.base, k))
    if isinstance(node, Neg):
        return _minus(ZERO, diff(node.a, k))
    if isinstance(node, Call):
        if node.fn == "norm2":
            return Mul(Num(2.0), Xi(k))
        a = node.args[0]
        da = diff(a, k)
        if node.fn == "exp":
            return _times(Call("exp", (a,)), da)
        if node.fn == "sin":
            return _times(Call("cos", (a,)), da)
        if node.fn == "cos":
            return _minus(ZERO, _times(Call("sin", (a,)), da))
        if node.fn == "abs":
            return _times(SignOf(a), da)
        b = node.args[1]
        if node.fn == "min":
            return _branch(a, b, da, diff(b, k))
        if node.fn == "max":
            return _branch(a, b, diff(b, k), da)
    if isinstance(node, IfLe):
        return _branch(node.a, node.b, diff(node.then, k), diff(node.other, k))
    raise TypeError(f"cannot differentiate {node!r}")


def _args(node) -> tuple:
    if isinstance(node, Call):
        return node.args
    if isinstance(node, PowInt):
        return (node.base,)
    if isinstance(node, (Num, Xi)):
        return ()
    return tuple(getattr(node, f.name) for f in fields(node))


def _with_args(node, args: tuple):
    if isinstance(node, Call):
        return Call(node.fn, args)
    if isinstance(node, PowInt):
        return PowInt(args[0], node.exponent)
    return type(node)(*args) if args else node


def simplify(node):
    """The same value at every point, bit for bit, from a smaller tree.

    A subtree of constants becomes the ``Num`` of its value, computed as
    :func:`evaluate` computes it, in numpy's float64: an overflow or
    ``0^-1`` folds to inf and ``0/0`` to NaN, with no warning or exception,
    and a pass's finite checks judge the result.  The other rewrites are
    exact: ``1*x``, ``x*1``, ``x/1``, ``x^1`` and ``--x`` to ``x``,
    ``x - 0`` (+0.0 only) to ``x``, and a branch whose sides are equal to
    that side.  ``0*x``, ``x + 0`` and the like stay: they are NaN where x
    is not finite and can flip the sign of a zero (:func:`diff` builds none
    of them).  So does ``x^0``: as 1 it would turn a column into a scalar,
    and numpy's power of a column can differ in the last bit from that of
    the same scalar.
    """
    if isinstance(node, PowInt) and node.exponent == 1:
        return simplify(node.base)
    args = tuple(simplify(a) for a in _args(node))
    node = _with_args(node, args)
    if args and all(isinstance(a, Num) for a in args):
        with np.errstate(all="ignore"):
            return Num(float(_eval(node, None, {})))
    if isinstance(node, Mul) and ONE in (node.a, node.b):
        return node.b if node.a == ONE else node.a
    if (isinstance(node, DivOp) and node.b == ONE
            or isinstance(node, Sub) and node.b == ZERO):
        return node.a
    if isinstance(node, Neg) and isinstance(node.a, Neg):
        return node.a.a
    if isinstance(node, IfLe) and node.then == node.other:
        return node.then
    return node


# ----------------------------- functional adapter -----------------------------

class ExpressionFunctional(Functional):
    """A parsed expression exposed as a scalar functional with symbolic
    derivatives; its value, gradient and Hessian products ``(D^2 f) v`` at
    the points of a chunk are kept for the chunk (:meth:`Functional._kept`),
    so ``g^T H g`` and every ``((D^2 f) g)_k`` share one product."""

    analytic_gradient = True

    def __init__(self, source, name: str | None = None):
        if isinstance(source, ParsedExpression):
            self.parsed = source
        else:
            self.parsed = parse_expression(str(source))
        self.ast = self.parsed.ast
        self.name = name if name is not None else self.parsed.source.strip()
        self.min_dim = max(1, self.parsed.max_index)
        self._grads: dict[int, object] = {}
        self._hess: dict[tuple[int, int], object] = {}

    def _grad_ast(self, k: int):
        if k not in self._grads:
            self._grads[k] = simplify(diff(self.ast, k))
        return self._grads[k]

    def _hess_ast(self, j: int, k: int):
        key = (j, k) if j <= k else (k, j)
        if key not in self._hess:
            self._hess[key] = simplify(diff(self._grad_ast(key[0]), key[1]))
        return self._hess[key]

    def _check_dim(self, xi):
        if xi.shape[1] < self.min_dim:
            raise ValueError(f"expression {self.name!r} references xi({self.min_dim}) "
                             f"but points have dimension {xi.shape[1]}")

    def value(self, xi):
        self._check_dim(xi)
        return self._kept("value", xi, (), lambda: evaluate(self.ast, xi))

    def gradient(self, xi):
        self._check_dim(xi)
        return self._kept("gradient", xi, (), lambda: self._gradient(xi))

    def _gradient(self, xi):
        out = np.zeros_like(xi)
        memo = {}
        for k in range(1, xi.shape[1] + 1):
            ast = self._grad_ast(k)
            if ast is not ZERO:
                out[:, k - 1] = evaluate(ast, xi, memo)
        return out

    def laplacian(self, xi):
        self._check_dim(xi)
        out = np.zeros(xi.shape[0])
        memo = {}
        for k in range(1, xi.shape[1] + 1):
            ast = self._hess_ast(k, k)
            if ast is not ZERO:
                out += evaluate(ast, xi, memo)
        return out

    def hess(self, xi, u, v):
        self._check_dim(xi)
        return self._bilinear(lambda w: self._kept(
            "hessian_times", xi, (w,), lambda: self._hessian_times(xi, w)), xi, u, v)

    def _hessian_times(self, xi, u):
        out = np.zeros_like(xi)
        memo = {}
        axes = range(1, xi.shape[1] + 1)
        for j in axes:
            if self._grad_ast(j) is ZERO:
                continue
            for k in axes:
                ast = self._hess_ast(j, k)
                if ast is not ZERO:
                    out[:, j - 1] += evaluate(ast, xi, memo) * u[:, k - 1]
        return out
