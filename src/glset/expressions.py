"""Expression language for authoring functionals in whitened coordinates.

Grammar (also printed by ``glset grammar``)::

    expr    := ('+' | '-')? term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := primary ('^' int)*
    primary := number
             | 'xi' '(' int ')'                   # coordinate, 1-based
             | 'norm2' '(' ')'                    # sum of squared coordinates
             | ('exp'|'sin'|'cos'|'abs') '(' expr ')'
             | ('min'|'max') '(' expr ',' expr ')'
             | '(' expr ')'

A leading sign on the first term is accepted (so ``exp(-norm2())`` parses).
ASTs evaluate vectorized over sample batches and differentiate symbolically;
derivatives of ``abs``/``min``/``max`` use internal sign/branch nodes that
are exact away from the (measure zero) kink sets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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

@dataclass(frozen=True)
class Num:
    value: float


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
    norm2: bool = False  # whether it calls norm2(), which reads every coordinate

    @property
    def max_index(self) -> int:
        return max((k for k, _ in self.xi_refs), default=0)


class _Parser:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0
        self.xi_refs: list[tuple[int, int]] = []
        self.norm2 = False

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
            self.norm2 = True
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
    return ParsedExpression(ast=ast, source=source, xi_refs=tuple(p.xi_refs),
                            norm2=p.norm2)


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
        out = node.value
    elif isinstance(node, Xi):
        out = xi[:, node.k - 1]
    elif isinstance(node, Add):
        out = _eval(node.a, xi, memo) + _eval(node.b, xi, memo)
    elif isinstance(node, Sub):
        out = _eval(node.a, xi, memo) - _eval(node.b, xi, memo)
    elif isinstance(node, Mul):
        out = _eval(node.a, xi, memo) * _eval(node.b, xi, memo)
    elif isinstance(node, DivOp):
        # numpy semantics even for scalar/scalar: 0/0 is nan, not an error
        out = np.divide(_eval(node.a, xi, memo), _eval(node.b, xi, memo))
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
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    out = _eval(node, xi, {} if memo is None else memo)
    return np.broadcast_to(np.asarray(out, dtype=float), (xi.shape[0],))


# ----------------------------- differentiation -----------------------------

def diff(node, k: int):
    """Symbolic partial derivative with respect to xi_k."""
    if isinstance(node, (Num, SignOf)):
        return ZERO
    if isinstance(node, Xi):
        return ONE if node.k == k else ZERO
    if isinstance(node, Add):
        return Add(diff(node.a, k), diff(node.b, k))
    if isinstance(node, Sub):
        return Sub(diff(node.a, k), diff(node.b, k))
    if isinstance(node, Mul):
        return Add(Mul(diff(node.a, k), node.b), Mul(node.a, diff(node.b, k)))
    if isinstance(node, DivOp):
        num = Sub(Mul(diff(node.a, k), node.b), Mul(node.a, diff(node.b, k)))
        return DivOp(num, PowInt(node.b, 2))
    if isinstance(node, PowInt):
        if node.exponent == 0:
            return ZERO
        inner = diff(node.base, k)
        return Mul(Mul(Num(float(node.exponent)), PowInt(node.base, node.exponent - 1)),
                   inner)
    if isinstance(node, Neg):
        return Neg(diff(node.a, k))
    if isinstance(node, Call):
        if node.fn == "norm2":
            return Mul(Num(2.0), Xi(k))
        a = node.args[0]
        da = diff(a, k)
        if node.fn == "exp":
            return Mul(Call("exp", (a,)), da)
        if node.fn == "sin":
            return Mul(Call("cos", (a,)), da)
        if node.fn == "cos":
            return Neg(Mul(Call("sin", (a,)), da))
        if node.fn == "abs":
            return Mul(SignOf(a), da)
        b = node.args[1]
        db = diff(b, k)
        if node.fn == "min":
            return IfLe(a, b, da, db)
        if node.fn == "max":
            return IfLe(a, b, db, da)
    if isinstance(node, IfLe):
        return IfLe(node.a, node.b, diff(node.then, k), diff(node.other, k))
    raise TypeError(f"cannot differentiate {node!r}")


def _is_zero(node) -> bool:
    return isinstance(node, Num) and node.value == 0.0


def _is_one(node) -> bool:
    return isinstance(node, Num) and node.value == 1.0


def simplify(node):
    """Fold constants and drop 0/1 identities (used on derivative trees)."""
    if isinstance(node, (Num, Xi)):
        return node
    if isinstance(node, Add):
        a, b = simplify(node.a), simplify(node.b)
        if _is_zero(a):
            return b
        if _is_zero(b):
            return a
        if isinstance(a, Num) and isinstance(b, Num):
            return Num(a.value + b.value)
        return Add(a, b)
    if isinstance(node, Sub):
        a, b = simplify(node.a), simplify(node.b)
        if _is_zero(b):
            return a
        if _is_zero(a):
            return simplify(Neg(b))
        if isinstance(a, Num) and isinstance(b, Num):
            return Num(a.value - b.value)
        return Sub(a, b)
    if isinstance(node, Mul):
        a, b = simplify(node.a), simplify(node.b)
        if _is_zero(a) or _is_zero(b):
            return ZERO
        if _is_one(a):
            return b
        if _is_one(b):
            return a
        if isinstance(a, Num) and isinstance(b, Num):
            return Num(a.value * b.value)
        return Mul(a, b)
    if isinstance(node, DivOp):
        a, b = simplify(node.a), simplify(node.b)
        if _is_zero(a):
            return ZERO
        if _is_one(b):
            return a
        return DivOp(a, b)
    if isinstance(node, PowInt):
        base = simplify(node.base)
        if node.exponent == 0:
            return ONE
        if node.exponent == 1:
            return base
        if isinstance(base, Num):
            return Num(float(base.value ** node.exponent))
        return PowInt(base, node.exponent)
    if isinstance(node, Neg):
        a = simplify(node.a)
        if isinstance(a, Num):
            return Num(-a.value)
        if isinstance(a, Neg):
            return a.a
        return Neg(a)
    if isinstance(node, Call):
        return Call(node.fn, tuple(simplify(a) for a in node.args))
    if isinstance(node, SignOf):
        return SignOf(simplify(node.a))
    if isinstance(node, IfLe):
        t, o = simplify(node.then), simplify(node.other)
        if t == o:
            return t
        return IfLe(simplify(node.a), simplify(node.b), t, o)
    raise TypeError(f"not an expression node: {node!r}")


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

    def _active(self, d: int):
        if self.parsed.norm2:
            return range(1, d + 1)
        return sorted({k for k, _ in self.parsed.xi_refs if k <= d})

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
        for k in self._active(xi.shape[1]):
            ast = self._grad_ast(k)
            if not _is_zero(ast):
                out[:, k - 1] = evaluate(ast, xi, memo)
        return out

    def laplacian(self, xi):
        self._check_dim(xi)
        out = np.zeros(xi.shape[0])
        memo = {}
        for k in self._active(xi.shape[1]):
            ast = self._hess_ast(k, k)
            if not _is_zero(ast):
                out += evaluate(ast, xi, memo)
        return out

    def hess(self, xi, u, v):
        self._check_dim(xi)
        return self._bilinear(lambda w: self._kept(
            "hessian_times", xi, (w,), lambda: self._hessian_times(xi, w)), xi, u, v)

    def _hessian_times(self, xi, u):
        out = np.zeros_like(xi)
        memo = {}
        active = self._active(xi.shape[1])
        for j in active:
            for k in active:
                ast = self._hess_ast(j, k)
                if not _is_zero(ast):
                    out[:, j - 1] += evaluate(ast, xi, memo) * u[:, k - 1]
        return out
