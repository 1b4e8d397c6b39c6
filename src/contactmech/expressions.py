"""Closed expression language for coordinate functions.

Expressions are built from numeric literals, named variables, the unary
functions exp, log, sin, cos, sqrt, tanh, unary minus, the binary
operators + - * /, and ^ with a constant real exponent.  They are parsed
by recursive descent, printed back in a canonical form that reparses to
the same tree, and evaluated either over plain floats or over nested
dual numbers, which gives exact first and second derivatives without
symbolic differentiation.  Gradients run as straight-line float kernels
compiled from the tree, bitwise equal to the dual-number walk.

Grammar (EBNF, whitespace insignificant):

    expr   = term { ("+" | "-") term } ;
    term   = factor { ("*" | "/") factor } ;
    factor = "-" factor | power ;
    power  = atom [ "^" factor ] ;
    atom   = NUMBER | NAME | NAME "(" expr ")" | "(" expr ")" ;

"^" binds tighter than unary minus and is right associative; its
exponent must contain no variables and is folded to a constant at parse
time.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Power",
    "Expr",
    "Jet2",
    "ExpressionError",
    "ExpressionSyntaxError",
    "UnknownSymbolError",
    "EvaluationDomainError",
    "parse",
    "to_string",
    "free_variables",
    "evaluate",
    "eval_gradient",
    "gradient_evaluator",
    "gradient_kernel",
    "eval_jet2",
]


class ExpressionError(ValueError):
    """Base class for expression language failures."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed source text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownSymbolError(ExpressionError):
    """A name that is neither a declared variable nor a known function."""

    def __init__(self, name: str, offset: int = -1):
        at = f" (offset {offset})" if offset >= 0 else ""
        super().__init__(f"unknown symbol {name!r}{at}")
        self.name = name


class EvaluationDomainError(ExpressionError):
    """Evaluation left the real domain; names the offending subtree."""

    def __init__(self, message: str, node: "Expr"):
        super().__init__(f"{message} in {to_string(node)!r}")
        self.node = node


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" or a function name
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * /
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Power:
    base: "Expr"
    exponent: float  # constant by construction


Expr = Union[Const, Var, Unary, Binary, Power]

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt", "tanh")


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name", "op", "end"
    text: str
    offset: int


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # skip over trailing whitespace before declaring a bad character
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ExpressionSyntaxError(f"unexpected character {text[bad]!r}", bad)
        kind = m.lastgroup
        assert kind is not None
        yield _Token(kind, m.group(kind), m.start(kind))
        pos = m.end()
    yield _Token("end", "", len(text))


class _Parser:
    def __init__(self, text: str, variables: Sequence[str] | None):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.variables = None if variables is None else frozenset(variables)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.advance()
        if tok.kind != "op" or tok.text != op:
            raise ExpressionSyntaxError(f"expected {op!r}", tok.offset)

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionSyntaxError(f"unexpected {tok.text!r}", tok.offset)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Binary(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Binary(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Unary("neg", self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            at = self.peek().offset
            exponent = self.factor()
            if free_variables(exponent):
                raise ExpressionSyntaxError("exponent must be constant", at)
            return Power(base, evaluate(exponent, {}))
        return base

    def atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Const(float(tok.text))
        if tok.kind == "name":
            if self.peek().kind == "op" and self.peek().text == "(":
                if tok.text not in FUNCTIONS:
                    raise UnknownSymbolError(tok.text, tok.offset)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Unary(tok.text, arg)
            if self.variables is not None and tok.text not in self.variables:
                raise UnknownSymbolError(tok.text, tok.offset)
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError(
            "unexpected end of input" if tok.kind == "end" else f"unexpected {tok.text!r}",
            tok.offset,
        )


def parse(text: str, variables: Sequence[str] | None = None) -> Expr:
    """Parse source text into an expression tree.

    Args:
        text: expression source.
        variables: allowed variable names; None disables the check.

    Raises:
        ExpressionSyntaxError: malformed input, with byte offset.
        UnknownSymbolError: a name outside `variables` or an unknown function.
    """
    return _Parser(text, variables).parse()


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------

# precedence levels used for minimal parenthesization
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: Expr) -> int:
    if isinstance(node, Binary):
        return _PREC_ADD if node.op in "+-" else _PREC_MUL
    if isinstance(node, Unary):
        return _PREC_NEG if node.op == "neg" else _PREC_ATOM
    if isinstance(node, Power):
        return _PREC_POW
    if isinstance(node, Const) and node.value < 0:
        return _PREC_NEG
    return _PREC_ATOM


def _wrap(node: Expr, minimum: int) -> str:
    s = to_string(node)
    return f"({s})" if _prec(node) < minimum else s


def _fmt_number(value: float) -> str:
    # repr round-trips and is the shortest faithful decimal form
    return repr(float(value))


def to_string(node: Expr) -> str:
    """Canonical text form; reparsing it reproduces the tree."""
    if isinstance(node, Const):
        return _fmt_number(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            return "-" + _wrap(node.arg, _PREC_NEG)
        return f"{node.op}({to_string(node.arg)})"
    if isinstance(node, Binary):
        if node.op in "+-":
            lhs = _wrap(node.lhs, _PREC_ADD)
            # subtraction is left associative: a - (b + c) needs parens
            rhs = _wrap(node.rhs, _PREC_ADD + (1 if node.op == "-" else 0))
            return f"{lhs} {node.op} {rhs}"
        lhs = _wrap(node.lhs, _PREC_MUL)
        rhs = _wrap(node.rhs, _PREC_MUL + (1 if node.op == "/" else 0))
        return f"{lhs} {node.op} {rhs}"
    if isinstance(node, Power):
        base = _wrap(node.base, _PREC_ATOM)
        exp = _fmt_number(node.exponent)
        return f"{base}^({exp})" if node.exponent < 0 else f"{base}^{exp}"
    raise TypeError(f"not an expression node: {node!r}")


def free_variables(node: Expr) -> frozenset[str]:
    """Names of all variables appearing in the tree."""
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, Unary):
        return free_variables(node.arg)
    if isinstance(node, Binary):
        return free_variables(node.lhs) | free_variables(node.rhs)
    if isinstance(node, Power):
        return free_variables(node.base)
    return frozenset()


# ---------------------------------------------------------------------------
# Dual numbers
# ---------------------------------------------------------------------------

class Dual:
    """Truncated dual number a + eps*b.

    Components may be floats, numpy arrays (vector tangents for one-pass
    gradients), or Dual again (nesting gives second derivatives).  Only
    same-shape operands are ever combined; scalars promote implicitly.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a + other.a, self.b + other.b)
        return Dual(self.a + other, self.b)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a - other.a, self.b - other.b)
        return Dual(self.a - other, self.b)

    def __rsub__(self, other):
        return Dual(other - self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a * other.a, self.a * other.b + self.b * other.a)
        return Dual(self.a * other, self.b * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            q = self.a / other.a
            return Dual(q, (self.b - q * other.b) / other.a)
        return Dual(self.a / other, self.b / other)

    def __rtruediv__(self, other):
        q = other / self.a
        return Dual(q, -q * self.b / self.a)

    def __neg__(self):
        return Dual(-self.a, -self.b)

    # -- transcendental functions, chain rule on the tangent ----------------

    def exp(self):
        e = _exp(self.a)
        return Dual(e, self.b * e)

    def log(self):
        return Dual(_log(self.a), self.b / self.a)

    def sqrt(self):
        s = _sqrt(self.a)
        if _primal(s) == 0.0:
            raise ZeroDivisionError("sqrt derivative at zero")
        return Dual(s, self.b / (2.0 * s))

    def sin(self):
        return Dual(_sin(self.a), self.b * _cos(self.a))

    def cos(self):
        return Dual(_cos(self.a), -self.b * _sin(self.a))

    def tanh(self):
        t = _tanh(self.a)
        return Dual(t, self.b * (1.0 - t * t))

    def powc(self, c: float):
        # d/dx x^c = c x^(c-1); domain checks happen on the primal float
        return Dual(_powc(self.a, c), self.b * (c * _powc(self.a, c - 1.0)))


def _primal(x) -> float:
    while isinstance(x, Dual):
        x = x.a
    return float(x)


def _exp(x):
    return x.exp() if isinstance(x, Dual) else math.exp(x)


def _log(x):
    if isinstance(x, Dual):
        return x.log()
    if x <= 0.0:
        raise ValueError("log of a nonpositive value")
    return math.log(x)


def _sqrt(x):
    if isinstance(x, Dual):
        return x.sqrt()
    if x < 0.0:
        raise ValueError("sqrt of a negative value")
    return math.sqrt(x)


def _sin(x):
    return x.sin() if isinstance(x, Dual) else math.sin(x)


def _cos(x):
    return x.cos() if isinstance(x, Dual) else math.cos(x)


def _tanh(x):
    return x.tanh() if isinstance(x, Dual) else math.tanh(x)


def _powc(x, c: float):
    if isinstance(x, Dual):
        return x.powc(c)
    if x == 0.0 and c < 0.0:
        raise ZeroDivisionError("zero base with negative exponent")
    if x < 0.0 and c != round(c):
        raise ValueError("negative base with non-integer exponent")
    return math.pow(x, c)


_FUNC_TABLE = {
    "exp": _exp,
    "log": _log,
    "sqrt": _sqrt,
    "sin": _sin,
    "cos": _cos,
    "tanh": _tanh,
}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _eval(node: Expr, env: Mapping[str, object]):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnknownSymbolError(node.name) from None
    if isinstance(node, Binary):
        lhs = _eval(node.lhs, env)
        rhs = _eval(node.rhs, env)
        op = node.op
        try:
            if op == "+":
                out = lhs + rhs
            elif op == "-":
                out = lhs - rhs
            elif op == "*":
                out = lhs * rhs
            else:
                if _primal(rhs) == 0.0:
                    raise ZeroDivisionError
                out = lhs / rhs
        except (ZeroDivisionError, OverflowError) as exc:
            raise EvaluationDomainError(str(exc) or "division by zero", node) from None
        # float arithmetic overflows to inf silently; non-finite operands
        # still propagate without raising
        if (
            math.isinf(_primal(out))
            and math.isfinite(_primal(lhs))
            and math.isfinite(_primal(rhs))
        ):
            raise EvaluationDomainError("overflow", node)
        return out
    if isinstance(node, Unary):
        arg = _eval(node.arg, env)
        if node.op == "neg":
            return -arg
        try:
            return _FUNC_TABLE[node.op](arg)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvaluationDomainError(str(exc), node) from None
    if isinstance(node, Power):
        base = _eval(node.base, env)
        try:
            return _powc(base, node.exponent)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvaluationDomainError(str(exc), node) from None
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node: Expr, env: Mapping[str, float]) -> float:
    """Evaluate over plain floats."""
    return float(_eval(node, env))


def _dual_gradient(node: Expr, names: tuple[str, ...]):
    """(value, gradient) by the Dual walk with vector tangents.

    The reference the compiled kernels reproduce, and their fallback.
    """
    n = len(names)
    eye = np.eye(n)
    zero = np.zeros(n)

    def run(values) -> tuple[float, np.ndarray]:
        env = {name: Dual(float(values[k]), eye[k]) for k, name in enumerate(names)}
        out = _eval(node, env)
        if isinstance(out, Dual):
            return float(out.a), np.asarray(out.b, dtype=float)
        return float(out), zero.copy()

    return run


class _Uncompilable(Exception):
    """The tree always fails or needs names outside the kernel's inputs."""


class _KernelSource:
    """Straight-line Python source computing one tree's value and gradient.

    Each node with a variable below it becomes a value local plus one
    tangent entry per coordinate, in the float operations and order of
    the Dual walk.  An entry is either source text or a float known at
    compile time: the 0.0/1.0 seeds, and what arithmetic on two known
    floats gives, which is folded here in the same float operation the
    walk would run.  Variable-free subtrees fold through `_eval`.
    """

    def __init__(self, names: tuple[str, ...]):
        self.index = {name: k for k, name in enumerate(names)}
        self.n = len(names)
        self.lines: list[str] = []
        self.consts: dict[str, float] = {}
        self.count = 0

    def text(self, entry) -> str:
        if isinstance(entry, str):
            return entry
        if math.isfinite(entry) and math.copysign(1.0, entry) > 0.0:
            return repr(entry)
        # signed zeros, infinities and NaNs keep their exact bits
        name = f"_c{len(self.consts)}"
        self.consts[name] = entry
        return name

    def local(self, source: str, prefix: str = "t") -> str:
        name = f"{prefix}{self.count}"
        self.count += 1
        self.lines.append(f"{name} = {source}")
        return name

    def binary(self, x, op: str, y):
        if not isinstance(x, str) and not isinstance(y, str):
            try:
                return _FOLD[op](x, y)
            except ZeroDivisionError:
                pass  # the primal division before it raises at run time
        return f"({self.text(x)} {op} {self.text(y)})"

    def neg(self, x):
        return -x if not isinstance(x, str) else f"(-{x})"

    def tangent(self, entries) -> list:
        return [e if not isinstance(e, str) or e.isidentifier() else self.local(e)
                for e in entries]

    def guard_pow(self, a: str, exponent: float) -> None:
        # the domain checks of _powc, specialised to a known exponent
        checks = []
        if exponent < 0.0:
            checks.append(f"{a} == 0.0")
        if not (math.isfinite(exponent) and exponent == round(exponent)):
            checks.append(f"{a} < 0.0")
        if checks:
            self.lines.append(f"if {' or '.join(checks)}: raise ValueError")

    def emit(self, node: Expr):
        """(value, tangent entries), or (float, None) for a variable-free node."""
        if isinstance(node, Const):
            return node.value, None
        if isinstance(node, Var):
            k = self.index.get(node.name)
            if k is None:
                raise _Uncompilable
            return f"x{k}", [1.0 if j == k else 0.0 for j in range(self.n)]
        if isinstance(node, Binary):
            a, ta = self.emit(node.lhs)
            b, tb = self.emit(node.rhs)
            if ta is None and tb is None:
                return self.fold(node), None
            return self.emit_binary(node.op, a, ta, b, tb)
        if isinstance(node, Unary):
            a, ta = self.emit(node.arg)
            if ta is None:
                return self.fold(node), None
            return self.emit_unary(node.op, a, ta)
        if isinstance(node, Power):
            a, ta = self.emit(node.base)
            if ta is None:
                return self.fold(node), None
            c = node.exponent
            self.guard_pow(a, c)
            v = self.local(f"_pow({a}, {self.text(c)})", "v")
            self.guard_pow(a, c - 1.0)
            d = self.local(f"{self.text(c)} * _pow({a}, {self.text(c - 1.0)})")
            return v, self.tangent(self.binary(x, "*", d) for x in ta)
        raise TypeError(f"not an expression node: {node!r}")

    @staticmethod
    def fold(node: Expr) -> float:
        try:
            return _eval(node, {})
        except EvaluationDomainError:
            raise _Uncompilable from None

    def emit_binary(self, op: str, a, ta, b, tb):
        A, B = self.text(a), self.text(b)
        if op == "+":
            # float + Dual runs Dual.__radd__: the dual's value comes first
            v = self.local(f"{B} + {A}" if ta is None else f"{A} + {B}", "v")
            if ta is None:
                t = tb
            elif tb is None:
                t = ta
            else:
                t = [self.binary(x, "+", y) for x, y in zip(ta, tb)]
        elif op == "-":
            v = self.local(f"{A} - {B}", "v")
            if ta is None:
                t = [self.neg(y) for y in tb]
            elif tb is None:
                t = ta
            else:
                t = [self.binary(x, "-", y) for x, y in zip(ta, tb)]
        elif op == "*":
            v = self.local(f"{B} * {A}" if ta is None else f"{A} * {B}", "v")
            if ta is None:
                t = [self.binary(y, "*", a) for y in tb]
            elif tb is None:
                t = [self.binary(x, "*", b) for x in ta]
            else:
                t = [self.binary(self.binary(a, "*", y), "+", self.binary(x, "*", b))
                     for x, y in zip(ta, tb)]
        else:
            # a zero denominator raises ZeroDivisionError here as in the walk
            v = self.local(f"{A} / {B}", "v")
            if ta is None:
                nq = self.local(f"-{v}")
                t = [self.binary(self.binary(nq, "*", y), "/", b) for y in tb]
            elif tb is None:
                t = [self.binary(x, "/", b) for x in ta]
            else:
                t = [self.binary(self.binary(x, "-", self.binary(v, "*", y)), "/", b)
                     for x, y in zip(ta, tb)]
        # inf or NaN: let the walk decide between an overflow error and
        # propagating a non-finite operand
        self.lines.append(f"if {v} - {v}: raise OverflowError")
        return v, self.tangent(t)

    def emit_unary(self, op: str, a: str, ta: list):
        if op == "neg":
            return self.local(f"-{a}", "v"), self.tangent(self.neg(x) for x in ta)
        v = self.local(f"_{op}({a})", "v")
        if op == "exp":
            t = [self.binary(x, "*", v) for x in ta]
        elif op == "log":
            t = [self.binary(x, "/", a) for x in ta]
        elif op == "sqrt":
            # sqrt(0) makes this denominator 0 and the division raise
            d = self.local(f"2.0 * {v}")
            t = [self.binary(x, "/", d) for x in ta]
        elif op == "sin":
            c = self.local(f"_cos({a})")
            t = [self.binary(x, "*", c) for x in ta]
        elif op == "cos":
            s = self.local(f"_sin({a})")
            t = [self.binary(self.neg(x), "*", s) for x in ta]
        else:  # tanh
            d = self.local(f"1.0 - {v} * {v}")
            t = [self.binary(x, "*", d) for x in ta]
        return v, self.tangent(t)


_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _compile(node: Expr, names: tuple[str, ...]):
    dual_walk = _dual_gradient(node, names)

    def walk(values) -> tuple[float, tuple[float, ...]]:
        value, grad = dual_walk(values)
        return value, tuple(grad.tolist())

    source = _KernelSource(names)
    try:
        value, tangent = source.emit(node)
    except _Uncompilable:
        return walk
    n = len(names)
    if tangent is None:
        result = f"{source.text(float(value))}, ({'0.0, ' * n})"
    else:
        entries = "".join(f"{source.text(e)}, " for e in tangent)
        result = f"{value}, ({entries})"
    body = [f"x{k} = float(values[{k}])" for k in range(n)] + source.lines
    code = "\n".join(
        ["def kernel(values):", "    try:"]
        + [f"        {line}" for line in body]
        + [f"        return {result}",
           "    except (ArithmeticError, ValueError):",
           "        return _walk(values)"]
    )
    namespace = {
        "_walk": walk, "_pow": math.pow,
        "_exp": math.exp, "_log": math.log, "_sqrt": math.sqrt, "_sin": math.sin,
        "_cos": math.cos, "_tanh": math.tanh, **source.consts,
    }
    exec(code, namespace)
    return namespace["kernel"]


def _exact(value: float):
    # Const(0.0) == Const(-0.0), but their kernels differ in signs of zero
    return value if value else repr(value)


def _signature(node: Expr):
    """Hashable structure of a tree; equal only for identical kernels."""
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Const):
        return ("c", _exact(node.value))
    if isinstance(node, Unary):
        return ("u", node.op, _signature(node.arg))
    if isinstance(node, Binary):
        return ("b", node.op, _signature(node.lhs), _signature(node.rhs))
    return ("p", _exact(node.exponent), _signature(node.base))


class _KernelKey:
    """Memo key of a compiled kernel: the tree's signature and the names."""

    __slots__ = ("node", "names", "signature", "hash")

    def __init__(self, node: Expr, names: tuple[str, ...]):
        self.node = node
        self.names = names
        self.signature = (_signature(node), names)
        self.hash = hash(self.signature)

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other) -> bool:
        return self.signature == other.signature


@functools.lru_cache(maxsize=512)
def _kernel(key: _KernelKey):
    return _compile(key.node, key.names)


def gradient_kernel(
    node: Expr, names: Sequence[str]
) -> "Callable[[Sequence[float]], tuple[float, tuple[float, ...]]]":
    """Compiled kernel computing (value, gradient as a float tuple) at given values.

    The tree is compiled now into straight-line float code, memoised per
    (tree, names), that performs the Dual walk's float operations in the
    walk's order, so its results are bitwise equal to the walk's.  Where
    the kernel raises ArithmeticError or ValueError, or a binary node's
    value is not finite, it reruns the walk, which raises the walk's
    EvaluationDomainError or returns its non-finite result.  Loops over
    floats (the flow integrators) call the kernel directly.
    """
    return _kernel(_KernelKey(node, tuple(names)))


def gradient_evaluator(
    node: Expr, names: Sequence[str]
) -> "Callable[[Sequence[float]], tuple[float, np.ndarray]]":
    """Reusable closure computing (value, gradient array) at given values.

    The first call fetches gradient_kernel's compiled kernel, and every
    call wraps the kernel's gradient tuple in an array.
    """
    names = tuple(names)
    kernel = None

    def run(values) -> tuple[float, np.ndarray]:
        nonlocal kernel
        if kernel is None:
            kernel = gradient_kernel(node, names)
        value, grad = kernel(values)
        return value, np.array(grad)

    return run


def eval_gradient(
    node: Expr, names: Sequence[str], values: Sequence[float]
) -> tuple[float, np.ndarray]:
    """Value and gradient with respect to `names` in one forward pass.

    Runs gradient_evaluator's compiled kernel; exact to round-off.
    """
    return gradient_evaluator(node, names)(values)


@dataclass(frozen=True)
class Jet2:
    """Second-order jet: value, gradient, and symmetric Hessian."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray


def eval_jet2(node: Expr, names: Sequence[str], values: Sequence[float]) -> Jet2:
    """Value, gradient, and Hessian via nested dual numbers.

    One nested-dual pass per index pair (i <= j); the (i, j) pass seeds
    coordinate k with Dual(Dual(v_k, d_ki), Dual(d_kj, 0)) so that the
    output carries f, df_i, df_j, and d2f_ij in its four slots.
    """
    n = len(names)
    vals = [float(v) for v in values]
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    value = evaluate(node, dict(zip(names, vals))) if n == 0 else 0.0
    for i in range(n):
        for j in range(i, n):
            env = {
                name: Dual(
                    Dual(vals[k], 1.0 if k == i else 0.0),
                    Dual(1.0 if k == j else 0.0, 0.0),
                )
                for k, name in enumerate(names)
            }
            out = _eval(node, env)
            if not isinstance(out, Dual):
                out = Dual(Dual(float(out), 0.0), Dual(0.0, 0.0))
            if i == 0 and j == 0:
                value = out.a.a
            grad[i] = out.a.b
            grad[j] = out.b.a
            hess[i, j] = hess[j, i] = out.b.b
    return Jet2(value=float(value), gradient=grad, hessian=hess)
