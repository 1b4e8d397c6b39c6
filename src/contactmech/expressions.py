"""Closed expression language for coordinate functions.

Expressions are built from numeric literals, named variables, the unary
functions exp, log, sin, cos, sqrt, tanh, unary minus, the binary
operators + - * /, and ^ with a constant real exponent.  They are parsed
by recursive descent, printed back in a canonical form that reparses to
the same tree, and evaluated over plain floats; + - * / and unary minus
on nodes build the same trees in code.  Exact derivatives come from
straight-line float kernels compiled from the tree: forward-mode dual
arithmetic unrolled into one float per tangent entry, raising their own
EvaluationDomainError.  Hessian rows are the gradients of the kernels
of the first partial derivatives, which are built as trees by the same
tangent rules, without symbolic simplification.

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
import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence, Union

import numpy as np

from ._programs import program

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
    "gradient_evaluator",
    "gradient_kernel",
    "eval_jet2",
    "jet2_kernel",
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

def _operator(op: str, reflected: bool = False):
    def method(self, other):
        if isinstance(other, (int, float)):
            other = Const(float(other))
        elif not isinstance(other, _Node):
            return NotImplemented
        return Binary(op, other, self) if reflected else Binary(op, self, other)

    return method


class _Node:
    """Tree arithmetic: + - * / build Binary nodes (a number becomes a Const), - "neg"."""

    __array_ufunc__ = None  # NumPy scalars defer to the reflected operators
    __add__, __sub__, __mul__, __truediv__ = map(_operator, "+-*/")
    __radd__, __rsub__, __rmul__, __rtruediv__ = (_operator(op, True) for op in "+-*/")

    def __neg__(self):
        return Unary("neg", self)


@dataclass(frozen=True)
class Const(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    name: str


@dataclass(frozen=True)
class Unary(_Node):
    op: str  # "neg" or a function name
    arg: "Expr"


@dataclass(frozen=True)
class Binary(_Node):
    op: str  # one of + - * /
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Power(_Node):
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
# Evaluation over floats
# ---------------------------------------------------------------------------

# math.log and math.sqrt raise ValueError on exactly the inputs these
# checks reject, so the kernels call them directly and attach the messages
_LOG_DOMAIN = "log of a nonpositive value"
_SQRT_DOMAIN = "sqrt of a negative value"
_compiles = itertools.count()  # numbers the kernels' file names "<contactmech kernel N>"


def _log(x: float) -> float:
    if x <= 0.0:
        raise ValueError(_LOG_DOMAIN)
    return math.log(x)


def _sqrt(x: float) -> float:
    if x < 0.0:
        raise ValueError(_SQRT_DOMAIN)
    return math.sqrt(x)


def _powc(x: float, c: float) -> float:
    if x == 0.0 and c < 0.0:
        raise ZeroDivisionError("zero base with negative exponent")
    if x < 0.0 and c != round(c):
        raise ValueError("negative base with non-integer exponent")
    return math.pow(x, c)


_FUNC_TABLE = {
    "exp": math.exp,
    "log": _log,
    "sqrt": _sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "tanh": math.tanh,
}

_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _eval(node: Expr, env: Mapping[str, float]) -> float:
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
        try:
            # NumPy floats divide by zero without raising
            if node.op == "/" and rhs == 0.0:
                raise ZeroDivisionError
            out = _FOLD[node.op](lhs, rhs)
        except (ZeroDivisionError, OverflowError) as exc:
            raise EvaluationDomainError(str(exc) or "division by zero", node) from None
        # float arithmetic overflows to inf silently; non-finite operands
        # still propagate without raising
        if math.isinf(out) and math.isfinite(lhs) and math.isfinite(rhs):
            raise EvaluationDomainError("overflow", node)
        return out
    if isinstance(node, Unary):
        arg = _eval(node.arg, env)
        if node.op == "neg":
            return -arg
        try:
            return _FUNC_TABLE[node.op](arg)
        except (ValueError, OverflowError) as exc:
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


# ---------------------------------------------------------------------------
# Compiled kernels
# ---------------------------------------------------------------------------

class _KernelSource:
    """Straight-line Python source computing one tree's value and gradient.

    The code is forward-mode dual arithmetic (value a, tangent b) unrolled:
    each node with a variable below it becomes a value local plus one
    tangent entry per coordinate, zero entries included.  An entry is
    either source text or a float known at compile time: the 0.0/1.0
    seeds, and what arithmetic on two known floats gives, which is folded
    here in the same float operation.  Variable-free subtrees fold through
    `_eval`; one that fails there, or a name outside the kernel's inputs,
    becomes a line that reruns `_eval` on it and so raises its error at
    its place in evaluation order.

    `errors` maps the index of each line that can raise to the message
    (None: the exception's own, as math's "math range error") and the
    node of the EvaluationDomainError it stands for.
    """

    def __init__(self, names: tuple[str, ...]):
        self.index = {name: k for k, name in enumerate(names)}
        self.n = len(names)
        self.lines = [f"x{k} = float(values[{k}])" for k in range(self.n)]
        self.errors: dict[int, tuple[str | None, Expr]] = {}
        self.globals: dict[str, object] = {}
        self.count = 0

    def bind(self, obj, prefix: str) -> str:
        name = f"{prefix}{len(self.globals)}"
        self.globals[name] = obj
        return name

    def text(self, entry) -> str:
        if isinstance(entry, str):
            return entry
        if math.isfinite(entry) and math.copysign(1.0, entry) > 0.0:
            return repr(entry)
        # signed zeros, infinities and NaNs keep their exact bits
        return self.bind(entry, "_c")

    def local(self, source: str, prefix: str = "t") -> str:
        name = f"{prefix}{self.count}"
        self.count += 1
        self.lines.append(f"{name} = {source}")
        return name

    def blame(self, node: Expr, message: str | None = None, start: int | None = None):
        """Errors raised from line `start` on (default: the last line) are node's."""
        end = len(self.lines)
        for i in range(end - 1 if start is None else start, end):
            self.errors[i] = (message, node)

    def fail(self, node: Expr):
        self.lines.append(f"_eval({self.bind(node, '_n')}, {{}})")
        return math.nan, None

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

    def emit(self, node: Expr):
        """(value, tangent entries), or (float, None) for a variable-free node."""
        if isinstance(node, Const):
            return node.value, None
        if isinstance(node, Var):
            k = self.index.get(node.name)
            if k is None:
                return self.fail(node)
            return f"x{k}", [1.0 if j == k else 0.0 for j in range(self.n)]
        if isinstance(node, Binary):
            a, ta = self.emit(node.lhs)
            b, tb = self.emit(node.rhs)
            if ta is None and tb is None:
                return self.fold(node)
            return self.emit_binary(node, a, ta, b, tb)
        if isinstance(node, Unary):
            a, ta = self.emit(node.arg)
            if ta is None:
                return self.fold(node)
            return self.emit_unary(node, a, ta)
        if isinstance(node, Power):
            a, ta = self.emit(node.base)
            if ta is None:
                return self.fold(node)
            c = node.exponent
            self.guard_pow(node, a, c)
            v = self.local(f"_pow({a}, {self.text(c)})", "v")
            self.blame(node)
            self.guard_pow(node, a, c - 1.0)
            d = self.local(f"{self.text(c)} * _pow({a}, {self.text(c - 1.0)})")
            self.blame(node)
            return v, self.tangent(self.binary(x, "*", d) for x in ta)
        raise TypeError(f"not an expression node: {node!r}")

    def fold(self, node: Expr):
        try:
            return _eval(node, {}), None
        except ExpressionError:
            return self.fail(node)

    def guard_pow(self, node: Power, a: str, exponent: float) -> None:
        # _powc's checks at a known exponent: one per base it rejects
        for base, test in ((0.0, "=="), (-1.0, "<")):
            try:
                _powc(base, exponent)
            except (ArithmeticError, ValueError) as exc:
                self.lines.append(f"if {a} {test} 0.0: raise ValueError")
                self.blame(node, str(exc))

    def emit_binary(self, node: Binary, a, ta, b, tb):
        op = node.op
        A, B = self.text(a), self.text(b)
        if op == "+":
            # float + dual adds in the dual's order: its value comes first
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
            v = self.local(f"{A} / {B}", "v")
            self.blame(node, "division by zero")
            if ta is None:
                nq = self.local(f"-{v}")
                t = [self.binary(self.binary(nq, "*", y), "/", b) for y in tb]
            elif tb is None:
                t = [self.binary(x, "/", b) for x in ta]
            else:
                t = [self.binary(self.binary(x, "-", self.binary(v, "*", y)), "/", b)
                     for x, y in zip(ta, tb)]
        # float arithmetic overflows to inf silently: an infinite value is an
        # error where both operands are finite, which also rules out NaN;
        # a non-finite operand propagates
        if all(math.isfinite(x) for x in (a, b) if not isinstance(x, str)):
            finite = "".join(f" and {x} - {x} == 0.0" for x in (a, b) if isinstance(x, str))
            self.lines.append(f"if {v} - {v}{finite}: raise OverflowError")
            self.blame(node, "overflow")
        return v, self.tangent(t)

    def emit_unary(self, node: Unary, a: str, ta: list):
        op = node.op
        if op == "neg":
            return self.local(f"-{a}", "v"), self.tangent(self.neg(x) for x in ta)
        v = self.local(f"_{op}({a})", "v")
        self.blame(node, {"log": _LOG_DOMAIN, "sqrt": _SQRT_DOMAIN}.get(op))
        if op == "exp":
            t = [self.binary(x, "*", v) for x in ta]
        elif op == "log":
            t = [self.binary(x, "/", a) for x in ta]
        elif op == "sqrt":
            # sqrt(0) makes this denominator 0 and each division raise
            d = self.local(f"2.0 * {v}")
            start = len(self.lines)
            tangent = self.tangent(self.binary(x, "/", d) for x in ta)
            self.blame(node, "sqrt derivative at zero", start)
            return v, tangent
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


def _compile(node: Expr, names: tuple[str, ...]):
    source = _KernelSource(names)
    value, tangent = source.emit(node)
    if tangent is None:
        result = f"{source.text(float(value))}, ({'0.0, ' * len(names)})"
    else:
        entries = "".join(f"{source.text(e)}, " for e in tangent)
        result = f"{value}, ({entries})"
    lines = ["def kernel(values):", "    try:", *[f"        {line}" for line in source.lines],
             f"        return {result}", "    except (ArithmeticError, ValueError) as exc:",
             "        raise _domain_error(exc) from None"]
    namespace = {
        "_domain_error": functools.partial(_domain_error, source.errors),
        "_eval": _eval,
        "_pow": math.pow,
        **{f"_{name}": getattr(math, name) for name in FUNCTIONS},
        **source.globals,
    }
    return program(f"<contactmech kernel {next(_compiles)}>", lines, namespace, "kernel")


def _domain_error(errors, exc: Exception) -> Exception:
    """The EvaluationDomainError of the kernel line that raised exc, else exc."""
    # line i of _KernelSource.lines follows "def kernel" and "try:"
    entry = errors.get(exc.__traceback__.tb_lineno - 3)
    if entry is None:
        return exc
    message, node = entry
    return EvaluationDomainError(message or str(exc), node)


def _derivative(node: Expr, name: str) -> Expr | None:
    """d node / d name as a tree; None where no variable lies below.

    Each rule is the kernels' tangent rule for the node, operand order and
    float operands included, so the kernel of the result runs the float
    operations of a second-order dual pass.
    """
    if isinstance(node, Const):
        return None
    if isinstance(node, Var):
        return Const(1.0 if node.name == name else 0.0)
    if isinstance(node, Power):
        du = _derivative(node.base, name)
        if du is None:
            return None
        c = node.exponent
        return du * (c * Power(node.base, c - 1.0))
    if isinstance(node, Unary):
        u, op = node.arg, node.op
        du = _derivative(u, name)
        if du is None:
            return None
        if op == "neg":
            return -du
        if op == "exp":
            return du * node
        if op == "log":
            return du / u
        if op == "sqrt":
            return du / (2.0 * node)
        if op == "sin":
            return du * Unary("cos", u)
        if op == "cos":
            return -du * Unary("sin", u)
        return du * (1.0 - node * node)
    u, v, op = node.lhs, node.rhs, node.op
    du, dv = _derivative(u, name), _derivative(v, name)
    if du is None and dv is None:
        return None
    # a variable-free operand contributes no tangent term
    if op == "+":
        return dv if du is None else du if dv is None else du + dv
    if op == "-":
        if du is None:
            return -dv
        return du if dv is None else du - dv
    if op == "*":
        if du is None:
            return dv * u
        if dv is None:
            return du * v
        return u * dv + du * v
    if du is None:
        return -node * dv / v
    if dv is None:
        return du / v
    return (du - node * dv) / v


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


@functools.lru_cache(maxsize=512)
def _partial_kernels(key: _KernelKey) -> tuple:
    """The kernel of df/dx_i for each name x_i; its gradient is Hessian row i."""
    return tuple(
        _compile(_derivative(key.node, name) or Const(0.0), key.names) for name in key.names
    )


def gradient_kernel(
    node: Expr, names: Sequence[str]
) -> "Callable[[Sequence[float]], tuple[float, tuple[float, ...]]]":
    """Compiled kernel computing (value, gradient as a float tuple) at given values.

    The tree is compiled now into straight-line float code, memoised per
    (tree, names), that runs forward-mode dual arithmetic over floats.  The
    kernel raises EvaluationDomainError itself, naming the subtree that
    failed: the line that raised maps to the node that emitted it, so a
    call without errors runs no extra checks.  A binary node whose value
    is infinite although both operands are finite raises "overflow";
    otherwise non-finite values propagate.  Loops over floats (the flow
    integrators) call the kernel directly.
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


@dataclass(frozen=True)
class Jet2:
    """Second-order jet: value, gradient, and symmetric Hessian."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray


def jet2_kernel(
    node: Expr, names: Sequence[str]
) -> "Callable[[Sequence[float]], tuple[float, tuple[float, ...], list[tuple[float, ...]]]]":
    """Compiled kernels computing (value, gradient, Hessian rows) as floats.

    Row i is the gradient of the memoised kernel of df/dx_i (see
    `_derivative`), as computed: eval_jet2 symmetrizes the rows, this
    closure does not.  The kernels are fetched now, once.
    """
    key = _KernelKey(node, tuple(names))
    kernel, partials = _kernel(key), _partial_kernels(key)

    def run(values):
        value, grad = kernel(values)
        return value, grad, [partial(values)[1] for partial in partials]

    return run


def eval_jet2(node: Expr, names: Sequence[str], values: Sequence[float]) -> Jet2:
    """Value, gradient, and Hessian from compiled kernels.

    f's kernel gives the value and gradient.  Row i of the Hessian is the
    gradient of the memoised kernel of df/dx_i (see `_derivative`), taken
    on and below the diagonal and mirrored above it.  Besides f's own
    domain errors, a second derivative that overflows raises "overflow"
    naming a subtree of df/dx_i.
    """
    value, grad, rows = jet2_kernel(node, names)(values)
    rows = np.array(rows, dtype=float).reshape(len(grad), len(grad))
    hessian = np.tril(rows) + np.tril(rows, -1).T
    return Jet2(value=float(value), gradient=np.array(grad), hessian=hessian)
