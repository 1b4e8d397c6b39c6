"""Closed expression language for coordinate functions.

Expressions are built from numeric literals, named variables, the unary
functions exp, log, sin, cos, sqrt, tanh, unary minus, the binary
operators + - * /, and ^ with a constant real exponent.  They are parsed
by recursive descent, printed back in a canonical form that reparses to
the same tree, and evaluated over plain floats; + - * / and unary minus
on nodes build the same trees in code.  Exact derivatives come from
straight-line float kernels compiled from a list of trees by one
factory, `fused_kernel`: forward-mode dual arithmetic unrolled into one
float per tangent entry, raising their own EvaluationDomainError, and
returning one flat tuple, per tree its value and gradient.  A jet kernel
carries the Hessian's lower triangle through the same pass, without
symbolic simplification, and appends each tree's Hessian rows.

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

from ._programs import _names, program

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
    "fused_kernel",
    "fused_rows",
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
    """Straight-line Python source computing one tree's value and gradient, or its jet.

    The code is forward-mode dual arithmetic (value a, tangent b) unrolled:
    each node with a variable below it becomes a value local plus one
    tangent entry per coordinate, zero entries included.  An entry is
    either source text or a float known at compile time: the 0.0/1.0
    seeds, and what arithmetic on two known floats gives, which is folded
    here in the same float operation.  Variable-free subtrees fold through
    `_eval`; one that fails there, or a name outside the kernel's inputs,
    becomes a line that reruns `_eval` on it and so raises its error at
    its place in evaluation order.

    A jet source writes the same lines and carries each node's Hessian
    lower triangle, one entry per pair (i, j), i >= j, of `pairs`, by the
    sum, product, quotient and chain rules on the tangent entries, in the
    float operations of a nested dual pass seeding x_j inside and x_i
    outside.  Entries known to be zero (None) drop their terms, which at
    finite values add only signed zeros.  A tangent that is not finite
    where its node's value is raises "overflow".

    `errors` maps the index of each line that can raise to the message
    (None: the exception's own, as math's "math range error") and the
    node of the EvaluationDomainError it stands for.

    `emit` writes each subtree once: a later subtree with the same
    `_signature`, in the same tree or in a later tree of a fused kernel,
    reuses the locals of the first.  Its checks ran at that first use,
    where a kernel per tree would first have raised, on the same floats.
    """

    def __init__(self, names: tuple[str, ...], jet: bool = False):
        self.index = {name: k for k, name in enumerate(names)}
        self.n = len(names)
        self.pairs = [(i, j) for i in range(self.n) for j in range(i + 1)] if jet else None
        self.zero = [None] * len(self.pairs) if jet else None  # a Var's Hessian
        self.none = [None] * self.n  # a constant's tangent
        self.lines = [f"x{k} = float(values[{k}])" for k in range(self.n)]
        self.errors: dict[int, tuple[str | None, Expr]] = {}
        self.globals: dict[str, object] = {}
        self.count = 0
        self.emitted: dict = {}  # _signature -> emit's output

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

    def named(self, e, prefix: str = "t"):
        """Entry e, as a new local where it is source text other than a name."""
        return e if not isinstance(e, str) or e.isidentifier() else self.local(e, prefix)

    def blame(self, node: Expr, message: str | None = None, start: int | None = None):
        """Errors raised from line `start` on (default: the last line) are node's."""
        end = len(self.lines)
        for i in range(end - 1 if start is None else start, end):
            self.errors[i] = (message, node)

    def fail(self, node: Expr):
        self.lines.append(f"_eval({self.bind(node, '_n')}, {{}})")
        return math.nan, None, None

    def binary(self, x, op: str, y):
        if not isinstance(x, str) and not isinstance(y, str):
            try:
                return _FOLD[op](x, y)
            except ZeroDivisionError:
                pass  # the primal division before it raises at run time
        return f"({self.text(x)} {op} {self.text(y)})"

    def neg(self, x):
        return f"(-{x})" if isinstance(x, str) else x if x is None else -x

    # arithmetic on entries of which None is zero: a constant's, or known zeros of a jet
    def plus(self, x, y):
        return y if x is None else x if y is None else self.binary(x, "+", y)

    def minus(self, x, y):
        return self.plus(x, self.neg(y)) if x is None or y is None else self.binary(x, "-", y)

    def times(self, x, y):
        return None if x is None or y is None else self.binary(x, "*", y)

    def over(self, x, y):
        return None if x is None else self.binary(x, "/", y)

    def known(self, tangent) -> list:
        """tangent (None: a constant's) with each entry known to be zero as None."""
        return [e if isinstance(e, str) or e != 0.0 else None for e in tangent or self.none]

    def finish(self, node: Expr, v: str, t: list, rule, message: str | None = None):
        """The node's (value, tangent, Hessian), t as locals, blamed with message if given.

        A jet source checks t; its Hessian entry k is rule(T, i, j, k) for
        pair k = (i, j), T being t as `known` gives it.
        """
        start = len(self.lines)
        t = [self.named(e) for e in t]
        if message:
            self.blame(node, message, start)
        if self.pairs is None:
            return v, t, None
        # float arithmetic overflows to inf silently: a tangent that is not
        # finite where the value is raises
        checks = " + ".join(f"({e} - {e})" for e in t if isinstance(e, str))
        if checks:
            self.lines.append(f"if {checks} and {v} - {v} == 0.0: raise OverflowError")
            self.blame(node, "overflow")
        T = self.known(t)
        return v, t, [self.named(rule(T, i, j, k), "h") for k, (i, j) in enumerate(self.pairs)]

    def emit(self, node: Expr):
        """(value, tangent, Hessian entries or None outside a jet), or (float, None, None)."""
        if isinstance(node, Const):
            return node.value, None, None
        if isinstance(node, Var):
            k = self.index.get(node.name)
            if k is None:
                return self.fail(node)
            return f"x{k}", [1.0 if j == k else 0.0 for j in range(self.n)], self.zero
        key = _signature(node)
        out = self.emitted.get(key)
        if out is None:
            out = self.emitted[key] = self.emit_node(node)
        return out

    def emit_node(self, node: Expr):
        if isinstance(node, Binary):
            lhs, rhs = self.emit(node.lhs), self.emit(node.rhs)
            if lhs[1] is None and rhs[1] is None:
                return self.fold(node)
            return self.emit_binary(node, *lhs, *rhs)
        if isinstance(node, Unary):
            a, ta, ha = self.emit(node.arg)
            if ta is None:
                return self.fold(node)
            return self.emit_unary(node, a, ta, ha)
        if isinstance(node, Power):
            a, ta, ha = self.emit(node.base)
            if ta is None:
                return self.fold(node)
            c = node.exponent
            self.guard_pow(node, a, c)
            v = a  # a^1: math.pow(a, 1.0) is a at every float a
            if c != 1.0:
                v = self.local(f"_pow({a}, {self.text(c)})", "v")
                self.blame(node)
            self.guard_pow(node, a, c - 1.0)
            d = self.scaled_pow(node, c, a, c - 1.0)
            if self.pairs is not None:  # the derivative of d / c
                self.guard_pow(node, a, c - 2.0)
                e = self.scaled_pow(node, c - 1.0, a, c - 2.0)
            da = self.known(ta)
            return self.chain(node, v, ta, ha, d, lambda T, j: self.times(self.times(da[j], e), c))
        raise TypeError(f"not an expression node: {node!r}")

    def fold(self, node: Expr):
        try:
            return _eval(node, {}), None, None
        except ExpressionError:
            return self.fail(node)

    def scaled_pow(self, node: Power, factor: float, a: str, c: float):
        """factor * a^c, a derivative factor of node: a new local blamed on node, or a float.

        math.pow(a, 1.0) is a and math.pow(a, 0.0) is 1.0 at every float a,
        ±0, ±inf and NaN included, and neither raises: there the power is
        written as a, and as the known 1.0, which folds with the factor.
        """
        power = a if c == 1.0 else 1.0 if c == 0.0 else f"_pow({a}, {self.text(c)})"
        entry = self.binary(factor, "*", power)
        if isinstance(entry, str):
            entry = self.local(entry)
            self.blame(node)
        return entry

    def guard_pow(self, node: Power, a: str, exponent: float) -> None:
        # _powc's checks at a known exponent: one per base it rejects
        for base, test in ((0.0, "=="), (-1.0, "<")):
            try:
                _powc(base, exponent)
            except (ArithmeticError, ValueError) as exc:
                self.lines.append(f"if {a} {test} 0.0: raise ValueError")
                self.blame(node, str(exc))

    def emit_binary(self, node: Binary, a, ta, ha, b, tb, hb):
        op = node.op
        A, B = self.text(a), self.text(b)
        # float + dual and float * dual run in the dual's order: its value comes first
        v = self.local(f"{B} {op} {A}" if ta is None and op in "+*" else f"{A} {op} {B}", "v")
        if op == "/":
            self.blame(node, "division by zero")
        # an operand without a tangent contributes no term
        rule = {"+": self.plus, "-": self.minus,
                "*": lambda x, y: self.plus(self.times(a, y), self.times(x, b)),
                "/": lambda x, y: self.over(self.minus(x, self.times(v, y)), b)}[op]
        t = [rule(x, y) for x, y in zip(ta or self.none, tb or self.none)]
        # float arithmetic overflows to inf silently: an infinite value is an
        # error where both operands are finite, which also rules out NaN;
        # a non-finite operand propagates
        if all(math.isfinite(x) for x in (a, b) if not isinstance(x, str)):
            finite = "".join(f" and {x} - {x} == 0.0" for x in (a, b) if isinstance(x, str))
            self.lines.append(f"if {v} - {v}{finite}: raise OverflowError")
            self.blame(node, "overflow")
        da, db, ha, hb = self.known(ta), self.known(tb), ha or self.zero, hb or self.zero
        if op in "+-":
            return self.finish(node, v, t, lambda T, i, j, k: rule(ha[k], hb[k]))
        if op == "*":
            return self.finish(node, v, t, lambda T, i, j, k: self.plus(
                self.plus(self.times(a, hb[k]), self.times(da[j], db[i])),
                self.plus(self.times(da[i], db[j]), self.times(ha[k], b))))
        return self.finish(node, v, t, lambda T, i, j, k: self.over(self.minus(
            self.minus(ha[k], self.plus(self.times(v, hb[k]), self.times(T[j], db[i]))),
            self.times(T[i], db[j])), b))

    def chain(self, node: Expr, v: str, ta: list, ha, d, dd, negate: bool = False):
        """`finish` for the tangent b * d, b = ta or -ta, as a nested pass has it.

        The Hessian entry is b_i dd(T, j) + h d, where dd(T, j) is d's own
        tangent entry j by the inner seed and h the operand's entry.
        """
        b = [self.neg(x) for x in ta] if negate else ta
        db = self.known(b)
        h = [self.neg(e) for e in ha or ()] if negate else ha
        return self.finish(node, v, [self.binary(x, "*", d) for x in b], lambda T, i, j, k:
                           self.plus(self.times(db[i], dd(T, j)), self.times(h[k], d)))

    def emit_unary(self, node: Unary, a: str, ta: list, ha):
        op, da = node.op, self.known(ta)
        if op == "neg":
            return self.finish(node, self.local(f"-{a}", "v"), [self.neg(x) for x in ta],
                               lambda T, i, j, k: self.neg(ha[k]))
        v = self.local(f"_{op}({a})", "v")
        self.blame(node, {"log": _LOG_DOMAIN, "sqrt": _SQRT_DOMAIN}.get(op))
        if op in ("log", "sqrt"):  # the tangent ta / d, and d's own tangent
            # sqrt(0) makes this denominator 0 and each division raise
            d = a if op == "log" else self.local(f"2.0 * {v}")
            dd = (lambda T, j: da[j]) if op == "log" else (lambda T, j: self.times(T[j], 2.0))
            return self.finish(node, v, [self.binary(x, "/", d) for x in ta], lambda T, i, j, k:
                               self.over(self.minus(ha[k], self.times(T[i], dd(T, j))), d),
                               "sqrt derivative at zero" if op == "sqrt" else None)
        if op == "exp":
            return self.chain(node, v, ta, ha, v, lambda T, j: T[j])
        if op == "sin":
            c = self.local(f"_cos({a})")
            return self.chain(node, v, ta, ha, c, lambda T, j: self.times(self.neg(da[j]), v))
        if op == "cos":
            s = self.local(f"_sin({a})")
            return self.chain(node, v, ta, ha, s, lambda T, j: self.times(da[j], v), negate=True)
        d = self.local(f"1.0 - {v} * {v}")  # tanh
        return self.chain(node, v, ta, ha, d, lambda T, j: self.neg(
            self.plus(self.times(v, T[j]), self.times(T[j], v))))


def _compile(nodes: tuple[Expr, ...], names: tuple[str, ...], jet: bool = False):
    """The kernel of trees `nodes` over `names`: one straight-line source returning one flat tuple.

    Per tree, in order: its value, its gradient and, in a jet, its Hessian
    rows mirrored from the lower triangle.  A kernel that is not a jet
    keeps what its emitter wrote as `emitted`: the number of names, the
    lines, the bound constants, the source of each flat output and the
    lines' error entries.
    """
    source = _KernelSource(names, jet)
    n = len(names)

    def entries(node: Expr) -> list:
        """The tree's value, gradient and Hessian rows (none outside a jet), emitted now."""
        value, tangent, hessian = source.emit(node)
        if tangent is None:
            value, tangent = float(value), [0.0] * n
        if not jet:
            return [value, *tangent]
        entry = dict(zip(source.pairs, hessian or source.zero))
        return [value, *tangent, *(entry[max(i, j), min(i, j)] for i in range(n) for j in range(n))]

    trees = [entries(node) for node in nodes]  # emitted in order
    # per tree its value, gradient and Hessian rows, as source text
    flat = [source.text(0.0 if e is None else e) for tree in trees for e in tree]
    lines = ["def kernel(values):", "    try:", *[f"        {line}" for line in source.lines],
             f"        return ({''.join(f'{text}, ' for text in flat)})",
             "    except (ArithmeticError, ValueError) as exc:",
             "        raise _domain_error(exc) from None"]
    namespace = {
        # line i of source.lines is line i + 3 of the kernel, after "def kernel" and "try:"
        "_domain_error": functools.partial(
            _domain_error, {i + 3: entry for i, entry in source.errors.items()}),
        "_eval": _eval,
        "_pow": math.pow,
        **{f"_{name}": getattr(math, name) for name in FUNCTIONS},
        **source.globals,
    }
    kernel = program(f"<contactmech kernel {next(_compiles)}>", lines, namespace, "kernel")
    if not jet:  # for its row-block twin (`fused_rows`) and `geometry._field_entries`
        kernel.emitted = n, source.lines, source.globals, flat, source.errors
    return kernel


def _each(function: Callable) -> Callable:
    """function (math's) entry by entry over a column, with constant further arguments."""
    def column(a, *args):
        return np.fromiter(map(function, a.tolist(), *map(itertools.repeat, args)), float, len(a))

    return column


def _domain_error(errors, exc: Exception) -> Exception:
    """The EvaluationDomainError of the program line that raised exc, else exc.

    errors maps a line number of the program to the message and node of
    a `_KernelSource` error entry.
    """
    entry = errors.get(exc.__traceback__.tb_lineno)
    if entry is None:
        return exc
    message, node = entry
    return EvaluationDomainError(message or str(exc), node)


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
    """Memo key of a compiled kernel: the trees' signatures and the names."""

    __slots__ = ("nodes", "names", "signature", "hash")

    def __init__(self, nodes: tuple[Expr, ...], names: tuple[str, ...]):
        self.nodes = nodes
        self.names = names
        self.signature = (tuple(map(_signature, nodes)), names)
        self.hash = hash(self.signature)

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other) -> bool:
        return self.signature == other.signature


@functools.lru_cache(maxsize=512)
def _kernel(key: _KernelKey, jet: bool = False):
    return _compile(key.nodes, key.names, jet)


def fused_kernel(
    nodes: Sequence[Expr], names: Sequence[str], jet: bool = False
) -> "Callable[[Sequence[float]], tuple[float, ...]]":
    """Compiled kernel of all the trees at once, returning one flat float tuple.

    Per tree, in order: the value, the gradient and, with jet true, the
    Hessian rows.  Compiled now (`_compile`), memoised per (trees, names,
    jet), it converts the inputs once and computes a subtree shared within
    or across trees once.  It raises EvaluationDomainError itself, naming
    the subtree that failed (the line that raised maps to its node, so a
    call without errors runs no extra checks): the error that evaluating
    the trees in order would raise first.  A binary node whose value is
    infinite although both operands are finite raises "overflow", and a
    jet also where a node's first derivative is not finite although its
    value is; otherwise non-finite values propagate.  The field programs
    (`geometry._field_entries`) write f's kernel lines into their own.
    """
    return _kernel(_KernelKey(tuple(nodes), tuple(names)), jet)


@functools.lru_cache(maxsize=512)
def fused_rows(kernel: Callable) -> "Callable[[np.ndarray], np.ndarray | None]":
    """The row-block twin of a `fused_kernel` (not a jet): its lines once over NumPy columns.

    The twin maps the coordinates as columns, values (n, N), to the
    kernel's outputs at each of the N rows, (outputs, N), bitwise the
    kernel's at that row.  + - * / and sqrt run as ufuncs, whose floats are
    correctly rounded, hence the kernel's; exp, log, sin, cos, tanh and pow
    call math entry by entry.  The twin drops the kernel's checks and
    returns None unless every input and every local is finite at every
    row, where none of them can fire: a check fires only where a local is
    not finite, where a divisor is zero, which leaves a quotient local that
    is not finite (the emitter writes each quotient by a column as a line
    of its own; one by the constant 0.0 raises in the twin too), or where a
    math call raises, as the twin's call does too.  `_programs.in_blocks` runs such a block through the kernel row by
    row.  Compiled from the lines the kernel's emitter wrote, at the first
    request, as "<contactmech kernel N rows>".
    """
    n, source, bound, outputs, _ = kernel.emitted
    body = [line for line in source[n:] if not line.startswith("if ")]
    assigned = [line.split(" = ", 1)[0] for line in body]
    columns = [f"x{k}" for k in range(n)] + [name for name in assigned if name.isidentifier()]
    # a constant output, as a column of its own
    fixed = list(dict.fromkeys(e for e in outputs if e not in columns))
    take = [(columns + fixed).index(e) for e in outputs]
    every = "".join(f"{name}, " for name in columns)
    every += "".join(f"_full(values.shape[1:], {e}), " for e in fixed)
    lines = ["def rows(values):", f"    {_names('x', n)}, = values",
             *[f"    {line}" for line in body], f"    every = _array(({every}))",
             "    if _isfinite(every).all():", "        return every[_take]"]
    namespace = {
        "_eval": _eval, "_array": np.array, "_full": np.full, "_isfinite": np.isfinite,
        "_take": np.array(take, dtype=np.intp), "_sqrt": np.sqrt,
        **{f"_{name}": _each(getattr(math, name)) for name in FUNCTIONS if name != "sqrt"},
        "_pow": _each(math.pow),
        **bound,
    }
    name = kernel.__code__.co_filename.replace(">", " rows>")
    return program(name, lines, namespace, "rows")


def gradient_evaluator(
    node: Expr, names: Sequence[str]
) -> "Callable[[Sequence[float]], tuple[float, np.ndarray]]":
    """Reusable closure computing (value, gradient array) at given values.

    The first call fetches the tree's `fused_kernel`, and every call
    wraps the gradient slice of its flat tuple in an array.
    """
    names = tuple(names)
    kernel = None

    def run(values) -> tuple[float, np.ndarray]:
        nonlocal kernel
        if kernel is None:
            kernel = fused_kernel((node,), names)
        out = kernel(values)
        return out[0], np.array(out[1:])

    return run


@dataclass(frozen=True)
class Jet2:
    """Second-order jet: value, gradient, and symmetric Hessian."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray


def eval_jet2(node: Expr, names: Sequence[str], values: Sequence[float]) -> Jet2:
    """Value, gradient, and Hessian from the tree's compiled jet (`fused_kernel` with jet)."""
    n = len(names)
    out = fused_kernel((node,), names, True)(values)
    return Jet2(value=float(out[0]), gradient=np.array(out[1 : n + 1]),
                hessian=np.array(out[n + 1 :], dtype=float).reshape(n, n))
