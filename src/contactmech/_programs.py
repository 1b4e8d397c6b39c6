"""The one compile point of the generated programs, and the helpers that write their source.

`program` compiles every generated function under a file name "<contactmech ...>", which
profiles show, and keeps its source in `linecache` while the function lives, so
tracebacks, pdb and `inspect.getsource` show its lines.

A float program has a row-block twin, named "<contactmech ... rows>", that runs the same
lines once over NumPy columns, one entry per row; `in_blocks` runs a twin over a stack
block by block and sends a block it cannot vouch for to the float program, row by row.
"""

import ast
import functools
import linecache
import weakref
from typing import Callable, Sequence

import numpy as np

__all__ = ["program", "in_blocks"]

# rows per pass of a row-block program: its arrays stay this short on large stacks
_BLOCK = 512
# a shorter stack runs the float program: a twin's NumPy calls cost more than its rows
_MIN_ROWS = 32


def program(name: str, lines: Sequence[str], namespace: dict, entry: str) -> Callable:
    """Run `lines`, compiled as file `name`, in namespace and return namespace[entry]."""
    source = "\n".join(lines)
    exec(compile(source, name, "exec"), namespace)
    cached = (len(source), None, (source + "\n").splitlines(True), name)
    linecache.cache[name] = cached
    weakref.finalize(namespace[entry], _forget, name, cached)  # held via every function's globals
    return namespace[entry]


def _forget(name: str, cached: tuple) -> None:
    if linecache.cache.get(name) is cached:  # not a later program of the same name
        del linecache.cache[name]


def _sum(terms: Sequence[str]) -> str:
    """Source of `_fdot`'s sum of the products `terms`: left to right from 0.0."""
    return " + ".join(["0.0", *terms])


def _checked(resid: Sequence[str], tol: float, values: str, vectors: str) -> str:
    """Source of `_exceeds(resid, tol, values, vectors)` behind the pre-test max |r_i| <= tol.

    The pre-test fails on a NaN residual, so `geometry._exceeds` decides
    every case that can raise.
    """
    small = " and ".join(f"abs({r}) <= {tol!r}" for r in resid)
    return f"not ({small}) and _exceeds(({', '.join(resid)},), {tol!r}, {values}, {vectors})"


def _eliminate(dim: int, width: int, pivot: Callable[[int], list[str]]) -> list[str]:
    """Source of Gaussian elimination with partial pivoting on locals a<i>_<j>: [A | b_dim ..].

    A row swap is one tuple assignment.  At step k each row below k is
    swapped into row k when its entry in column k is larger, so row k ends
    with the largest; ties keep the earlier row.  The lines pivot(k) then
    test the pivot a<k>_<k>.  det is det A, the product of the pivots signed
    by the swaps, and s<i>_<c> solves A s_c = b_c.
    """

    def row(i: int, start: int) -> str:
        return ", ".join(f"a{i}_{j}" for j in range(start, width))

    lines = ["det = 1.0"]
    for k in range(dim):
        for i in range(k + 1, dim):
            lines += [f"if abs(a{i}_{k}) > abs(a{k}_{k}):",
                      f"    {row(k, k)}, {row(i, k)} = {row(i, k)}, {row(k, k)}",
                      "    det = -det"]
        lines += [*pivot(k), f"det *= a{k}_{k}"]
        for i in range(k + 1, dim):
            update = ", ".join(f"a{i}_{j} - t * a{k}_{j}" for j in range(k + 1, width))
            lines += [f"t = a{i}_{k} / a{k}_{k}", f"{row(i, k + 1)}, = {update},"]
    for c in range(dim, width):
        for i in reversed(range(dim)):
            terms = "".join(f" - a{i}_{j} * s{j}_{c}" for j in range(i + 1, dim))
            lines.append(f"s{i}_{c} = (a{i}_{c}{terms}) / a{i}_{i}")
    return lines


def _names(prefix: str, count: int) -> str:
    return ", ".join(f"{prefix}{i}" for i in range(count))


def _tup(prefix: str, count: int) -> str:
    return f"({_names(prefix, count)},)"


def _fdot(a, b):
    """a . b over floats, arrays, sources or pairs, left to right from 0.0 (`_dot`'s bits)."""
    total = 0.0
    for u, v in zip(a, b):
        total += u * v
    return total


def _source_operator(op: str, reflected: bool = False) -> Callable:
    def method(self, other):
        return _Source(f"({other} {op} {self})" if reflected else f"({self} {op} {other})")

    return method


class _Source(str):
    """Source text of a float expression; the template's operators extend it, parenthesized."""

    __add__, __sub__, __mul__, __truediv__ = map(_source_operator, "+-*/")
    __radd__, __rsub__, __rmul__, __rtruediv__ = (_source_operator(op, True) for op in "+-*/")

    def __neg__(self):
        return _Source(f"(-{self})")


class _Dual:
    """A forward-mode pair of `_Source` symbols, value a and tangent b, by the kernels' rules.

    Its operands are pairs, or the float 0.0 that `_fdot` starts from.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __add__(self, other):
        return _Dual(self.a + other.a, self.b + other.b)

    def __radd__(self, other):
        return _Dual(other + self.a, self.b)

    def __sub__(self, other):
        return _Dual(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)

    def __truediv__(self, other):
        q = self.a / other.a
        return _Dual(q, (self.b - q * other.b) / other.a)

    def __neg__(self):
        return _Dual(-self.a, -self.b)


def in_blocks(twin: Callable | None, row: Callable, width: int, *stacks: np.ndarray) -> np.ndarray:
    """A program's `width` outputs at each row of stacks, as one C-contiguous (count, width) array.

    The stacks share a leading axis of count rows.  Each block of at most
    `_BLOCK` rows goes to twin, the program's row-block twin, with that axis
    moved last (the columns), and twin returns the outputs (width, rows), or
    None where it cannot vouch for them.  A block where it returns None,
    raises ArithmeticError or ValueError or gives a non-finite output runs
    through row(*entries) instead, the float program, on each row's floats
    in row order: there every value is the float program's and every error
    is raised at its row.  So does a block of fewer than `_MIN_ROWS` rows,
    and every block when twin is None.  NumPy's warnings stay inside the
    twin, whose failing rows the float program reruns.
    """
    parts = []
    for start in range(0, len(stacks[0]), _BLOCK):
        block = [stack[start : start + _BLOCK] for stack in stacks]
        out = None
        if twin is not None and len(block[0]) >= _MIN_ROWS:
            with np.errstate(all="ignore"):
                try:
                    out = twin(*(entries.transpose(*range(1, entries.ndim), 0)
                                 for entries in block))
                except (ArithmeticError, ValueError):
                    pass
        if out is not None and np.isfinite(out).all():
            parts.append(out.T)
        else:
            floats = [row(*entries) for entries in zip(*(entries.tolist() for entries in block))]
            parts.append(np.array(floats, dtype=float).reshape(-1, width))
    if len(parts) == 1:
        return np.ascontiguousarray(parts[0])
    return np.concatenate(parts) if parts else np.empty((0, width))


def _columns(lines: Sequence[str]) -> list[str]:
    """Float program lines as lines over NumPy columns, one entry per row.

    Arithmetic and comparisons stay as they are; `and`, `or` and `not`
    become `&`, `|` and `~` on the masks the comparisons give.  A check
    `if a and b ...: raise ...` becomes `return None` where a & b ... holds
    at any row (`_count`), so that the block goes to the float program; its
    operands are taken in turn, as `and` takes them, and a later one is
    skipped once no row is left.  Any other `if c:` is a pivot swap of assignments: they
    run as they are where c holds at every row, not at all where it holds
    at none, and otherwise each takes its new value in the rows where c
    holds (`_where`, NumPy's `where`) and keeps the old one elsewhere.
    """
    tree = _Columns().visit(ast.parse("\n".join(lines)))
    return ast.unparse(ast.fix_missing_locations(tree)).splitlines()


def _load(name: str) -> ast.Name:
    return ast.Name(name, ast.Load())


def _count(mask: ast.expr) -> ast.Call:
    """The rows where mask holds, by `_count`: NumPy's `count_nonzero`, cheaper than `any`."""
    return ast.Call(_load("_count"), [mask], [])


def _conjuncts(test: ast.expr) -> list[ast.expr]:
    """The operands of a chain of `and`s, nested ones included."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return [term for value in test.values for term in _conjuncts(value)]
    return [test]


class _Columns(ast.NodeTransformer):
    def visit_BoolOp(self, node: ast.BoolOp) -> ast.expr:
        op = ast.BitAnd() if isinstance(node.op, ast.And) else ast.BitOr()
        return functools.reduce(lambda a, b: ast.BinOp(a, op, b), map(self.visit, node.values))

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.expr:
        operand = self.visit(node.operand)
        return ast.UnaryOp(ast.Invert() if isinstance(node.op, ast.Not) else node.op, operand)

    def visit_If(self, node: ast.If) -> ast.stmt | list[ast.stmt]:
        if isinstance(node.body[0], ast.Raise):  # _m: the rows where the terms so far hold
            *first, last = map(self.visit, _conjuncts(node.test))
            mask = _load("_m")
            tests = [_count(ast.NamedExpr(ast.Name("_m", ast.Store()),
                                          ast.BinOp(mask, ast.BitAnd(), term) if k else term))
                     for k, term in enumerate(first)]
            tests.append(_count(ast.BinOp(mask, ast.BitAnd(), last) if first else last))
            test = ast.BoolOp(ast.And(), tests) if first else tests[0]
            return ast.If(test, [ast.Return(ast.Constant(None))], [])
        taken = []
        for stmt in node.body:
            [target] = stmt.targets
            targets = target.elts if isinstance(target, ast.Tuple) else [target]
            values = stmt.value.elts if isinstance(stmt.value, ast.Tuple) else [stmt.value]
            where = [ast.Call(_load("_where"), [_load("_w"), self.visit(value), _load(name.id)], [])
                     for name, value in zip(targets, values)]
            value = ast.Tuple(where, ast.Load()) if isinstance(target, ast.Tuple) else where[0]
            taken.append(ast.Assign([target], value))
        every = ast.Compare(ast.NamedExpr(ast.Name("_k", ast.Store()), _count(_load("_w"))),
                            [ast.Eq()], [ast.Attribute(_load("_w"), "size", ast.Load())])
        return [ast.Assign([ast.Name("_w", ast.Store())], self.visit(node.test)),
                ast.If(every, node.body, [ast.If(_load("_k"), taken, [])])]
