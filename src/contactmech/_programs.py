"""The one compile point of the generated programs, and the helpers that write their source.

`program` compiles every generated function under a file name "<contactmech ...>", which
profiles show, and keeps its source in `linecache` while the function lives, so
tracebacks, pdb and `inspect.getsource` show its lines.
"""

import linecache
import weakref
from typing import Callable, Sequence

__all__ = ["program"]


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
    """Source of `_exceeds_float(resid, tol, values, vectors)` behind the pre-test max |r_i| <= tol.

    The pre-test fails on a NaN residual, so `_exceeds_float` decides every
    case that can raise.
    """
    small = " and ".join(f"abs({r}) <= {tol!r}" for r in resid)
    return f"not ({small}) and _exceeds_float(({', '.join(resid)},), {tol!r}, {values}, {vectors})"


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
    """a . b over floats, sources or pairs, left to right from 0.0 (`_dot`'s bits at length 1)."""
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
