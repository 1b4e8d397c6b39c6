"""The Fehlberg step that calls a field closure on a float list, away from the library.

Every flow takes `flows._step_program`, one generated step per state
size whose stages call the field on the stage's floats, field(z0 + ...,
z1 + ..., ...): a system's `_field`, the positional entry of the field
program whose list entry is `field_evaluator`.  The reference kept here
is that step as it called a list closure, field([z0 + ..., ...]), at
s = 0 on x itself: the same tableau, sums, zero weights and error norm,
compiled as "<reference rkf45-step dim=D>".  The library's step on the
positional entry must make its floats, raise its errors and give its
trajectories.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from contactmech._programs import _names, program
from contactmech.flows import _A, _B4, _B5, _ramp, _run, _trajectory


@functools.lru_cache(maxsize=None)
def calling_step(dim: int) -> Callable:
    """`step(field, x, h, abs_tol, rel_tol)`: the Fehlberg step calling field on a list."""
    def sums(i: int, weights: str, stages: int) -> str:
        return f"z{i}" + "".join(f" + {weights}{j} * k{j}_{i}" for j in range(stages))

    weights = [*((f"ha{s}_", a) for s, a in enumerate(_A)), ("hb", _B4), ("hc", _B5)]
    lines = ["def step(field, x, h, abs_tol, rel_tol):",
             *(f"    {name}{j} = h * {w!r}" for name, ws in weights for j, w in enumerate(ws)),
             f"    {_names('z', dim)}, = x"]
    for s in range(6):
        state = "x" if s == 0 else f"[{', '.join(sums(i, f'ha{s}_', s) for i in range(dim))}]"
        lines.append(f"    {_names(f'k{s}_', dim)}, = field({state})")
    for i in range(dim):
        lines += [f"    y{i} = {sums(i, 'hc', 6)}",
                  f"    e{i} = abs(y{i} - ({sums(i, 'hb', 6)})) / "
                  f"(abs_tol + rel_tol * max(abs(z{i}), abs(y{i})))"]
    nan = " or ".join(f"e{i} != e{i}" for i in range(dim))
    lines.append(f"    return [{_names('y', dim)}], nan if {nan} else max(({_names('e', dim)},))")
    return program(f"<reference rkf45-step dim={dim}>", lines, {"nan": math.nan}, "step")


def calling(field_fn: Callable, dim: int) -> Callable:
    """The bound reference step `step(x, h, abs_tol, rel_tol)` calling the list closure field_fn."""
    return functools.partial(calling_step(dim), field_fn)


def flow(field_fn, x, T, cfg, guards, names, bind: Callable = calling):
    """The flow of field_fn from the float list x over [0, T], as `integrate` runs it.

    bind(field_fn, dim) binds the step: the reference's `calling` on a
    list closure, or `flows._calling` on a field of floats.
    """
    return _trajectory(*_run(bind(field_fn, len(x)), x, T, _ramp(T, cfg), cfg, guards, names))
