"""Fixed reference work that tracks the host's speed.

On a shared host the speed of a vCPU drifts with the load of other
tenants, by up to a factor of two over minutes, and that drift is far
wider than any regression bound.  The benchmark therefore times fixed
reference work beside the program and divides the program's times by
it, so that a timing reads the same at any host speed.

- The kernel, for ops.  The workload process runs it after every op.  It
  is built like the code it calibrates, yet shares none of it: a
  tree-walking evaluator over dual numbers gives gradients, which drive
  RK4 steps on small NumPy arrays with a 4x4 linear solve per step.
- A fresh interpreter, for set-up.  Run as a script, this file imports
  NumPy (as contactmech's set-up does) and prints the CPU time its
  process has used.  The launcher runs it after every set-up probe.

Neither calls contactmech, so no change to the program moves them.
"""

from __future__ import annotations

import math
from time import process_time

import numpy as np

# The kernel's typical time, in seconds, on the 2-vCPU host the benchmark
# was tuned on.  Normalised timings are in seconds of a host on which the
# kernel takes this long; the value only scales them.
NOMINAL_S = 0.0020

# Reference-kernel samples on each side of an op for its local speed, and
# the share of the window's fastest and of its slowest samples left out.
HALF_WINDOW = 10
TRIM = 0.1

# The reference interpreter's typical CPU time, in seconds, on that host.
NOMINAL_SETUP_S = 0.15


class _Dual:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b

    def __add__(self, other: "_Dual") -> "_Dual":
        return _Dual(self.a + other.a, self.b + other.b)

    def __mul__(self, other: "_Dual") -> "_Dual":
        return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)

    def exp(self) -> "_Dual":
        e = math.exp(self.a)
        return _Dual(e, e * self.b)


_TREE = ("+", ("*", ("v", 0), ("v", 1)), ("+", ("exp", ("v", 2)), ("*", ("v", 3), ("v", 3))))
_MATRIX = np.eye(4) * 3.0 + 0.1
_X0 = np.array([0.3, 0.8, -0.2, 0.5])


def _eval(node: tuple, env: list[_Dual]) -> _Dual:
    op = node[0]
    if op == "v":
        return env[node[1]]
    if op == "exp":
        return _eval(node[1], env).exp()
    left, right = _eval(node[1], env), _eval(node[2], env)
    return left + right if op == "+" else left * right


def _gradient(x: np.ndarray) -> np.ndarray:
    g = np.empty(4)
    for k in range(4):
        env = [_Dual(float(x[i]), 1.0 if i == k else 0.0) for i in range(4)]
        g[k] = _eval(_TREE, env).b
    return g


def kernel() -> np.ndarray:
    """Twelve RK4 descent steps on a 4-variable function; about 2 ms."""
    x, h = _X0, 0.01
    for _ in range(12):
        k1 = _gradient(x)
        k2 = _gradient(x + h / 2 * k1)
        k3 = _gradient(x + h / 2 * k2)
        k4 = _gradient(x + h * k3)
        x = x - h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        x = x + 1e-3 * np.linalg.solve(_MATRIX, x)
    return x


def timed_kernel() -> float:
    """Seconds of this process's CPU time that one run of the kernel takes."""
    start = process_time()
    kernel()
    return process_time() - start


def trimmed_mean(values: list[float]) -> float:
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut: len(ordered) - cut]
    return sum(kept) / len(kept)


def local_speeds(ref_s: list[float]) -> list[float]:
    """Per sample, NOMINAL_S over the trimmed mean kernel time around it.

    A value below 1 means the host ran slower than nominal there.  The
    host switches between a fast and a slow state within seconds, so the
    mean, not the median, follows the mix of states an op ran in; the
    trim drops the odd sample stretched by an interrupt.
    """
    return [NOMINAL_S / trimmed_mean(ref_s[max(0, i - HALF_WINDOW): i + HALF_WINDOW + 1])
            for i in range(len(ref_s))]


if __name__ == "__main__":
    print(process_time())
