"""Seeded inputs for the contactmech benchmark.

Everything the program under test sees is made here from the workload
seed: the generated `cubic-5d` configs, the sample points and the CLI
argv of every operation ("op").  This module uses only the standard
library, so the launcher can build a plan without importing NumPy or
contactmech.

Each workload is a fixed round-robin cycle of op kinds.  The mix is
chosen so that the median and the 90th-percentile latency each fall
inside one op population rather than on the boundary between a cheap
kind and an expensive one (see README.md for the measured shares).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESCALED_PZ = HERE / "inputs" / "rescaled-pz.json"

WORKLOADS = ("sampled-checks", "angle-solves", "general-coframe")

BUNDLED = ("darboux-pz", "darboux-5d-involutive", "darboux-5d-noninvolutive")
RAY = {"darboux-pz": "1,1", "darboux-5d-involutive": "1,1,1",
       "darboux-5d-noninvolutive": "1,1,1", "rescaled-pz": "1,1"}

# Ops generated per plan.  A run that exhausts them starts the list again.
PLAN_OPS = {"sampled-checks": 2400, "angle-solves": 4000, "general-coframe": 1000}

# Ops in the fixed block that the traced run and the work counts cover.
COUNT_OPS = {"sampled-checks": 48, "angle-solves": 80, "general-coframe": 20}

FLOW_TIME = 5.0
CUBIC_CONFIGS = 3


# (q, p, z) in the darboux-pz / rescaled-pz sampling box, and that box
# lifted by r to the symplectization.
REGION = ((-2.0, 2.0), (0.5, 2.0), (0.5, 2.0))
LIFTED = REGION + ((0.5, 2.0),)


# Halton bases, one per coordinate.
BASES = (2, 3, 5, 7)


def _radical_inverse(n: int, base: int) -> float:
    """n written in `base`, digits mirrored after the point."""
    value, scale = 0.0, 1.0
    while n:
        scale /= base
        n, digit = divmod(n, base)
        value += digit * scale
    return value


class Points:
    """Seeded points in a box, spread evenly over any prefix of the stream.

    The i-th point is a Halton point (one prime base per coordinate),
    rotated by a seeded shift modulo each side of the box (a
    Cranley-Patterson rotation).  An op's cost depends on its point (how
    far a solve flows depends on it), and a run stops after however many
    ops fit in its time; because every prefix of the stream covers the box
    evenly, each run sees the box alike, so the mean cost varies less from
    seed to seed than with independent draws.
    """

    def __init__(self, rng: random.Random, box: tuple):
        self.box = box
        self.shift = [rng.random() for _ in box]
        self.count = 0

    def draw(self) -> list[float]:
        point = []
        for (lo, hi), base, shift in zip(self.box, BASES, self.shift):
            unit = (_radical_inverse(self.count, base) + shift) % 1.0
            point.append(lo + unit * (hi - lo))
        self.count += 1
        return point


def _cli(config: str, command: str, rng: random.Random) -> dict:
    args = ["--lambda", RAY[config]] if command == "coisotropy" else []
    args += ["--seed", str(rng.randrange(2**31))]
    return {"kind": "cli", "config": config, "command": command, "args": args}


def cubic_config(rng: random.Random) -> dict:
    """A 5D standard-chart config with three sparse cubic integrals.

    The integrals are polynomials of degree <= 3 in the shifted momenta
    P = p + grad S(q) for a random quadratic S.  The map
    (q, p, z) -> (q, p + grad S, z + S) preserves dz - p.dq, so functions
    of P are in involution exactly like functions of p: `check` must pass.
    f0 and f1 are increasing in P1 and P2 alone, so the rank is 2.  The
    seed draws S, the coefficients and the exponents; every power is
    written out, so each seed gives expressions of the same size.
    """
    a, b, c = (round(rng.uniform(0.1, 0.5), 3) for _ in range(3))
    P1 = f"(p1 + {a}*q1 + {b}*q2)"
    P2 = f"(p2 + {b}*q1 + {c}*q2)"

    def coef() -> float:
        return round(rng.uniform(0.5, 2.0), 3)

    i, j = rng.choice(((1, 1), (1, 2), (2, 1)))
    integrals = [
        f"{coef()}*{P1}^1 + {coef()}*{P1}^{rng.choice((2, 3))}",
        f"{coef()}*{P2}^1 + {coef()}*{P2}^{rng.choice((2, 3))}",
        f"{coef()}*{P1}^{i}*{P2}^{j} + {coef()}*{P1}^{rng.randint(1, 3)}"
        f" + {coef()}*{P2}^{rng.randint(1, 3)}",
    ]
    coords = ["q1", "q2", "p1", "p2", "z"]
    return {
        "name": "cubic-5d",
        "n": 2,
        "coordinates": coords,
        "integrals": integrals,
        "region": {name: [0.5, 2.0] for name in coords},
        "seed": 0,
    }


# Nine cheap reports on the bundled configs, then three on the cubic
# configs in turn: check is the dearest kind, so it gets two slots and the
# p90 falls inside its band.
_SAMPLED_CYCLE = [(cfg, cmd) for cfg in BUNDLED
                  for cmd in ("check", "coisotropy", "symplectize-verify")]
_SAMPLED_CYCLE += [("cubic", "check"), ("cubic", "symplectize-verify"), ("cubic", "check")]

# 19 solves alternating between the sections, then one single-point
# darboux_verify, whose section alternates from cycle to cycle.
_ANGLE_CYCLE = 20

# Two cheap flows (the p integral translates q), six reports, then the
# expensive pair: the z-integral flow and an angle solve.
_GENERAL_CYCLE = ["flow0", "check", "coisotropy", "symplectize-verify", "flow0",
                  "check", "coisotropy", "symplectize-verify", "flow1", "angle"]

CYCLE = {"sampled-checks": len(_SAMPLED_CYCLE), "angle-solves": _ANGLE_CYCLE,
         "general-coframe": len(_GENERAL_CYCLE)}


def _sampled_checks(rng: random.Random, n_ops: int) -> list[dict]:
    cycle = _SAMPLED_CYCLE
    ops = []
    for i in range(n_ops):
        config, command = cycle[i % len(cycle)]
        if config == "cubic":
            config = f"cubic-5d-{(i // len(cycle) + i) % CUBIC_CONFIGS}"
        ops.append(_cli(config, command, rng))
    return ops


def _angle_solves(rng: random.Random, n_ops: int) -> list[dict]:
    solves = {s: Points(rng, LIFTED) for s in ("graph-z", "graph-p")}
    checks = {s: Points(rng, REGION) for s in ("graph-z", "graph-p")}
    ops = []
    for i in range(n_ops):
        if i % _ANGLE_CYCLE == _ANGLE_CYCLE - 1:
            section = ("graph-z", "graph-p")[(i // _ANGLE_CYCLE) % 2]
            ops.append({"kind": "darboux", "config": "darboux-pz",
                        "section": section, "x": checks[section].draw()})
        else:
            section = ("graph-z", "graph-p")[(i % _ANGLE_CYCLE) % 2]
            ops.append({"kind": "angle", "config": "darboux-pz",
                        "section": section, "x": solves[section].draw()})
    return ops


def _general_coframe(rng: random.Random, n_ops: int) -> list[dict]:
    flows = {"flow0": Points(rng, REGION), "flow1": Points(rng, REGION)}
    solves = Points(rng, LIFTED)
    ops = []
    for i in range(n_ops):
        kind = _GENERAL_CYCLE[i % len(_GENERAL_CYCLE)]
        if kind.startswith("flow"):
            ops.append({"kind": "flow", "config": "rescaled-pz",
                        "integral": int(kind[-1]), "x": flows[kind].draw(),
                        "t": FLOW_TIME})
        elif kind == "angle":
            ops.append({"kind": "angle", "config": "rescaled-pz",
                        "section": "graph-z", "x": solves.draw()})
        else:
            ops.append(_cli("rescaled-pz", kind, rng))
    return ops


_MAKERS = {"sampled-checks": _sampled_checks, "angle-solves": _angle_solves,
           "general-coframe": _general_coframe}
_CONFIGS = {
    "sampled-checks": BUNDLED + tuple(f"cubic-5d-{k}" for k in range(CUBIC_CONFIGS)),
    "angle-solves": ("darboux-pz",),
    "general-coframe": ("darboux-pz", "rescaled-pz"),
}


def write_plan(workload: str, seed: int, workdir: Path) -> None:
    """Write inputs.json (configs) and ops.json (the op list) to workdir."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (have {', '.join(WORKLOADS)})")
    rng = random.Random(f"{workload}:{seed}")
    configs: dict[str, dict] = {}
    for label in _CONFIGS[workload]:
        if label in BUNDLED:
            configs[label] = {"bundled": label}
        elif label == "rescaled-pz":
            configs[label] = {"path": str(RESCALED_PZ)}
        else:
            path = workdir / f"{label}.json"
            path.write_text(json.dumps(cubic_config(rng), indent=2))
            configs[label] = {"path": str(path)}
    inputs = {
        "workload": workload,
        "seed": seed,
        "configs": configs,
        "warmup_ops": CYCLE[workload],
        "count_ops": COUNT_OPS[workload],
    }
    (workdir / "inputs.json").write_text(json.dumps(inputs, indent=1))
    ops = _MAKERS[workload](rng, PLAN_OPS[workload])
    (workdir / "ops.json").write_text(json.dumps(ops))
