"""Per-layer spans for the traced benchmark run.

The layers are the seven contactmech modules.  Nothing inside the
package is instrumented: `Tracer.install` replaces public entry points
(module functions, chart methods and the closures that
`gradient_evaluator` and `field_evaluator` return) with timing wrappers,
in every contactmech module that bound the original, and
`Tracer.uninstall` puts the originals back.  Methods are looked up
through the class's MRO.  An entry point the package no longer has, or a
factory its callers no longer import, raises `MissingEntryPoint`, so the
traced run fails by name instead of reporting 0 for its metrics.

Spans are aggregated as they close rather than stored: per key the
calls, failures and inclusive seconds, and per layer the self time,
which is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("expressions", "geometry", "symplectization", "flows",
          "integrability", "config", "cli")
MODULES = ("contactmech",) + tuple(f"contactmech.{name}" for name in LAYERS)

# module functions: (layer, defining module, name, span key)
FUNCTIONS = (
    ("expressions", "expressions", "parse", "expressions.parse"),
    ("expressions", "expressions", "evaluate", "expressions.evaluate"),
    ("expressions", "expressions", "eval_jet2", "expressions.jet2"),
    ("geometry", "geometry", "contact_condition_check", "geometry.contact_check"),
    ("symplectization", "symplectization", "symplectize", "symplectization.build"),
    ("flows", "flows", "integrate", "flows.integrate"),
    ("integrability", "integrability", "angle_solve", "integrability.angle_solve"),
    ("integrability", "integrability", "darboux_verify", "integrability.darboux"),
    ("integrability", "integrability", "ray_project", "integrability.ray_project"),
    ("integrability", "integrability", "involution_check", "integrability.check"),
    ("integrability", "integrability", "rank_check", "integrability.check"),
    ("integrability", "integrability", "coisotropy_check", "integrability.check"),
    ("integrability", "integrability", "tangency_check", "integrability.check"),
    ("integrability", "integrability", "verify_section", "integrability.check"),
    ("config", "config", "load_config", "config.load"),
    ("cli", "cli", "main", "cli.main"),
)

# methods: (layer, module, class, method, span key)
METHODS = (
    ("geometry", "geometry", "ContactChart", "hamiltonian_field_at", "geometry.field"),
    ("geometry", "geometry", "ContactChart", "jacobi_bracket_at", "geometry.bracket"),
    ("geometry", "geometry", "ContactChart", "flat_matrix_at", "geometry.flat"),
    ("geometry", "geometry", "ContactChart", "reeb_at", "geometry.reeb"),
    ("symplectization", "symplectization", "SympChart", "hamiltonian_field_at",
     "symplectization.field"),
    ("symplectization", "symplectization", "SympChart", "omega_at",
     "symplectization.omega"),
    ("config", "config", "SystemConfig", "system", "config.build"),
    ("config", "config", "SystemConfig", "symp_system", "config.build"),
)

# factories whose returned closures become spans: (layer of the closure,
# module, class or None, factory name, span key of the closure, modules
# that must import a module-level factory)
FACTORIES = (
    ("expressions", "expressions", None, "gradient_evaluator", "expressions.grad",
     ("geometry", "symplectization")),
    ("geometry", "geometry", "ContactSystem", "field_evaluator", "flows.field_eval", ()),
    ("symplectization", "symplectization", "SympSystem", "field_evaluator",
     "flows.field_eval", ()),
)


_COUNT, _SECONDS, _RATIO = "count", "s", "ratio"
_MISSING = object()
UNITS = {
    "expressions.grad_calls": _COUNT,
    "expressions.grad_s": _SECONDS,
    "expressions.grad_us_per_call": "us",
    "geometry.field_calls": _COUNT,
    "geometry.field_s": _SECONDS,
    "geometry.bracket_calls": _COUNT,
    "geometry.bracket_s": _SECONDS,
    "geometry.flat_calls": _COUNT,
    "geometry.reeb_calls": _COUNT,
    "geometry.flat_per_field": _RATIO,
    "symplectization.field_calls": _COUNT,
    "symplectization.field_s": _SECONDS,
    "symplectization.omega_calls": _COUNT,
    "flows.integrate_calls": _COUNT,
    "flows.integrate_s": _SECONDS,
    "flows.accepted_steps": _COUNT,
    "flows.field_evals": _COUNT,
    "flows.step_acceptance": _RATIO,
    "flows.truncated_calls": _COUNT,
    "integrability.angle_solve_calls": _COUNT,
    "integrability.angle_solve_s": _SECONDS,
    "integrability.newton_iters": _COUNT,
    "integrability.solve_flows": _COUNT,
    "integrability.flows_per_solve": _RATIO,
    "integrability.darboux_s": _SECONDS,
    "integrability.check_s": _SECONDS,
    "integrability.ray_attempts": _COUNT,
    "integrability.ray_failures": _COUNT,
    "integrability.ray_success_ratio": _RATIO,
    "config.load_calls": _COUNT,
    "config.load_s": _SECONDS,
    "cli.main_s": _SECONDS,
    **{f"{layer}.self_s": _SECONDS for layer in LAYERS},
}


class MissingEntryPoint(LookupError):
    """A traced entry point is gone from the package: update the tables above."""


def _lookup(owner, name: str, where: str):
    try:
        return getattr(owner, name)
    except AttributeError:
        raise MissingEntryPoint(f"traced entry point {where}.{name} not found") from None


class Tracer:
    """Aggregated spans over the layer entry points."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.failures: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[float] = []
        self._solves_open = 0
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for table in (self.calls, self.failures, self.seconds,
                      self.self_seconds, self.counts):
            table.clear()

    # -- spans ---------------------------------------------------------------

    def span(self, layer: str, key: str, fn, on_result=None):
        """Wrap fn so each call is a span of `layer` recorded under `key`."""
        stack = self._stack
        calls, failures = self.calls, self.failures
        seconds, self_seconds = self.seconds, self.self_seconds

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                calls[key] += 1
                seconds[key] += elapsed
                self_seconds[layer] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                if not ok:
                    failures[key] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _on_trajectory(self, traj) -> None:
        self.counts["flows.accepted_steps"] += len(traj.times) - 1
        if not traj.completed:
            self.counts["flows.truncated_calls"] += 1
        if self._solves_open:
            self.counts["integrability.solve_flows"] += 1

    def _on_angles(self, result) -> None:
        self.counts["integrability.newton_iters"] += int(result.iterations)

    def _angle_solve(self, fn):
        inner = self.span("integrability", "integrability.angle_solve", fn,
                          self._on_angles)

        def wrapper(*args, **kwargs):
            self._solves_open += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._solves_open -= 1

        return wrapper

    def _factory(self, layer: str, key: str, factory):
        def wrapper(*args, **kwargs):
            return self.span(layer, key, factory(*args, **kwargs))

        return wrapper

    # -- installation ----------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        # _MISSING: the attribute was inherited, so uninstall deletes it
        self._undo.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def _rebind(self, original, replacement) -> set[str]:
        """Point every contactmech module's binding of original at replacement.

        Returns the names of the modules that bound it.
        """
        bound = set()
        for modname in MODULES:
            module = sys.modules[modname]
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, replacement)
                    bound.add(modname)
        return bound

    def install(self) -> None:
        for modname in MODULES:
            importlib.import_module(modname)
        for layer, modname, name, key in FUNCTIONS:
            original = _lookup(sys.modules[f"contactmech.{modname}"], name,
                               f"contactmech.{modname}")
            if key == "integrability.angle_solve":
                replacement = self._angle_solve(original)
            elif key == "flows.integrate":
                replacement = self.span(layer, key, original, self._on_trajectory)
            else:
                replacement = self.span(layer, key, original)
            self._rebind(original, replacement)
        for layer, modname, clsname, name, key in METHODS:
            where = f"contactmech.{modname}"
            cls = _lookup(sys.modules[where], clsname, where)
            original = _lookup(cls, name, f"{where}.{clsname}")
            self._set(cls, name, self.span(layer, key, original))
        for layer, modname, clsname, name, key, users in FACTORIES:
            where = f"contactmech.{modname}"
            module = sys.modules[where]
            if clsname is None:
                original = _lookup(module, name, where)
                bound = self._rebind(original, self._factory(layer, key, original))
                for user in users:
                    if f"contactmech.{user}" not in bound:
                        raise MissingEntryPoint(
                            f"contactmech.{user} no longer imports {where}.{name}")
                continue
            cls = _lookup(module, clsname, where)
            original = _lookup(cls, name, f"{where}.{clsname}")
            self._set(cls, name, self._factory(layer, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if value is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, value)

    # -- metrics ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values; every ratio is reported with its base."""
        calls, secs, counts = self.calls, self.seconds, self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {
            "expressions.grad_calls": calls["expressions.grad"],
            "expressions.grad_s": secs["expressions.grad"],
            "expressions.grad_us_per_call": 1e6 * ratio(
                secs["expressions.grad"], calls["expressions.grad"]),
            "geometry.field_calls": calls["geometry.field"],
            "geometry.field_s": secs["geometry.field"],
            "geometry.bracket_calls": calls["geometry.bracket"],
            "geometry.bracket_s": secs["geometry.bracket"],
            "geometry.flat_calls": calls["geometry.flat"],
            "geometry.reeb_calls": calls["geometry.reeb"],
            "geometry.flat_per_field": ratio(
                calls["geometry.flat"], calls["geometry.field"]),
            "symplectization.field_calls": calls["symplectization.field"],
            "symplectization.field_s": secs["symplectization.field"],
            "symplectization.omega_calls": calls["symplectization.omega"],
            "flows.integrate_calls": calls["flows.integrate"],
            "flows.integrate_s": secs["flows.integrate"],
            "flows.accepted_steps": counts["flows.accepted_steps"],
            "flows.field_evals": calls["flows.field_eval"],
            "flows.step_acceptance": ratio(
                counts["flows.accepted_steps"], calls["flows.field_eval"] / 6.0),
            "flows.truncated_calls": counts["flows.truncated_calls"],
            "integrability.angle_solve_calls": calls["integrability.angle_solve"],
            "integrability.angle_solve_s": secs["integrability.angle_solve"],
            "integrability.newton_iters": counts["integrability.newton_iters"],
            "integrability.solve_flows": counts["integrability.solve_flows"],
            "integrability.flows_per_solve": ratio(
                counts["integrability.solve_flows"],
                calls["integrability.angle_solve"]),
            "integrability.darboux_s": secs["integrability.darboux"],
            "integrability.check_s": secs["integrability.check"],
            "integrability.ray_attempts": calls["integrability.ray_project"],
            "integrability.ray_failures": self.failures["integrability.ray_project"],
            "integrability.ray_success_ratio": ratio(
                calls["integrability.ray_project"]
                - self.failures["integrability.ray_project"],
                calls["integrability.ray_project"]),
            "config.load_calls": calls["config.load"],
            "config.load_s": secs["config.load"],
            "cli.main_s": secs["cli.main"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_seconds[layer]
        return out
