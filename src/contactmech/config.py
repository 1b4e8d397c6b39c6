"""JSON system configurations.

A config declares a chart (coordinates plus optional coframe
coefficients), the candidate integrals, a sampling region, named
sections for the action-angle construction, integrator settings, and a
default random seed.  Validation is two-stage: a JSON Schema for shape,
then expression parsing and cross-field checks.  The raw file bytes are
hashed so reports can pin the exact configuration they were produced
from.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any

import jsonschema

from .expressions import ExpressionError
from .flows import IntegratorConfig
from .geometry import ContactChart, ContactSystem
from .integrability import SectionSpec
from .symplectization import SympSystem, symplectize

__all__ = ["ConfigError", "SystemConfig", "load_config", "bundled_config_path"]


class ConfigError(ValueError):
    """Invalid configuration file."""


_BOUNDS = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["name", "n", "coordinates", "integrals", "region"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "n": {"type": "integer", "minimum": 0},
        "coordinates": {
            "type": "array",
            "items": {"type": "string"},
            "minItems": 1,
        },
        "eta": {"type": "array", "items": {"type": "string"}},
        "integrals": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "region": {
            "type": "object",
            "additionalProperties": _BOUNDS,
        },
        "positive": {"type": "array", "items": {"type": "string"}},
        "r_range": _BOUNDS,
        "sections": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["params", "components", "domain"],
                "additionalProperties": False,
                "properties": {
                    "params": {
                        "type": "array",
                        "items": {"type": "string"},
                        "minItems": 1,
                    },
                    "components": {"type": "array", "items": {"type": "string"}},
                    "domain": {"type": "object", "additionalProperties": _BOUNDS},
                    "denominator_index": {"type": "integer", "minimum": 0},
                },
            },
        },
        "integrator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "method": {"enum": ["rkf45", "rk4"]},
                "step": {"type": "number", "exclusiveMinimum": 0},
                "rel_tol": {"type": "number", "exclusiveMinimum": 0},
                "abs_tol": {"type": "number", "exclusiveMinimum": 0},
                "max_step": {"type": "number", "exclusiveMinimum": 0},
                "min_step": {"type": "number", "exclusiveMinimum": 0},
                "max_steps": {"type": "integer", "minimum": 1},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
    },
}

# SCHEMA is constant, so it is checked against the meta-schema by the tests
# rather than on every load (jsonschema.validate does that each call).
_VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


@dataclass
class SystemConfig:
    """Validated configuration plus provenance (source bytes digest)."""

    name: str
    n: int
    coordinates: tuple[str, ...]
    eta: tuple[str, ...] | None
    integrals: tuple[str, ...]
    region: dict[str, tuple[float, float]]
    positive: tuple[str, ...]
    r_range: tuple[float, float]
    sections: dict[str, SectionSpec]
    integrator: IntegratorConfig
    seed: int
    digest: str
    path: str = ""
    raw: dict = field(default_factory=dict, repr=False)
    # built once by load_config; system() is its base
    _symp: SympSystem = field(init=False, repr=False, compare=False)

    def system(self) -> ContactSystem:
        return self._symp.base

    def symp_system(self) -> SympSystem:
        return self._symp

    def section(self, name: str) -> SectionSpec:
        try:
            return self.sections[name]
        except KeyError:
            raise ConfigError(
                f"no section named {name!r} (have {sorted(self.sections)})"
            ) from None


def _build(data: dict, digest: str, path: str) -> SystemConfig:
    n = data["n"]
    coords = tuple(data["coordinates"])
    if len(coords) != 2 * n + 1:
        raise ConfigError(
            f"n = {n} needs {2 * n + 1} coordinates, got {len(coords)}"
        )
    integrals = tuple(data["integrals"])
    eta = tuple(data["eta"]) if "eta" in data else None
    region = {k: (float(v[0]), float(v[1])) for k, v in data["region"].items()}
    positive = tuple(data.get("positive", ()))
    r_lo, r_hi = data.get("r_range", (0.5, 2.0))
    # the constructors parse the expressions and check the cross-field rules
    # (and the non-finite numbers that JSON Schema lets through)
    try:
        system = ContactSystem(
            ContactChart(coords, eta), integrals, region=region, positive=positive
        )
        symp = symplectize(system, r_range=(r_lo, r_hi))
        integrator = IntegratorConfig(**data.get("integrator", {}))
    except (ExpressionError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    sections: dict[str, SectionSpec] = {}
    for sec_name, sec in data.get("sections", {}).items():
        if len(sec["components"]) != len(coords) + 1:
            raise ConfigError(
                f"section {sec_name!r} needs {len(coords) + 1} components, "
                f"got {len(sec['components'])}"
            )
        if len(sec["params"]) != n + 1:
            raise ConfigError(
                f"section {sec_name!r} needs {n + 1} parameters, "
                f"got {len(sec['params'])}"
            )
        try:
            sections[sec_name] = SectionSpec(
                sec_name,
                sec["params"],
                sec["components"],
                sec["domain"],
                denominator_index=sec.get("denominator_index"),
            )
        except (ExpressionError, ValueError) as exc:
            raise ConfigError(f"section {sec_name!r}: {exc}") from exc

    cfg = SystemConfig(
        name=data["name"],
        n=n,
        coordinates=coords,
        eta=eta,
        integrals=integrals,
        region=region,
        positive=positive,
        r_range=(float(r_lo), float(r_hi)),
        sections=sections,
        integrator=integrator,
        seed=int(data.get("seed", 0)),
        digest=digest,
        path=path,
        raw=data,
    )
    cfg._symp = symp
    return cfg


def load_config(path: str | Path) -> SystemConfig:
    """Load, schema-validate, and cross-check a system configuration."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    digest = hashlib.sha256(blob).hexdigest()
    try:
        data = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(data))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config {path} invalid at {where}: {error.message}") from error
    return _build(data, digest, str(path))


def bundled_config_path(name: str) -> Path:
    """Filesystem path of a configuration shipped with the package."""
    if not name.endswith(".json"):
        name = name + ".json"
    root = resources.files("contactmech").joinpath("configs", name)
    with resources.as_file(root) as concrete:
        if not concrete.exists():
            raise ConfigError(f"no bundled config named {name!r}")
        return concrete
