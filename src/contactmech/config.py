"""JSON system configurations.

A config declares a chart (coordinates plus optional coframe
coefficients), the candidate integrals, a sampling region, named
sections for the action-angle construction, integrator settings, and a
default random seed.  Validation is two-stage: a JSON Schema for shape,
then expression parsing and cross-field checks.  The raw file bytes are
hashed so reports can pin the exact configuration they were produced
from.

`SCHEMA` is the only statement of the shape rules.  A small walker of
the keywords it uses (Draft 2020-12 semantics) accepts conforming
documents; jsonschema is imported only when the walker says no, and
then decides and words the rejection.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any

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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Draft 2020-12: bool is no number, and a float with an integral value
# (never NaN or an infinity) is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


# Each keyword's test, given the instance, the keyword's value and its
# schema; it holds for instances of the types it does not apply to.  A
# comparison with NaN is false, so NaN passes minimum and exclusiveMinimum.
_KEYWORDS = {
    "$schema": lambda v, s, _: True,
    "type": lambda v, s, _: _TYPES[s](v),
    "enum": lambda v, s, _: isinstance(v, str) and v in s,
    "required": lambda v, s, _: not isinstance(v, dict) or all(k in v for k in s),
    "properties": lambda v, s, _: not isinstance(v, dict)
    or all(_conforms(v[k], sub) for k, sub in s.items() if k in v),
    "additionalProperties": lambda v, s, schema: not isinstance(v, dict)
    or all(_conforms(x, s) for k, x in v.items() if k not in schema.get("properties", ())),
    "items": lambda v, s, _: not isinstance(v, list) or all(_conforms(x, s) for x in v),
    "minItems": lambda v, s, _: not isinstance(v, list) or len(v) >= s,
    "maxItems": lambda v, s, _: not isinstance(v, list) or len(v) <= s,
    "minLength": lambda v, s, _: not isinstance(v, str) or len(v) >= s,
    "minimum": lambda v, s, _: not _is_number(v) or not v < s,
    "exclusiveMinimum": lambda v, s, _: not _is_number(v) or not v <= s,
}


def _conforms(value, schema) -> bool:
    """Whether value satisfies schema; False for a keyword not in _KEYWORDS.

    A False is never final: load_config then asks jsonschema, which
    decides.  `enum` holds only for strings, which is exact when the
    listed values are strings, as in SCHEMA.
    """
    if isinstance(schema, bool):
        return schema
    for key, arg in schema.items():
        test = _KEYWORDS.get(key)
        if test is None or not test(value, arg, schema):
            return False
    return True


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
    # the schema's integers may be floats with integral values, such as 1.0
    n = int(data["n"])
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
        settings = dict(data.get("integrator", {}))
        if "max_steps" in settings:
            settings["max_steps"] = int(settings["max_steps"])
        integrator = IntegratorConfig(**settings)
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
        denominator = sec.get("denominator_index")
        try:
            sections[sec_name] = SectionSpec(
                sec_name,
                sec["params"],
                sec["components"],
                sec["domain"],
                denominator_index=None if denominator is None else int(denominator),
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
    )
    cfg._symp = symp
    return cfg


def load_config(path: str | Path) -> SystemConfig:
    """Load, schema-validate, and cross-check a system configuration."""
    path = Path(path)
    return _from_bytes(_read(path), path)


def _read(path: str | Path) -> bytes:
    try:
        with open(path, "rb") as file:  # as Path.read_bytes reads, from a str too
            return file.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _from_bytes(blob: bytes, path: str | Path) -> SystemConfig:
    """A new SystemConfig from a config file's bytes; path names it in errors and reports."""
    digest = hashlib.sha256(blob).hexdigest()
    try:
        data = json.loads(blob)
    except (ValueError, RecursionError) as exc:  # not JSON, bytes no codec reads, too deep
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not _conforms(data, SCHEMA):
        _reject(data, path)
    return _build(data, digest, str(path))


def _reject(data, path: str | Path) -> None:
    """Raise jsonschema's best-matching error; return if it finds none."""
    import jsonschema

    # SCHEMA is constant, so it is checked against the meta-schema by the
    # tests rather than here (jsonschema.validate does that each call)
    validator = jsonschema.Draft202012Validator(SCHEMA)
    error = jsonschema.exceptions.best_match(validator.iter_errors(data))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config {path} invalid at {where}: {error.message}") from error


def bundled_config_path(name: str) -> Path:
    """Filesystem path of a configuration shipped with the package."""
    if not name.endswith(".json"):
        name = name + ".json"
    root = resources.files("contactmech").joinpath("configs", name)
    with resources.as_file(root) as concrete:
        if not concrete.exists():
            raise ConfigError(f"no bundled config named {name!r}")
        return concrete
