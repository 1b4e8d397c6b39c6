import copy
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactmech import config
from contactmech.config import SCHEMA, ConfigError, bundled_config_path, load_config
from contactmech.flows import IntegratorConfig

MINIMAL = {
    "name": "toy",
    "n": 1,
    "coordinates": ["q", "p", "z"],
    "integrals": ["p", "z"],
    "region": {"q": [-1, 1], "p": [0.5, 2], "z": [0.5, 2]},
}


def _write(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def _variant(**overrides):
    data = {k: (dict(v) if isinstance(v, dict) else v) for k, v in MINIMAL.items()}
    data.update(overrides)
    return data


# ---------------------------------------------------------------------------
# Bundled configurations
# ---------------------------------------------------------------------------

def test_bundled_config_paths_resolve():
    assert bundled_config_path("darboux-pz").name == "darboux-pz.json"
    assert bundled_config_path("darboux-pz.json").name == "darboux-pz.json"
    with pytest.raises(ConfigError):
        bundled_config_path("no-such-config")


def test_bundled_pz_config_contents(pz_config):
    assert pz_config.name == "darboux-pz"
    assert pz_config.n == 1
    assert pz_config.coordinates == ("q", "p", "z")
    assert set(pz_config.sections) == {"graph-z", "graph-p"}
    assert pz_config.seed == 0
    assert len(pz_config.digest) == 64
    system = pz_config.system()
    assert system.positive == ("p", "z")
    assert np.array_equal(system.region[0], [-2.0, 2.0])


def test_bundled_5d_configs_load():
    for name in ("darboux-5d-involutive", "darboux-5d-noninvolutive"):
        cfg = load_config(bundled_config_path(name))
        assert cfg.n == 2
        assert len(cfg.integrals) == 3
        assert cfg.system().chart.darboux


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_minimal_config_loads(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    assert cfg.name == "toy"
    assert cfg.sections == {}
    assert cfg.integrator == IntegratorConfig()
    assert cfg.r_range == (0.5, 2.0)
    assert cfg.seed == 0


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_schema_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="invalid at"):
        load_config(_write(tmp_path, _variant(surprise=1)))


def test_schema_rejects_missing_required(tmp_path):
    data = _variant()
    del data["region"]
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, data))


def test_schema_is_a_valid_2020_12_schema():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


def _without(key):
    data = _variant()
    del data[key]
    return data


@pytest.mark.parametrize(
    "data",
    [
        _variant(surprise=1),
        _without("region"),
        _variant(n=-1, name=""),
        _variant(coordinates="q p z"),
        _variant(region={"q": [0, 1, 2], "p": [0, 1], "z": ["a", 1]}),
        _variant(integrator={"method": "euler", "step": 0}),
        _variant(sections={"s": {"params": [], "components": [1]}}),
        [1, 2],
    ],
)
def test_schema_errors_match_jsonschema_validate(tmp_path, data):
    path = _write(tmp_path, data)
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(data, SCHEMA)
    where = "/".join(str(p) for p in expected.value.absolute_path) or "<root>"
    with pytest.raises(ConfigError) as got:
        load_config(path)
    assert str(got.value) == f"config {path} invalid at {where}: {expected.value.message}"


def test_coordinate_count_cross_check(tmp_path):
    with pytest.raises(ConfigError, match="coordinates"):
        load_config(_write(tmp_path, _variant(n=2)))


def test_integral_count_cross_check(tmp_path):
    with pytest.raises(ConfigError, match="integrals"):
        load_config(_write(tmp_path, _variant(integrals=["p"])))


def test_region_keys_cross_check(tmp_path):
    data = _variant(region={"q": [0, 1], "p": [0, 1], "w": [0, 1]})
    with pytest.raises(ConfigError, match="region keys"):
        load_config(_write(tmp_path, data))


def test_unparseable_integral(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, _variant(integrals=["p +", "z"])))


def test_unknown_symbol_in_integral(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, _variant(integrals=["w", "z"])))


def test_bad_r_range(tmp_path):
    with pytest.raises(ConfigError, match="r_range"):
        load_config(_write(tmp_path, _variant(r_range=[2.0, 1.0])))
    with pytest.raises(ConfigError, match="r_range"):
        load_config(_write(tmp_path, _variant(r_range=[0.0, 1.0])))


def test_positive_unknown_coordinate(tmp_path):
    with pytest.raises(ConfigError, match="positive"):
        load_config(_write(tmp_path, _variant(positive=["w"])))


def test_eta_length_cross_check(tmp_path):
    with pytest.raises(ConfigError, match="eta"):
        load_config(_write(tmp_path, _variant(eta=["-p", "0"])))


def test_general_eta_round_trips(tmp_path):
    cfg = load_config(_write(tmp_path, _variant(eta=["-2 * p", "0", "1"])))
    assert not cfg.system().chart.darboux


def test_integrator_override(tmp_path):
    data = _variant(integrator={"rel_tol": 1e-8, "max_step": 0.5})
    cfg = load_config(_write(tmp_path, data))
    assert cfg.integrator.rel_tol == 1e-8
    assert cfg.integrator.max_step == 0.5


def test_integrator_schema_rejects_bad_method(tmp_path):
    # RKF45 is the only integrator: "method" is no integrator key, whatever its value
    for method in ("rk4", "rkf45"):
        data = _variant(integrator={"method": method})
        with pytest.raises(ConfigError, match="'method' was unexpected"):
            load_config(_write(tmp_path, data))


def test_integrator_min_step(tmp_path):
    cfg = load_config(_write(tmp_path, _variant(integrator={"min_step": 1e-9})))
    assert cfg.integrator.min_step == 1e-9
    with pytest.raises(ConfigError, match="invalid at integrator/min_step"):
        load_config(_write(tmp_path, _variant(integrator={"min_step": 0})))


# ---------------------------------------------------------------------------
# Sections in configs
# ---------------------------------------------------------------------------

def _with_section(**sec_overrides):
    sec = {
        "params": ["L1", "L2"],
        "components": ["0", "L1 / L2", "1", "L2"],
        "domain": {"L1": [0.5, 2], "L2": [0.5, 2]},
        "denominator_index": 1,
    }
    sec.update(sec_overrides)
    return _variant(sections={"s": sec})


def test_section_loads(tmp_path):
    cfg = load_config(_write(tmp_path, _with_section()))
    section = cfg.section("s")
    assert section.denominator_index == 1
    assert np.allclose(section.chi_at([3.0, 5.0]), [0.0, 0.6, 1.0, 5.0])


def test_unknown_section_name(pz_config):
    with pytest.raises(ConfigError, match="no section"):
        pz_config.section("missing")


def test_section_component_count(tmp_path):
    data = _with_section(components=["0", "1", "L2"])
    with pytest.raises(ConfigError, match="components"):
        load_config(_write(tmp_path, data))


def test_section_param_count(tmp_path):
    data = _with_section(params=["L1"], domain={"L1": [0.5, 2]})
    with pytest.raises(ConfigError, match="parameters"):
        load_config(_write(tmp_path, data))


def test_section_domain_keys(tmp_path):
    data = _with_section(domain={"L1": [0.5, 2], "W": [0.5, 2]})
    with pytest.raises(ConfigError, match="domain"):
        load_config(_write(tmp_path, data))


def test_section_domain_order(tmp_path):
    data = _with_section(domain={"L1": [2, 0.5], "L2": [0.5, 2]})
    with pytest.raises(ConfigError, match="section 's': section domain lower bounds"):
        load_config(_write(tmp_path, data))


def test_section_denominator_range(tmp_path):
    data = _with_section(denominator_index=2)
    with pytest.raises(ConfigError, match="denominator"):
        load_config(_write(tmp_path, data))


def test_section_bad_expression(tmp_path):
    data = _with_section(components=["0", "L1 /", "1", "L2"])
    with pytest.raises(ConfigError, match="section"):
        load_config(_write(tmp_path, data))


def test_digest_tracks_bytes(tmp_path, pz_config):
    # byte-identical copies share the digest; any edit changes it
    src = bundled_config_path("darboux-pz")
    copy = tmp_path / "copy.json"
    copy.write_bytes(src.read_bytes())
    assert load_config(copy).digest == pz_config.digest
    copy.write_bytes(src.read_bytes() + b"\n")
    assert load_config(copy).digest != pz_config.digest


def test_integral_floats_load_as_ints(tmp_path):
    data = _with_section(denominator_index=1.0)
    data.update(n=1.0, integrator={"max_steps": 500.0}, seed=3.0)
    cfg = load_config(_write(tmp_path, data))
    assert (cfg.n, cfg.section("s").denominator_index) == (1, 1)
    assert (cfg.integrator.max_steps, cfg.seed) == (500, 3)
    assert all(type(v) is int for v in (cfg.n, cfg.section("s").denominator_index,
                                        cfg.integrator.max_steps, cfg.seed))


# ---------------------------------------------------------------------------
# The schema walker against jsonschema
# ---------------------------------------------------------------------------

NAN, INF = float("nan"), float("inf")
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    for key in ("additionalProperties", "items"):
        if isinstance(schema.get(key), dict):
            yield from _subschemas(schema[key])


def test_schema_uses_only_keywords_the_walker_implements():
    for schema in _subschemas(SCHEMA):
        assert set(schema) <= set(config._KEYWORDS), schema
        if "type" in schema:
            assert schema["type"] in config._TYPES
        # the walker's enum is exact for string values only
        assert all(isinstance(v, str) for v in schema.get("enum", ()))


WALKER_CASES = [
    (_variant(n=1.0), True),
    (_variant(n=1.5), False),
    (_variant(n=True), False),
    (_variant(n=NAN), False),
    (_variant(n=INF), False),
    (_variant(seed=0.0), True),
    (_variant(seed=-1), False),
    (_variant(name=""), False),
    (_variant(name=1), False),
    (_variant(coordinates=[]), False),
    (_variant(integrals=["p", 1]), False),
    (_variant(region={"q": [True, 1], "p": [0, 1], "z": [0, 1]}), False),
    (_variant(region={"q": [NAN, INF], "p": [-INF, 1], "z": [0, 1]}), True),
    (_variant(region={"q": [0, 1, 2], "p": [0, 1], "z": [0, 1]}), False),
    (_variant(r_range=[1]), False),
    (_variant(r_range=[NAN, 1.5]), True),
    (_variant(integrator={"rel_tol": NAN, "max_step": INF}), True),
    (_variant(integrator={"step": NAN, "max_step": INF}), False),
    (_variant(integrator={"min_step": -0.0}), False),
    (_variant(integrator={"rel_tol": -INF}), False),
    (_variant(integrator={"abs_tol": False}), False),
    (_variant(integrator={"max_steps": 1.0}), True),
    (_variant(integrator={"max_steps": 0}), False),
    (_variant(integrator={"method": "rk4"}), False),
    (_variant(integrator={"method": "euler"}), False),
    (_variant(integrator={"method": True}), False),
    (_variant(integrator={"surprise": 1}), False),
    (_with_section(), True),
    (_with_section(denominator_index=1.0), True),
    (_with_section(denominator_index=-1), False),
    (_with_section(denominator_index=NAN), False),
    (_with_section(params=[]), False),
    (_with_section(domain={"L1": [0.5]}), False),
    (_with_section(surprise=1), False),
    (_variant(sections={"s": {"params": ["L1"], "components": []}}), False),
    (_variant(sections={"s": []}), False),
    ([1, 2], False),
    ("config", False),
    (None, False),
]


@pytest.mark.parametrize("data, valid", WALKER_CASES)
def test_walker_and_jsonschema_agree_on_edge_cases(data, valid):
    assert config._conforms(data, SCHEMA) is valid
    assert VALIDATOR.is_valid(data) is valid


def _json_files():
    yield from sorted(bundled_config_path("darboux-pz").parent.glob("*.json"))
    yield from sorted((Path(__file__).parent / "data" / "golden").glob("*.json"))


FULL_INTEGRATOR = {
    "rel_tol": 1e-10, "abs_tol": 1e-12, "max_step": 0.5, "min_step": 1e-13, "max_steps": 1000,
}
BASES = [json.loads(p.read_text()) for p in _json_files()]
BASES += [_variant(integrator=FULL_INTEGRATOR), _with_section()]
# as many documents start from a config as from a golden report
CONFIGS = [base for base in BASES if VALIDATOR.is_valid(base)]
REPORTS = [base for base in BASES if not VALIDATOR.is_valid(base)]
KEYS = sorted({k for s in _subschemas(SCHEMA) for k in s.get("properties", ())}) + ["surprise"]
SCALARS = st.sampled_from([
    True, False, None, 0, 1, -1, 2, 0.0, -0.0, 1.0, 1.5, -1.0, 1e-300, NAN, INF, -INF,
    "", "q", "p", "L1", "rk4", "rkf45", "euler",
])
VALUES = st.one_of(
    SCALARS,
    st.floats(),
    st.integers(-3, 3),
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(["q", "p", "z", "L1", "surprise"]),
                    st.lists(SCALARS | st.floats(), max_size=3), max_size=3),
)


def _slots(doc):
    """(container, key, value) for every value inside doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield doc, key, value
        yield from _slots(value)


def _near(value):
    """Values of another type, or at an edge of the schema, for a leaf."""
    if isinstance(value, str):
        return ["", value.upper(), 1, [value]]
    if isinstance(value, (int, float)):
        return [True, float(value), value + 0.5, -value - 1, NAN, INF, -INF, str(value)]
    return [0, ""]


_KINDS = {
    "near": lambda v: not isinstance(v, (dict, list)),
    "replace": lambda v: True,
    "delete": lambda v: True,
    "add": lambda v: isinstance(v, (dict, list)),
    "pop": lambda v: isinstance(v, list) and v,
}


@st.composite
def documents(draw):
    """A config or golden report with up to three mutations anywhere in it."""
    box = [copy.deepcopy(draw(st.sampled_from(CONFIGS) | st.sampled_from(REPORTS)))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["near", *_KINDS]))
        slots = [slot for slot in _slots(box) if _KINDS[kind](slot[2])]
        if not slots:
            continue
        container, key, value = draw(st.sampled_from(slots))
        if kind == "near":
            container[key] = draw(st.sampled_from(_near(value)))
        elif kind == "replace":
            container[key] = draw(VALUES)
        elif kind == "delete" and container is not box:
            del container[key]
        elif kind == "add" and isinstance(value, dict):
            value[draw(st.sampled_from(KEYS))] = draw(VALUES)
        elif kind == "add":
            value.append(draw(VALUES))
        elif kind == "pop":
            value.pop()
    return box[0]


@settings(max_examples=400, deadline=None)
@given(documents())
def test_walker_agrees_with_jsonschema(doc):
    assert config._conforms(doc, SCHEMA) == VALIDATOR.is_valid(doc)


def _edits(value, root):
    """Each single edit of a slot holding value, as a function of (container, key)."""
    if isinstance(value, dict):
        yield lambda c, k: c[k].update(surprise=1)
    elif isinstance(value, list):
        yield lambda c, k: c[k].append(c[k][-1] if c[k] else 0)
        if value:
            yield lambda c, k: c[k].pop()
    else:
        for new in _near(value):
            yield lambda c, k, new=new: c.__setitem__(k, new)
    if not root:
        yield lambda c, k: c.__delitem__(k)


def test_walker_agrees_with_jsonschema_one_edit_from_each_config():
    # each single edit of each value of each config, so that no rule of the
    # walker depends on a lucky draw
    for base in CONFIGS:
        for i, (_, _, value) in enumerate(_slots([base])):
            for edit in _edits(value, root=i == 0):
                box = copy.deepcopy([base])
                container, key, _ = list(_slots(box))[i]
                edit(container, key)
                assert config._conforms(box[0], SCHEMA) == VALIDATOR.is_valid(box[0]), box[0]


def test_a_false_rejection_still_loads(tmp_path, monkeypatch):
    # jsonschema decides whenever the walker says no
    monkeypatch.setattr(config, "_conforms", lambda data, schema: False)
    cfg = load_config(_write(tmp_path, _with_section()))
    assert cfg.section("s").denominator_index == 1


def test_accepting_configs_does_not_import_jsonschema():
    script = """
import contextlib, io, sys
import contactmech
from contactmech import cli
from contactmech.config import bundled_config_path, load_config
paths = sorted(bundled_config_path("darboux-pz").parent.glob("*.json"))
for path in paths:
    load_config(path)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        print(path.name, cli.main(["check", str(path)]), file=sys.__stdout__)
print(sorted(m for m in sys.modules if m.split(".")[0] in ("jsonschema", "referencing")))
"""
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out[:-1] == [
        "darboux-5d-involutive.json 0", "darboux-5d-noninvolutive.json 1", "darboux-pz.json 0",
    ]
    assert out[-1] == "[]"
