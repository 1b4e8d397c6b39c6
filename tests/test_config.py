import json

import jsonschema
import numpy as np
import pytest

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
    data = _variant(integrator={"method": "rk4", "step": 0.005})
    cfg = load_config(_write(tmp_path, data))
    assert cfg.integrator.method == "rk4"
    assert cfg.integrator.step == 0.005


def test_integrator_schema_rejects_bad_method(tmp_path):
    data = _variant(integrator={"method": "euler"})
    with pytest.raises(ConfigError):
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
