"""The section kernel against the tree walk it replaced.

`SectionSpec` takes chi and d chi / d Lambda from one call of its
components' fused kernel.  The reference here is the per-component walk
it replaced: `evaluate` for chi and each component's own
`gradient_kernel` for the Jacobian rows.  On every bundled and golden
section and on the n = 2 section of the acceptance tests, at seeded
Lambda of both signs, both slices must be bitwise the reference's; where
a component leaves its domain, both must raise the reference's
EvaluationDomainError, with its message and node.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from contactmech import cli
from contactmech.config import bundled_config_path, load_config
from contactmech.expressions import EvaluationDomainError, evaluate, gradient_kernel
from contactmech.integrability import SectionError, _detect_sign
from test_acceptance import N2_SECTION

GOLDEN = Path(__file__).parent / "data" / "golden"
BUNDLED = bundled_config_path("darboux-pz").parent


def _sections():
    """(id, section) of every section of a bundled or golden config, and the n = 2 one."""
    found = []
    for path in sorted(BUNDLED.glob("*.json")) + sorted(GOLDEN.glob("*.json")):
        data = json.loads(path.read_text())
        if isinstance(data, dict) and "sections" in data:
            config = load_config(path)
            found += [(f"{config.name}-{name}", s) for name, s in config.sections.items()]
    return found + [("n2-graph-z", N2_SECTION)]


SECTIONS = _sections()


def _walked(section, lam):
    """chi and its Jacobian by the per-component walk: `evaluate` and `gradient_kernel`."""
    env = dict(zip(section.params, map(float, lam)))
    chi = np.array([evaluate(c, env) for c in section.components])
    rows = [gradient_kernel(c, section.params)(list(map(float, lam)))[1]
            for c in section.components]
    return chi, np.array(rows, dtype=float).reshape(len(section.components), -1)


def _raised(call):
    with pytest.raises(EvaluationDomainError) as info:
        call()
    return str(info.value), info.value.node


def test_every_section_is_collected():
    names = [name for name, _ in SECTIONS]
    assert {"darboux-pz-graph-z", "darboux-pz-graph-p", "rescaled-pz-graph-z"} <= set(names)


@pytest.mark.parametrize("section", [s for _, s in SECTIONS], ids=[n for n, _ in SECTIONS])
def test_chi_and_jacobian_are_the_walks_bitwise(section):
    rng = np.random.default_rng(36)
    lo, hi = section.domain[:, 0], section.domain[:, 1]
    for sign in (1.0, -1.0):
        for lam in sign * rng.uniform(lo, hi, size=(40, len(section.params))):
            chi, jacobian = _walked(section, lam)
            assert section.chi_at(lam).tobytes() == chi.tobytes()
            assert section.chi_jacobian_at(lam).tobytes() == jacobian.tobytes()


def test_a_domain_failure_is_the_walks_error(pz_config, pz_symp):
    # graph-z's second component is L1 / L2
    section, lam = pz_config.section("graph-z"), [1.5, 0.0]
    env = dict(zip(section.params, lam))
    want = _raised(lambda: [evaluate(c, env) for c in section.components])
    assert want == _raised(lambda: [gradient_kernel(c, section.params)(lam)
                                    for c in section.components])
    assert want[0] == "division by zero in 'L1 / L2'"
    assert _raised(lambda: section.chi_at(lam)) == want
    assert _raised(lambda: section.chi_jacobian_at(lam)) == want
    # both signs of that Lambda fail the domain, so neither covers the ray
    with pytest.raises(SectionError, match=r"does not cover the ray of F = \[1\.5, 0\.0\]"):
        _detect_sign(pz_symp, section, lam)


def test_the_section_kernel_binds_at_the_first_evaluation(capsys):
    # building a config and the commands that use no section compile no
    # section kernel; the first chi binds it once, and the Jacobian reuses it
    path = str(bundled_config_path("darboux-pz"))
    cli._config.cache_clear()  # a config built by an earlier command may have bound it
    for command in (["check", path, "--samples", "3"], ["coisotropy", path, "--lambda", "1,1", "--points", "2"],
                    ["symplectize-verify", path, "--samples", "3"]):
        assert cli.main(command) == 0
    capsys.readouterr()
    config = cli._config(cli.config._read(path), path)
    section = config.section("graph-z")
    assert all("_fused" not in vars(s) for s in config.sections.values())
    section.chi_at([1.0, 2.0])
    kernel = vars(section)["_fused"]
    section.chi_jacobian_at([1.0, 2.0])
    assert vars(section)["_fused"] is kernel
    assert kernel.__code__.co_filename.startswith("<contactmech kernel ")
