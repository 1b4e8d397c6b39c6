"""The public surface: every exported name exists, and the package's list is reviewed.

A stale entry in a module's `__all__` breaks `from module import *`,
which `import contactmech` does not run.  The package's own list is
spelled out below, so that a name added to or removed from the public
surface shows up in this file's diff.
"""

import importlib
import pkgutil

import pytest

import contactmech

MODULES = sorted(info.name for info in pkgutil.iter_modules(contactmech.__path__))

PUBLIC = [
    "ActionAngleResult", "ConfigError", "ConformalFactorError", "ContactChart",
    "ContactConditionError", "ContactSystem", "EvaluationDomainError", "Expr",
    "ExpressionError", "ExpressionSyntaxError", "FlowError", "GeometryError",
    "IntegrabilityError", "IntegratorConfig", "Jet2", "NewtonDivergenceError",
    "RayProjectionError", "RayTarget", "SectionError", "SectionSpec",
    "SingularStructureError", "SympChart", "SympSystem", "SymplectizationError",
    "SystemConfig", "Trajectory", "UnknownSymbolError", "angle_solve",
    "bundled_config_path", "coisotropy_check", "config", "conformal_rescale",
    "contact_condition_check", "darboux_verify", "eval_jet2", "evaluate", "expressions",
    "flow_map", "flows", "free_variables", "geometry", "group_action", "integrability",
    "integrate", "involution_check", "lift_check", "load_config", "parse", "period_detect",
    "rank_check", "ray_project", "symplectization", "symplectize", "tangency_check",
    "to_string", "verify_section",
]


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_every_exported_name_exists(name):
    module = contactmech if name == "__init__" else importlib.import_module(f"contactmech.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing


def test_package_exports_the_reviewed_names():
    assert sorted(contactmech.__all__) == PUBLIC
