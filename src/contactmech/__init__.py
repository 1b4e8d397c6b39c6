"""Numerical contact Hamiltonian mechanics.

Charts with a contact coframe, Reeb and Hamiltonian fields, Jacobi
brackets, the symplectization with its lifted Poisson structure, flow
integration, and diagnostics for complete integrability: involution,
rank, coisotropy of ray preimages, horizontal sections, and numerical
action-angle coordinates.
"""

__version__ = "0.1.0"

from .expressions import (
    Expr,
    Jet2,
    ExpressionError,
    ExpressionSyntaxError,
    UnknownSymbolError,
    EvaluationDomainError,
    parse,
    to_string,
    free_variables,
    evaluate,
    eval_jet2,
)
from .geometry import (
    ContactChart,
    ContactSystem,
    GeometryError,
    ContactConditionError,
    ConformalFactorError,
    conformal_rescale,
    contact_condition_check,
)
from .symplectization import (
    SympChart,
    SympSystem,
    SymplectizationError,
    SingularStructureError,
    symplectize,
    lift_check,
)
from .flows import (
    IntegratorConfig,
    Trajectory,
    FlowError,
    integrate,
    flow_map,
    group_action,
)
from .integrability import (
    RayTarget,
    SectionSpec,
    ActionAngleResult,
    IntegrabilityError,
    RayProjectionError,
    NewtonDivergenceError,
    SectionError,
    involution_check,
    rank_check,
    ray_project,
    coisotropy_check,
    tangency_check,
    verify_section,
    period_detect,
    angle_solve,
    darboux_verify,
)
from .config import SystemConfig, ConfigError, load_config, bundled_config_path

__all__ = [name for name in dir() if not name.startswith("_")]
