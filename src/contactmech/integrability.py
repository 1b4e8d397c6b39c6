"""Integrability diagnostics and numerical action-angle coordinates.

Given n+1 candidate integrals F = (f_0..f_n) on a (2n+1)-dimensional
contact chart, this module checks the structure theory numerically:

* involution_check / rank_check: {f_a, f_b} = 0 and rank TF >= n on
  sampled points.
* ray_project: Gauss-Newton projection onto the ray preimage
  M_ray = {F(x) = r * Lambda, r > 0}.
* coisotropy_check: the cyclic sums
  f_a {f_b, f_c} + f_c {f_a, f_b} + f_b {f_c, f_a} on ray points.
* tangency_check: contraction of the Hamiltonian fields with the
  two-forms f_a df_b - f_b df_a on ray points.
* verify_section / angle_solve / darboux_verify: horizontal sections of
  the lifted moment map on the symplectization, the Newton solve for the
  angle coordinates y^a in x = Phi(y; chi(F(x))), and the verification,
  with the angles differentiated exactly through the variational
  equation of the group action, that dy^d - sum_j Atilde_j dy^j
  reproduces the rescaled contact form -eta / A_d.
* period_detect: smallest positive return time of a flow, if any.

The sampled checks take the jets of the integrals at all their points as
one stack (`ContactSystem.jet_stack`) and evaluate each check in one
array pass.  The worst pair, triple or point is the first strict maximum
in the order of a loop over the points, then the pairs a < b, the
triples (a, b, c), or c then a < b for tangency; a check whose worst
value is 0 reports (0, 0) or (0, 0, 0) and the first point.  A failing
point raises in sample order.  Ray projection runs point by point.

Angle conventions: a declared section may satisfy F(chi(Lambda)) equal
to +Lambda or -Lambda; the sign is detected and the base point uses the
reparameterized true section chi(sign * Lambda).  chi and d chi / d Lambda
are one call of the section's fused kernel, bound at first use, and each
base point passes one check (`SectionSpec._base`).  Actions A_a are the
basis-weighted integral values at the query point; the relabeling
denominator is the section's declared index, else argmax |A_a|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from ._programs import _eliminate, _fdot, _names, _sum, _tup, program
from .expressions import EvaluationDomainError, Expr, fused_kernel
from .flows import (
    FlowError,
    IntegratorConfig,
    _calling,
    _compose,
    flow_map,
    integrate,
    variational_group_action,
)
from .geometry import (
    ContactSystem,
    _as_expr,
    _bounds,
    _check_points,
    _dot,
    _first,
    _first_max,
    _in_sample_order,
    _max_abs,
    _norm,
    _pairs,
)
from .symplectization import SympSystem, symplectize

__all__ = [
    "IntegrabilityError",
    "RayProjectionError",
    "NewtonDivergenceError",
    "SectionError",
    "RayTarget",
    "SectionSpec",
    "ActionAngleResult",
    "InvolutionReport",
    "RankReport",
    "CoisotropyReport",
    "TangencyReport",
    "SectionReport",
    "DarbouxReport",
    "involution_check",
    "rank_check",
    "ray_project",
    "coisotropy_check",
    "tangency_check",
    "verify_section",
    "period_detect",
    "angle_solve",
    "darboux_verify",
]


class IntegrabilityError(RuntimeError):
    """Base class for diagnostic failures."""


class RayProjectionError(IntegrabilityError):
    """Gauss-Newton could not land on the ray preimage with r > 0."""


class NewtonDivergenceError(IntegrabilityError):
    """The angle solve did not converge."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class SectionError(IntegrabilityError):
    """A section fails to cover a required ray or leaves the chart."""


# ---------------------------------------------------------------------------
# Targets and sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RayTarget:
    """A ray direction Lambda in integral space (up to positive scale)."""

    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "direction", np.asarray(self.direction, dtype=float).copy()
        )
        if self.direction.ndim != 1 or not np.any(self.direction):
            raise ValueError("ray direction must be a nonzero vector")
        # a non-finite direction fails every membership test, which then passes
        if not np.isfinite(self.direction).all():
            raise ValueError(f"ray direction must be finite, got {self.direction.tolist()}")
        lam = self.direction.tolist()
        if _fdot(lam, lam) == 0.0:  # ray_project divides by it
            raise ValueError(f"ray direction {lam} has squared norm 0.0 in floats; rescale it")


class SectionSpec:
    """Parametric section chi of the lifted moment map.

    chi and d chi / d Lambda are slices of one call of the components'
    `fused_kernel`, bound at first use, which raises the first error that
    evaluating the components in order would raise; base points pass one
    check, `_base`.

    Args:
        name: identifier used in configs and reports.
        params: names of the ray parameters (one per integral).
        components: 2n+2 expressions for the chart components of chi,
            functions of the parameters only.
        domain: per-parameter (low, high) sampling bounds.
        denominator_index: index of the action designated nonvanishing on
            this section; None falls back to argmax |A_a| per query.
    """

    def __init__(
        self,
        name: str,
        params: Sequence[str],
        components: Sequence[Expr | str],
        domain: Mapping[str, Sequence[float]] | np.ndarray,
        denominator_index: int | None = None,
    ):
        self.name = str(name)
        self.params = tuple(params)
        if len(set(self.params)) != len(self.params):
            raise ValueError("section parameter names must be unique")
        self.components = tuple(
            _as_expr(c, self.params, "section component") for c in components
        )
        self.domain = _bounds(domain, self.params, "section domain", "parameters")
        if denominator_index is not None and not 0 <= denominator_index < len(self.params):
            raise ValueError(f"denominator index {denominator_index} out of range")
        self.denominator_index = denominator_index

    @functools.cached_property
    def _fused(self) -> Callable:
        """The components' `fused_kernel` over the parameters, fetched at first use."""
        return fused_kernel(self.components, self.params)

    def _jet(self, lam) -> np.ndarray:
        """Row A holds chi_A(Lambda) and its gradient, from one call of the fused kernel."""
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (len(self.params),):
            raise ValueError(f"section {self.name!r} takes {len(self.params)} parameters, got {lam}")
        return np.reshape(self._fused(lam.tolist()), (len(self.components), len(self.params) + 1))

    def _base(self, lam, dim: int, where: str | None) -> np.ndarray | None:
        """`_jet` at Lambda, checked as a base point on a symplectization of dimension dim.

        A wrong component count raises SectionError; so does a fiber <= 0 or a
        non-finite chi ("leaves the chart " + where, formatted with the
        fiber), which returns None instead where `where` is None.
        """
        if len(self.components) != dim:
            raise SectionError(f"section {self.name!r} has {len(self.components)} components, "
                               f"chart needs {dim}")
        jet = self._jet(lam)
        if jet[-1, 0] > 0.0 and np.isfinite(jet[:, 0]).all():
            return jet
        if where is None:
            return None
        raise SectionError(f"section {self.name!r} leaves the chart {where.format(jet[-1, 0])}")

    def chi_at(self, lam) -> np.ndarray:
        return self._jet(lam)[:, 0]

    def chi_jacobian_at(self, lam) -> np.ndarray:
        """Columns are d chi / d Lambda_a; shape (components, params)."""
        return self._jet(lam)[:, 1:]


# report records are NamedTuples, as in symplectization; the CLI prints their _asdict()
class ActionAngleResult(NamedTuple):
    """Solved angle coordinates and action data at one query point.

    y and A are indexed like the system integrals.  A_tilde lists
    -A_j / A_d for j != d in index order, d the denominator index.
    M_matrix is the basis whose rows weight the integrals into the
    generators; residual and iterations describe the Newton solve,
    failed_trials counts its line-search trials whose flow raised and
    were halved, and lstsq_steps its steps that fell back to
    np.linalg.lstsq because the generator fields were (nearly) dependent.
    """

    y: np.ndarray
    A: np.ndarray
    A_tilde: np.ndarray
    denominator_index: int
    M_matrix: np.ndarray
    sign: int
    residual: float
    iterations: int
    failed_trials: int = 0
    lstsq_steps: int = 0


# ---------------------------------------------------------------------------
# Sampled checks
# ---------------------------------------------------------------------------

class InvolutionReport(NamedTuple):
    max_abs_bracket: float
    worst_pair: tuple[int, int]
    worst_point: np.ndarray
    tolerance: float
    n_samples: int
    seed: int | None
    passed: bool


class RankReport(NamedTuple):
    min_rank: int
    required_rank: int
    worst_point: np.ndarray
    tolerance: float
    n_samples: int
    seed: int | None
    passed: bool


class CoisotropyReport(NamedTuple):
    max_abs_sum: float
    worst_triple: tuple[int, int, int]
    worst_point: np.ndarray
    max_membership_residual: float
    tolerance: float
    n_points: int
    passed: bool


class TangencyReport(NamedTuple):
    max_abs_contraction: float
    worst_triple: tuple[int, int, int]
    worst_point: np.ndarray
    tolerance: float
    n_points: int
    passed: bool


def _sample(system: ContactSystem, count: int, seed: int | None) -> np.ndarray:
    return system.sample(np.random.default_rng(seed), count)


def involution_check(
    system: ContactSystem,
    n_samples: int = 100,
    tolerance: float = 1e-8,
    seed: int | None = 0,
    points: np.ndarray | None = None,
) -> InvolutionReport:
    """Max |{f_a, f_b}| over sampled points and integral pairs."""
    points = _check_points("involution_check", points, lambda: _sample(system, n_samples, seed))
    return _in_sample_order(
        lambda xs: _involution(system, xs, system._jet_stack(xs), tolerance, seed), points
    )


def _involution(system, points, jets, tolerance, seed) -> InvolutionReport:
    """involution_check over the jet stack of the integrals at the points.

    The worst pair and point are the first strict maximum over points,
    then pairs a < b.
    """
    a, b = _pairs(len(system.integrals))
    worst, at = _first_max(np.abs(system.chart.bracket_matrix(jets)[:, a, b]))
    if at is None:
        pair, where = (0, 0), points[0]
    else:
        i, k = at
        pair, where = (int(a[k]), int(b[k])), points[i]
    return InvolutionReport(
        max_abs_bracket=worst,
        worst_pair=pair,
        worst_point=np.asarray(where),
        tolerance=tolerance,
        n_samples=len(points),
        seed=seed,
        passed=bool(worst <= tolerance),
    )


def rank_check(
    system: ContactSystem,
    n_samples: int = 100,
    tolerance: float = 1e-8,
    seed: int | None = 0,
    points: np.ndarray | None = None,
) -> RankReport:
    """Min over samples of rank TF (SVD threshold relative to sigma_max)."""
    points = _check_points("rank_check", points, lambda: _sample(system, n_samples, seed))
    return _rank(system, points, system.gradient_stack(points)[1], tolerance, seed)


def _rank(system, points, jacobians, tolerance=1e-8, seed=None) -> RankReport:
    """rank_check over the stack of TF (N, m, dim), whose rows are the gradients.

    The worst point is the first strict minimum of the rank below m.
    """
    sigma = np.linalg.svd(jacobians, compute_uv=False)
    top = sigma[:, :1] if sigma.shape[1] else np.zeros((len(sigma), 1))
    ranks = np.sum(sigma > tolerance * np.maximum(top, 1.0), axis=1)
    i = ranks.argmin()
    min_rank, where = len(system.integrals), points[0]
    if ranks[i] < min_rank:
        min_rank, where = int(ranks[i]), points[i]
    return RankReport(
        min_rank=min_rank,
        required_rank=system.chart.n,
        worst_point=np.asarray(where),
        tolerance=tolerance,
        n_samples=len(points),
        seed=seed,
        passed=bool(min_rank >= system.chart.n),
    )


# ---------------------------------------------------------------------------
# Ray preimages
# ---------------------------------------------------------------------------

def _membership(target: RayTarget, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares ray residual and the fitted scale r* of integral values F (..., m)."""
    lam = target.direction
    r_star = _dot(F, lam) / _fdot(lam, lam)
    return _norm(F - r_star[..., None] * lam), r_star


def _gram(m: int, n: int, rhs: Sequence[str], refuse: str) -> list[str]:
    """Source solving [V V^T | rhs] into s<a>_<m> for m float vectors v<a>_<k> of length n.

    Each entry v_i . v_j is summed as `_fdot` sums, and the elimination is
    `_eliminate`'s.  At a pivot of at most 1e-8 times the largest diagonal
    entry, where the vectors are (nearly) dependent, it runs line `refuse`.
    """
    lines = []
    for i in range(m):  # mirrored below the diagonal
        lines += [f"a{i}_{j} = a{j}_{i}" for j in range(i)]
        lines += [f"a{i}_{j} = {_sum([f'v{i}_{k} * v{j}_{k}' for k in range(n)])}"
                  for j in range(i, m)]
        lines.append(f"a{i}_{m} = {rhs[i]}")
    lines.append(f"tiny = 1e-8 * max(({''.join(f'a{i}_{i}, ' for i in range(m))}))")
    return lines + _eliminate(m, m + 1, lambda k: [f"if abs(a{k}_{k}) <= tiny:", f"    {refuse}"])


def _vectors(name: str, m: int, n: int) -> str:
    """Source unpacking m vectors of n floats from name into the locals v<a>_<k>."""
    rows = "".join(f"{_tup(f'v{a}_', n)}, " for a in range(m))
    return f"{rows}= {name}"


@functools.lru_cache(maxsize=None)
def _angle_step_program(m: int, dim: int) -> Callable:
    """`step(X, r)`, angle_solve's Newton step, as "<contactmech angle-step m=M dim=DIM>".

    The m vectors X are the columns of J, the generator fields at the
    endpoint, and r = x - endpoint.  It solves the normal equations
    (J^T J) delta = J^T r by `_gram` and returns delta, or None where
    J is (nearly) rank-deficient.
    """
    rhs = [_sum([f"v{a}_{k} * r{k}" for k in range(dim)]) for a in range(m)]
    lines = [_vectors("X", m, dim), f"{_tup('r', dim)} = r", *_gram(m, dim, rhs, "return None")]
    source = ["def step(X, r):", *[f"    {line}" for line in lines],
              f"    return [{', '.join(f's{a}_{m}' for a in range(m))}]"]
    return program(f"<contactmech angle-step m={m} dim={dim}>", source, {}, "step")


class _Refused(Exception):
    """The Gram step of a ray projection met a (nearly) rank-deficient J."""


def _lstsq_step(TF: Sequence[Sequence[float]], lam: Sequence[float], g: Sequence[float]) -> list:
    """The least-norm (dx, dr) of [TF | -Lambda] (dx, dr) = -g by np.linalg.lstsq."""
    J = np.hstack([TF, -np.array(lam)[:, None]])
    return np.linalg.lstsq(J, -np.array(g), rcond=None)[0].tolist()


@functools.lru_cache(maxsize=None)
def _ray_program(m: int, dim: int) -> Callable:
    """`project(kernel, x, lam, converged, max_iter)`: ray_project's Gauss-Newton loop.

    On float locals, from r = max(F . Lambda / Lambda . Lambda, 1e-3): the
    step (dx, dr) = J^T y, J J^T y = -(F - r Lambda) by `_gram` on the rows
    (TF_a, Lambda_a) of J (`_lstsq_step` where it refuses), halved up to 25
    times past the fused kernel's EvaluationDomainError or a residual that
    does not decrease.  Returns (x, r, residual), x None where a line search
    fails or max_iter iterations pass.  As "<contactmech ray-project m=M dim=DIM>".
    """
    def largest(names: list[str]) -> str:  # `_max_abs`: NaN if any entry is
        nan = " or ".join(f"{u} != {u}" for u in names)
        return f"nan if {nan} else max(({''.join(f'abs({u}), ' for u in names)}))"

    lam = [f"v{a}_{dim}" for a in range(m)]  # Lambda ends each row v<a>_ of J
    rows = "".join(f"{_tup(f'v{a}_', dim)}, " for a in range(m))  # TF
    dx = [_sum([f"v{a}_{k} * s{a}_{m}" for a in range(m)]) for k in range(dim + 1)]
    # a trial overwrites TF, which only an accepted trial's next step reads
    jet, trial = ("".join(f"{f}{a}, {_names(f'v{a}_', dim)}, " for a in range(m)) for f in "fF")
    search = [*(f"y{k} = x{k} + step * d{k}" for k in range(dim)), "rt = r + step * dr",
              "try:", f"    {trial}= kernel([{_names('y', dim)}])",
              "except EvaluationDomainError:", "    step *= 0.5", "    continue",
              *(f"h{a} = F{a} - rt * {lam[a]}" for a in range(m)),
              f"hn = {largest([f'h{a}' for a in range(m)])}",
              "if hn < gn:",
              *(f"    x{k} = y{k}" for k in range(dim)), "    r = rt",
              *(f"    g{a} = h{a}" for a in range(m)), "    gn = hn", "    break", "step *= 0.5"]
    loop = ["if gn <= converged:", f"    return [{_names('x', dim)}], r, gn", "try:",
            *(f"    {line}" for line in _gram(m, dim + 1, [f"-g{a}" for a in range(m)],
                                              "raise _Refused")),
            *(f"    d{k} = {dx[k]}" for k in range(dim)), f"    dr = -({dx[dim]})",
            "except _Refused:",
            f"    {_names('d', dim)}, dr = _lstsq_step(({rows}), [{', '.join(lam)}], "
            f"[{_names('g', m)}])",
            "step = 1.0", "for _ in range(25):", *(f"    {line}" for line in search),
            "else:", "    break"]
    body = [f"{_names('x', dim)}, = x", f"{', '.join(lam)}, = lam", f"{jet}= kernel(x)",
            f"r = max(({_sum([f'f{a} * {lam[a]}' for a in range(m)])}) / "
            f"({_sum([f'{u} * {u}' for u in lam])}), 0.001)",
            *(f"g{a} = f{a} - r * {lam[a]}" for a in range(m)),
            f"gn = {largest([f'g{a}' for a in range(m)])}",
            "for _ in range(max_iter):", *(f"    {line}" for line in loop), "return None, r, gn"]
    source = ["def project(kernel, x, lam, converged, max_iter):", *(f"    {line}" for line in body)]
    namespace = {"EvaluationDomainError": EvaluationDomainError, "_Refused": _Refused,
                 "_lstsq_step": _lstsq_step, "nan": math.nan}
    return program(f"<contactmech ray-project m={m} dim={dim}>", source, namespace, "project")


def ray_project(
    system: ContactSystem,
    target: RayTarget,
    seed_point,
    tolerance: float = 1e-10,
    max_iter: int = 50,
) -> tuple[np.ndarray, float]:
    """Gauss-Newton solve of F(x) = r * Lambda with r > 0.

    Returns the landed point and scale.  The step solves the
    underdetermined linearization [TF | -Lambda] (dx, dr) = r Lambda - F by
    least norm, through J J^T over floats, or by np.linalg.lstsq where J is
    (nearly) rank-deficient.  It is halved on residual increase; a NaN
    residual is never converged nor a decrease.  The loop is one generated
    program (`_ray_program`) that calls `system._fused` at every point.
    """
    lam = target.direction.tolist()
    x = system.chart.point(seed_point).tolist()
    top = _max_abs(lam)
    converged = tolerance * max(1.0, top)
    x, r, gn = _ray_program(len(lam), len(x))(system._fused, x, lam, converged, max_iter)
    if x is None:
        raise RayProjectionError(
            f"no convergence onto the ray (residual {gn:.3e} after {max_iter} iterations)"
        )
    if r <= 0.0:
        raise RayProjectionError(f"landed at nonpositive scale r = {r:.3e}")
    if r * top <= converged:  # at the apex: r Lambda is 0 within tolerance
        raise RayProjectionError(f"landed at the apex F = 0 (scale r = {r:.3e})")
    return np.array(x), r


def _ray_points(
    system: ContactSystem,
    target: RayTarget,
    n_points: int,
    seed: int | None,
) -> tuple[np.ndarray, int, int]:
    """Ray points from region samples, and the ray_project calls made and failed."""
    rng = np.random.default_rng(seed)
    found: list[np.ndarray] = []
    attempts = 0
    while len(found) < n_points and attempts < 20 * n_points:
        seeds = system.sample(rng, n_points)
        for s in seeds:
            attempts += 1
            try:
                x, _ = ray_project(system, target, s)
            except (RayProjectionError, EvaluationDomainError):
                continue
            found.append(x)
            if len(found) == n_points:
                break
    if len(found) < n_points:
        raise RayProjectionError(
            f"only {len(found)} of {n_points} ray points found from region samples"
        )
    return np.array(found), attempts, attempts - len(found)


def coisotropy_check(
    system: ContactSystem,
    target: RayTarget,
    points: np.ndarray | None = None,
    n_points: int = 25,
    tolerance: float = 1e-8,
    membership_tolerance: float = 1e-6,
    seed: int | None = 0,
) -> CoisotropyReport:
    """Cyclic sums f_a {f_b, f_c} + f_c {f_a, f_b} + f_b {f_c, f_a}.

    Evaluated over all index triples on points of the ray preimage
    (projected from region samples when not supplied).  The sums are
    totally antisymmetric, so repeated indices vanish identically and
    systems with fewer than three integrals pass vacuously.
    """
    points = _check_points(
        "coisotropy_check", points, lambda: _ray_points(system, target, n_points, seed)[0]
    )
    return _in_sample_order(
        lambda xs: _coisotropy(
            system, target, xs, system._jet_stack(xs), tolerance, membership_tolerance
        ),
        points,
    )


def _coisotropy(
    system, target, points, jets, tolerance, membership_tolerance=1e-6
) -> CoisotropyReport:
    """coisotropy_check over the jet stack of the integrals at the points.

    A point off the ray preimage raises IntegrabilityError.  The worst
    triple and point are the first strict maximum over points, then
    (a, b, c) over all m^3 triples.
    """
    f = jets.values
    member, r_star = _membership(target, f)
    off = _first((member > membership_tolerance * np.fmax(1.0, _norm(f))) | (r_star <= 0.0))
    if off is not None:
        raise IntegrabilityError(
            f"point {points[off].tolist()} is not on the ray preimage "
            f"(residual {member[off]:.3e}, r* {r_star[off]:.3e})"
        )
    bk = system.chart.bracket_matrix(jets)
    fa, fb, fc = f[:, :, None, None], f[:, None, :, None], f[:, None, None, :]
    sums = np.abs(fa * bk[:, None] + fc * bk[:, :, :, None] + fb * bk.swapaxes(1, 2)[:, :, None])
    worst, at = _first_max(sums)
    if at is None:
        triple, where = (0, 0, 0), points[0]
    else:
        triple, where = tuple(map(int, at[1:])), points[at[0]]
    return CoisotropyReport(
        max_abs_sum=worst,
        worst_triple=triple,
        worst_point=np.asarray(where),
        max_membership_residual=float(np.fmax.reduce(member, initial=0.0)),
        tolerance=tolerance,
        n_points=len(points),
        passed=bool(worst <= tolerance),
    )


def tangency_check(
    system: ContactSystem,
    target: RayTarget,
    points: np.ndarray | None = None,
    n_points: int = 25,
    tolerance: float = 1e-8,
    seed: int | None = 0,
) -> TangencyReport:
    """Contractions f_a X_c(f_b) - f_b X_c(f_a) on ray preimage points.

    Vanishing certifies the Hamiltonian fields are tangent to the
    two-forms' kernel along the ray preimage, the involutive route to
    its coisotropy.
    """
    points = _check_points(
        "tangency_check", points, lambda: _ray_points(system, target, n_points, seed)[0]
    )
    return _tangency(system, points, system.jet_stack(points), tolerance)


def _tangency(system, points, jets, tolerance) -> TangencyReport:
    """tangency_check over the jet stack of the integrals at the points; no ray needed.

    The worst triple and point are the first strict maximum over points,
    then c, then pairs a < b.
    """
    f = jets.values
    # rates[:, c, b] = X_c(f_b)
    rates = _dot(jets.gradients[:, None], jets.fields[:, :, None])
    a, b = _pairs(f.shape[1])
    contractions = np.abs(f[:, None, a] * rates[:, :, b] - f[:, None, b] * rates[:, :, a])
    worst, at = _first_max(contractions)
    if at is None:
        triple, where = (0, 0, 0), points[0]
    else:
        i, c, k = at
        triple, where = (int(a[k]), int(b[k]), int(c)), points[i]
    return TangencyReport(
        max_abs_contraction=worst,
        worst_triple=triple,
        worst_point=np.asarray(where),
        tolerance=tolerance,
        n_points=len(points),
        passed=bool(worst <= tolerance),
    )


# ---------------------------------------------------------------------------
# Sections and angle coordinates
# ---------------------------------------------------------------------------

class SectionReport(NamedTuple):
    name: str
    sign: int
    max_target_residual: float
    residual_plus: float
    residual_minus: float
    max_horizontality: float
    tolerance: float
    n_samples: int
    passed: bool


def verify_section(
    symp_system: SympSystem,
    section: SectionSpec,
    n_samples: int = 25,
    tolerance: float = 1e-8,
    seed: int | None = 0,
) -> SectionReport:
    """Check F(chi(Lambda)) = +/-Lambda and chi*theta = 0 on the domain.

    The target identity is measured under both signs; the report records
    the convention that holds (sign 0 when neither does).  A NaN residual
    is kept in the report and fails: its sign reads 0, or its section is
    not horizontal.  At least one sample is required, so that no verdict
    passes without evidence.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    lo, hi = section.domain[:, 0], section.domain[:, 1]
    lams = rng.uniform(lo, hi, size=(n_samples, len(section.params)))
    res_plus = res_minus = horiz = 0.0
    for lam in lams:
        jet = section._base(lam, symp_system.dim, f"(fiber {{:.3e}} at Lambda = {lam.tolist()})")
        F = symp_system.integral_values(jet[:, 0])
        with np.errstate(invalid="ignore"):  # 0 * inf: a NaN, which the report keeps
            pullback = _dot(symp_system.chart.theta_at(jet[:, 0]), jet[:, 1:].T)
        # a NaN residual stays NaN, and fails the check
        res_plus = _max_abs([res_plus, *(F - lam).tolist()])
        res_minus = _max_abs([res_minus, *(F + lam).tolist()])
        horiz = _max_abs([horiz, *pullback.tolist()])
    if res_plus <= tolerance:
        sign = 1
    elif res_minus <= tolerance:
        sign = -1
    else:
        sign = 0
    return SectionReport(
        name=section.name,
        sign=sign,
        max_target_residual=min(res_plus, res_minus),
        residual_plus=res_plus,
        residual_minus=res_minus,
        max_horizontality=horiz,
        tolerance=tolerance,
        n_samples=n_samples,
        passed=bool(sign != 0 and horiz <= tolerance),
    )


def _detect_sign(
    symp_system: SympSystem, section: SectionSpec, F_x: Sequence[float]
) -> tuple[int, np.ndarray]:
    """Find s with F(chi(s * F_x)) = F_x (floats), skipping a sign off chi's domain or chart."""
    scale = max(1.0, _max_abs(F_x))
    for s in (1, -1):
        try:
            jet = section._base([s * v for v in F_x], symp_system.dim, None)
        except EvaluationDomainError:
            jet = None
        if jet is None:
            continue
        F_c = symp_system._fused(jet[:, 0].tolist())[:: symp_system.dim + 1]
        if _max_abs([u - v for u, v in zip(F_c, F_x)]) <= 1e-6 * scale:
            return s, jet[:, 0]
    raise SectionError(
        f"section {section.name!r} does not cover the ray of F = {list(map(float, F_x))}"
    )


def _generators(symp_system: SympSystem, M: np.ndarray) -> list[Expr]:
    """Integral combinations g_b = sum_c M[b, c] f_c as expressions."""
    gens: list[Expr] = []
    for row in M:
        term: Expr | None = None
        for c, coeff in enumerate(row):
            if coeff == 0.0:
                continue
            F = symp_system.integrals[c]
            piece = F if coeff == 1.0 else float(coeff) * F
            term = piece if term is None else term + piece
        gens.append(term)
    return gens


def angle_solve(
    symp_system: SympSystem,
    section: SectionSpec,
    x,
    config: IntegratorConfig | None = None,
    basis: np.ndarray | None = None,
    sign: int | None = None,
    y0: np.ndarray | None = None,
    newton_tolerance: float = 1e-10,
    max_iter: int = 60,
) -> ActionAngleResult:
    """Solve x = Phi(y; chi(sign * F(x))) for the angles y; sign is 1, -1 or None (detect).

    Damped Newton from y = 0 (or the warm start y0) with the exact
    Jacobian of the group action: the generators commute, so
    dPhi/dy_a = X_{g_a}(Phi(y)) and each iteration takes the lifted
    Hamiltonian fields at the current endpoint.  Commuting flows also
    give Phi(y + delta; b) = Phi(delta; Phi(y; b)), so each line-search
    trial flows only its increment from the current endpoint; the
    Jacobian above is exactly the derivative of that map at delta = 0.
    The generators must be in involution at x
    (|{g_a, g_b}| <= 1e-8 max(1, |F(x)|)), otherwise
    IntegrabilityError names the offending pair.  Steps halve up to 20
    times on residual increase, or when a trial flow raises FlowError,
    ValueError or EvaluationDomainError (counted in `failed_trials`); a
    step that finds no decrease raises NewtonDivergenceError.  The
    convergence target is newton_tolerance or the integrator's own error
    floor (10 rel_tol times the point scale), whichever is larger: the flow
    map cannot be resolved below its truncation error; a NaN residual
    never converges.

    The solve runs on lists of floats.  F(x) and the base integrals come
    from one call each of the systems' fused kernels.  The m generator
    field closures and flow steps are bound once per solve, through
    `symp_system.field_evaluator` and `symp_system._field`, which keep
    those of the system's own integrals, the identity basis's generators;
    the involution check pairs the closures with the generators' gradients
    at x, from one call of the generators' `fused_kernel` (with the
    identity basis, the integrals' call for F(x)), the Jacobian columns
    are those closures at the endpoint, and every trial flows the steps
    through `flows._compose`, which checks every time first, then each
    flow as `integrate` does (start point, early stop), and starts each
    flow from one step over its whole time:
    Newton's small final increments are then mostly single steps.
    The step solves the normal equations (J^T J) delta = J^T (x - endpoint)
    in a generated program (`_angle_step_program`); only where J is
    (nearly) rank-deficient does it fall back to `np.linalg.lstsq`,
    counted in `lstsq_steps`.

    Actions are A = M f(x_base) with the base integrals f; the relabeling
    denominator comes from the section (fallback: argmax |A_a|).
    """
    if sign not in (None, 1, -1):
        raise ValueError(f"sign must be 1, -1 or None, got {sign!r}")
    chart = symp_system.chart
    x = chart.point(x)
    cfg = config or IntegratorConfig()
    m = len(symp_system.integrals)
    if basis is None:
        M = np.eye(m)
    else:
        M = np.asarray(basis, dtype=float)
        if M.shape != (m, m):
            raise ValueError(f"basis must be {m} x {m}")
        if np.linalg.matrix_rank(M) < m:
            raise ValueError(f"basis matrix {M.tolist()} is singular")
    generators = list(symp_system.integrals) if basis is None else _generators(symp_system, M)
    fields = [symp_system.field_evaluator(G) for G in generators]
    steps = [_calling(symp_system._field(G), symp_system.dim) for G in generators]
    xs = x.tolist()
    flat = symp_system._fused(xs)
    F_x = list(flat[:: len(xs) + 1])
    # the involution check takes {g_a, g_b} = X_{g_a}(g_b) from the field
    # closures and the generators' gradients, from one call of their fused
    # kernel: with the identity basis the integrals', the call for F(x)
    bracket_tol = 1e-8 * max(1.0, _max_abs(F_x))
    if basis is not None:
        flat = fused_kernel(generators, chart.coordinates)(xs)
    grads = [flat[a * (len(xs) + 1) + 1 : (a + 1) * (len(xs) + 1)] for a in range(m)]
    for a in range(m - 1):
        field_a = fields[a](xs)
        for b in range(a + 1, m):
            bracket = _fdot(grads[b], field_a)
            if abs(bracket) > bracket_tol:
                raise IntegrabilityError(
                    f"generators {a} and {b} are not in involution at "
                    f"{xs} (|{{g_{a}, g_{b}}}| = {abs(bracket):.3e})"
                )

    if sign is None:
        s, base = _detect_sign(symp_system, section, F_x)
    else:
        s = int(sign)
        base = section._base([s * v for v in F_x], symp_system.dim, "at the base point")[:, 0]

    guards = symp_system.positive_indices
    step = _angle_step_program(m, len(xs))

    def phi(y: list, start: list) -> list:
        return _compose(steps.__getitem__, generators, y, start, cfg, guards, chart.coordinates)

    scale = max(1.0, _max_abs(xs))
    target = max(newton_tolerance, 10.0 * cfg.rel_tol * scale)

    y = [0.0] * m if y0 is None else np.asarray(y0, dtype=float).tolist()
    if len(y) != m:
        raise ValueError(f"need {m} times, got {len(y)}")
    end = phi(y, base.tolist())
    gn = _max_abs([e - u for e, u in zip(end, xs)])
    iterations = failed = fallbacks = 0
    while not gn <= target:  # a NaN residual must not read as converged
        if iterations >= max_iter:
            raise NewtonDivergenceError(
                f"no convergence after {max_iter} iterations (residual {gn:.3e})",
                gn,
                iterations,
            )
        iterations += 1
        # the endpoint keeps the fiber positive: the base has it, and every
        # flow guards it
        columns = [field(end) for field in fields]
        residual = [u - e for u, e in zip(xs, end)]
        delta = step(columns, residual)
        if delta is None:
            fallbacks += 1
            delta = np.linalg.lstsq(np.transpose(columns), residual, rcond=None)[0].tolist()
        lam = 1.0
        for _ in range(21):
            try:
                end_try = phi([lam * d for d in delta], end)
            except (FlowError, ValueError, EvaluationDomainError):
                failed += 1
                lam *= 0.5
                continue
            gn_try = _max_abs([e - u for e, u in zip(end_try, xs)])
            if gn_try <= (1.0 - 1e-4 * lam) * gn:
                break
            lam *= 0.5
        else:
            raise NewtonDivergenceError(
                f"stalled at residual {gn:.3e} after {iterations} iterations",
                gn,
                iterations,
            )
        y = [u + lam * d for u, d in zip(y, delta)]
        end, gn = end_try, gn_try

    f_base = np.array(symp_system.base._fused(xs[:-1])[:: len(xs)])
    A = _dot(M, f_base)
    if section.denominator_index is not None:
        d = section.denominator_index
    else:
        d = int(np.argmax(np.abs(A)))
    if abs(A[d]) < 1e-12:
        raise IntegrabilityError(
            f"action A_{d} vanishes at the query point (|A_d| = {abs(A[d]):.3e})"
        )
    A_tilde = np.array([-A[j] / A[d] for j in range(m) if j != d])
    return ActionAngleResult(
        y=np.array(y),
        A=A,
        A_tilde=A_tilde,
        denominator_index=d,
        M_matrix=M,
        sign=s,
        residual=gn,
        iterations=iterations,
        failed_trials=failed,
        lstsq_steps=fallbacks,
    )


class DarbouxReport(NamedTuple):
    max_residual: float
    worst_point: np.ndarray
    tolerance: float
    n_points: int
    passed: bool


def darboux_verify(
    system: ContactSystem,
    section: SectionSpec,
    n_points: int = 25,
    points: np.ndarray | None = None,
    tolerance: float = 1e-5,
    r_ref: float = 1.0,
    config: IntegratorConfig | None = None,
    basis: np.ndarray | None = None,
    seed: int | None = 0,
) -> DarbouxReport:
    """Check dy^d - sum_j Atilde_j dy^j = -eta / A_d at sampled points.

    Each point takes one angle solve under `config` and then the exact
    differential of the angles (see _darboux_covector).  The angles are
    fiberwise constant, so the lift uses the fixed reference fiber r_ref.
    """
    symp = symplectize(system, r_range=(r_ref / 2.0, 2.0 * r_ref))
    points = _check_points("darboux_verify", points, lambda: _sample(system, n_points, seed))
    cfg = config or IntegratorConfig()
    worst, where = 0.0, points[0]
    for xb in points:
        covector, target = _darboux_covector(symp, section, xb, r_ref, cfg, basis)
        resid = float(np.max(np.abs(covector - target)))
        if resid > worst:
            worst, where = resid, xb
    return DarbouxReport(
        max_residual=worst,
        worst_point=np.asarray(where),
        tolerance=tolerance,
        n_points=len(points),
        passed=bool(worst <= tolerance),
    )


def _darboux_covector(symp, section, xb, r_ref, cfg, basis) -> tuple[np.ndarray, np.ndarray]:
    """dy^d - sum_j Atilde_j dy^j and -eta / A_d at the base point xb.

    At the solved angles x = Phi(y; chi(s F(x))), so along a base
    direction v, v = J dy + DPhi_y Dchi s dF v with J the lifted generator
    fields at x, and dy = J^+ (v - DPhi_y Dchi s dF v); the bracket lies in
    the span of J, so the least-squares solve is exact.  DPhi_y carries
    the n+1 columns of s Dchi in one variational pass of the group action.
    """
    x = np.append(xb, r_ref)
    center = angle_solve(symp, section, x, config=cfg, basis=basis)
    generators = _generators(symp, center.M_matrix)
    jets = np.reshape(symp._fused(x.tolist()), (len(generators), -1))  # rows f_a, df_a
    chi = section._jet(center.sign * jets[:, 0])
    _, carried = variational_group_action(
        symp, center.y, chi[:, 0], center.sign * chi[:, 1:], cfg, integrals=generators,
    )
    J = np.column_stack([symp.field_evaluator(G)(x.tolist()) for G in generators])
    rhs = np.eye(len(x))[:, :-1] - _dot(carried[:, None], jets[:, 1:-1].T)
    grad_y, *_ = np.linalg.lstsq(J, rhs, rcond=None)
    d = center.denominator_index
    covector = _dot(np.insert(-center.A_tilde, d, 1.0), grad_y.T)
    return covector, -symp.base.chart.eta_at(xb) / center.A[d]


# ---------------------------------------------------------------------------
# Periods
# ---------------------------------------------------------------------------

def period_detect(
    system,
    f,
    x0,
    t_max: float,
    tolerance: float = 1e-6,
    config: IntegratorConfig | None = None,
    scan_points: int = 512,
) -> float | None:
    """Smallest t in (0, t_max] with |phi_t(x0) - x0| < tolerance.

    A dense forward trajectory provides candidate local minima of the
    return distance; each is refined by golden-section bracketing.
    Returns None when no return distance dips below the tolerance.
    """
    if not 0.0 < t_max < np.inf:
        raise ValueError(f"period_detect t_max must be finite and positive, got {t_max}")
    if scan_points < 1:
        raise ValueError(f"period_detect scan_points must be at least 1, got {scan_points}")
    x0 = np.asarray(x0, dtype=float)
    scan_cfg = config or IntegratorConfig(max_step=t_max / scan_points)
    traj = integrate(system, f, x0, t_max, scan_cfg)
    if not traj.completed:
        raise FlowError(f"scan trajectory truncated ({traj.status})", traj)
    dist = np.max(np.abs(traj.points - x0), axis=1)
    refine_cfg = config or IntegratorConfig()

    def g(t: float) -> float:
        return float(np.max(np.abs(flow_map(system, f, x0, t, refine_cfg) - x0)))

    candidates = [
        k
        for k in range(1, len(dist) - 1)
        if dist[k] <= dist[k - 1] and dist[k] <= dist[k + 1]
    ]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    for k in candidates[:8]:
        lo, hi = float(traj.times[k - 1]), float(traj.times[k + 1])
        a, b = lo + (1 - invphi) * (hi - lo), lo + invphi * (hi - lo)
        ga, gb = g(a), g(b)
        for _ in range(60):
            if hi - lo < max(1e-12, 1e-4 * tolerance):
                break
            if ga <= gb:
                hi, b, gb = b, a, ga
                a = lo + (1 - invphi) * (hi - lo)
                ga = g(a)
            else:
                lo, a, ga = a, b, gb
                b = lo + invphi * (hi - lo)
                gb = g(b)
        t_star = (lo + hi) / 2.0
        if g(t_star) < tolerance:
            return t_star
    return None
