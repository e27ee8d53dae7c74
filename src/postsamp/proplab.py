"""Optimization and grid studies of the closed-form supervision objectives.

Minimizing each objective over the toy generator parameters shows what
the regularizer actually rewards:

* absolute-error loss + nominal spread reward -> recovers (mu0, sigma0);
* squared-error loss alone -> drives sigma to zero (collapse);
* squared-error loss + variance reward -> flat in sigma, so the spread
  is not identifiable and is reported as such rather than invented.

Everything here is driven by the per-kind table
:data:`~postsamp.regularizers.CLOSED_FORMS` of values, gradients and
Hessians.  The optimizer is a damped Newton method whose trust region is
measured in units of the natural scale ``s = sqrt(sigma0^2 + sigma^2/P)``
of each dimension, so the same controls serve posteriors of any scale
(tested for |mu0| <= 1e4 and 1e-6 <= sigma0 <= 1e3 from a fixed start).
Sigma is kept nonnegative by projection and
convergence is declared only by the projected-gradient (KKT) test: at
sigma = 0 a nonnegative sigma slope counts as stationary.  Positivity of
sigma arises naturally near the optimum of the combined objective, so a
projection firing late in the run would indicate a bug; the report
records every projection event to let tests assert that.

Resolution limit: the gradient is a function of ``(mu - mu0) / s``, and
float64 spaces ``mu`` near ``mu0`` by about ``2.2e-16 |mu0|``.  Once
``|mu0| / sigma0`` exceeds about 1e6 that spacing, divided by ``s``, is
no longer small against the default ``grad_tol``, and the report may
say ``converged=False`` there.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .regularizers import CLOSED_FORMS, RegKind, RegularizerKind
from .toy import GeneratorParams, ToyPosterior

__all__ = [
    "OptimizerSettings",
    "OptimizationReport",
    "ContourGrid",
    "minimize_regularizer",
    "contour_grid",
    "steepness_probe",
]

# Trust-region radius (in units of s) at the start, and the factor by which
# it grows after an accepted step that hit the boundary and shrinks after a
# rejected step.
_INITIAL_RADIUS = 1.0
_RADIUS_FACTOR = 4.0


@dataclass(frozen=True)
class OptimizerSettings:
    """Trust-region Newton controls.

    Convergence is declared when the max-abs projected gradient falls
    below ``grad_tol``: the mu components and, for each dimension, the
    sigma component, except that at sigma = 0 only a negative sigma slope
    counts (the KKT condition of the bound sigma >= 0).  Every trial step,
    accepted or rejected, counts against ``max_iterations``.  Beyond
    ``|mu0| / sigma0`` of about 1e6 float64 cannot resolve ``(mu - mu0) / s``
    to the default ``grad_tol``; the run then ends with ``converged=False``.
    """

    max_iterations: int = 20_000
    grad_tol: float = 1e-8


@dataclass
class OptimizationReport:
    kind: RegularizerKind
    theta_star: GeneratorParams
    objective_star: float
    iterations: int
    converged: bool
    sigma_indeterminate: bool = False
    projection_iterations: list = field(default_factory=list)
    grad_norm: float = float("nan")
    converged_by: str = ""
    evaluations: int = 0  # closed-form table calls (value, gradient, Hessian)
    rejected_steps: int = 0  # trial steps that did not decrease f (radius shrinks)


def _trust_region_step(grad, hess, sigma, sigma0, P: int, radius: float, sigma_flat: bool):
    """Per-dimension trial step inside a trust region of radius ``radius * s``.

    Each dimension's 2x2 Newton system is solved in closed form.  The full
    Newton step is taken where it fits; elsewhere the step has length
    ``radius * s`` along the Newton direction, or along -sign(g) where the
    Hessian underflows far from the optimum.  Such a boundary step is also
    shortened so that ``s`` shrinks by at most the radius factor: a long
    step along a poor direction could otherwise land on sigma = 0, where
    ``s`` collapses to ``sigma0`` and the region with it.

    Returns (step_mu, step_sigma, hit_boundary).
    """
    g_mu, g_sigma = grad
    h_mm, h_ms, h_ss = hess
    s = np.sqrt(sigma0**2 + sigma**2 / P)
    bound = radius * s
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if sigma_flat:
            d_mu, d_sigma = -g_mu / h_mm, np.zeros_like(g_sigma)
            newton = np.isfinite(d_mu)
        else:
            det = h_mm * h_ss - h_ms * h_ms
            d_mu = (h_ms * g_sigma - h_ss * g_mu) / det
            d_sigma = (h_ms * g_mu - h_mm * g_sigma) / det
            newton = (det > 0) & np.isfinite(d_mu) & np.isfinite(d_sigma)
            d_mu = np.where(newton, d_mu, -np.sign(g_mu))
            d_sigma = np.where(newton, d_sigma, -np.sign(g_sigma))
        length = np.hypot(d_mu, d_sigma)
        fits = newton & (length <= bound)
        t = np.where(fits, 1.0, bound / length)
        sigma_floor_sq = P * ((s / _RADIUS_FACTOR) ** 2 - sigma0**2)
        sigma_floor = np.sqrt(np.maximum(sigma_floor_sq, 0.0))
        too_low = ~fits & (sigma_floor_sq > 0) & (sigma + t * d_sigma < sigma_floor)
        t = np.where(too_low, (sigma - sigma_floor) / -d_sigma, t)
        t = np.where(np.isfinite(t), t, 0.0)
    return t * d_mu, t * d_sigma, bool(np.any(~fits))


def minimize_regularizer(
    kind: RegularizerKind,
    post: ToyPosterior,
    context: int,
    init: GeneratorParams,
    settings: OptimizerSettings | None = None,
) -> OptimizationReport:
    """Minimize a closed-form objective over (mu, sigma) from ``init``.

    A trust-region Newton method (see :func:`_trust_region_step`) whose
    radius is measured in units of ``s`` per dimension.  A step is
    accepted only if it decreases the objective; the radius grows 4x
    after an accepted step that hit the boundary and shrinks 4x after a
    rejected one.  Sigma is projected onto [0, inf).

    Non-convergence within the iteration budget, or a step too small to
    move any parameter, is reported through ``converged=False``, never
    silently.
    """
    settings = settings or OptimizerSettings()
    if np.any(init.sigma <= 0) and kind.kind is not RegKind.L2_VAR:
        raise ValueError("init.sigma must be > 0")
    if init.dim != post.dim:
        raise ValueError(f"dimension mismatch: generator {init.dim}, posterior {post.dim}")
    mu0, sigma0 = post.context_params(context)
    table = CLOSED_FORMS[kind.kind]
    # A flat sigma direction cannot be optimized; flag it and solve mu only.
    sigma_flat = kind.kind is RegKind.L2_VAR

    def value(mu, sigma) -> float:
        return float(table.value(mu - mu0, sigma, sigma0, kind).sum())

    def derivatives(mu, sigma):
        g_mu, g_sigma = table.grad(mu - mu0, sigma, sigma0, kind)
        # KKT at the bound: at sigma = 0 only a negative slope is a violation.
        g_sigma = np.where(sigma > 0, g_sigma, np.minimum(g_sigma, 0.0))
        return (g_mu, g_sigma), table.hess(mu - mu0, sigma, sigma0, kind)

    def max_abs(grad) -> float:
        return float(max(np.max(np.abs(grad[0])), np.max(np.abs(grad[1]))))

    mu = init.mu.copy()
    sigma = init.sigma.copy()
    f = value(mu, sigma)
    grad, hess = derivatives(mu, sigma)
    evaluations = 3
    rejected = 0
    radius = _INITIAL_RADIUS
    projections: list[int] = []
    converged = False
    iterations = settings.max_iterations

    for iteration in range(settings.max_iterations):
        if max_abs(grad) <= settings.grad_tol:
            converged = True
            iterations = iteration
            break
        d_mu, d_sigma, hit_boundary = _trust_region_step(
            grad, hess, sigma, sigma0, kind.P, radius, sigma_flat
        )
        mu_try = mu + d_mu
        sigma_try = sigma + d_sigma
        clipped = sigma_try < 0
        if np.any(clipped):
            sigma_try = np.maximum(sigma_try, 0.0)
        if np.array_equal(mu_try, mu) and np.array_equal(sigma_try, sigma):
            iterations = iteration
            break  # the step no longer moves any parameter
        f_try = value(mu_try, sigma_try)
        evaluations += 1
        if f_try < f:
            if np.any(clipped):
                projections.append(iteration)
            mu, sigma, f = mu_try, sigma_try, f_try
            grad, hess = derivatives(mu, sigma)
            evaluations += 2
            if hit_boundary:
                radius *= _RADIUS_FACTOR
        else:
            rejected += 1
            radius /= _RADIUS_FACTOR

    return OptimizationReport(
        kind=kind,
        theta_star=GeneratorParams(mu, sigma),
        objective_star=f,
        iterations=iterations,
        converged=converged,
        sigma_indeterminate=sigma_flat,
        projection_iterations=projections,
        grad_norm=max_abs(grad),
        converged_by="gradient" if converged else "",
        evaluations=evaluations,
        rejected_steps=rejected,
    )


@dataclass
class ContourGrid:
    """Objective values over a (mu, sigma) grid for a scalar toy posterior."""

    mu_axis: np.ndarray
    sigma_axis: np.ndarray
    values: np.ndarray  # shape (len(sigma_axis), len(mu_axis))
    kind: RegularizerKind
    truth: tuple[float, float]

    def __post_init__(self) -> None:
        if np.any(np.diff(self.mu_axis) <= 0) or np.any(np.diff(self.sigma_axis) <= 0):
            raise ValueError("grid axes must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    def argmin_indices(self) -> tuple[int, int]:
        """(sigma index, mu index) of the minimizing cell."""
        flat = int(np.argmin(self.values))
        return np.unravel_index(flat, self.values.shape)  # type: ignore[return-value]

    def argmin_point(self) -> tuple[float, float]:
        """(mu, sigma) at the minimizing cell."""
        i, j = self.argmin_indices()
        return float(self.mu_axis[j]), float(self.sigma_axis[i])

    def argmin_contains(self, mu: float, sigma: float) -> bool:
        """True if (mu, sigma) lies within one grid spacing of the argmin."""
        amu, asigma = self.argmin_point()
        dmu = float(self.mu_axis[1] - self.mu_axis[0])
        dsigma = float(self.sigma_axis[1] - self.sigma_axis[0])
        return abs(mu - amu) <= dmu and abs(sigma - asigma) <= dsigma

    def to_csv(self) -> str:
        """Serialize row-major with the documented two-line header."""
        beta = self.kind.beta_sd if self.kind.beta_sd is not None else 0.0
        out = io.StringIO()
        out.write(
            f"# kind={self.kind.kind.value} mu0={self.truth[0]!r} "
            f"sigma0={self.truth[1]!r} P={self.kind.P} beta_sd={beta!r}\n"
        )
        out.write("sigma\\mu," + ",".join(repr(float(m)) for m in self.mu_axis) + "\n")
        for i, s in enumerate(self.sigma_axis):
            row = ",".join(repr(float(v)) for v in self.values[i])
            out.write(f"{float(s)!r},{row}\n")
        return out.getvalue()


def contour_grid(
    kind: RegularizerKind,
    post: ToyPosterior,
    context: int,
    mu_range: tuple[float, float],
    sigma_range: tuple[float, float],
    resolution: int = 201,
) -> ContourGrid:
    """Evaluate a closed-form objective over a (mu, sigma) grid.

    Only scalar (one-dimensional) posteriors make sense here.  The ranges
    must bracket the true parameters so the argmin study is meaningful.
    """
    if post.dim != 1:
        raise ValueError("contour grids require a one-dimensional toy posterior")
    if resolution < 16:
        raise ValueError(f"resolution must be >= 16 per axis, got {resolution}")
    mu0, sigma0 = (float(v[0]) for v in post.context_params(context))
    mu_lo, mu_hi = map(float, mu_range)
    s_lo, s_hi = map(float, sigma_range)
    if not (mu_lo < mu_hi and s_lo < s_hi):
        raise ValueError("ranges must be nonempty")
    if not (mu_lo <= mu0 <= mu_hi and s_lo <= sigma0 <= s_hi):
        raise ValueError("ranges must contain the true (mu0, sigma0)")

    mu_axis = np.linspace(mu_lo, mu_hi, resolution)
    sigma_axis = np.linspace(s_lo, s_hi, resolution)
    mu_grid, sigma_grid = np.meshgrid(mu_axis, sigma_axis)
    values = CLOSED_FORMS[kind.kind].value(mu_grid - mu0, sigma_grid, sigma0, kind)
    return ContourGrid(mu_axis, sigma_axis, values, kind, (mu0, sigma0))


def steepness_probe(
    post: ToyPosterior,
    context: int,
    P_list: list[int],
) -> list[tuple[int, float]]:
    """Curvature of the combined objective along sigma at the optimum.

    Returns (P, curvature) pairs, the curvature being the analytic
    d^2 J / d sigma^2 at the true parameters and the nominal weight
    ``beta_sd_nominal(P)``, summed over dimensions; it
    shrinks as P grows, i.e. small P gives the sharpest basin around the
    true spread.
    """
    mu0, sigma0 = post.context_params(context)
    hess = CLOSED_FORMS[RegKind.L1_SD].hess
    results = []
    for P in P_list:
        _, _, h_sigma = hess(np.zeros_like(mu0), sigma0, sigma0, RegularizerKind.l1_sd(P))
        results.append((P, float(h_sigma.sum())))
    return results
