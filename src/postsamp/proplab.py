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
The objectives are separable, so trust regions are kept per dimension:
each dimension has its own radius, judges its own step by its own value
(which the table gives when called with a trailing axis of one), and stops
on its own test.  Sigma is kept nonnegative by projection and convergence
is declared only by the projected-gradient (KKT) test: at sigma = 0 a
nonnegative sigma slope counts as stationary.  A dimension stops once it
passes that test, or once its step no longer moves it (unconverged), and
then keeps its point, so it ends exactly where a one-dimensional solve of
it alone would.  The report gives each dimension's iteration count and
convergence flag (``dim_iterations``, ``dim_converged``); ``iterations``
is their maximum (the loop count) and ``converged`` says that all passed.
Positivity of sigma arises naturally near the optimum of the combined
objective, so a projection firing late in the run would indicate a bug;
the report records every projection event to let tests assert that.

Resolution limit: the gradient is a function of ``(mu - mu0) / s``, and
float64 spaces ``mu`` near ``mu0`` by about ``2.2e-16 |mu0|``.  Once
``|mu0| / sigma0`` exceeds about 1e6 that spacing, divided by ``s``, is
no longer small against ``_GRAD_TOL``, and the report may say
``converged=False`` for that dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .regularizers import CLOSED_FORMS, RegKind, RegularizerKind, _context_params
from .toy import GeneratorParams, ToyPosterior

__all__ = [
    "OptimizationReport",
    "ContourGrid",
    "minimize_regularizer",
    "contour_grid",
]

# Trust-region radius (in units of s) at the start, and the factor by which
# it grows after an accepted step that hit the boundary and shrinks after a
# rejected step.
_INITIAL_RADIUS = 1.0
_RADIUS_FACTOR = 4.0

# A dimension converges when the larger of its two projected-gradient
# components falls below _GRAD_TOL, except that at sigma = 0 only a
# negative sigma slope counts (the KKT condition of the bound sigma >= 0).
# Every trial step, accepted or rejected, counts against _MAX_ITERATIONS.
# Beyond |mu0| / sigma0 of about 1e6 float64 cannot resolve (mu - mu0) / s
# to _GRAD_TOL; that dimension then ends with converged=False.
_MAX_ITERATIONS = 20_000
_GRAD_TOL = 1e-8

# Grid points per band of a contour grid: about 128 KiB per float64
# temporary of the closed form, and always at least one whole sigma row.
_BAND = 1 << 14


@dataclass
class OptimizationReport:
    theta_star: GeneratorParams
    dim_iterations: np.ndarray  # trial steps each dimension took before it stopped
    dim_converged: np.ndarray  # whether each dimension stopped on its gradient test
    sigma_indeterminate: bool = False
    projection_iterations: list = field(default_factory=list)
    grad_norm: float = float("nan")
    evaluations: int = 0  # closed-form table calls (value, gradient, Hessian)
    rejected_steps: int = 0  # per-dimension trial steps that did not decrease f there
    unbounded: bool = False  # the objective has no minimizer; nothing was iterated

    @property
    def iterations(self) -> int:
        """Iterations of the solver's loop: the most any dimension took."""
        return int(self.dim_iterations.max())

    @property
    def converged(self) -> bool:
        """Whether every dimension passed its gradient test."""
        return bool(self.dim_converged.all())


def _trust_region_step(grad, hess, sigma, sigma0, P: int, radius, sigma_flat: bool):
    """Per-dimension trial step inside a trust region of radius ``radius * s``.

    Each dimension's 2x2 Newton system is solved in closed form.  The full
    Newton step is taken where it fits; elsewhere the step has length
    ``radius * s`` along the Newton direction, or along -sign(g) where the
    Hessian underflows far from the optimum.  Such a boundary step is also
    shortened so that ``s`` shrinks by at most the radius factor: a long
    step along a poor direction could otherwise land on sigma = 0, where
    ``s`` collapses to ``sigma0`` and the region with it.

    Returns (step_mu, step_sigma, hit_boundary), the last per dimension.
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
    return t * d_mu, t * d_sigma, ~fits


def minimize_regularizer(
    kind: RegularizerKind,
    post: ToyPosterior,
    context: int,
    init: GeneratorParams,
) -> OptimizationReport:
    """Minimize a closed-form objective over (mu, sigma) from ``init``.

    A trust-region Newton method (see :func:`_trust_region_step`) whose
    radius is measured in units of ``s``.  Each dimension has its own
    radius, and its step is accepted only if it decreases that dimension's
    objective: the sum rounds at about eps times its size, more than one
    dimension's last decrease near the optimum.  A dimension's radius grows
    4x after an accepted step that hit the boundary and shrinks 4x after a
    rejected one.  Sigma is projected onto [0, inf).

    Each dimension also stops on its own test: once its projected gradient
    passes (``dim_converged``), or once its step no longer moves it (not
    converged).  ``dim_iterations`` counts its trial steps up to then.  As
    every operation is elementwise, each dimension follows, bit for bit,
    the path of a one-dimensional solve of it alone, so independent scalar
    problems can be solved as the dimensions of one posterior.

    The absolute-error objective with ``beta_sd >= sqrt(2 / (pi P))`` falls
    without bound as sigma grows; the report then says ``unbounded=True``
    at the start point, with nothing iterated.  Non-convergence within the
    iteration budget, or a step too small to move a parameter, is reported
    through ``converged=False``, never silently.
    """
    if np.any(init.sigma <= 0) and kind.kind is not RegKind.L2_VAR:
        raise ValueError("init.sigma must be > 0")
    mu0, sigma0 = _context_params(init, post, context)
    table = CLOSED_FORMS[kind.kind]
    P, beta_sd = kind.P, kind.beta_sd
    # A flat sigma direction cannot be optimized; flag it and solve mu only.
    sigma_flat = kind.kind is RegKind.L2_VAR
    sigma0_column = sigma0[:, None]

    def values(mu, sigma) -> np.ndarray:  # the objective of each dimension
        return table.value((mu - mu0)[:, None], sigma[:, None], sigma0_column, P, beta_sd)

    def derivatives(mu, sigma):
        g_mu, g_sigma = table.grad(mu - mu0, sigma, sigma0, P, beta_sd)
        # KKT at the bound: at sigma = 0 only a negative slope is a violation.
        g_sigma = np.where(sigma > 0, g_sigma, np.minimum(g_sigma, 0.0))
        return (g_mu, g_sigma), table.hess(mu - mu0, sigma, sigma0, P, beta_sd)

    mu = init.mu.copy()
    sigma = init.sigma.copy()
    if kind.kind is RegKind.L1_SD and beta_sd >= math.sqrt(2.0 / (math.pi * P)):
        return OptimizationReport(
            GeneratorParams(mu, sigma), np.zeros(mu.shape, int), np.zeros(mu.shape, bool),
            unbounded=True,
        )
    f = values(mu, sigma)
    grad, hess = derivatives(mu, sigma)
    evaluations = 3
    rejected = 0
    radius = np.full(mu.shape, _INITIAL_RADIUS)
    projections: list[int] = []
    # Each dimension iterates until its own test stops it; a stopped
    # dimension keeps its point, its radius and its count.
    active = np.ones(mu.shape, dtype=bool)
    converged = np.zeros(mu.shape, dtype=bool)
    dim_iterations = np.full(mu.shape, _MAX_ITERATIONS)

    for iteration in range(_MAX_ITERATIONS):
        passed = np.maximum(abs(grad[0]), abs(grad[1])) <= _GRAD_TOL
        d_mu, d_sigma, hit_boundary = _trust_region_step(
            grad, hess, sigma, sigma0, P, radius, sigma_flat
        )
        mu_try = mu + d_mu
        sigma_try = sigma + d_sigma
        clipped = sigma_try < 0
        if clipped.any():
            sigma_try = np.maximum(sigma_try, 0.0)
        # A step that no longer moves a dimension ends it, unconverged.
        stopped = active & (passed | ((mu_try == mu) & (sigma_try == sigma)))
        if stopped.any():
            converged |= stopped & passed
            dim_iterations[stopped] = iteration
            active &= ~stopped
            if not active.any():
                break
        f_try = values(mu_try, sigma_try)
        evaluations += 1
        accept = active & (f_try < f)
        failed = active & ~accept
        if failed.any():  # keep the rejected dimensions where they were
            rejected += int(np.count_nonzero(failed))
            radius = np.where(failed, radius / _RADIUS_FACTOR, radius)
        if not accept.any():
            continue
        mu = np.where(accept, mu_try, mu)
        sigma = np.where(accept, sigma_try, sigma)
        f = np.where(accept, f_try, f)
        if (clipped & accept).any():
            projections.append(iteration)
        grad, hess = derivatives(mu, sigma)
        evaluations += 2
        radius = np.where(hit_boundary & accept, radius * _RADIUS_FACTOR, radius)

    return OptimizationReport(
        theta_star=GeneratorParams(mu, sigma),
        dim_iterations=dim_iterations,
        dim_converged=converged,
        sigma_indeterminate=sigma_flat,
        projection_iterations=projections,
        grad_norm=float(max(abs(grad[0]).max(), abs(grad[1]).max())),
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

    def argmin_point(self) -> tuple[float, float]:
        """(mu, sigma) at the minimizing cell."""
        i, j = np.unravel_index(int(np.argmin(self.values)), self.values.shape)
        return float(self.mu_axis[j]), float(self.sigma_axis[i])

    def argmin_contains(self, mu: float, sigma: float) -> bool:
        """True if (mu, sigma) lies within one grid spacing of the argmin."""
        amu, asigma = self.argmin_point()
        dmu = float(self.mu_axis[1] - self.mu_axis[0])
        dsigma = float(self.sigma_axis[1] - self.sigma_axis[0])
        return abs(mu - amu) <= dmu and abs(sigma - asigma) <= dsigma


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

    Memory model: the values fill one preallocated grid, a band of whole
    sigma rows (about ``_BAND`` points) at a time, so the closed form's
    temporaries are band-sized whatever the resolution.  Each band's
    inputs are contiguous arrays, as a whole-grid call's would be, so every
    ufunc takes the same loop and the values are the same bits for any
    band size.
    """
    if post.dim != 1:
        raise ValueError("contour grids require a one-dimensional toy posterior")
    if resolution < 16:
        raise ValueError(f"resolution must be >= 16 per axis, got {resolution}")
    mu0, sigma0 = post.context_params(context)  # one element: the table's last axis
    truth = (float(mu0[0]), float(sigma0[0]))
    mu_lo, mu_hi = map(float, mu_range)
    s_lo, s_hi = map(float, sigma_range)
    if not all(map(math.isfinite, (mu_lo, mu_hi, s_lo, s_hi))):
        raise ValueError(f"ranges must be finite, got mu {mu_range}, sigma {sigma_range}")
    if not (mu_lo < mu_hi and s_lo < s_hi):
        raise ValueError("ranges must be nonempty")
    if s_lo < 0:
        raise ValueError(f"sigma range must be >= 0, got {s_lo}")
    if not (mu_lo <= truth[0] <= mu_hi and s_lo <= truth[1] <= s_hi):
        raise ValueError("ranges must contain the true (mu0, sigma0)")

    mu_axis = np.linspace(mu_lo, mu_hi, resolution)
    sigma_axis = np.linspace(s_lo, s_hi, resolution)
    value = CLOSED_FORMS[kind.kind].value
    values = np.empty((resolution, resolution))
    rows = max(1, _BAND // resolution)
    with np.errstate(over="ignore", invalid="ignore"):  # ContourGrid refuses inf and NaN
        for start in range(0, resolution, rows):
            band = slice(start, start + rows)
            mu_grid, sigma_grid = np.meshgrid(mu_axis, sigma_axis[band])
            values[band] = value(
                mu_grid[..., None] - mu0, sigma_grid[..., None], sigma0, kind.P, kind.beta_sd
            )
    return ContourGrid(mu_axis, sigma_axis, values, kind, truth)

