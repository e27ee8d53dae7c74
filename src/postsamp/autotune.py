"""Feedback tuning of the spread-reward weight, and averaging diagnostics.

Averaging P independent true-posterior samples reduces the expected
squared error to ``(P+1)/P`` times the floor attained by the posterior
mean, so the error ratio between a single sample and a P-sample average
is ``2P / (P+1)`` -- about 3 dB as P grows.  A sampler whose spread is
too small shows a ratio below that target, and one whose spread is too
large overshoots it, which turns the observed ratio into an error signal
for the spread-reward weight ``beta_sd``:

    beta' = beta - mu_sd * (observed_db - target_db) * beta_sd_nominal(p_train)

The closed-loop simulation here replaces network training with an
analytic "plant", a monotone map from ``beta_sd`` to the generated
spread; that abstraction is the point of the module, since it exercises
the controller without any training dynamics.  The observed ratio inside
the loop is computed from the exact squared-error split
``sum(sigma0^2) + sum(sigma^2) / P``.  Its Monte Carlo mode scores the
generator on a :class:`ValidationSet`, which holds no truths: each draw
unit of the engine of :mod:`postsamp.regularizers` draws its own from the
set's stream and is reduced to moments as it is drawn, so memory is
O(unit + block) per worker whatever P, the dimension and the validation
size are, and results are the same bits for any worker count.
:func:`e_hat_items` keeps the per-item values of the same draws.

``beta_sd`` is deliberately not clamped at zero: if the error signal
demands a negative weight, the trace shows it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .regularizers import (
    _comoments,
    _residual_moments,
    _residual_units,
    beta_sd_nominal,
    closed_form_l2p,
)
from .streams import SeededStream
from .toy import GeneratorParams, ToyPosterior

__all__ = [
    "AutotuneState",
    "ValidationSet",
    "NonMonotonePlantError",
    "e_hat",
    "e_hat_items",
    "ratio_with_se",
    "target_ratio_db",
    "db",
    "update_beta",
    "TraceRow",
    "AutotuneTrace",
    "simulate_autotune",
    "psnr_gain_curve",
]


class NonMonotonePlantError(ValueError):
    """The plant's spread response decreases somewhere over the probe sweep."""


@dataclass(frozen=True)
class AutotuneState:
    """Controller state: current weight, step size, and loop parameters."""

    beta_sd: float
    mu_sd: float
    p_val: int
    p_train: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.beta_sd):
            raise ValueError("beta_sd must be finite")
        if self.mu_sd < 0:
            raise ValueError("mu_sd must be >= 0")
        if self.p_val < 2:
            raise ValueError(f"p_val must be >= 2, got {self.p_val}")
        if self.p_train < 2:
            raise ValueError(f"p_train must be >= 2, got {self.p_train}")


@dataclass(frozen=True)
class ValidationSet:
    """``size`` truths of one posterior context; draw unit ``u`` draws its own
    from ``stream.child("truths", u)``, the same values in every pass."""

    post: ToyPosterior
    context: int
    size: int
    stream: SeededStream

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"validation size must be >= 1, got {self.size}")
        self.post.context_params(self.context)


def e_hat_items(
    params: GeneratorParams, val: ValidationSet, P: int, stream: SeededStream
) -> np.ndarray:
    """Per-item squared error of the generator's P-sample average against each truth.

    Fresh codes are drawn for every (sample, item) pair; the items of draw
    unit ``u`` take theirs from ``stream.child("codes", u)``.  To score the
    true posterior, pass its own ``(mu0, sigma0)`` as ``params``.
    """
    units = _residual_units(params, val, ((P, stream),), lambda items: items[0])
    return np.concatenate(list(units))


def e_hat(
    params: GeneratorParams, val: ValidationSet, P: int, stream: SeededStream
) -> float:
    """Mean squared error of the P-sample average over a validation set.

    The mean of :func:`e_hat_items`, streamed unit by unit without the
    per-item values.
    """
    return float(_residual_moments(params, val, ((P, stream),))[1][0])


def _ratio_from_moments(n: int, mean: np.ndarray, comoments: np.ndarray) -> tuple[float, float]:
    """Ratio of two paired means with its delta-method standard error.

    Takes the :func:`postsamp.regularizers._comoments` of the two paired
    item rows, whole or merged from draw units.
    """
    if n < 2:
        raise ValueError("need at least 2 paired items")
    abar, bbar = mean
    if bbar <= 0:
        raise ValueError("denominator mean must be positive")
    cov = comoments / (n - 1)
    ratio = abar / bbar
    var = (
        cov[0, 0] / abar**2 + cov[1, 1] / bbar**2 - 2.0 * cov[0, 1] / (abar * bbar)
    ) * ratio**2 / n
    return float(ratio), float(math.sqrt(max(var, 0.0)))


def ratio_with_se(numer_items: np.ndarray, denom_items: np.ndarray) -> tuple[float, float]:
    """Ratio of two Monte Carlo means with a delta-method standard error.

    The items must be paired (same validation set), so the covariance
    term matters and is included.
    """
    a = np.asarray(numer_items, dtype=np.float64)
    b = np.asarray(denom_items, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two paired 1-D arrays with at least 2 items")
    return _ratio_from_moments(*_comoments(np.stack([a, b])))


def db(x: float) -> float:
    """Decibel transform 10 * log10(x)."""
    if x <= 0:
        raise ValueError(f"dB of a nonpositive value: {x}")
    return 10.0 * math.log10(x)


def target_ratio_db(P: int) -> float:
    """Correct single-vs-P-average error ratio for true posterior samples, in dB."""
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    return db(2.0 * P / (P + 1))


def update_beta(state: AutotuneState, e1_hat: float, ep_hat: float) -> AutotuneState:
    """One feedback step on the spread-reward weight.

    The weight moves opposite the dB mismatch between the observed and
    target error ratios, scaled by the nominal weight for ``p_train``.
    No clamping is applied; a persistent shortfall keeps increasing the
    weight and vice versa.
    """
    if e1_hat <= 0 or ep_hat <= 0:
        raise ValueError("error estimates must be positive")
    error_db = db(e1_hat / ep_hat) - target_ratio_db(state.p_val)
    new_beta = state.beta_sd - state.mu_sd * error_db * beta_sd_nominal(state.p_train)
    return replace(state, beta_sd=new_beta)


@dataclass(frozen=True)
class TraceRow:
    epoch: int
    beta_sd: float
    ratio_db: float
    target_db: float


@dataclass
class AutotuneTrace:
    """The loop's rows; ``normals`` counts its Monte Carlo draws (0 in closed form)."""

    rows: list
    target_db: float
    converged: bool
    normals: int

    @property
    def final_beta(self) -> float:
        return self.rows[-1].beta_sd


def simulate_autotune(
    plant: Callable[[float], float],
    post: ToyPosterior,
    context: int,
    p_val: int,
    epochs: int,
    V: int,
    mu_sd: float,
    stream: SeededStream,
    *,
    p_train: int = 2,
    beta0: float | None = None,
    tol_db: float = 0.1,
    use_mc: bool = False,
) -> AutotuneTrace:
    """Run the spread-weight feedback loop against an analytic plant.

    ``plant`` maps the current weight to the generated spread; it must be
    monotone nondecreasing, which is checked over a probe sweep of
    multiples of the nominal weight before the loop starts.  The loop
    stops once the observed ratio is within ``tol_db`` of the target, or
    flags non-convergence at the epoch cap.

    With ``use_mc`` the observed ratio comes from one paired pass per
    epoch over a validation set of size ``V`` (fresh codes each epoch, the
    same truths, redrawn by each pass); otherwise it is
    the exact ratio of :func:`closed_form_l2p` at P = 1 and ``p_val``,
    which is what the convergence guarantees are stated for.  Each step
    is :func:`update_beta`.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    mu0, _ = post.context_params(context)
    nominal = beta_sd_nominal(p_train)

    # Monotonicity probe over multiples of the nominal weight.
    probe = [max(float(plant(c * nominal)), 0.0) for c in np.linspace(0.0, 4.0, 17)]
    for low, high in zip(probe, probe[1:]):
        if high < low - 1e-12 * max(1.0, abs(low)):
            raise NonMonotonePlantError(
                "plant spread response decreases over the probe sweep"
            )

    val = ValidationSet(post, context, V, stream.child("val")) if use_mc else None
    state = AutotuneState(
        beta_sd=float(beta0) if beta0 is not None else nominal,
        mu_sd=mu_sd,
        p_val=p_val,
        p_train=p_train,
    )
    target = target_ratio_db(p_val)
    rows: list[TraceRow] = []
    converged = False
    for epoch in range(epochs):
        # The generator sits on the posterior mean with the plant's spread.
        sigma = max(float(plant(state.beta_sd)), 0.0)
        params = GeneratorParams(mu0, np.full(post.dim, sigma))
        if use_mc:
            codes = stream.child("codes", epoch)
            pair = ((1, codes.child("one")), (p_val, codes.child("avg")))
            e1, ep = (float(m) for m in _residual_moments(params, val, pair)[1])
        else:
            e1 = closed_form_l2p(params, post, context, 1)
            ep = closed_form_l2p(params, post, context, p_val)
        ratio_db_now = db(e1 / ep)
        rows.append(TraceRow(epoch, state.beta_sd, ratio_db_now, target))
        if abs(ratio_db_now - target) <= tol_db:
            converged = True
            break
        state = update_beta(state, e1, ep)
    # Each paired pass draws the truths once and 1 + p_val codes per item.
    normals = len(rows) * V * (2 + p_val) * post.dim if use_mc else 0
    return AutotuneTrace(rows=rows, target_db=target, converged=converged, normals=normals)


def psnr_gain_curve(P_max: int) -> list[tuple[int, float]]:
    """(P, expected dB gain of P-sample averaging) for P = 1..P_max.

    Strictly increasing and bounded above by 10*log10(2) ~ 3.0103 dB.
    """
    if P_max < 1:
        raise ValueError(f"P_max must be >= 1, got {P_max}")
    return [(P, target_ratio_db(P)) for P in range(1, P_max + 1)]
