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
generator on a fixed validation set: :func:`e_hat_items` runs the blocked
kernel of the P-sample losses on chunks of 4096 truths (``_CHUNK``), so
beyond the truths memory is O(block) whatever P and the dimension are.

``beta_sd`` is deliberately not clamped at zero: if the error signal
demands a negative weight, the trace shows it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .regularizers import _residual_terms, beta_sd_nominal, closed_form_l2p
from .streams import SeededStream
from .toy import GeneratorParams, SampleBatch, ToyPosterior, sample_posterior

__all__ = [
    "AutotuneState",
    "ValidationSet",
    "NonMonotonePlantError",
    "make_validation_set",
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
    "apsd",
]

# Validation items per substream chunk (same worker-count-invariance idea as
# the Monte Carlo losses).
_CHUNK = 1 << 12


class NonMonotonePlantError(ValueError):
    """The plant's spread response decreases somewhere over the probe sweep."""


@dataclass(frozen=True)
class AutotuneState:
    """Controller state: current weight, step size, and loop parameters."""

    beta_sd: float
    mu_sd: float
    p_val: int
    p_train: int
    epoch: int = 0

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
    """Held-out truths of one measurement context."""

    x: np.ndarray  # (V, dim)

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError("validation set must be a nonempty (V, dim) matrix")
        if not np.all(np.isfinite(x)):
            raise ValueError("validation items must be finite")
        object.__setattr__(self, "x", x)

    @property
    def size(self) -> int:
        return self.x.shape[0]


def make_validation_set(
    post: ToyPosterior, V: int, stream: SeededStream, context: int = 0
) -> ValidationSet:
    """Draw V truths from one posterior context."""
    return ValidationSet(sample_posterior(post, context, V, stream).values)


def e_hat_items(
    params: GeneratorParams, val: ValidationSet, P: int, stream: SeededStream
) -> np.ndarray:
    """Per-item squared error of the generator's P-sample average against each truth.

    Fresh codes are drawn for every (sample, item) pair; chunk ``i`` draws
    from ``stream.child("ctx", 0, i)``.  To score the true posterior, pass
    its own ``(mu0, sigma0)`` as ``params``.
    """
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    if params.dim != val.x.shape[1]:
        raise ValueError(f"dimension mismatch: generator {params.dim}, truths {val.x.shape[1]}")
    out = np.empty(val.size, dtype=np.float64)
    for chunk_index, start in enumerate(range(0, val.size, _CHUNK)):
        x = val.x[start : start + _CHUNK]
        g = stream.child("ctx", 0, chunk_index).generator()
        out[start : start + x.shape[0]] = _residual_terms(g, params, x, P, np.square)
    return out


def e_hat(
    params: GeneratorParams, val: ValidationSet, P: int, stream: SeededStream
) -> float:
    """Mean squared error of the P-sample average over a validation set."""
    return float(e_hat_items(params, val, P, stream).mean())


def ratio_with_se(numer_items: np.ndarray, denom_items: np.ndarray) -> tuple[float, float]:
    """Ratio of two Monte Carlo means with a delta-method standard error.

    The items must be paired (same validation set), so the covariance
    term matters and is included.
    """
    a = np.asarray(numer_items, dtype=np.float64)
    b = np.asarray(denom_items, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two paired 1-D arrays with at least 2 items")
    n = a.size
    abar, bbar = a.mean(), b.mean()
    if bbar <= 0:
        raise ValueError("denominator mean must be positive")
    cov = np.cov(a, b, ddof=1)
    ratio = abar / bbar
    var = (
        cov[0, 0] / abar**2 + cov[1, 1] / bbar**2 - 2.0 * cov[0, 1] / (abar * bbar)
    ) * ratio**2 / n
    return float(ratio), float(math.sqrt(max(var, 0.0)))


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
    return replace(state, beta_sd=new_beta, epoch=state.epoch + 1)


@dataclass(frozen=True)
class TraceRow:
    epoch: int
    beta_sd: float
    ratio_db: float
    target_db: float


@dataclass
class AutotuneTrace:
    rows: list
    target_db: float
    converged: bool

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

    With ``use_mc`` the observed ratio comes from validation-set
    estimates of size ``V`` (fresh codes each epoch); otherwise it is
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

    val = make_validation_set(post, V, stream.child("val"), context) if use_mc else None
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
            e1 = e_hat(params, val, 1, codes.child("one"))
            ep = e_hat(params, val, p_val, codes.child("avg"))
        else:
            e1 = closed_form_l2p(params, post, context, 1)
            ep = closed_form_l2p(params, post, context, p_val)
        ratio_db_now = db(e1 / ep)
        rows.append(TraceRow(epoch, state.beta_sd, ratio_db_now, target))
        if abs(ratio_db_now - target) <= tol_db:
            converged = True
            break
        state = update_beta(state, e1, ep)
    return AutotuneTrace(rows=rows, target_db=target, converged=converged)


def psnr_gain_curve(P_max: int) -> list[tuple[int, float]]:
    """(P, expected dB gain of P-sample averaging) for P = 1..P_max.

    Strictly increasing and bounded above by 10*log10(2) ~ 3.0103 dB.
    """
    if P_max < 1:
        raise ValueError(f"P_max must be >= 1, got {P_max}")
    return [(P, target_ratio_db(P)) for P in range(1, P_max + 1)]


def apsd(samples: SampleBatch, P: int) -> float:
    """Root-mean squared deviation of the first P samples from their average.

    Zero exactly when all P rows coincide (the collapse signature).
    """
    if P < 2:
        raise ValueError(f"P must be >= 2, got {P}")
    if samples.n < P:
        raise ValueError(f"need at least P={P} rows, have {samples.n}")
    rows = samples.values[:P]
    deviations = rows - rows.mean(axis=0, keepdims=True)
    return float(math.sqrt((deviations**2).sum() / (P * samples.dim)))
