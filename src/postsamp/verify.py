"""Randomized verification protocols behind the `verify-*` CLI commands.

Each check runs a fixed, seeded protocol and returns a report with a
single pass/fail verdict plus per-trial numbers for the JSON artifact:

* posterior recovery -- minimizing the combined absolute-error/spread
  objective at the nominal weight lands on the true parameters;
* mode collapse -- minimizing the plain squared-error objective drives
  the spread to zero while still finding the true mean;
* averaging ratio -- with true posterior samples, the single-sample to
  P-average error ratio matches 2P/(P+1) within Monte Carlo error.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

from . import _check_p
from .autotune import ValidationSet, _ratio_from_moments
from .proplab import minimize_regularizer
from .regularizers import RegularizerKind, _residual_moments
from .streams import SeededStream
from .toy import GeneratorParams, ToyPosterior

__all__ = [
    "VerificationReport",
    "check_posterior_recovery",
    "check_mode_collapse",
    "check_average_error_ratio",
]

# Fixed acceptance tolerances; each report records its own in ``details``.
_REL_TOL = 1e-3  # recovery: relative error of mu* and sigma*
_SIGMA_FACTOR = 1e-4  # collapse: sigma* <= _SIGMA_FACTOR * sigma0
_MU_REL_TOL = 1e-3  # collapse: relative error of mu*
_N_SE = 4.0  # averaging ratio: combined standard errors around 2P/(P+1)


@dataclass
class VerificationReport:
    name: str
    passed: bool
    wall_time_s: float
    details: dict = field(default_factory=dict)


def _require_p_values(p_values: tuple) -> None:
    # A check over no P values would pass with no runs.
    if len(p_values) == 0:
        raise ValueError("p_values must not be empty")


def _random_posterior(stream: SeededStream) -> tuple[float, float]:
    rng = stream.generator()
    return float(rng.uniform(-10.0, 10.0)), float(rng.uniform(0.1, 10.0))


def _minimization_check(
    name: str,
    label: str,
    seed: int,
    p_values: tuple,
    trials: int,
    kind_of: Callable[[int], RegularizerKind],
    judge: Callable[[float, float, float], tuple[bool, dict]],
    tolerances: dict,
) -> VerificationReport:
    """Minimize ``kind_of(P)`` from a fixed start over random posteriors.

    The trials are the dimensions of one posterior, solved once per P: the
    objectives are separable and each dimension stops on its own test, so
    every trial's numbers are those of its own one-dimensional solve.
    ``judge(mu_err, sigma_star, sigma0)`` returns a run's verdict (besides
    convergence) and any extra fields for its record; ``tolerances`` go
    into ``details`` next to the runs.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _require_p_values(p_values)
    start = time.perf_counter()
    stream = SeededStream(seed, (label,))
    posteriors = [_random_posterior(stream.child(trial)) for trial in range(trials)]
    post = ToyPosterior.single(*zip(*posteriors))
    init = GeneratorParams([5.0] * trials, [5.0] * trials)
    reports = [minimize_regularizer(kind_of(P), post, 0, init) for P in p_values]
    runs = []
    for trial, (mu0, sigma0) in enumerate(posteriors):
        for P, report in zip(p_values, reports):
            mu_star = float(report.theta_star.mu[trial])
            sigma_star = float(report.theta_star.sigma[trial])
            converged = bool(report.dim_converged[trial])
            mu_err = abs(mu_star - mu0) / max(1.0, abs(mu0))
            ok, extra = judge(mu_err, sigma_star, sigma0)
            runs.append(
                {
                    "trial": trial,
                    "P": P,
                    "mu0": mu0,
                    "sigma0": sigma0,
                    "mu_star": mu_star,
                    "sigma_star": sigma_star,
                    **extra,
                    "converged": converged,
                    "iterations": int(report.dim_iterations[trial]),
                    "ok": converged and ok,
                }
            )
    return VerificationReport(
        name=name,
        passed=all(run["ok"] for run in runs),
        wall_time_s=time.perf_counter() - start,
        details={**tolerances, "runs": runs},
    )


def _recovered(mu_err: float, sigma_star: float, sigma0: float) -> tuple[bool, dict]:
    sigma_err = abs(sigma_star - sigma0) / sigma0
    ok = mu_err <= _REL_TOL and sigma_err <= _REL_TOL
    return ok, {"rel_error": max(mu_err, sigma_err)}


def _collapsed(mu_err: float, sigma_star: float, sigma0: float) -> tuple[bool, dict]:
    return sigma_star <= _SIGMA_FACTOR * sigma0 and mu_err <= _MU_REL_TOL, {}


def check_posterior_recovery(
    seed: int, p_values: tuple = (2, 3, 8), trials: int = 10
) -> VerificationReport:
    """Recovery of (mu0, sigma0) over random posteriors and P values."""
    return _minimization_check(
        "posterior-recovery", "recovery", seed, p_values, trials,
        RegularizerKind.l1_sd, _recovered, {"rel_tol": _REL_TOL},
    )


def check_mode_collapse(
    seed: int, p_values: tuple = (2, 3, 8), trials: int = 10
) -> VerificationReport:
    """Squared-error minimization collapses the spread but keeps the mean."""
    return _minimization_check(
        "mode-collapse", "collapse", seed, p_values, trials,
        RegularizerKind.l2, _collapsed,
        {"sigma_factor": _SIGMA_FACTOR, "mu_rel_tol": _MU_REL_TOL},
    )


def check_average_error_ratio(
    seed: int, p_values: tuple = (2, 4, 8, 32), validation_size: int = 100_000
) -> VerificationReport:
    """Single-vs-P-average error ratio for true posterior samples.

    The posterior is standard normal.  The observed ratio must bracket
    2P/(P+1) within ``_N_SE`` combined standard errors (delta method on
    the paired per-item errors; one pass per P streams their moments).
    Each run's ``normals`` counts the draws of its pass: the validation
    truths, which every pass redraws, and the codes of both averages.
    Next to the estimated ``std_error``, ``std_error_closed_form`` is the SE
    on exact samples, ``R sqrt((4 - R) / V)`` with R = 2P/(P+1).
    """
    _require_p_values(p_values)
    # At P = 1 both runs of a pair score single samples: the target is 1 and
    # any ratio of two draws of the same error brackets it.
    _check_p(min(p_values))
    start = time.perf_counter()
    stream = SeededStream(seed, ("ratio",))
    post = ToyPosterior.single(0.0, 1.0)
    # The true posterior, scored as a generator with its own parameters.
    truth = GeneratorParams(*post.context_params(0))
    val = ValidationSet(post, 0, validation_size, stream.child("val"))
    runs = []
    passed = True
    for P in p_values:
        pair = ((1, stream.child("single", P)), (P, stream.child("averaged", P)))
        ratio, se = _ratio_from_moments(*_residual_moments(truth, val, pair))
        target = 2.0 * P / (P + 1)
        ok = abs(ratio - target) <= _N_SE * se
        passed = passed and ok
        runs.append(
            {
                "P": P,
                "ratio": ratio,
                "target": target,
                "std_error": se,
                "std_error_closed_form": target * math.sqrt((4.0 - target) / validation_size),
                "z": (ratio - target) / se if se > 0 else float("inf"),
                "normals": validation_size * (2 + P) * truth.dim,
                "ok": ok,
            }
        )
    return VerificationReport(
        name="average-error-ratio",
        passed=passed,
        wall_time_s=time.perf_counter() - start,
        details={"validation_size": validation_size, "n_se": _N_SE, "runs": runs},
    )
