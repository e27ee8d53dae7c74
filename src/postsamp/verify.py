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

import time
from dataclasses import dataclass, field

from .autotune import e_hat_items, make_validation_set, ratio_with_se
from .proplab import minimize_regularizer
from .regularizers import RegularizerKind
from .streams import SeededStream
from .toy import GeneratorParams, ToyPosterior, posterior_sampler

__all__ = [
    "VerificationReport",
    "check_posterior_recovery",
    "check_mode_collapse",
    "check_average_error_ratio",
]


@dataclass
class VerificationReport:
    name: str
    passed: bool
    wall_time_s: float
    details: dict = field(default_factory=dict)


def _random_posterior(stream: SeededStream) -> tuple[float, float]:
    rng = stream.generator()
    return float(rng.uniform(-10.0, 10.0)), float(rng.uniform(0.1, 10.0))


def check_posterior_recovery(
    seed: int,
    p_values: tuple = (2, 3, 8),
    trials: int = 10,
    rel_tol: float = 1e-3,
) -> VerificationReport:
    """Recovery of (mu0, sigma0) over random posteriors and P values."""
    start = time.perf_counter()
    stream = SeededStream(seed, ("recovery",))
    init = GeneratorParams(5.0, 5.0)
    runs = []
    passed = True
    for trial in range(trials):
        mu0, sigma0 = _random_posterior(stream.child(trial))
        post = ToyPosterior.single(mu0, sigma0)
        for P in p_values:
            report = minimize_regularizer(RegularizerKind.l1_sd(P), post, 0, init)
            mu_err = abs(float(report.theta_star.mu[0]) - mu0) / max(1.0, abs(mu0))
            sigma_err = abs(float(report.theta_star.sigma[0]) - sigma0) / sigma0
            ok = report.converged and mu_err <= rel_tol and sigma_err <= rel_tol
            passed = passed and ok
            runs.append(
                {
                    "trial": trial,
                    "P": P,
                    "mu0": mu0,
                    "sigma0": sigma0,
                    "mu_star": float(report.theta_star.mu[0]),
                    "sigma_star": float(report.theta_star.sigma[0]),
                    "rel_error": max(mu_err, sigma_err),
                    "converged": report.converged,
                    "iterations": report.iterations,
                    "ok": ok,
                }
            )
    return VerificationReport(
        name="posterior-recovery",
        passed=passed,
        wall_time_s=time.perf_counter() - start,
        details={"rel_tol": rel_tol, "runs": runs},
    )


def check_mode_collapse(
    seed: int,
    p_values: tuple = (2, 3, 8),
    trials: int = 10,
    sigma_factor: float = 1e-4,
    mu_rel_tol: float = 1e-3,
) -> VerificationReport:
    """Squared-error minimization collapses the spread but keeps the mean."""
    start = time.perf_counter()
    stream = SeededStream(seed, ("collapse",))
    init = GeneratorParams(5.0, 5.0)
    runs = []
    passed = True
    for trial in range(trials):
        mu0, sigma0 = _random_posterior(stream.child(trial))
        post = ToyPosterior.single(mu0, sigma0)
        for P in p_values:
            report = minimize_regularizer(RegularizerKind.l2(P), post, 0, init)
            mu_err = abs(float(report.theta_star.mu[0]) - mu0) / max(1.0, abs(mu0))
            sigma_star = float(report.theta_star.sigma[0])
            ok = (
                report.converged
                and sigma_star <= sigma_factor * sigma0
                and mu_err <= mu_rel_tol
            )
            passed = passed and ok
            runs.append(
                {
                    "trial": trial,
                    "P": P,
                    "mu0": mu0,
                    "sigma0": sigma0,
                    "mu_star": float(report.theta_star.mu[0]),
                    "sigma_star": sigma_star,
                    "converged": report.converged,
                    "iterations": report.iterations,
                    "ok": ok,
                }
            )
    return VerificationReport(
        name="mode-collapse",
        passed=passed,
        wall_time_s=time.perf_counter() - start,
        details={"sigma_factor": sigma_factor, "mu_rel_tol": mu_rel_tol, "runs": runs},
    )


def check_average_error_ratio(
    seed: int,
    p_values: tuple = (2, 4, 8, 32),
    validation_size: int = 100_000,
    n_se: float = 4.0,
    mu0: float = 0.0,
    sigma0: float = 1.0,
) -> VerificationReport:
    """Single-vs-P-average error ratio for true posterior samples.

    The observed ratio must bracket 2P/(P+1) within ``n_se`` combined
    standard errors (delta method on the paired per-item errors).
    """
    start = time.perf_counter()
    stream = SeededStream(seed, ("ratio",))
    post = ToyPosterior.single(mu0, sigma0)
    sampler = posterior_sampler(post)
    val = make_validation_set(post, validation_size, stream.child("val"))
    runs = []
    passed = True
    for P in p_values:
        single = e_hat_items(sampler, val, 1, stream.child("single", P))
        averaged = e_hat_items(sampler, val, P, stream.child("averaged", P))
        ratio, se = ratio_with_se(single, averaged)
        target = 2.0 * P / (P + 1)
        ok = abs(ratio - target) <= n_se * se
        passed = passed and ok
        runs.append(
            {
                "P": P,
                "ratio": ratio,
                "target": target,
                "std_error": se,
                "z": (ratio - target) / se if se > 0 else float("inf"),
                "ok": ok,
            }
        )
    return VerificationReport(
        name="average-error-ratio",
        passed=passed,
        wall_time_s=time.perf_counter() - start,
        details={"validation_size": validation_size, "n_se": n_se, "runs": runs},
    )
