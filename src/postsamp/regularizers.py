"""Diversity-aware supervision losses: Monte Carlo estimators and closed forms.

Three families of supervision loss for a conditional sampler, all built
from one true draw ``x`` and ``P`` generated draws ``xhat_1..xhat_P``
whose average is ``xhat_bar``:

* ``l1p``      -- E ||x - xhat_bar||_1, the P-sample absolute-error loss.
* ``lsdp``     -- sqrt(pi / (2 P (P-1))) * sum_i E ||xhat_i - xhat_bar||_1,
                  a spread *reward*.  For Gaussian samples the scaling makes
                  it an unbiased estimate of the per-dimension standard
                  deviation, summed over dimensions.
* ``l2p``      -- E ||x - xhat_bar||_2^2, the P-sample squared-error loss.
* ``lvarp``    -- (1/(P-1)) sum_i E ||xhat_i - xhat_bar||_2^2, an unbiased
                  estimate of the generated trace-covariance for any P >= 2.

The combined objective ``l1p - beta_sd * lsdp`` admits a closed form for
the Gaussian toy model: with ``delta = mu - mu0`` and
``s^2 = sigma0^2 + sigma^2 / P`` the difference ``x - xhat_bar`` is
``N(-delta, s^2)`` per dimension, whose absolute value has the folded
mean

    s * sqrt(2/pi) * exp(-delta^2 / (2 s^2)) + delta * erf(delta / (sqrt(2) s)).

Summing over dimensions and subtracting ``beta_sd * sum(sigma)`` gives
:func:`closed_form_j`, a convex function of (mu, sigma) whose unique
stationary point under the nominal weight :func:`beta_sd_nominal` is the
true (mu0, sigma0).  The squared-error losses likewise reduce to

    l2p  = ||mu - mu0||^2 + sum(sigma^2)/P + sum(sigma0^2)

(a bias/variance/floor split), and subtracting the variance reward
``lvarp / P`` cancels the ``sigma`` term entirely, which is why that
variant cannot see the generated spread.

Monte Carlo estimators pair one fresh true draw with P fresh generated
draws per outer replicate; the standard error is the empirical SD of the
per-replicate loss terms divided by sqrt(n_outer).

Memory model: replicates are partitioned into fixed chunks of 32768
(``_CHUNK``), and chunk ``i`` draws from its own substream, so the result
is identical no matter how many workers process the chunks.  Within a
chunk the true draws ``x`` (count x dim) are drawn first; the generated
draws are then drawn into one reused block of about 1 MiB (``_BLOCK``
float64 values, a whole number of replicates, at least one) and each
block is reduced to its replicates' terms before the next is drawn.
Per worker, memory is O(chunk * dim + block), independent of P.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np
from scipy.special import erf

from .streams import SeededStream
from .toy import GeneratorParams, ToyPosterior, affine_normals

__all__ = [
    "LossEstimate",
    "RegKind",
    "RegularizerKind",
    "gamma_p",
    "beta_sd_nominal",
    "mc_l1p",
    "mc_lsdp",
    "mc_l2p",
    "mc_lvarp",
    "closed_form_j",
    "closed_form_j_grad",
    "ClosedForm",
    "CLOSED_FORMS",
    "closed_form_l2p",
    "closed_form_l2varp",
    "folded_normal_abs_mean",
]

# Replicates per substream chunk; fixed so that results never depend on how
# chunks are distributed over workers.
_CHUNK = 1 << 15

# Float64 values per block of generated draws (1 MiB, so a block stays in
# L2); a block always holds at least one whole replicate.
_BLOCK = 1 << 17


@dataclass(frozen=True)
class LossEstimate:
    """A Monte Carlo loss value with its standard error."""

    value: float
    std_error: float
    n_outer: int
    P: int

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")

    def within(self, target: float, n_se: float = 4.0) -> bool:
        """True if ``target`` lies inside ``n_se`` standard errors."""
        return abs(self.value - target) <= n_se * self.std_error


class RegKind(enum.Enum):
    L1_SD = "l1sd"
    L2 = "l2"
    L2_VAR = "l2var"


@dataclass(frozen=True)
class RegularizerKind:
    """Which supervision objective to use, plus its parameters."""

    kind: RegKind
    P: int
    beta_sd: float | None = None

    def __post_init__(self) -> None:
        if self.P < 2:
            raise ValueError(f"P must be >= 2, got {self.P}")
        if self.kind is RegKind.L1_SD:
            if self.beta_sd is None:
                raise ValueError("L1_SD requires beta_sd")
            if self.beta_sd < 0:
                raise ValueError(f"beta_sd must be >= 0, got {self.beta_sd}")
        elif self.beta_sd is not None:
            raise ValueError(f"beta_sd only applies to L1_SD, not {self.kind}")

    @classmethod
    def l1_sd(cls, P: int, beta_sd: float | None = None) -> "RegularizerKind":
        """Absolute-error loss plus spread reward; beta defaults to nominal."""
        if beta_sd is None:
            beta_sd = beta_sd_nominal(P)
        return cls(RegKind.L1_SD, P, float(beta_sd))

    @classmethod
    def l2(cls, P: int) -> "RegularizerKind":
        return cls(RegKind.L2, P)

    @classmethod
    def l2_var(cls, P: int) -> "RegularizerKind":
        return cls(RegKind.L2_VAR, P)


def gamma_p(P: int) -> float:
    """Spread-reward scaling sqrt(pi * P / (2 * (P - 1))).

    Dividing by P recovers the coefficient sqrt(pi / (2 P (P-1))) that
    multiplies the summed absolute deviations in the spread reward; with
    this scaling the reward is an unbiased standard-deviation estimate
    for Gaussian samples.
    """
    if P < 2:
        raise ValueError(f"P must be >= 2, got {P}")
    return math.sqrt(math.pi * P / (2.0 * (P - 1)))


def beta_sd_nominal(P: int) -> float:
    """Nominal spread-reward weight sqrt(2 / (pi * P * (P + 1))).

    Under this weight the closed-form combined objective is stationary
    exactly at the true posterior parameters of the Gaussian toy model.
    """
    if P < 2:
        raise ValueError(f"P must be >= 2, got {P}")
    return math.sqrt(2.0 / (math.pi * P * (P + 1)))


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------


def _chunked_terms(
    n_outer: int,
    stream: SeededStream,
    term_fn: Callable[[int, SeededStream], np.ndarray],
    threads: int = 1,
) -> np.ndarray:
    """Evaluate per-replicate loss terms chunk by chunk, deterministically.

    Chunk ``i`` always uses substream ``stream.child(i)``, so splitting the
    chunks over any number of workers cannot change the assembled array.
    Chunks hold 32768 replicates (the last may be shorter); ``term_fn``
    reduces its generated draws in blocks of about 1 MiB
    (:func:`_xhat_blocks`), so each worker holds O(chunk * dim + block)
    values whatever P is.
    """
    if n_outer < 2:
        raise ValueError(f"n_outer must be >= 2, got {n_outer}")
    n_chunks = -(-n_outer // _CHUNK)
    sizes = [min(_CHUNK, n_outer - i * _CHUNK) for i in range(n_chunks)]

    def run(i: int) -> np.ndarray:
        return term_fn(sizes[i], stream.child(i))

    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, range(n_chunks)))
    else:
        parts = [run(i) for i in range(n_chunks)]
    return np.concatenate(parts)


def _estimate(terms: np.ndarray, P: int) -> LossEstimate:
    n = terms.shape[0]
    return LossEstimate(
        value=float(terms.mean()),
        std_error=float(terms.std(ddof=1) / math.sqrt(n)),
        n_outer=n,
        P=P,
    )


def _check_mc_args(P: int, n_outer: int) -> None:
    if P < 2:
        raise ValueError(f"P must be >= 2, got {P}")
    if n_outer < 2:
        raise ValueError(f"n_outer must be >= 2, got {n_outer}")


def _context_params(
    params: GeneratorParams, post: ToyPosterior, context: int
) -> tuple[np.ndarray, np.ndarray]:
    """(mu0, sigma0) of one context, checked against the generator's dimension."""
    mu0, sigma0 = post.context_params(context)
    if params.dim != post.dim:
        raise ValueError(f"dimension mismatch: generator {params.dim}, posterior {post.dim}")
    return mu0, sigma0


def _xhat_blocks(
    g: np.random.Generator, params: GeneratorParams, count: int, P: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, xhat)`` covering the generated draws of one chunk.

    ``xhat`` is a ``(rows, P, dim)`` view of one reused buffer of about
    ``_BLOCK`` values, holding ``mu + sigma * z`` for replicates
    ``start .. start + rows``; the next block overwrites it, so reduce it
    before advancing.  Successive draws continue ``g``'s variate sequence,
    so the blocks replay one ``(count, P, dim)`` draw exactly.
    """
    per_row = P * params.dim
    rows = max(1, min(count, _BLOCK // per_row))
    buffer = np.empty(rows * per_row)
    for start in range(0, count, rows):
        n = min(rows, count - start)
        xhat = buffer[: n * per_row].reshape(n, P, params.dim)
        yield start, affine_normals(g, params.mu, params.sigma, xhat)


def _residual_sums(
    params: GeneratorParams,
    post: ToyPosterior,
    context: int,
    P: int,
    n_outer: int,
    stream: SeededStream,
    threads: int,
    elementwise: np.ufunc,
) -> np.ndarray:
    """Per replicate, ``elementwise(x - xhat_bar)`` summed over dimensions."""
    _check_mc_args(P, n_outer)
    mu0, sigma0 = _context_params(params, post, context)

    def term(count: int, sub: SeededStream) -> np.ndarray:
        g = sub.generator()
        x = affine_normals(g, mu0, sigma0, np.empty((count, post.dim)))
        terms = np.empty(count)
        for start, xhat in _xhat_blocks(g, params, count, P):
            rows = slice(start, start + xhat.shape[0])
            residual = xhat.mean(axis=1)
            np.subtract(x[rows], residual, out=residual)
            terms[rows] = elementwise(residual, out=residual).sum(axis=1)
        return terms

    return _chunked_terms(n_outer, stream, term, threads)


def _spread_sums(
    params: GeneratorParams,
    P: int,
    n_outer: int,
    stream: SeededStream,
    threads: int,
    elementwise: np.ufunc,
) -> np.ndarray:
    """Per replicate, ``elementwise(xhat_i - xhat_bar)`` summed over i and dimensions."""
    _check_mc_args(P, n_outer)

    def term(count: int, sub: SeededStream) -> np.ndarray:
        terms = np.empty(count)
        for start, xhat in _xhat_blocks(sub.generator(), params, count, P):
            np.subtract(xhat, xhat.mean(axis=1, keepdims=True), out=xhat)
            terms[start : start + xhat.shape[0]] = elementwise(xhat, out=xhat).sum(axis=(1, 2))
        return terms

    return _chunked_terms(n_outer, stream, term, threads)


def mc_l1p(
    params: GeneratorParams,
    post: ToyPosterior,
    context: int,
    P: int,
    n_outer: int,
    stream: SeededStream,
    threads: int = 1,
) -> LossEstimate:
    """Monte Carlo estimate of E ||x - xhat_bar||_1.

    Each outer replicate pairs one fresh posterior draw with P fresh
    generator draws.
    """
    terms = _residual_sums(params, post, context, P, n_outer, stream, threads, np.abs)
    return _estimate(terms, P)


def mc_lsdp(
    params: GeneratorParams,
    P: int,
    n_outer: int,
    stream: SeededStream,
    threads: int = 1,
) -> LossEstimate:
    """Monte Carlo estimate of the spread reward.

    For the Gaussian toy generator its expectation is exactly
    ``sum(sigma)``, independent of P.
    """
    terms = _spread_sums(params, P, n_outer, stream, threads, np.abs)
    return _estimate(gamma_p(P) / P * terms, P)


def mc_l2p(
    params: GeneratorParams,
    post: ToyPosterior,
    context: int,
    P: int,
    n_outer: int,
    stream: SeededStream,
    threads: int = 1,
) -> LossEstimate:
    """Monte Carlo estimate of E ||x - xhat_bar||_2^2."""
    terms = _residual_sums(params, post, context, P, n_outer, stream, threads, np.square)
    return _estimate(terms, P)


def mc_lvarp(
    params: GeneratorParams,
    P: int,
    n_outer: int,
    stream: SeededStream,
    threads: int = 1,
) -> LossEstimate:
    """Monte Carlo estimate of the variance reward.

    The per-replicate term is the Bessel-corrected sample variance summed
    over dimensions, so its expectation is ``sum(sigma^2)`` for any
    P >= 2.
    """
    terms = _spread_sums(params, P, n_outer, stream, threads, np.square)
    return _estimate(terms / (P - 1), P)


# ---------------------------------------------------------------------------
# Closed forms for the Gaussian toy model
# ---------------------------------------------------------------------------


def folded_normal_abs_mean(delta, s):
    """E|W| for W ~ N(delta, s^2), elementwise over arrays.

    Equals ``s * sqrt(2/pi) * exp(-delta^2/(2 s^2))
    + delta * erf(delta / (sqrt(2) s))`` and tends to |delta| when
    |delta| >> s.  ``s`` must be positive.
    """
    delta = np.asarray(delta, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    ratio = delta / s
    with np.errstate(under="ignore"):
        gauss = np.exp(-0.5 * ratio**2)
    return s * math.sqrt(2.0 / math.pi) * gauss + delta * erf(ratio / math.sqrt(2.0))


def _delta_and_s(
    params: GeneratorParams, post: ToyPosterior, context: int, P: int
) -> tuple[np.ndarray, np.ndarray]:
    mu0, sigma0 = _context_params(params, post, context)
    delta = params.mu - mu0
    s = np.sqrt(sigma0**2 + params.sigma**2 / P)
    return delta, s


def closed_form_j(
    params: GeneratorParams,
    post: ToyPosterior,
    context: int,
    P: int,
    beta_sd: float,
) -> float:
    """Exact value of ``l1p - beta_sd * lsdp`` for the Gaussian toy model."""
    if P < 2:
        raise ValueError(f"P must be >= 2, got {P}")
    if beta_sd < 0:
        raise ValueError(f"beta_sd must be >= 0, got {beta_sd}")
    delta, s = _delta_and_s(params, post, context, P)
    return float(folded_normal_abs_mean(delta, s).sum() - beta_sd * params.sigma.sum())


def closed_form_j_grad(
    params: GeneratorParams,
    post: ToyPosterior,
    context: int,
    P: int,
    beta_sd: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of :func:`closed_form_j` w.r.t. (mu, sigma).

    Per dimension, with delta = mu - mu0 and s^2 = sigma0^2 + sigma^2/P:

        dJ/dmu    = erf(delta / (sqrt(2) s))
        dJ/dsigma = sqrt(2/pi) * exp(-delta^2/(2 s^2)) * sigma / (P s) - beta_sd

    (the exp terms produced by differentiating the folded mean in mu
    cancel exactly, leaving only the erf).  At sigma = 0 the sigma part
    is the right-sided derivative, which equals -beta_sd.
    """
    kind = RegularizerKind(RegKind.L1_SD, P, beta_sd)
    mu0, sigma0 = _context_params(params, post, context)
    return CLOSED_FORMS[RegKind.L1_SD].grad(params.mu - mu0, params.sigma, sigma0, kind)


# ---------------------------------------------------------------------------
# One table of per-dimension closed forms: value, gradient, Hessian by kind
# ---------------------------------------------------------------------------


class ClosedForm(NamedTuple):
    """Elementwise closed forms of one objective kind.

    Every entry is called as ``f(delta, sigma, sigma0, kind)`` with
    ``delta = mu - mu0`` and acts per dimension, since all objectives are
    separable: ``value`` is the objective, ``grad`` the pair
    (d/dmu, d/dsigma) and ``hess`` the triple (mu mu, mu sigma,
    sigma sigma); constant entries may be returned as scalars, which
    broadcast.  Summing ``value`` over dimensions gives the objective of a
    vector posterior.
    """

    value: Callable
    grad: Callable
    hess: Callable


def _l1sd_terms(delta, sigma, sigma0, P):
    """s, r = delta / s and phi = sqrt(2/pi) exp(-r^2/2)."""
    s = np.sqrt(sigma0**2 + sigma**2 / P)
    ratio = delta / s
    with np.errstate(under="ignore"):
        phi = math.sqrt(2.0 / math.pi) * np.exp(-0.5 * ratio**2)
    return s, ratio, phi


def _l1sd_value(delta, sigma, sigma0, kind):
    s = np.sqrt(sigma0**2 + sigma**2 / kind.P)
    return folded_normal_abs_mean(delta, s) - kind.beta_sd * sigma


def _l1sd_grad(delta, sigma, sigma0, kind):
    """See :func:`closed_form_j_grad`."""
    s, ratio, phi = _l1sd_terms(delta, sigma, sigma0, kind.P)
    grad_mu = erf(ratio / math.sqrt(2.0))
    grad_sigma = phi * sigma / (kind.P * s) - kind.beta_sd
    return np.asarray(grad_mu, dtype=np.float64), np.asarray(grad_sigma, dtype=np.float64)


def _l1sd_hess(delta, sigma, sigma0, kind):
    """The 2x2 Hessian per dimension, with a = sigma / (P s):

        H_mumu = phi / s,  H_musigma = -phi r a / s,
        H_sigmasigma = phi (r^2 a^2 / s + sigma0^2 / (P s^3)).

    Far from the optimum (|r| beyond about 38) phi underflows to 0.
    """
    s, ratio, phi = _l1sd_terms(delta, sigma, sigma0, kind.P)
    a = sigma / (kind.P * s)
    return (
        phi / s,
        -phi * ratio * a / s,
        phi * (ratio**2 * a**2 / s + sigma0**2 / (kind.P * s**3)),
    )


def _l2_value(delta, sigma, sigma0, kind):
    return delta**2 + sigma**2 / kind.P + sigma0**2


def _l2_grad(delta, sigma, sigma0, kind):
    return 2.0 * delta, 2.0 * sigma / kind.P


def _l2_hess(delta, sigma, sigma0, kind):
    return 2.0, 0.0, 2.0 / kind.P


def _l2var_value(delta, sigma, sigma0, kind):
    return delta**2 + sigma0**2 + 0.0 * sigma


def _l2var_grad(delta, sigma, sigma0, kind):
    return 2.0 * delta, 0.0 * sigma


def _l2var_hess(delta, sigma, sigma0, kind):
    return 2.0, 0.0, 0.0


# The squared-error-plus-variance objective is flat in sigma by construction:
# its sigma gradient and Hessian are identically zero.
CLOSED_FORMS: dict[RegKind, ClosedForm] = {
    RegKind.L1_SD: ClosedForm(_l1sd_value, _l1sd_grad, _l1sd_hess),
    RegKind.L2: ClosedForm(_l2_value, _l2_grad, _l2_hess),
    RegKind.L2_VAR: ClosedForm(_l2var_value, _l2var_grad, _l2var_hess),
}


def closed_form_l2p(
    params: GeneratorParams, post: ToyPosterior, context: int, P: int
) -> float:
    """Exact P-sample squared-error loss: bias^2 + variance/P + noise floor."""
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    mu0, sigma0 = _context_params(params, post, context)
    bias = params.mu - mu0
    return float((bias**2).sum() + (params.sigma**2).sum() / P + (sigma0**2).sum())


def closed_form_l2varp(
    params: GeneratorParams, post: ToyPosterior, context: int, P: int
) -> float:
    """Squared-error loss minus the variance reward: ||mu - mu0||^2 + sum(sigma0^2).

    The generated spread cancels out entirely, so this objective is flat
    in sigma.
    """
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    mu0, sigma0 = _context_params(params, post, context)
    bias = params.mu - mu0
    return float((bias**2).sum() + (sigma0**2).sum())

