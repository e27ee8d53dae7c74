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

The ``erf`` above is ``scipy.special.erf``.  scipy is imported on the
first absolute-error closed-form call, not with this module, so commands
that evaluate no such closed form start without it.

Monte Carlo estimators pair one fresh true draw with P fresh generated
draws per outer replicate; the standard error is the empirical SD of the
per-replicate loss terms divided by sqrt(n_outer).

Memory model: one engine draws every Monte Carlo quantity of the package:
these losses, the validation errors of :mod:`postsamp.autotune` and the
streamed detection probability of :mod:`postsamp.detect`.  Work is split
into fixed draw units of 16384 replicates (``_UNIT``), which one runner,
:func:`_run_units`, draws for the losses and the validation errors: unit
``u`` draws the codes of each run from ``stream.child("codes", u)`` and
the truths its runs share from ``stream.child("truths", u)``, in reused
blocks of about 1 MiB (``_BLOCK``) reduced before the next is drawn.
Blocks continue their substream, so neither the block size nor the worker
count can change a result.  Every unit is reduced to (count, means,
co-moments) of its rows: the loss terms of one run, or the validation
errors of one or two paired runs.  The standard errors of the losses come
from the co-moments' diagonal.  Units merge in unit order (Chan, Golub &
LeVeque), so memory is O(unit + block) per worker whatever P, the
dimension or the replicate count is.

Threads: every caller spreads its units over a pool of worker threads,
one per CPU this process may use (its affinity set), but never more than
there are units; ``threads=N`` on the loss estimators caps the pool at N.
Philox is counter-based, so any unit can be drawn on any thread, and the
results are the same bits for every worker count.  Unit reductions stay
elementwise and call no BLAS: with ``@``, two pool threads contended in
OpenBLAS and the P = 32 paired pass over 1e6 items took 0.89 s, not 0.49 s
(medians of 7 on a 2-CPU x86-64 host, OpenBLAS 0.3.31).
"""

from __future__ import annotations

import enum
import functools
import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, TypeVar

import numpy as np

from .streams import SeededStream
from .toy import GeneratorParams, ToyPosterior, affine_normals

__all__ = [
    "LossEstimate",
    "RegKind",
    "RegularizerKind",
    "gamma_p",
    "beta_sd_nominal",
    "mc_losses",
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

# Replicates per draw unit.  Results are keyed to it: unit u draws from its
# own substreams, so no block size or worker count can change them.
_UNIT = 1 << 14

# Float64 values per block of draws (1 MiB, so a block stays in L2); a block
# always holds at least one whole replicate.
_BLOCK = 1 << 17

_T = TypeVar("_T")


@dataclass(frozen=True)
class LossEstimate:
    """A Monte Carlo loss value with its standard error.

    ``normals`` counts the standard normals drawn by the pass that produced
    the estimate (one pass of :func:`mc_losses` gives four estimates).
    """

    value: float
    std_error: float
    n_outer: int
    P: int
    normals: int

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
# Monte Carlo engine
# ---------------------------------------------------------------------------


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_units(n: int, threads: int | None, unit: Callable[[int, int], _T]) -> Iterator[_T]:
    """``unit(u, count)`` for the draw units of ``n`` items, yielded in unit order.

    At most ``min(threads, usable CPUs, units)`` workers run (``threads``
    None: no cap of its own), with at most two results per worker waiting,
    so memory does not grow with ``n``.
    """
    units = -(-n // _UNIT)
    jobs = ((u, min(_UNIT, n - u * _UNIT)) for u in range(units))
    workers = min(units if threads is None else threads, _usable_cpus(), units)
    if workers <= 1:
        yield from (unit(*job) for job in jobs)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for job in jobs:
            pending.append(pool.submit(unit, *job))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        yield from (future.result() for future in pending)


def _blocks(
    g: np.random.Generator, mu, sigma, count: int, shape: tuple, width: int = 0, buffer=None
) -> Iterator[tuple[slice, np.ndarray]]:
    """``(rows, mu + sigma * z)`` for ``count`` rows shaped ``shape``, block by block.

    A block holds about ``_BLOCK`` values (at least one row) in one reused
    buffer, so reduce it before advancing; ``width`` sizes the blocks as if
    a row held that many values, to align the rows of two substreams.
    ``buffer``, if given, must hold a block.  Blocks continue ``g``'s
    sequence, so any split replays the same draws.
    """
    size = math.prod(shape)
    step = max(1, min(count, _BLOCK // max(width, size)))
    if buffer is None:
        buffer = np.empty(step * size)
    for start in range(0, count, step):
        n = min(step, count - start)
        out = buffer[: n * size].reshape(n, *shape)
        yield slice(start, start + n), affine_normals(g, mu, sigma, out)


def _block_terms(xhat: np.ndarray, x: np.ndarray | None, spread: bool, out: np.ndarray) -> None:
    """Per-replicate loss terms of a block of ``(rows, P, dim)`` codes ``xhat``
    (overwritten) into the rows of ``out``: with truths ``x``, first
    ``|x - xhat_bar|`` and ``(x - xhat_bar)^2`` summed over dimensions; with
    ``spread``, last ``|xhat_i - xhat_bar|`` and ``(xhat_i - xhat_bar)^2``
    summed over samples and dimensions."""
    # Sample by sample, elementwise: fast for small dimensions, and the
    # same bits for any number of rows.
    mean = xhat[:, 0].copy()
    for i in range(1, xhat.shape[1]):
        mean += xhat[:, i]
    mean /= xhat.shape[1]
    if spread:
        np.subtract(xhat, mean[:, None], out=xhat)
        out[-2] = np.abs(xhat, out=xhat).sum(axis=(1, 2))
        out[-1] = np.square(xhat, out=xhat).sum(axis=(1, 2))
    if x is not None:
        np.subtract(x, mean, out=mean)
        out[0] = np.abs(mean, out=mean).sum(axis=1)
        out[1] = np.square(mean, out=mean).sum(axis=1)


def _comoments(items: np.ndarray) -> tuple:
    """(count, means, co-moments) of the rows of ``items``.

    Co-moment ``(i, j)`` sums the products of row i's and row j's deviations.
    """
    mean = items.mean(axis=1)
    d = items - mean[:, None]
    rows = range(len(d))
    return items.shape[1], mean, np.array([[(d[i] * d[j]).sum() for j in rows] for i in rows])


def _merge(a: tuple, b: tuple) -> tuple:
    """Pooled :func:`_comoments` of two disjoint samples: Chan, Golub &
    LeVeque's update, with the outer product of the mean differences."""
    (n_a, mean_a, m2_a), (n_b, mean_b, m2_b) = a, b
    n, delta = n_a + n_b, mean_b - mean_a
    spread = np.multiply.outer(delta, delta)
    return n, mean_a + delta * (n_b / n), m2_a + m2_b + spread * (n_a * n_b / n)


def _context_params(
    params: GeneratorParams, post: ToyPosterior, context: int
) -> tuple[np.ndarray, np.ndarray]:
    """(mu0, sigma0) of one context, checked against the generator's dimension."""
    mu0, sigma0 = post.context_params(context)
    if params.dim != post.dim:
        raise ValueError(f"dimension mismatch: generator {params.dim}, posterior {post.dim}")
    return mu0, sigma0


def _run_units(
    params: GeneratorParams,
    runs: tuple,
    n: int,
    truth: tuple | None,
    spread: bool,
    threads: int | None,
    reduce: Callable[[np.ndarray], _T],
) -> Iterator[_T]:
    """``reduce(terms)`` per draw unit of ``n`` replicates, in unit order.

    Run ``(P, stream)`` draws unit ``u``'s codes from ``stream.child("codes", u)``;
    with ``truth = (post, context, stream)``, one truth per replicate, which
    every run shares, comes from ``stream.child("truths", u)``.
    ``terms[r]`` holds run r's :func:`_block_terms` rows.  All blocks of a
    unit are sized by the widest run, so they cover the same rows.  Each
    worker reuses its block buffers: fresh ones per unit were returned to
    the OS and faulted in again (a sixth of ``autotune-sim --mc`` on 1 CPU).
    """
    for P, _ in runs:
        if P < 1:
            raise ValueError(f"P must be >= 1, got {P}")
    dim = params.dim
    width = max(P for P, _ in runs) * dim
    draws = [(s, "codes", params.mu, params.sigma, (P, dim)) for P, s in runs]
    if truth is not None:
        post, context, s = truth
        draws.append((s, "truths", *_context_params(params, post, context), (dim,)))
    scratch = threading.local()

    def unit(u: int, count: int) -> _T:
        if not hasattr(scratch, "buffers"):  # room for the blocks of the largest unit
            step = max(1, min(n, _UNIT, _BLOCK // width))
            scratch.buffers = [np.empty(step * math.prod(draw[-1])) for draw in draws]
        blocks = [
            _blocks(s.child(label, u).generator(), mu, sigma, count, shape, width, buffer)
            for (s, label, mu, sigma, shape), buffer in zip(draws, scratch.buffers)
        ]
        terms = np.empty((len(runs), 2 * (truth is not None) + 2 * spread, count))
        for drawn in zip(*blocks):
            rows = drawn[0][0]
            x = drawn[-1][1] if truth is not None else None
            for out, (_, xhat) in zip(terms, drawn[: len(runs)]):
                _block_terms(xhat, x, spread, out[:, rows])
        return reduce(terms)

    return _map_units(n, threads, unit)


def _mc_pass(
    params: GeneratorParams,
    truth: tuple | None,
    P: int,
    n_outer: int,
    stream: SeededStream,
    threads: int | None,
    spread: bool,
) -> dict[str, LossEstimate]:
    """The losses that one pass over ``n_outer`` replicates gives, by name.

    Unit ``u`` draws its codes from ``stream.child("codes", u)`` and, when
    ``truth`` is ``(post, context)``, its truths from ``stream.child("truths", u)``.
    """
    if P < 2:
        raise ValueError(f"P must be >= 2, got {P}")
    if n_outer < 2:
        raise ValueError(f"n_outer must be >= 2, got {n_outer}")
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    truths = None if truth is None else (*truth, stream)
    reduce = lambda terms: _comoments(terms[0])  # noqa: E731
    units = _run_units(params, ((P, stream),), n_outer, truths, spread, threads, reduce)
    n, mean, m2 = functools.reduce(_merge, units)
    names = ("l1p", "l2p") * (truth is not None) + ("lsdp", "lvarp") * spread
    scale = {"l1p": 1.0, "l2p": 1.0, "lsdp": gamma_p(P) / P, "lvarp": 1.0 / (P - 1)}
    normals = n * params.dim * (P + (truth is not None))
    return {
        name: LossEstimate(float(scale[name] * m), float(scale[name] * se), n, P, normals)
        for name, m, se in zip(names, mean, np.sqrt(np.diag(m2) / (n - 1) / n))
    }


def _residual_units(
    params: GeneratorParams, val, runs: tuple, reduce: Callable[[np.ndarray], _T]
) -> Iterator[_T]:
    """``reduce(items)`` per draw unit of a :class:`postsamp.autotune.ValidationSet`:
    one row per run ``(P, stream)`` of ``||x - xhat_bar||_2^2`` per truth."""
    truth = (val.post, val.context, val.stream)
    return _run_units(params, runs, val.size, truth, False, None, lambda t: reduce(t[:, 1]))


def _residual_moments(params: GeneratorParams, val, runs: tuple) -> tuple:
    """:func:`_comoments` of the residual items of the runs ``(P, stream)``.

    Each unit is reduced as soon as it is drawn and the units merge in unit
    order, so memory is O(unit + block) per worker whatever ``val.size`` is.
    """
    return functools.reduce(_merge, _residual_units(params, val, runs, _comoments))


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------


def mc_losses(
    params: GeneratorParams,
    post: ToyPosterior,
    context: int,
    P: int,
    n_outer: int,
    stream: SeededStream,
    threads: int | None = None,
) -> dict[str, LossEstimate]:
    """``l1p``, ``l2p``, ``lsdp`` and ``lvarp`` from one set of draws.

    Each estimate equals the one its single-loss function gives for the
    same arguments, bit for bit; the pass draws ``n_outer * (P + 1) * dim``
    normals once instead of once per loss.
    """
    return _mc_pass(params, (post, context), P, n_outer, stream, threads, spread=True)


def mc_l1p(
    params: GeneratorParams,
    post: ToyPosterior,
    context: int,
    P: int,
    n_outer: int,
    stream: SeededStream,
    threads: int | None = None,
) -> LossEstimate:
    """Monte Carlo estimate of E ||x - xhat_bar||_1.

    Each outer replicate pairs one fresh posterior draw with P fresh
    generator draws.
    """
    return _mc_pass(params, (post, context), P, n_outer, stream, threads, spread=False)["l1p"]


def mc_lsdp(
    params: GeneratorParams,
    P: int,
    n_outer: int,
    stream: SeededStream,
    threads: int | None = None,
) -> LossEstimate:
    """Monte Carlo estimate of the spread reward.

    For the Gaussian toy generator its expectation is exactly
    ``sum(sigma)``, independent of P.
    """
    return _mc_pass(params, None, P, n_outer, stream, threads, spread=True)["lsdp"]


def mc_l2p(
    params: GeneratorParams,
    post: ToyPosterior,
    context: int,
    P: int,
    n_outer: int,
    stream: SeededStream,
    threads: int | None = None,
) -> LossEstimate:
    """Monte Carlo estimate of E ||x - xhat_bar||_2^2."""
    return _mc_pass(params, (post, context), P, n_outer, stream, threads, spread=False)["l2p"]


def mc_lvarp(
    params: GeneratorParams,
    P: int,
    n_outer: int,
    stream: SeededStream,
    threads: int | None = None,
) -> LossEstimate:
    """Monte Carlo estimate of the variance reward.

    The per-replicate term is the Bessel-corrected sample variance summed
    over dimensions, so its expectation is ``sum(sigma^2)`` for any
    P >= 2.
    """
    return _mc_pass(params, None, P, n_outer, stream, threads, spread=True)["lvarp"]


# ---------------------------------------------------------------------------
# Closed forms for the Gaussian toy model: one table by kind
# ---------------------------------------------------------------------------


def _erf(x):
    """``scipy.special.erf``, elementwise; the closed forms keep its bits."""
    from scipy.special import erf  # here, not at the top: keeps CLI cold start cheap

    return erf(x)


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
    return s * math.sqrt(2.0 / math.pi) * gauss + delta * _erf(ratio / math.sqrt(2.0))


class ClosedForm(NamedTuple):
    """The closed forms of one objective kind, the only place each is written.

    Every entry is called as ``f(delta, sigma, sigma0, P, beta_sd)`` with
    ``delta = mu - mu0``, on arrays whose last axis is the posterior
    dimension; ``value`` sums over it.  Called with a trailing axis of
    one, ``value`` gives one value per leading index (a grid point, or a
    dimension of a separable objective), bit for bit the single-dimension
    value.  ``grad`` (the pair d/dmu, d/dsigma) and ``hess`` (the triple
    mu mu, mu sigma, sigma sigma) act elementwise; constant entries may be
    returned as scalars, which broadcast.  ``P`` and ``beta_sd`` are read
    only by the kinds that use them.
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


def _l1sd_value(delta, sigma, sigma0, P, beta_sd):
    s = np.sqrt(sigma0**2 + sigma**2 / P)
    return folded_normal_abs_mean(delta, s).sum(-1) - beta_sd * sigma.sum(-1)


def _l1sd_grad(delta, sigma, sigma0, P, beta_sd):
    """See :func:`closed_form_j_grad`."""
    s, ratio, phi = _l1sd_terms(delta, sigma, sigma0, P)
    grad_mu = _erf(ratio / math.sqrt(2.0))
    grad_sigma = phi * sigma / (P * s) - beta_sd
    return np.asarray(grad_mu, dtype=np.float64), np.asarray(grad_sigma, dtype=np.float64)


def _l1sd_hess(delta, sigma, sigma0, P, beta_sd):
    """The 2x2 Hessian per dimension, with a = sigma / (P s):

        H_mumu = phi / s,  H_musigma = -phi r a / s,
        H_sigmasigma = phi (r^2 a^2 / s + sigma0^2 / (P s^3)).

    Far from the optimum (|r| beyond about 38) phi underflows to 0.
    """
    s, ratio, phi = _l1sd_terms(delta, sigma, sigma0, P)
    a = sigma / (P * s)
    return (
        phi / s,
        -phi * ratio * a / s,
        phi * (ratio**2 * a**2 / s + sigma0**2 / (P * s**3)),
    )


def _l2_value(delta, sigma, sigma0, P, beta_sd):
    return (delta**2).sum(-1) + (sigma**2).sum(-1) / P + (sigma0**2).sum(-1)


def _l2_grad(delta, sigma, sigma0, P, beta_sd):
    return 2.0 * delta, 2.0 * sigma / P


def _l2_hess(delta, sigma, sigma0, P, beta_sd):
    return 2.0, 0.0, 2.0 / P


def _l2var_value(delta, sigma, sigma0, P, beta_sd):
    return (delta**2).sum(-1) + (sigma0**2).sum(-1)


def _l2var_grad(delta, sigma, sigma0, P, beta_sd):
    return 2.0 * delta, 0.0 * sigma


def _l2var_hess(delta, sigma, sigma0, P, beta_sd):
    return 2.0, 0.0, 0.0


# The squared-error-plus-variance objective is flat in sigma by construction:
# its sigma gradient and Hessian are identically zero.
CLOSED_FORMS: dict[RegKind, ClosedForm] = {
    RegKind.L1_SD: ClosedForm(_l1sd_value, _l1sd_grad, _l1sd_hess),
    RegKind.L2: ClosedForm(_l2_value, _l2_grad, _l2_hess),
    RegKind.L2_VAR: ClosedForm(_l2var_value, _l2var_grad, _l2var_hess),
}


def _closed_form(
    reg: RegKind, params: GeneratorParams, post: ToyPosterior, context: int, P=None, beta_sd=None
) -> float:
    """The table's ``value`` of kind ``reg`` at ``params``, for one context."""
    mu0, sigma0 = _context_params(params, post, context)
    return float(CLOSED_FORMS[reg].value(params.mu - mu0, params.sigma, sigma0, P, beta_sd))


def closed_form_j(
    params: GeneratorParams,
    post: ToyPosterior,
    context: int,
    P: int,
    beta_sd: float,
) -> float:
    """Exact value of ``l1p - beta_sd * lsdp`` for the Gaussian toy model."""
    RegularizerKind(RegKind.L1_SD, P, beta_sd)  # P >= 2 and beta_sd >= 0
    return _closed_form(RegKind.L1_SD, params, post, context, P, beta_sd)


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
    RegularizerKind(RegKind.L1_SD, P, beta_sd)  # P >= 2 and beta_sd >= 0
    mu0, sigma0 = _context_params(params, post, context)
    return CLOSED_FORMS[RegKind.L1_SD].grad(params.mu - mu0, params.sigma, sigma0, P, beta_sd)


def closed_form_l2p(
    params: GeneratorParams, post: ToyPosterior, context: int, P: int
) -> float:
    """Exact P-sample squared-error loss: bias^2 + variance/P + noise floor."""
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    return _closed_form(RegKind.L2, params, post, context, P)


def closed_form_l2varp(params: GeneratorParams, post: ToyPosterior, context: int) -> float:
    """Squared-error loss minus the variance reward: ||mu - mu0||^2 + sum(sigma0^2).

    The generated spread cancels out entirely, so this objective is flat
    in sigma, and in P.
    """
    return _closed_form(RegKind.L2_VAR, params, post, context)
