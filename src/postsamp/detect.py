"""Calibrated event probabilities from posterior samples.

Given a calibrated soft classifier ``c(x) = Pr(event | x)``, the
probability of the event given only a measurement is the posterior
expectation of ``c``, which a sample average over posterior draws
estimates directly.  Plugging a single point estimate into ``c``
instead is wrong for every non-affine ``c``; :func:`plug_in_gap`
returns both numbers so the mismatch can be observed.

Classifiers are caller-supplied handles mapping an ``(n, dim)`` batch to
``n`` probabilities.  Two built-ins ship: a coordinate threshold
indicator and a coordinate logistic.

Memory model and threads: :func:`plug_in_gap` scores a matrix held in
memory; :func:`streamed_plug_in_gap` draws through the Monte Carlo engine
of :mod:`postsamp.regularizers`, whose docstring gives its memory and
thread rules.  Both reduce rows with one helper.  The engine calls the
classifier from several threads at once, so it must be thread-safe; the
built-ins are pure functions of their input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _as_matrix, _check_finite, _check_overflow
from .regularizers import _draw_units
from .streams import SeededStream
from .toy import ToyPosterior

__all__ = [
    "Classifier",
    "threshold_classifier",
    "logistic_classifier",
    "detection_probability",
    "plug_in_gap",
    "streamed_plug_in_gap",
]


@dataclass(frozen=True)
class Classifier:
    """A batched probability function with a human-readable descriptor."""

    fn: Callable[[np.ndarray], np.ndarray]
    descriptor: str

    def __call__(self, values: np.ndarray) -> np.ndarray:
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        out = np.asarray(self.fn(values), dtype=np.float64)
        if out.shape != (values.shape[0],):
            raise ValueError(
                f"classifier {self.descriptor!r} returned shape {out.shape}, "
                f"expected ({values.shape[0]},)"
            )
        # min/max propagate NaN, so a NaN output fails this test too.
        if not (np.min(out, initial=0.0) >= 0.0 and np.max(out, initial=1.0) <= 1.0):
            raise ValueError(
                f"classifier {self.descriptor!r} produced outputs outside [0, 1] or NaN"
            )
        return out


def threshold_classifier(coordinate: int = 0, tau: float = 0.0) -> Classifier:
    """Indicator of one coordinate exceeding a threshold."""
    # A negative index would silently pick a coordinate counted from the end.
    if coordinate < 0:
        raise ValueError(f"coordinate must be >= 0, got {coordinate}")
    _check_finite("tau", tau)

    def fn(values: np.ndarray) -> np.ndarray:
        return (values[:, coordinate] > tau).astype(np.float64)

    return Classifier(fn, f"1[x[{coordinate}] > {tau}]")


def logistic_classifier(
    coordinate: int = 0, tau: float = 0.0, scale: float = 1.0
) -> Classifier:
    """Logistic squashing of one coordinate around a threshold."""
    if coordinate < 0:
        raise ValueError(f"coordinate must be >= 0, got {coordinate}")
    _check_finite("tau", tau)
    _check_finite("scale", scale)
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")

    def fn(values: np.ndarray) -> np.ndarray:
        # exp overflows to inf far below tau, where 1 / (1 + inf) = 0 is exact.
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-(values[:, coordinate] - tau) / scale))

    return Classifier(fn, f"logistic((x[{coordinate}] - {tau}) / {scale})")


def detection_probability(classifier: Classifier, samples) -> float:
    """Average classifier output over the rows of the ``(n, dim)`` matrix
    ``samples``: the event probability given y."""
    return float(classifier(_as_matrix(samples, "samples")).mean())


def _gap_sums(
    classifier: Classifier,
    values: np.ndarray,
    origin: np.ndarray | None = None,
    carry: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``origin`` and ``sum of ([c(x_i), x_i] - origin)`` over the rows of ``values``.

    Rows are summed one by one in order after ``carry`` (the sums of
    earlier rows), so any split of the rows into calls gives the same bits.
    Deviations from an origin (by default the first row's ``[c, x]``) sum
    equal rows to exactly zero and lose less to cancellation.
    """
    table = np.empty((values.shape[1] + 1, values.shape[0]))
    table[0] = classifier(values)
    table[1:] = values.T
    if origin is None:
        origin = table[:, 0].copy()
    table -= origin[:, None]
    if carry is not None:
        table[:, 0] += carry
    return origin, np.add.accumulate(table, axis=1, out=table)[:, -1].copy()


def _finish_gap(
    classifier: Classifier, origin: np.ndarray, sums: np.ndarray, n: int
) -> tuple[float, float]:
    """(average of c, c at the average) from the :func:`_gap_sums` of ``n`` rows."""
    mean = origin + sums / n
    _check_overflow("the average of the samples", float(np.abs(mean).max()))
    return float(mean[0]), float(classifier(mean[None, 1:])[0])


def plug_in_gap(classifier: Classifier, samples) -> tuple[float, float]:
    """(average of c over the rows of the ``(n, dim)`` matrix ``samples``,
    c at their average).

    The two agree for affine classifiers and generally disagree
    otherwise; the caller observes the gap.
    """
    samples = _as_matrix(samples, "samples")
    n = samples.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples to compare against their average")
    return _finish_gap(classifier, *_gap_sums(classifier, samples), n)


def streamed_plug_in_gap(
    classifier: Classifier, post: ToyPosterior, context: int, n: int, stream: SeededStream
) -> tuple[float, float]:
    """:func:`plug_in_gap` over ``n`` fresh draws from one posterior context.

    Draws are reduced block by block as they are made, with the posterior
    mean as the origin; draw unit ``u`` takes its samples from
    ``stream.child("truths", u)``, and units are summed in order.  Units run
    on worker threads, so ``classifier`` must be thread-safe.
    """
    if n < 2:
        raise ValueError("need at least 2 samples to compare against their average")
    mu0, sigma0 = post.context_params(context)
    origin = np.concatenate((classifier(mu0), mu0))

    def unit(count: int, blocks) -> np.ndarray:
        carry = None
        for _, (block,) in blocks:
            carry = _gap_sums(classifier, block, origin, carry)[1]
        return carry

    draws = [(stream, "truths", mu0, sigma0, mu0.shape)]
    with np.errstate(over="ignore", invalid="ignore"):  # as in a draw unit
        return _finish_gap(classifier, origin, sum(_draw_units(draws, n, None, unit)), n)
