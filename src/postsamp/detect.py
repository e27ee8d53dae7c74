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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .toy import SampleBatch

__all__ = [
    "Classifier",
    "threshold_classifier",
    "logistic_classifier",
    "detection_probability",
    "plug_in_gap",
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

    def fn(values: np.ndarray) -> np.ndarray:
        return (values[:, coordinate] > tau).astype(np.float64)

    return Classifier(fn, f"1[x[{coordinate}] > {tau}]")


def logistic_classifier(
    coordinate: int = 0, tau: float = 0.0, scale: float = 1.0
) -> Classifier:
    """Logistic squashing of one coordinate around a threshold."""
    if coordinate < 0:
        raise ValueError(f"coordinate must be >= 0, got {coordinate}")
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")

    def fn(values: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-(values[:, coordinate] - tau) / scale))

    return Classifier(fn, f"logistic((x[{coordinate}] - {tau}) / {scale})")


def detection_probability(classifier: Classifier, samples: SampleBatch) -> float:
    """Sample-average classifier output: the event probability given y."""
    return float(classifier(samples.values).mean())


def plug_in_gap(classifier: Classifier, samples: SampleBatch) -> tuple[float, float]:
    """(average of c over samples, c at the sample average).

    The two agree for affine classifiers and generally disagree
    otherwise; the caller observes the gap.
    """
    if samples.n < 2:
        raise ValueError("need at least 2 samples to compare against their average")
    avg_of_c = detection_probability(classifier, samples)
    c_of_avg = float(classifier(samples.values.mean(axis=0, keepdims=True))[0])
    return avg_of_c, c_of_avg

