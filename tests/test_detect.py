"""Calibrated detection probabilities versus point-estimate plug-ins."""

import math
import re

import numpy as np
import pytest

from postsamp import GeneratorParams, SeededStream, ToyPosterior
from postsamp.detect import (
    Classifier,
    detection_probability,
    logistic_classifier,
    plug_in_gap,
    streamed_plug_in_gap,
    threshold_classifier,
)
from postsamp.toy import sample_generator, sample_posterior

STREAM = SeededStream(606, ("detect-tests",))


def _phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


class TestDetectionProbability:
    def test_constant_classifier(self):
        constant = Classifier(lambda v: np.full(v.shape[0], 0.7), "c == 0.7")
        batch = sample_posterior(ToyPosterior.single(0.0, 1.0), 0, 100, STREAM)
        assert detection_probability(constant, batch) == pytest.approx(0.7)

    def test_threshold_matches_gaussian_cdf(self):
        """Pr(x > 0) for x ~ N(1, 1) is Phi(1), within Bernoulli error."""
        n = 1_000_000
        batch = sample_posterior(ToyPosterior.single(1.0, 1.0), 0, n, STREAM.child("phi"))
        estimate = detection_probability(threshold_classifier(0, 0.0), batch)
        assert abs(estimate - _phi(1.0)) <= 4.0 * 0.5 / math.sqrt(n)

    def test_output_always_in_unit_interval(self):
        batch = sample_posterior(ToyPosterior.single(0.0, 3.0), 0, 500, STREAM.child("rng"))
        for classifier in (
            threshold_classifier(0, 0.5),
            logistic_classifier(0, -1.0, 2.0),
        ):
            value = detection_probability(classifier, batch)
            assert 0.0 <= value <= 1.0

    def test_out_of_range_classifier_rejected(self):
        bad = Classifier(lambda v: np.full(v.shape[0], 1.5), "bad")
        batch = sample_posterior(ToyPosterior.single(0.0, 1.0), 0, 10, STREAM)
        with pytest.raises(ValueError):
            detection_probability(bad, batch)

    def test_nan_classifier_rejected(self):
        """NaN compares False both ways, so a range test must not let it through."""
        batch = sample_posterior(ToyPosterior.single(0.0, 1.0), 0, 10, STREAM)
        for values in ([np.nan] * 10, [0.5] * 9 + [np.nan]):
            bad = Classifier(lambda v, values=values: np.array(values), "nan")
            with pytest.raises(ValueError, match="NaN"):
                detection_probability(bad, batch)
            with pytest.raises(ValueError, match="NaN"):
                plug_in_gap(bad, batch)


class TestPlugInGap:
    def test_threshold_gap_at_unit_mean(self):
        """Sample average sits at ~1 > 0, so the plug-in saturates to 1."""
        batch = sample_posterior(
            ToyPosterior.single(1.0, 1.0), 0, 1_000_000, STREAM.child("gap")
        )
        avg_of_c, c_of_avg = plug_in_gap(threshold_classifier(0, 0.0), batch)
        assert avg_of_c == pytest.approx(_phi(1.0), abs=2e-3)
        assert c_of_avg == 1.0

    def test_affine_classifier_has_no_gap(self):
        """Expectation commutes with affine maps: both routes agree.

        clamp(x, 0, 1) is affine on the effective support of N(0.5, 0.1^2).
        """
        clamp = Classifier(lambda v: np.clip(v[:, 0], 0.0, 1.0), "clamp(x, 0, 1)")
        batch = sample_posterior(
            ToyPosterior.single(0.5, 0.1), 0, 400_000, STREAM.child("affine")
        )
        avg_of_c, c_of_avg = plug_in_gap(clamp, batch)
        assert abs(avg_of_c - c_of_avg) <= 4.0 * 0.1 / math.sqrt(batch.n)

    def test_collapsed_samples_have_zero_gap(self):
        batch = sample_generator(GeneratorParams(0.3, 0.0), 50, STREAM)
        avg_of_c, c_of_avg = plug_in_gap(logistic_classifier(), batch)
        assert avg_of_c == c_of_avg

    def test_needs_two_samples(self):
        batch = sample_generator(GeneratorParams(0.0, 1.0), 1, STREAM)
        with pytest.raises(ValueError):
            plug_in_gap(threshold_classifier(), batch)


class TestBuiltinClassifiers:
    @pytest.mark.parametrize("make", [threshold_classifier, logistic_classifier])
    def test_negative_coordinate_rejected(self, make):
        with pytest.raises(ValueError, match="coordinate"):
            make(-1)


# Each row triggers one input check and matches its message.
INPUT_CHECKS = [
    pytest.param(lambda: Classifier(lambda v: np.zeros(2), "two")(np.zeros((3, 1))),
                 "classifier 'two' returned shape (2,), expected (3,)", id="classifier-shape"),
    pytest.param(lambda: logistic_classifier(scale=0), "scale must be > 0, got 0",
                 id="logistic-scale-zero"),
    pytest.param(
        lambda: streamed_plug_in_gap(
            threshold_classifier(), ToyPosterior.single(0.0, 1.0), 0, 1, STREAM
        ),
        "need at least 2 samples to compare against their average", id="streamed-one-sample",
    ),
]


@pytest.mark.parametrize("call, message", INPUT_CHECKS)
def test_input_check_rejects(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
