"""Sampler correctness for the Gaussian toy model."""

import re

import numpy as np
import pytest
from scipy import stats

from postsamp import GeneratorParams, SeededStream, ToyPosterior
from postsamp.toy import SampleBatch, affine_normals, sample_generator, sample_posterior

from memory import traced_peak

STREAM = SeededStream(20240817, ("toy-tests",))


class TestSamplePosterior:
    def test_law_of_large_numbers(self):
        """Mean within 4/sqrt(n) and SD within 1% at n = 1e6 for N(0, 1)."""
        post = ToyPosterior.single(0.0, 1.0)
        n = 1_000_000
        batch = sample_posterior(post, 0, n, STREAM.child("lln"))
        assert abs(batch.values.mean()) <= 4.0 / np.sqrt(n)
        assert abs(batch.values.std(ddof=1) - 1.0) <= 0.01

    def test_determinism(self):
        post = ToyPosterior.single([1.0, -2.0], [0.5, 3.0])
        a = sample_posterior(post, 0, 64, STREAM.child("det"))
        b = sample_posterior(post, 0, 64, STREAM.child("det"))
        assert np.array_equal(a.values, b.values)

    def test_degenerate_width(self):
        post = ToyPosterior.single(5.0, 1e-12)
        batch = sample_posterior(post, 0, 100, STREAM.child("deg"))
        assert np.all(np.abs(batch.values - 5.0) <= 1e-10)

    def test_affine_map_matches_out_of_place_expression(self):
        mu0, sigma0 = np.array([1.0, -2.0, 0.0]), np.array([0.5, 3.0, 1e-12])
        batch = sample_posterior(ToyPosterior.single(mu0, sigma0), 0, 1000, STREAM.child("aff"))
        z = STREAM.child("aff").generator().standard_normal((1000, 3))
        assert batch.values.tobytes() == (mu0 + sigma0 * z).tobytes()

    def test_peak_memory_close_to_output(self):
        """Drawing 1e6 x 2 rows holds little beyond the 16 MB result."""
        post = ToyPosterior.single([1.0, -2.0], [0.5, 3.0])
        batch, peak = traced_peak(
            lambda: sample_posterior(post, 0, 1_000_000, STREAM.child("mem"))
        )
        assert peak <= 1.25 * batch.values.nbytes

    def test_context_selection(self):
        post = ToyPosterior([[0.0], [10.0]], [[1.0], [0.01]])
        batch = sample_posterior(post, 1, 50, STREAM.child("ctx"))
        assert np.all(np.abs(batch.values - 10.0) < 1.0)

    def test_errors(self):
        post = ToyPosterior.single(0.0, 1.0)
        with pytest.raises(IndexError):
            sample_posterior(post, 3, 10, STREAM)
        with pytest.raises(ValueError):
            sample_posterior(post, 0, 0, STREAM)


class TestSampleGenerator:
    def test_mode_collapse_rows_identical(self):
        batch = sample_generator(GeneratorParams(2.0, 0.0), 5, STREAM.child("mc"))
        assert np.array_equal(batch.values, np.full((5, 1), 2.0))

    def test_moments_at_scale(self):
        n = 1_000_000
        batch = sample_generator(GeneratorParams(2.0, 3.0), n, STREAM.child("mom"))
        assert abs(batch.values.mean() - 2.0) <= 4.0 * 3.0 / np.sqrt(n)
        assert abs(batch.values.std(ddof=1) - 3.0) <= 0.01 * 3.0

    def test_bit_identical_replay(self):
        params = GeneratorParams([0.0, 1.0], [1.0, 2.0])
        a = sample_generator(params, 32, STREAM.child("replay"))
        b = sample_generator(params, 32, STREAM.child("replay"))
        assert a.values.tobytes() == b.values.tobytes()

    def test_affine_map_matches_out_of_place_expression(self):
        """Bit for bit, signed zeros included, with a collapsed dimension."""
        mu, sigma = np.array([0.0, 1.0, -3.0]), np.array([1.0, 0.0, 2.0])
        batch = sample_generator(GeneratorParams(mu, sigma), 1000, STREAM.child("aff"))
        z = STREAM.child("aff").generator().standard_normal((1000, 3))
        assert batch.values.tobytes() == (mu + sigma * z).tobytes()


class TestAffineNormals:
    @pytest.mark.parametrize("dim", [1, 2, 3, 64, 1025])
    @pytest.mark.parametrize("rows", [1, 511, 1537])
    def test_fill_matches_out_of_place_expression(self, dim, rows):
        """Bit for bit at any dimension, whole tiled rows and ragged tails alike.

        Row counts are chosen so most fills end in a partial row of the
        tiled parameters; a collapsed first dimension keeps signed zeros.
        """
        mu, sigma = np.linspace(-3.0, 3.0, dim), np.linspace(0.0, 2.0, dim)
        for shape, order in (((rows, dim), "C"), ((rows, 3, dim), "C"), ((rows, dim), "F")):
            stream = STREAM.child("fill", dim, rows, len(shape), order)
            out = affine_normals(stream.generator(), mu, sigma, np.empty(shape, order=order))
            z = np.empty(shape, order=order)
            stream.generator().standard_normal(out=z)
            assert out.tobytes(order="A") == (mu + sigma * z).tobytes(order="A")


class TestGaussianity:
    """Normality diagnostics on 1e6 draws from both samplers."""

    @pytest.mark.parametrize("which", ["posterior", "generator"])
    def test_skewness_and_kurtosis(self, which):
        n = 1_000_000
        if which == "posterior":
            batch = sample_posterior(
                ToyPosterior.single(0.0, 1.0), 0, n, STREAM.child("gauss", which)
            )
        else:
            batch = sample_generator(
                GeneratorParams(0.0, 1.0), n, STREAM.child("gauss", which)
            )
        flat = batch.values.ravel()
        assert abs(stats.skew(flat)) < 0.01
        assert abs(stats.kurtosis(flat)) < 0.03


class TestValidation:
    def test_sigma0_must_be_positive(self):
        with pytest.raises(ValueError):
            ToyPosterior.single(0.0, 0.0)
        with pytest.raises(ValueError):
            ToyPosterior.single([0.0, 0.0], [1.0, -1.0])

    def test_generator_sigma_nonnegative(self):
        with pytest.raises(ValueError):
            GeneratorParams(0.0, -0.1)
        GeneratorParams(0.0, 0.0)  # collapse is legal

    def test_contexts_share_dimension(self):
        with pytest.raises(ValueError):
            ToyPosterior([[0.0, 0.0], [0.0, 1.0]], [[1.0], [1.0]])


# Each row triggers one input check and matches its message.
INPUT_CHECKS = [
    pytest.param(lambda: GeneratorParams(np.zeros((2, 2)), np.ones((2, 2))),
                 "mu must be a scalar or 1-D vector, got shape (2, 2)", id="vector-two-dimensional"),
    pytest.param(lambda: ToyPosterior.single([], []), "mu0 must have at least one element",
                 id="vector-empty"),
    pytest.param(lambda: GeneratorParams(0.0, np.inf), "sigma must be finite",
                 id="vector-nonfinite"),
    pytest.param(lambda: ToyPosterior(np.zeros((1, 1, 1)), np.ones((1, 1, 1))),
                 "expected (n_contexts, dim) arrays, got (1, 1, 1)", id="posterior-three-dimensional"),
    pytest.param(lambda: ToyPosterior([[np.nan]], [[1.0]]), "posterior parameters must be finite",
                 id="posterior-nonfinite"),
    pytest.param(lambda: GeneratorParams([0.0, 1.0], [1.0]),
                 "mu and sigma shapes differ: (2,) vs (1,)", id="generator-shapes"),
    pytest.param(lambda: SampleBatch(np.zeros(3)),
                 "values must be an (n, dim) matrix with n >= 1, got (3,)", id="batch-one-dimensional"),
    pytest.param(lambda: SampleBatch([[np.inf]]), "values must be finite", id="batch-nonfinite"),
]


@pytest.mark.parametrize("call, message", INPUT_CHECKS)
def test_input_check_rejects(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
