"""Optimization studies: recovery, collapse, flat directions, contours."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from postsamp import (
    GeneratorParams,
    RegularizerKind,
    SeededStream,
    ToyPosterior,
    beta_sd_nominal,
)
from postsamp import proplab
from postsamp.cli import _contour_csv
from postsamp.proplab import contour_grid, minimize_regularizer
from postsamp.regularizers import RegKind, closed_form_j_grad

STD_POST = ToyPosterior.single(0.0, 1.0)
INIT = GeneratorParams(5.0, 5.0)


class TestRecovery:
    """The combined objective at the nominal weight recovers the truth."""

    def test_standard_example(self):
        report = minimize_regularizer(RegularizerKind.l1_sd(2), STD_POST, 0, INIT)
        assert report.converged
        assert abs(report.theta_star.mu[0]) <= 1e-4
        assert abs(report.theta_star.sigma[0] - 1.0) <= 1e-3

    @pytest.mark.parametrize("P", [2, 3, 8])
    def test_random_posteriors(self, P):
        stream = SeededStream(41, ("proplab", P))
        for trial in range(10):
            rng = stream.child(trial).generator()
            mu0 = float(rng.uniform(-10, 10))
            sigma0 = float(rng.uniform(0.1, 10))
            post = ToyPosterior.single(mu0, sigma0)
            report = minimize_regularizer(RegularizerKind.l1_sd(P), post, 0, INIT)
            assert report.converged, (trial, report.grad_norm)
            assert abs(report.theta_star.mu[0] - mu0) <= 1e-3 * max(1.0, abs(mu0))
            assert abs(report.theta_star.sigma[0] - sigma0) <= 1e-3 * sigma0

    def test_multidimensional_posteriors_converge_by_gradient(self):
        """Every dimension 2-8 solve meets the gradient test, with few steps.

        A step judged by the summed objective stalls here: near the optimum
        the sum rounds at more than one dimension's last decrease.
        """
        rng = np.random.default_rng(11)
        for case in range(300):
            dim = int(rng.integers(2, 9))
            post = ToyPosterior.single(rng.uniform(-10, 10, dim), rng.uniform(0.1, 10, dim))
            P = int(rng.integers(2, 9))
            init = GeneratorParams(np.full(dim, 5.0), np.full(dim, 5.0))
            for kind in (RegularizerKind.l1_sd(P), RegularizerKind.l2(P)):
                report = minimize_regularizer(kind, post, 0, init)
                assert report.converged, (case, kind, report.grad_norm)
                assert report.grad_norm <= proplab._GRAD_TOL
                assert report.iterations <= 50

    def test_multidimensional_recovery(self):
        post = ToyPosterior.single([1.0, -2.0, 0.3], [0.5, 2.0, 1.0])
        init = GeneratorParams([4.0, 4.0, 4.0], [3.0, 3.0, 3.0])
        report = minimize_regularizer(RegularizerKind.l1_sd(3), post, 0, init)
        assert report.converged
        np.testing.assert_allclose(report.theta_star.mu, post.mu0[0], atol=1e-6)
        np.testing.assert_allclose(report.theta_star.sigma, post.sigma0[0], rtol=1e-5)

    def test_projection_never_fires_near_optimum(self):
        """Spread positivity arises naturally: no clamps in the final half."""
        report = minimize_regularizer(RegularizerKind.l1_sd(2), STD_POST, 0, INIT)
        if report.projection_iterations:
            assert max(report.projection_iterations) < report.iterations // 2


class TestCollapse:
    """The squared-error objective alone drives the spread to zero."""

    def test_standard_example(self):
        report = minimize_regularizer(RegularizerKind.l2(8), STD_POST, 0, INIT)
        assert report.converged
        assert abs(report.theta_star.mu[0]) <= 1e-6
        assert report.theta_star.sigma[0] <= 1e-4

    @pytest.mark.parametrize("P", [2, 3, 8])
    def test_random_posteriors(self, P):
        stream = SeededStream(43, ("collapse", P))
        for trial in range(10):
            rng = stream.child(trial).generator()
            mu0 = float(rng.uniform(-10, 10))
            sigma0 = float(rng.uniform(0.1, 10))
            post = ToyPosterior.single(mu0, sigma0)
            report = minimize_regularizer(RegularizerKind.l2(P), post, 0, INIT)
            assert report.converged
            assert report.theta_star.sigma[0] <= 1e-4 * sigma0
            assert abs(report.theta_star.mu[0] - mu0) <= 1e-3 * max(1.0, abs(mu0))


def _per_dimension(report) -> list[tuple]:
    """(mu*, sigma*) as float.hex, iterations and convergence of each dimension."""
    return [
        (float(mu).hex(), float(sigma).hex(), int(iterations), bool(converged))
        for mu, sigma, iterations, converged in zip(
            report.theta_star.mu, report.theta_star.sigma,
            report.dim_iterations, report.dim_converged,
        )
    ]


def _solo_solves(kind, post, init) -> list[tuple]:
    """:func:`_per_dimension` of a one-dimensional solve of each dimension alone."""
    mu0, sigma0 = post.context_params(0)
    return [
        _per_dimension(
            minimize_regularizer(
                kind, ToyPosterior.single(mu0[i], sigma0[i]), 0,
                GeneratorParams(init.mu[i], init.sigma[i]),
            )
        )[0]
        for i in range(post.dim)
    ]


INIT_2D = GeneratorParams([5.0, 5.0], [5.0, 5.0])


class TestPerDimensionStopping:
    """Each dimension stops on its own test and ends, bit for bit, where a
    one-dimensional solve of it alone ends."""

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 8),
        P=st.integers(2, 64),
        name=st.sampled_from(["l1sd", "l2", "l2var"]),
    )
    def test_batch_equals_solo_solves(self, seed, dim, P, name):
        rng = np.random.default_rng(seed)
        post = ToyPosterior.single(
            rng.uniform(-100.0, 100.0, dim), 10.0 ** rng.uniform(-3.0, 3.0, dim)
        )
        init = GeneratorParams(rng.uniform(-10.0, 10.0, dim), rng.uniform(0.1, 10.0, dim))
        kind = {
            "l1sd": RegularizerKind.l1_sd(P),
            "l2": RegularizerKind.l2(P),
            "l2var": RegularizerKind(RegKind.L2_VAR, P),
        }[name]
        report = minimize_regularizer(kind, post, 0, init)
        assert _per_dimension(report) == _solo_solves(kind, post, init)
        assert report.iterations == max(report.dim_iterations)
        assert report.converged == all(report.dim_converged)


class TestFlatDirection:
    def test_variance_reward_flat_sigma_is_flagged(self):
        report = minimize_regularizer(RegularizerKind(RegKind.L2_VAR, 8), STD_POST, 0, INIT)
        assert report.sigma_indeterminate
        assert report.converged
        assert abs(report.theta_star.mu[0]) <= 1e-6

    def test_other_kinds_not_flagged(self):
        for kind in (RegularizerKind.l1_sd(2), RegularizerKind.l2(2)):
            report = minimize_regularizer(kind, STD_POST, 0, INIT)
            assert not report.sigma_indeterminate


class TestBetaSensitivity:
    """Stationarity solve: sigma*(c) = c * sigma0 * sqrt(P / (P + 1 - c^2)).

    In terms of beta = c * beta_nominal(P) that is sigma0 b / sqrt(1 - b^2 / P)
    with b = beta P sqrt(pi / 2), which diverges at beta_max = sqrt(2 / (pi P)).
    """

    @pytest.mark.parametrize("c", [0.5, 1.5])
    def test_off_nominal_weights(self, c):
        P, sigma0 = 2, 1.0
        kind = RegularizerKind.l1_sd(P, c * beta_sd_nominal(P))
        report = minimize_regularizer(kind, STD_POST, 0, INIT)
        expected = c * sigma0 * math.sqrt(P / (P + 1 - c**2))
        assert report.converged
        assert report.theta_star.sigma[0] == pytest.approx(expected, rel=1e-5)
        if c > 1:
            assert report.theta_star.sigma[0] > sigma0
        else:
            assert report.theta_star.sigma[0] < sigma0

    @pytest.mark.parametrize("ratio", [0.05, 0.3, 0.6, 0.9, 0.99])
    @pytest.mark.parametrize("P", [2, 3, 8, 32])
    def test_sigma_star_over_beta(self, P, ratio):
        beta = ratio * math.sqrt(2.0 / (math.pi * P))
        b = beta * P * math.sqrt(math.pi / 2.0)
        for sigma0 in (1e-3, 1.0, 50.0):
            post = ToyPosterior.single(0.0, sigma0)
            init = GeneratorParams(0.3 * sigma0, sigma0)
            report = minimize_regularizer(RegularizerKind.l1_sd(P, beta), post, 0, init)
            expected = sigma0 * b / math.sqrt(1.0 - b**2 / P)
            assert report.converged and not report.unbounded, sigma0
            assert report.theta_star.sigma[0] == pytest.approx(expected, rel=1e-5), sigma0

    @pytest.mark.parametrize("P", [2, 3, 8, 32])
    def test_beta_max_is_unbounded(self, P):
        kind = RegularizerKind.l1_sd(P, math.sqrt(2.0 / (math.pi * P)))
        for sigma0 in (1e-3, 1.0, 50.0):
            init = GeneratorParams(0.3 * sigma0, sigma0)
            report = minimize_regularizer(kind, ToyPosterior.single(0.0, sigma0), 0, init)
            assert report.unbounded, sigma0


class TestNonConvergence:
    def test_unbounded_objective_is_reported_at_once(self):
        """Beyond beta_sd = sqrt(2 / (pi P)) the objective falls without bound in sigma."""
        P = 2
        kind = RegularizerKind.l1_sd(P, 1.8 * beta_sd_nominal(P))
        post = ToyPosterior.single(0.3, 1.5)
        report = minimize_regularizer(kind, post, 0, INIT)  # warnings are errors here
        assert report.unbounded and not report.converged
        assert report.iterations == 0
        assert report.theta_star.mu[0] == 5.0 and report.theta_star.sigma[0] == 5.0
        edge = RegularizerKind.l1_sd(P, math.sqrt(2.0 / (math.pi * P)))
        assert minimize_regularizer(edge, post, 0, INIT).unbounded
        assert not minimize_regularizer(RegularizerKind.l1_sd(P), post, 0, INIT).unbounded

    def test_budget_exhaustion_is_reported_not_hidden(self, monkeypatch):
        monkeypatch.setattr(proplab, "_MAX_ITERATIONS", 3)
        report = minimize_regularizer(RegularizerKind.l1_sd(2), STD_POST, 0, INIT)
        assert not report.converged

    def test_unreachable_tolerance_is_reported_not_hidden(self, monkeypatch):
        """Once steps stop moving any parameter the run ends, unconverged."""
        monkeypatch.setattr(proplab, "_GRAD_TOL", 0.0)
        report = minimize_regularizer(RegularizerKind.l1_sd(2), STD_POST, 0, INIT)
        assert not report.converged
        assert report.iterations < proplab._MAX_ITERATIONS
        assert abs(report.theta_star.sigma[0] - 1.0) <= 1e-12

    def test_stalled_dimension_is_reported_on_its_own(self, monkeypatch):
        """With a zero tolerance the second dimension's steps stop moving it
        while the first lands exactly on its optimum: each keeps its own
        count and flag, and the first does not wait for the second."""
        monkeypatch.setattr(proplab, "_GRAD_TOL", 0.0)
        post = ToyPosterior.single([0.0, 0.1], [1.0, 2.0])
        report = minimize_regularizer(RegularizerKind.l2(2), post, 0, INIT_2D)
        assert report.dim_converged.tolist() == [True, False]
        first, second = report.dim_iterations.tolist()
        assert first < second == report.iterations < proplab._MAX_ITERATIONS
        assert not report.converged
        assert _solo_solves(RegularizerKind.l2(2), post, INIT_2D) == _per_dimension(report)

    def test_invalid_init(self):
        with pytest.raises(ValueError):
            minimize_regularizer(
                RegularizerKind.l1_sd(2), STD_POST, 0, GeneratorParams(0.0, 0.0)
            )


def _relative_errors(report, mu0, sigma0):
    mu_err = abs(float(report.theta_star.mu[0]) - mu0) / max(1.0, abs(mu0))
    sigma_err = abs(float(report.theta_star.sigma[0]) - sigma0) / sigma0
    return mu_err, sigma_err


class TestScaleRange:
    """The solver converges by its gradient test whatever the posterior scale.

    The domain stops at |mu0| / sigma0 = 1e6: beyond it float64 spaces mu
    near mu0 too coarsely to resolve (mu - mu0) / s to the 1e-8 test.
    """

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(
        mu0=st.floats(-1e4, 1e4),
        sigma0=st.floats(1e-6, 1e3),
        P=st.integers(2, 64),
    )
    def test_converges_by_gradient(self, mu0, sigma0, P):
        assume(abs(mu0) <= 1e6 * sigma0)
        post = ToyPosterior.single(mu0, sigma0)
        report = minimize_regularizer(RegularizerKind.l1_sd(P), post, 0, INIT)
        assert report.converged
        assert report.iterations <= 50
        assert max(_relative_errors(report, mu0, sigma0)) <= 1e-3

        report = minimize_regularizer(RegularizerKind.l2(P), post, 0, INIT)
        assert report.converged
        assert report.theta_star.sigma[0] <= 1e-4 * sigma0
        assert _relative_errors(report, mu0, sigma0)[0] <= 1e-3

    @pytest.mark.parametrize(
        "kind, mu0, sigma0, P",
        [
            # Points where gradient descent with backtracking ran out of its
            # 20,000 iterations, or stopped by a stall test at sigma* ~ 8e-7.
            ("l1sd", 1e4, 1.0, 2),
            ("l1sd", 0.0, 1e3, 2),
            ("l1sd", 0.0, 1e3, 8),
            ("l2", 0.0, 1e-6, 64),
        ],
    )
    def test_former_sweep_failures(self, kind, mu0, sigma0, P):
        reg = RegularizerKind.l1_sd(P) if kind == "l1sd" else RegularizerKind.l2(P)
        report = minimize_regularizer(reg, ToyPosterior.single(mu0, sigma0), 0, INIT)
        assert report.converged
        assert report.iterations <= 50
        mu_err, sigma_err = _relative_errors(report, mu0, sigma0)
        assert mu_err <= 1e-3
        if kind == "l1sd":
            assert sigma_err <= 1e-3
        else:
            assert report.theta_star.sigma[0] <= 1e-4 * sigma0

    def test_beyond_resolution_never_claims_false_convergence(self):
        """At |mu0| / sigma0 = 1e10 convergence is claimed only where it holds.

        Near mu0 = 1e4 the float64 spacing of mu is 1.8e-12, i.e. 1.8e-6 in
        units of s here, so the gradient test can pass only with mu exactly
        on mu0.  Whatever the solver reports must agree with an independent
        gradient evaluation at the returned point.
        """
        mu0, sigma0, P = 1e4, 1e-6, 2
        post = ToyPosterior.single(mu0, sigma0)
        report = minimize_regularizer(RegularizerKind.l1_sd(P), post, 0, INIT)
        grad = closed_form_j_grad(report.theta_star, post, 0, P, beta_sd_nominal(P))
        gradient_holds = max(np.max(np.abs(g)) for g in grad) <= proplab._GRAD_TOL
        assert report.converged == gradient_holds
        if report.converged:
            assert max(_relative_errors(report, mu0, sigma0)) <= 1e-3


class TestObservability:
    def test_counts(self):
        report = minimize_regularizer(
            RegularizerKind.l1_sd(2), ToyPosterior.single(1e4, 1.0), 0, INIT
        )
        assert report.converged
        # One value call per trial step, a gradient and a Hessian call per
        # accepted step, and the three calls at the start.
        accepted = report.iterations - report.rejected_steps
        assert report.evaluations == 3 + report.iterations + 2 * accepted
        assert 0 < report.rejected_steps < report.iterations

    def test_budget_exhaustion_counts_every_trial(self, monkeypatch):
        monkeypatch.setattr(proplab, "_MAX_ITERATIONS", 5)
        report = minimize_regularizer(
            RegularizerKind.l1_sd(2), ToyPosterior.single(1e4, 1.0), 0, INIT
        )
        assert not report.converged
        assert report.iterations == 5


class TestContourGrid:
    def test_combined_objective_argmin_at_truth(self):
        grid = contour_grid(RegularizerKind.l1_sd(2), STD_POST, 0, (-3, 3), (0, 3), 201)
        assert grid.argmin_contains(0.0, 1.0)

    def test_squared_error_argmin_on_collapse_row(self):
        grid = contour_grid(RegularizerKind.l2(8), STD_POST, 0, (-3, 3), (0, 3), 201)
        _, sigma_star = grid.argmin_point()
        assert sigma_star == 0.0

    def test_variance_reward_columns_constant(self):
        grid = contour_grid(RegularizerKind(RegKind.L2_VAR, 8), STD_POST, 0, (-3, 3), (0, 3), 64)
        spans = grid.values.max(axis=0) - grid.values.min(axis=0)
        assert np.max(spans) <= 1e-12

    def test_grid_agrees_with_optimizer(self):
        for kind in (RegularizerKind.l1_sd(2), RegularizerKind.l2(4)):
            grid = contour_grid(kind, STD_POST, 0, (-3, 3), (0, 3), 201)
            report = minimize_regularizer(kind, STD_POST, 0, INIT)
            assert grid.argmin_contains(
                float(report.theta_star.mu[0]), float(report.theta_star.sigma[0])
            )

    def test_csv_format(self):
        grid = contour_grid(RegularizerKind.l1_sd(2), STD_POST, 0, (-3, 3), (0, 3), 16)
        lines = "".join(_contour_csv(grid)).splitlines()
        assert lines[0].startswith("# kind=l1sd mu0=0.0 sigma0=1.0 P=2 beta_sd=")
        assert lines[1].startswith("sigma\\mu,-3.0,")
        assert len(lines) == 2 + 16
        assert len(lines[2].split(",")) == 17

    def test_range_must_contain_truth(self):
        with pytest.raises(ValueError):
            contour_grid(RegularizerKind.l2(2), STD_POST, 0, (1, 3), (0, 3), 16)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            contour_grid(RegularizerKind.l2(2), STD_POST, 0, (-3, 3), (0, 3), 8)

    def test_negative_spreads_rejected(self):
        """The objectives are defined for sigma >= 0 only."""
        with pytest.raises(ValueError, match="sigma range"):
            contour_grid(RegularizerKind.l2(2), STD_POST, 0, (-3, 3), (-2, 3), 16)

    @pytest.mark.parametrize(
        "kind",
        [RegularizerKind.l1_sd(2), RegularizerKind.l2(8), RegularizerKind(RegKind.L2_VAR, 8)],
        ids=["l1sd", "l2", "l2var"],
    )
    def test_values_do_not_depend_on_band_size(self, monkeypatch, kind):
        """Bands of one row (``_BAND`` 1 is less than a row), of 7 rows (the
        last one partial), of the whole grid and of more than the grid."""
        post, resolution = ToyPosterior.single(0.3, 1.1), 50
        grids = []
        for band in (1, 7 * resolution, resolution**2, (resolution + 3) * resolution):
            monkeypatch.setattr(proplab, "_BAND", band)
            grid = contour_grid(kind, post, 0, (-2.5, 3.0), (0.0, 2.75), resolution)
            grids.append(grid.values.tobytes())
        assert all(bits == grids[0] for bits in grids)



# Each row triggers one input check and matches its message.
INPUT_CHECKS = [
    pytest.param(
        lambda: minimize_regularizer(
            RegularizerKind.l1_sd(2), ToyPosterior.single([0.0, 0.0], [1.0, 1.0]), 0, INIT
        ),
        "dimension mismatch: generator 1, posterior 2", id="minimize-dimension-mismatch",
    ),
    pytest.param(
        lambda: contour_grid(
            RegularizerKind.l2(2), ToyPosterior.single([0.0, 0.0], [1.0, 1.0]), 0,
            (-1.0, 1.0), (0.0, 2.0),
        ),
        "contour grids require a one-dimensional toy posterior", id="contour-two-dimensional",
    ),
    pytest.param(
        lambda: contour_grid(RegularizerKind.l2(2), STD_POST, 0, (1.0, 1.0), (0.0, 2.0)),
        "ranges must be nonempty", id="contour-empty-range",
    ),
]


@pytest.mark.parametrize("call, message", INPUT_CHECKS)
def test_input_check_rejects(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
