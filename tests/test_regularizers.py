"""Estimator and closed-form checks for the supervision losses.

Expected values were computed from the Gaussian identities stated in the
module docstring: folded-normal means for the absolute-error loss,
the bias/variance/floor split for the squared-error loss, and exact
unbiasedness of the spread and variance rewards.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from postsamp import (
    GeneratorParams,
    RegKind,
    RegularizerKind,
    SeededStream,
    ToyPosterior,
    beta_sd_nominal,
    closed_form_j,
    closed_form_j_grad,
    closed_form_l2p,
    closed_form_l2varp,
    gamma_p,
    mc_l1p,
    mc_l2p,
    mc_lsdp,
    mc_lvarp,
)
from postsamp.regularizers import CLOSED_FORMS

STREAM = SeededStream(911, ("regularizer-tests",))
STD_POST = ToyPosterior.single(0.0, 1.0)
STD_PARAMS = GeneratorParams(0.0, 1.0)

# Frozen closed-form constants.
SQRT_PI = 1.7724538509055159
FOLDED_STD_P2 = math.sqrt(3.0 / math.pi)  # 0.97720502...: mu=mu0, sigma=sigma0=1, P=2


class TestScalings:
    def test_gamma_p_values(self):
        assert gamma_p(2) == pytest.approx(SQRT_PI, abs=1e-12)
        assert gamma_p(8) == pytest.approx(math.sqrt(4.0 * math.pi / 7.0), abs=1e-12)
        assert gamma_p(2) == pytest.approx(1.772454, abs=1e-6)
        assert gamma_p(8) == pytest.approx(1.339851, abs=2e-6)

    @pytest.mark.parametrize("P", range(2, 65))
    def test_gamma_over_p_matches_reward_coefficient(self, P):
        coefficient = math.sqrt(math.pi / (2.0 * P * (P - 1)))
        assert abs(gamma_p(P) / P - coefficient) <= 1e-14

    def test_nominal_weight_values(self):
        assert beta_sd_nominal(2) == pytest.approx(math.sqrt(1.0 / (3.0 * math.pi)), abs=1e-15)
        assert beta_sd_nominal(2) == pytest.approx(0.325735, abs=1e-6)
        assert beta_sd_nominal(8) == pytest.approx(1.0 / (6.0 * SQRT_PI), abs=1e-12)
        assert beta_sd_nominal(8) == pytest.approx(0.094031, abs=1e-6)

    def test_nominal_weight_strictly_decreasing(self):
        values = [beta_sd_nominal(P) for P in range(2, 65)]
        assert all(b > a for a, b in zip(values[1:], values))

    @pytest.mark.parametrize("fn", [gamma_p, beta_sd_nominal])
    def test_p_below_two_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(1)


class TestMcL1p:
    def test_matched_standard_case(self):
        """mu=mu0=0, sigma=sigma0=1, P=2: expectation sqrt(3/pi)."""
        est = mc_l1p(STD_PARAMS, STD_POST, 0, 2, 1_000_000, STREAM.child("l1p-std"))
        assert est.within(FOLDED_STD_P2, n_se=3.0)

    def test_both_degenerate_at_same_point(self):
        post = ToyPosterior.single(3.0, 1e-12)
        params = GeneratorParams(3.0, 0.0)
        est = mc_l1p(params, post, 0, 2, 1000, STREAM.child("l1p-deg"))
        assert abs(est.value) <= 1e-9

    def test_bias_dominated_limit(self):
        post = ToyPosterior.single(0.0, 1e-6)
        params = GeneratorParams(1e3, 1e-6)
        est = mc_l1p(params, post, 0, 2, 1000, STREAM.child("l1p-bias"))
        assert est.value == pytest.approx(1e3, rel=1e-6)

    def test_agrees_with_closed_form_on_random_settings(self):
        rng = np.random.default_rng(5)
        for trial in range(4):
            post = ToyPosterior.single(rng.uniform(-2, 2), rng.uniform(0.2, 2.0))
            params = GeneratorParams(rng.uniform(-2, 2), rng.uniform(0.0, 2.0))
            P = int(rng.integers(2, 9))
            est = mc_l1p(params, post, 0, P, 200_000, STREAM.child("l1p-rand", trial))
            exact = closed_form_j(params, post, 0, P, 0.0)
            assert est.within(exact, n_se=4.0), (trial, est, exact)


class TestMcLsdp:
    @pytest.mark.parametrize("P", [2, 8])
    def test_unbiased_for_unit_sigma(self, P):
        est = mc_lsdp(STD_PARAMS, P, 1_000_000, STREAM.child("lsdp", P))
        assert est.within(1.0, n_se=3.0)

    def test_collapsed_generator_is_exactly_zero(self):
        est = mc_lsdp(GeneratorParams(4.0, 0.0), 4, 1000, STREAM.child("lsdp-zero"))
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_sum_over_dimensions(self):
        params = GeneratorParams([0.0, 0.0], [2.0, 5.0])
        est = mc_lsdp(params, 4, 400_000, STREAM.child("lsdp-2d"))
        assert est.within(7.0, n_se=4.0)


class TestMcL2p:
    def test_matched_standard_case(self):
        """bias^2 + sigma^2/P + sigma0^2 = 0 + 0.5 + 1 = 1.5."""
        est = mc_l2p(STD_PARAMS, STD_POST, 0, 2, 1_000_000, STREAM.child("l2p-std"))
        assert est.within(1.5, n_se=4.0)

    def test_collapsed_generator_measures_noise_floor(self):
        post = ToyPosterior.single(1.0, 2.0)
        params = GeneratorParams(1.0, 0.0)
        est = mc_l2p(params, post, 0, 4, 400_000, STREAM.child("l2p-floor"))
        assert est.within(4.0, n_se=4.0)

    def test_pure_squared_bias(self):
        post = ToyPosterior.single(0.0, 1e-12)
        params = GeneratorParams(3.0, 0.0)
        est = mc_l2p(params, post, 0, 2, 1000, STREAM.child("l2p-bias"))
        assert abs(est.value - 9.0) <= 1e-6


class TestMcLvarp:
    def test_unit_case(self):
        est = mc_lvarp(GeneratorParams(0.0, 2.0), 2, 1_000_000, STREAM.child("lvar2"))
        assert est.within(4.0, n_se=4.0)

    def test_p_independence(self):
        est = mc_lvarp(GeneratorParams(0.0, 2.0), 16, 400_000, STREAM.child("lvar16"))
        assert est.within(4.0, n_se=4.0)

    def test_collapsed_is_exactly_zero(self):
        est = mc_lvarp(GeneratorParams(0.0, 0.0), 8, 1000, STREAM.child("lvar0"))
        assert est.value == 0.0

    def test_pairwise_agreement_across_p(self):
        """P in {2, 4, 16} give the same value within combined errors."""
        sigma = 1.5
        estimates = [
            mc_lvarp(GeneratorParams(0.0, sigma), P, 400_000, STREAM.child("lvar-pair", P))
            for P in (2, 4, 16)
        ]
        for i, a in enumerate(estimates):
            assert a.within(sigma**2, n_se=4.0)
            for b in estimates[i + 1 :]:
                combined = math.hypot(a.std_error, b.std_error)
                assert abs(a.value - b.value) <= 4.0 * combined


class TestClosedFormJ:
    def test_standard_value(self):
        value = closed_form_j(STD_PARAMS, STD_POST, 0, 2, beta_sd_nominal(2))
        assert value == pytest.approx(0.651470015870560, abs=1e-12)
        assert value == pytest.approx(0.651470, abs=1e-6)

    def test_beta_zero_centered_form(self):
        """With a centered generator the loss is sqrt(2 (sigma0^2 + sigma^2/P) / pi)."""
        for sigma, P in [(0.5, 2), (2.0, 8), (0.0, 3)]:
            params = GeneratorParams(0.0, sigma)
            expected = math.sqrt(2.0 * (1.0 + sigma**2 / P) / math.pi)
            assert closed_form_j(params, STD_POST, 0, P, 0.0) == pytest.approx(
                expected, abs=1e-14
            )

    def test_large_offset_slope(self):
        """For |mu - mu0| >> s the objective approaches |mu - mu0|."""
        params = GeneratorParams(50.0, 1.0)
        value = closed_form_j(params, STD_POST, 0, 2, 0.0)
        assert value == pytest.approx(50.0, rel=1e-12)

    def test_dual_route_against_monte_carlo(self):
        """Closed form equals the assembled MC estimate l1p - beta*lsdp."""
        params = GeneratorParams(0.4, 1.3)
        beta = beta_sd_nominal(2)
        exact = closed_form_j(params, STD_POST, 0, 2, beta)
        l1 = mc_l1p(params, STD_POST, 0, 2, 400_000, STREAM.child("dual-l1"))
        lsd = mc_lsdp(params, 2, 400_000, STREAM.child("dual-lsd"))
        combined = l1.value - beta * lsd.value
        se = math.hypot(l1.std_error, beta * lsd.std_error)
        assert abs(combined - exact) <= 4.0 * se

    def test_midpoint_convexity(self):
        """J is convex on sigma > 0: midpoint inequality to 1e-12."""
        rng = np.random.default_rng(17)
        beta = beta_sd_nominal(3)
        for _ in range(200):
            mu_a, mu_b = rng.uniform(-5, 5, size=2)
            sigma_a, sigma_b = rng.uniform(0.1, 10.0, size=2)
            j_a = closed_form_j(GeneratorParams(mu_a, sigma_a), STD_POST, 0, 3, beta)
            j_b = closed_form_j(GeneratorParams(mu_b, sigma_b), STD_POST, 0, 3, beta)
            j_mid = closed_form_j(
                GeneratorParams((mu_a + mu_b) / 2, (sigma_a + sigma_b) / 2),
                STD_POST,
                0,
                3,
                beta,
            )
            assert j_mid <= 0.5 * (j_a + j_b) + 1e-12


def _central_difference_gradient(params, post, P, beta):
    """Independent finite-difference route for the gradient check."""
    dim = params.dim
    grad_mu = np.zeros(dim)
    grad_sigma = np.zeros(dim)
    for j in range(dim):
        h = 1e-6 * max(1.0, abs(float(params.mu[j])))
        up, down = params.mu.copy(), params.mu.copy()
        up[j] += h
        down[j] -= h
        grad_mu[j] = (
            closed_form_j(GeneratorParams(up, params.sigma), post, 0, P, beta)
            - closed_form_j(GeneratorParams(down, params.sigma), post, 0, P, beta)
        ) / (2 * h)
        h = 1e-6 * max(1.0, abs(float(params.sigma[j])))
        up, down = params.sigma.copy(), params.sigma.copy()
        up[j] += h
        down[j] -= h
        grad_sigma[j] = (
            closed_form_j(GeneratorParams(params.mu, up), post, 0, P, beta)
            - closed_form_j(GeneratorParams(params.mu, down), post, 0, P, beta)
        ) / (2 * h)
    return grad_mu, grad_sigma


class TestClosedFormJGrad:
    def test_mu_gradient_vanishes_at_true_mean(self):
        params = GeneratorParams(0.0, 2.7)
        grad_mu, _ = closed_form_j_grad(params, STD_POST, 0, 4, 0.1)
        assert grad_mu[0] == 0.0

    def test_sigma_gradient_vanishes_at_truth_under_nominal_weight(self):
        _, grad_sigma = closed_form_j_grad(STD_PARAMS, STD_POST, 0, 2, beta_sd_nominal(2))
        assert abs(grad_sigma[0]) <= 1e-9

    def test_beta_zero_always_shrinks_sigma(self):
        """Without the reward the loss strictly increases in sigma."""
        for sigma in (0.1, 1.0, 5.0):
            _, grad_sigma = closed_form_j_grad(
                GeneratorParams(0.0, sigma), STD_POST, 0, 2, 0.0
            )
            assert grad_sigma[0] > 0.0

    def test_sigma_zero_right_derivative(self):
        _, grad_sigma = closed_form_j_grad(GeneratorParams(0.3, 0.0), STD_POST, 0, 2, 0.25)
        assert grad_sigma[0] == pytest.approx(-0.25, abs=1e-15)

    def test_matches_central_differences_at_random_points(self):
        """Analytic gradient vs finite differences, 20 random points."""
        rng = np.random.default_rng(99)
        post = ToyPosterior.single([0.5, -1.0], [1.2, 0.7])
        for trial in range(20):
            params = GeneratorParams(rng.uniform(-3, 3, 2), rng.uniform(0.1, 10.0, 2))
            P = int(rng.integers(2, 17))
            beta = rng.uniform(0.0, 0.3)
            ga = np.concatenate(closed_form_j_grad(params, post, 0, P, beta))
            gf = np.concatenate(_central_difference_gradient(params, post, P, beta))
            rel = np.linalg.norm(ga - gf) / max(
                1.0, np.linalg.norm(ga), np.linalg.norm(gf)
            )
            assert rel <= 1e-6, (trial, rel)


def _random_kind(reg, rng):
    P = int(rng.integers(2, 17))
    if reg is RegKind.L1_SD:
        return RegularizerKind(reg, P, float(rng.uniform(0.0, 0.3)))
    return RegularizerKind(reg, P)


class TestClosedFormTable:
    POST = ToyPosterior.single([0.5, -1.0], [1.2, 0.7])

    @pytest.mark.parametrize("reg", list(RegKind))
    def test_hessian_matches_central_differences(self, reg):
        """Table Hessian vs central differences of the analytic gradient, 20 points."""
        rng = np.random.default_rng(2024)
        mu0, sigma0 = self.POST.context_params(0)
        table = CLOSED_FORMS[reg]
        for trial in range(20):
            mu, sigma = rng.uniform(-3, 3, 2), rng.uniform(0.1, 10.0, 2)
            kind = _random_kind(reg, rng)
            hess = table.hess(mu - mu0, sigma, sigma0, kind)
            h_mm, h_ms, h_ss = np.broadcast_arrays(*hess, mu)[:3]
            analytic = np.concatenate([h_mm, h_ms, h_ms, h_ss])
            # The objectives are separable, so every dimension is stepped at once.
            h = 1e-6 * np.maximum(1.0, np.abs(mu))
            up = table.grad(mu + h - mu0, sigma, sigma0, kind)
            down = table.grad(mu - h - mu0, sigma, sigma0, kind)
            d_mu = [(u - d) / (2 * h) for u, d in zip(up, down)]
            h = 1e-6 * np.maximum(1.0, sigma)
            up = table.grad(mu - mu0, sigma + h, sigma0, kind)
            down = table.grad(mu - mu0, sigma - h, sigma0, kind)
            d_sigma = [(u - d) / (2 * h) for u, d in zip(up, down)]
            numeric = np.concatenate([d_mu[0], d_mu[1], d_sigma[0], d_sigma[1]])
            rel = np.linalg.norm(analytic - numeric) / max(
                1.0, np.linalg.norm(analytic), np.linalg.norm(numeric)
            )
            assert rel <= 1e-6, (trial, rel)

    def test_values_match_closed_forms(self):
        rng = np.random.default_rng(5)
        mu0, sigma0 = self.POST.context_params(0)
        for _ in range(20):
            params = GeneratorParams(rng.uniform(-3, 3, 2), rng.uniform(0.0, 10.0, 2))
            P = int(rng.integers(2, 17))
            beta = float(rng.uniform(0.0, 0.3))
            expected = {
                RegKind.L1_SD: closed_form_j(params, self.POST, 0, P, beta),
                RegKind.L2: closed_form_l2p(params, self.POST, 0, P),
                RegKind.L2_VAR: closed_form_l2varp(params, self.POST, 0, P),
            }
            for reg, value in expected.items():
                kind = RegularizerKind(reg, P, beta if reg is RegKind.L1_SD else None)
                table_value = CLOSED_FORMS[reg].value(
                    params.mu - mu0, params.sigma, sigma0, kind
                ).sum()
                assert table_value == pytest.approx(value, rel=1e-12, abs=1e-12)

    def test_l1sd_hessian_at_optimum(self):
        """At the truth with nominal weight: H = diag(1/s, sigma0^2 / (P s^3)) sqrt(2/pi)."""
        P, sigma0 = 4, 1.7
        s = sigma0 * math.sqrt(1.0 + 1.0 / P)
        h_mm, h_ms, h_ss = CLOSED_FORMS[RegKind.L1_SD].hess(
            0.0, sigma0, sigma0, RegularizerKind.l1_sd(P)
        )
        c = math.sqrt(2.0 / math.pi)
        assert h_mm == pytest.approx(c / s, rel=1e-14)
        assert h_ms == 0.0
        assert h_ss == pytest.approx(c * sigma0**2 / (P * s**3), rel=1e-14)

    def test_variance_reward_is_flat_in_sigma(self):
        table = CLOSED_FORMS[RegKind.L2_VAR]
        sigma = np.linspace(0.0, 3.0, 7)
        _, g_sigma = table.grad(np.full(7, 0.4), sigma, 1.0, RegularizerKind.l2_var(4))
        _, h_ms, h_ss = table.hess(np.full(7, 0.4), sigma, 1.0, RegularizerKind.l2_var(4))
        assert not np.any(g_sigma) and h_ms == 0.0 and h_ss == 0.0


class TestClosedFormL2:
    def test_standard_value(self):
        assert closed_form_l2p(STD_PARAMS, STD_POST, 0, 2) == 1.5

    def test_collapsed_variance_term_vanishes(self):
        post = ToyPosterior.single([1.0, 2.0], [0.5, 0.5])
        params = GeneratorParams([2.0, 2.0], [0.0, 0.0])
        assert closed_form_l2p(params, post, 0, 7) == pytest.approx(1.0 + 0.5, abs=1e-14)

    def test_monotone_decreasing_in_p(self):
        values = [closed_form_l2p(STD_PARAMS, STD_POST, 0, P) for P in range(1, 50)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] > 1.0  # floor: bias^2 + sigma0^2

    def test_variance_reward_cancels_sigma(self):
        for sigma in (0.0, 1.0, 10.0):
            value = closed_form_l2varp(GeneratorParams(0.0, sigma), STD_POST, 0, 8)
            assert value == 1.0

    def test_variance_reward_keeps_bias(self):
        assert closed_form_l2varp(GeneratorParams(2.0, 3.0), STD_POST, 0, 8) == 5.0

    def test_sigma_flatness_is_exact(self):
        values = [
            closed_form_l2varp(GeneratorParams(0.7, s), STD_POST, 0, 4)
            for s in np.linspace(0.0, 3.0, 31)
        ]
        assert max(values) - min(values) == 0.0

    def test_dual_route_bias_variance_identity(self):
        """MC l2p minus MC lvarp / P matches the sigma-free closed form."""
        params = GeneratorParams(2.0, 1.0)
        l2 = mc_l2p(params, STD_POST, 0, 4, 400_000, STREAM.child("l2v-l2"))
        lv = mc_lvarp(params, 4, 400_000, STREAM.child("l2v-lv"))
        expected = closed_form_l2varp(params, STD_POST, 0, 4)
        observed = l2.value - lv.value / 4
        se = math.hypot(l2.std_error, lv.std_error / 4)
        assert abs(observed - expected) <= 4.0 * se


class TestEstimatorContracts:
    def test_p_and_n_outer_floors(self):
        with pytest.raises(ValueError):
            mc_l1p(STD_PARAMS, STD_POST, 0, 1, 100, STREAM)
        with pytest.raises(ValueError):
            mc_lsdp(STD_PARAMS, 2, 1, STREAM)

    def test_thread_count_floor(self):
        with pytest.raises(ValueError, match="threads"):
            mc_l1p(STD_PARAMS, STD_POST, 0, 2, 100, STREAM, threads=0)
        with pytest.raises(ValueError, match="threads"):
            mc_lvarp(STD_PARAMS, 2, 100, STREAM, threads=-1)

    def test_invalid_context(self):
        with pytest.raises(IndexError):
            mc_l2p(STD_PARAMS, STD_POST, 2, 2, 100, STREAM)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mc_l1p(GeneratorParams([0.0, 0.0], [1.0, 1.0]), STD_POST, 0, 2, 100, STREAM)

    def test_worker_count_does_not_change_estimates(self):
        """Chunk partitioning makes thread counts invisible in the result."""
        one = mc_l1p(STD_PARAMS, STD_POST, 0, 2, 100_000, STREAM.child("thr"), threads=1)
        four = mc_l1p(STD_PARAMS, STD_POST, 0, 2, 100_000, STREAM.child("thr"), threads=4)
        assert one.value == four.value
        assert one.std_error == four.std_error

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            RegularizerKind.l1_sd(1)
        with pytest.raises(ValueError):
            RegularizerKind(RegKind.L1_SD, 2, None)
        with pytest.raises(ValueError):
            RegularizerKind(RegKind.L2, 2, 0.3)
        assert RegularizerKind.l1_sd(4).beta_sd == pytest.approx(beta_sd_nominal(4))


class TestBiasVarianceGrid:
    def test_mc_matches_closed_form_on_grid(self):
        """3x3 grid of (offset, sigma): MC l2p vs closed form within 4 SE."""
        for i, offset in enumerate((0.0, 0.5, 2.0)):
            for j, sigma in enumerate((0.0, 1.0, 2.5)):
                params = GeneratorParams(offset, sigma)
                est = mc_l2p(
                    params, STD_POST, 0, 3, 200_000, STREAM.child("grid", i, j)
                )
                assert est.within(
                    closed_form_l2p(params, STD_POST, 0, 3), n_se=4.0
                ), (offset, sigma)


# ---------------------------------------------------------------------------
# Blocked draws: bit-exact pins and memory bounds
# ---------------------------------------------------------------------------

# Configurations chosen to exercise the block layout inside 32768-replicate
# chunks: one block per chunk with a ragged last chunk (d1), several blocks
# per chunk with a ragged last block (d64), a zero generator spread (d3) and
# a replicate larger than a block, so one replicate per block (d3000).
PIN_CONFIGS = {
    "d1-p2": (GeneratorParams(0.3, 1.2), ToyPosterior.single(0.0, 1.0), 2, 70_001),
    "d64-p8": (
        GeneratorParams(np.linspace(-1.0, 1.0, 64), np.linspace(0.5, 2.0, 64)),
        ToyPosterior.single(np.linspace(0.5, -0.5, 64), np.linspace(2.0, 0.5, 64)),
        8,
        40_000,
    ),
    "d3-p5-zero": (
        GeneratorParams([0.1, -0.2, 0.3], [1.0, 0.0, 3.0]),
        ToyPosterior.single([0.0, 0.5, -1.0], [1.0, 2.0, 0.5]),
        5,
        50_000,
    ),
    "d3000-p64": (
        GeneratorParams(np.linspace(-1.0, 1.0, 3000), np.linspace(0.5, 2.0, 3000)),
        ToyPosterior.single(np.linspace(0.5, -0.5, 3000), np.linspace(2.0, 0.5, 3000)),
        64,
        70,
    ),
}

# float.hex of (value, std_error), computed by the unblocked kernels that
# built each chunk's draws as whole (count, P, dim) arrays.
PINNED = {
    "d1-p2": {
        "l1p": ("0x1.1188c7abca6acp+0", "0x1.90035c2202c01p-9"),
        "lsdp": ("0x1.340875d357a62p+0", "0x1.c273c9d2d8b9bp-9"),
        "l2p": ("0x1.cd8c2769df46ap+0", "0x1.3aab3a25a08d6p-7"),
        "lvarp": ("0x1.6ff229f8efde5p+0", "0x1.fa248797e74f6p-8"),
    },
    "d64-p8": {
        "l1p": ("0x1.503789fae6d7ap+6", "0x1.3c4f2dad3096cp-5"),
        "lsdp": ("0x1.400d2aa74a254p+6", "0x1.ebf641c9b4a7fp-7"),
        "l2p": ("0x1.601e5dee58a0ap+7", "0x1.4b15cf6729223p-3"),
        "lvarp": ("0x1.c171f082f6b24p+6", "0x1.6c0afc14a1846p-5"),
    },
    "d3-p5-zero": {
        "l1p": ("0x1.09babf5ac4557p+2", "0x1.0a518e5ffcc6ap-7"),
        "lsdp": ("0x1.ff200803027c3p+1", "0x1.59441bf9606b1p-8"),
        "l2p": ("0x1.2dead4452c1efp+3", "0x1.26bfe7388d0d5p-5"),
        "lvarp": ("0x1.3ef71bb606983p+3", "0x1.d0d2b498d47e7p-6"),
    },
    "d3000-p64": {
        "l1p": ("0x1.d8b6d35524b42p+11", "0x1.8f50929bcafdbp+2"),
        "lsdp": ("0x1.d4b24f3bbdb68p+11", "0x1.8eed5f94537f0p-1"),
        "l2p": ("0x1.dd1597d9a28c9p+12", "0x1.86c2d2ccadd40p+4"),
        "lvarp": ("0x1.484ea4bf666c5p+12", "0x1.1a479cd1f1e6ep+1"),
    },
}


def _run_kernels(params, post, P, n_outer, stream, threads=1) -> dict:
    return {
        "l1p": mc_l1p(params, post, 0, P, n_outer, stream.child("l1p"), threads),
        "lsdp": mc_lsdp(params, P, n_outer, stream.child("lsdp"), threads),
        "l2p": mc_l2p(params, post, 0, P, n_outer, stream.child("l2p"), threads),
        "lvarp": mc_lvarp(params, P, n_outer, stream.child("lvarp"), threads),
    }


@functools.lru_cache(maxsize=None)
def _pinned_run(name: str, threads: int) -> dict:
    estimates = _run_kernels(*PIN_CONFIGS[name], STREAM.child("pins", name), threads)
    return {k: (e.value.hex(), e.std_error.hex()) for k, e in estimates.items()}


class TestBlockedDraws:
    @pytest.mark.parametrize("name", sorted(PIN_CONFIGS))
    def test_bit_exact_against_unblocked_kernels(self, name):
        assert _pinned_run(name, 1) == PINNED[name]

    def test_all_kernels_thread_invariant(self):
        """40,000 replicates are two chunks, so two threads really split them."""
        assert _pinned_run("d64-p8", 2) == _pinned_run("d64-p8", 1)

    def test_memory_bounded_independent_of_p(self):
        """dim 4096, P 32: one chunk of full draws would be 64 MiB per array."""
        dim = 4096
        params = GeneratorParams(np.zeros(dim), np.ones(dim))
        post = ToyPosterior.single(np.zeros(dim), np.ones(dim))
        stream = STREAM.child("memory")
        calls = {
            "l1p": lambda: mc_l1p(params, post, 0, 32, 64, stream),
            "lsdp": lambda: mc_lsdp(params, 32, 64, stream),
            "l2p": lambda: mc_l2p(params, post, 0, 32, 64, stream),
            "lvarp": lambda: mc_lvarp(params, 32, 64, stream),
        }
        for name, call in calls.items():
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                call()
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= 8 * 2**20, (name, peak)
