"""Estimator and closed-form checks for the supervision losses.

Expected values were computed from the Gaussian identities stated in the
module docstring: folded-normal means for the absolute-error loss,
the bias/variance/floor split for the squared-error loss, and exact
unbiasedness of the spread and variance rewards.
"""

import functools
import hashlib
import math
import os
import re
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from postsamp import (
    GeneratorParams,
    RegularizerKind,
    SeededStream,
    ToyPosterior,
    beta_sd_nominal,
    closed_form_j,
    mc_l1p,
)
from postsamp import regularizers
from postsamp.autotune import ValidationSet, e_hat, e_hat_items
from postsamp.cli import main
from postsamp.detect import logistic_classifier, streamed_plug_in_gap
from postsamp.regularizers import (
    CLOSED_FORMS,
    RegKind,
    closed_form_j_grad,
    closed_form_l2p,
    closed_form_l2varp,
    folded_normal_abs_mean,
    gamma_p,
    mc_l2p,
    mc_losses,
    mc_lsdp,
    mc_lvarp,
)
from postsamp.verify import check_average_error_ratio

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


# Closed-form points (mu, sigma, mu0, sigma0, P, beta_sd): dims 1 and 3,
# P 2 and 8, a sigma = 0 point, and one with |mu - mu0| >> s.
CLOSED_FORM_POINTS = {
    "d1-p2": ((0.3,), (1.2,), (0.0,), (1.0,), 2, beta_sd_nominal(2)),
    "d1-p8": ((-0.7,), (0.4,), (0.2,), (0.9,), 8, beta_sd_nominal(8)),
    "d3-p2": ((0.1, -1.5, 2.0), (0.5, 1.0, 2.5), (0.0, -1.0, 1.0), (1.0, 0.5, 2.0), 2, 0.2),
    "d3-p8": (
        (1.0, 0.0, -2.0), (0.3, 2.0, 0.8), (0.5, 0.5, -1.0), (0.7, 1.5, 0.2), 8,
        beta_sd_nominal(8),
    ),
    "sigma-zero": ((0.3,), (0.0,), (0.0,), (1.0,), 2, 0.25),
    "far": ((40.0,), (0.5,), (0.0,), (0.3,), 8, beta_sd_nominal(8)),
}

# float.hex of the folded mean per dimension, closed_form_j and its gradient
# at each point: the closed forms' bits, which the contour and losses
# artifacts inherit (scipy's erf included).
CLOSED_FORM_PINS = {
    "d1-p2": {
        "folded": ("0x1.12dc4fdae487fp+0",),
        "j": "0x1.5d96efe6cc8c0p-1",
        "grad_mu": ("0x1.728e1a615d94ep-3",),
        "grad_sigma": ("0x1.e95917714a120p-6",),
    },
    "d1-p8": {
        "folded": ("0x1.0e2b121d8cdecp+0",),
        "j": "0x1.048a16bf8b7adp+0",
        "grad_mu": ("-0x1.5a83ed0d429d8p-1",),
        "grad_sigma": ("-0x1.130bcd650d814p-4",),
    },
    "d3-p2": {
        "folded": ("0x1.b338d131b392fp-1", "0x1.9b2a5b7ecc319p-1", "0x1.238534d0993ecp+1"),
        "j": "0x1.90b7999652c98p+1",
        "grad_mu": ("0x1.33aab7d86e3d7p-4", "-0x1.bec4ad52317a1p-2", "0x1.2b13c20ae7daep-2"),
        "grad_sigma": ("-0x1.a27920c4528a0p-7", "0x1.84fee6d710994p-3", "0x1.2fc36a37576b6p-3"),
    },
    "d3-p8": {
        "folded": ("0x1.667f57ab9a7c2p-1", "0x1.62015a7389c81p+0", "0x1.0019bdadb3843p+0"),
        "j": "0x1.655d93ef3fe1cp+1",
        "grad_mu": ("0x1.0a371518b4091p-1", "-0x1.e5535bb4a6c0fp-3", "-0x1.fe01d02782b37p-1"),
        "grad_sigma": ("-0x1.f483755ec6c74p-5", "0x1.56924686639dcp-6", "-0x1.7286d15645681p-4"),
    },
    "sigma-zero": {
        "folded": ("0x1.aac3758488f6ep-1",),
        "j": "0x1.aac3758488f6ep-1",
        "grad_mu": ("0x1.e2f7166205bc3p-3",),
        "grad_sigma": ("-0x1.0000000000000p-2",),
    },
    "far": {
        "folded": ("0x1.4000000000000p+5",),
        "j": "0x1.3f9fb62e53f22p+5",
        "grad_mu": ("0x1.0000000000000p+0",),
        "grad_sigma": ("-0x1.812746b0379e7p-4",),
    },
}

# sha256 of `contours --kind l1sd --p 2 --mu0 0 --sigma0 1 --resolution 21`.
CONTOUR_SHA256 = "7a497531a6d9ec5239fa5ebb2a0bf7526c900c34428f91319533fe94d2789f25"


class TestClosedFormBits:
    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_POINTS))
    def test_values_and_gradients_replay_their_pins(self, name):
        mu, sigma, mu0, sigma0, P, beta = CLOSED_FORM_POINTS[name]
        params = GeneratorParams(mu, sigma)
        post = ToyPosterior.single(mu0, sigma0)
        s = np.sqrt(np.asarray(sigma0) ** 2 + np.asarray(sigma) ** 2 / P)
        folded = folded_normal_abs_mean(np.subtract(mu, mu0), s)
        grad_mu, grad_sigma = closed_form_j_grad(params, post, 0, P, beta)
        got = {
            "folded": tuple(float(v).hex() for v in folded),
            "j": closed_form_j(params, post, 0, P, beta).hex(),
            "grad_mu": tuple(float(v).hex() for v in grad_mu),
            "grad_sigma": tuple(float(v).hex() for v in grad_sigma),
        }
        assert got == CLOSED_FORM_PINS[name]

    def test_contour_artifact_replays_its_sha256(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        argv = ["contours", "--kind", "l1sd", "--p", "2", "--mu0", "0", "--sigma0", "1",
                "--resolution", "21", "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == CONTOUR_SHA256


def _random_kind(reg, rng):
    P = int(rng.integers(2, 17))
    if reg is RegKind.L1_SD:
        return RegularizerKind(reg, P, float(rng.uniform(0.0, 0.3)))
    return RegularizerKind(reg, P)


# The public closed forms written out by hand, apart from the table: the
# oracle whose bits the table-driven values must replay.
def _oracle_j(params, post, P, beta_sd):
    mu0, sigma0 = post.context_params(0)
    s = np.sqrt(sigma0**2 + params.sigma**2 / P)
    return float(folded_normal_abs_mean(params.mu - mu0, s).sum() - beta_sd * params.sigma.sum())


def _oracle_l2p(params, post, P):
    mu0, sigma0 = post.context_params(0)
    bias = params.mu - mu0
    return float((bias**2).sum() + (params.sigma**2).sum() / P + (sigma0**2).sum())


def _oracle_l2varp(params, post):
    mu0, sigma0 = post.context_params(0)
    bias = params.mu - mu0
    return float((bias**2).sum() + (sigma0**2).sum())


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
            P, beta = kind.P, kind.beta_sd
            hess = table.hess(mu - mu0, sigma, sigma0, P, beta)
            h_mm, h_ms, h_ss = np.broadcast_arrays(*hess, mu)[:3]
            analytic = np.concatenate([h_mm, h_ms, h_ms, h_ss])
            # The objectives are separable, so every dimension is stepped at once.
            h = 1e-6 * np.maximum(1.0, np.abs(mu))
            up = table.grad(mu + h - mu0, sigma, sigma0, P, beta)
            down = table.grad(mu - h - mu0, sigma, sigma0, P, beta)
            d_mu = [(u - d) / (2 * h) for u, d in zip(up, down)]
            h = 1e-6 * np.maximum(1.0, sigma)
            up = table.grad(mu - mu0, sigma + h, sigma0, P, beta)
            down = table.grad(mu - mu0, sigma - h, sigma0, P, beta)
            d_sigma = [(u - d) / (2 * h) for u, d in zip(up, down)]
            numeric = np.concatenate([d_mu[0], d_mu[1], d_sigma[0], d_sigma[1]])
            rel = np.linalg.norm(analytic - numeric) / max(
                1.0, np.linalg.norm(analytic), np.linalg.norm(numeric)
            )
            assert rel <= 1e-6, (trial, rel)

    def test_values_match_closed_forms(self):
        """The public values replay the hand-written formulas, float.hex-exactly.

        Random dimensions 1-8 and P 2-39 (P 1 too for the squared error),
        with a tenth of the spreads at exactly 0.
        """
        rng = np.random.default_rng(5)
        for _ in range(300):
            dim = int(rng.integers(1, 9))
            sigma = rng.uniform(0.0, 10.0, dim)
            sigma[rng.uniform(size=dim) < 0.1] = 0.0
            params = GeneratorParams(rng.uniform(-3, 3, dim), sigma)
            post = ToyPosterior.single(rng.uniform(-3, 3, dim), rng.uniform(0.1, 5.0, dim))
            P = int(rng.integers(2, 40))
            beta = float(rng.uniform(0.0, 0.3))
            pairs = [
                (closed_form_j(params, post, 0, P, beta), _oracle_j(params, post, P, beta)),
                (closed_form_l2p(params, post, 0, P), _oracle_l2p(params, post, P)),
                (closed_form_l2p(params, post, 0, 1), _oracle_l2p(params, post, 1)),
                (closed_form_l2varp(params, post, 0), _oracle_l2varp(params, post)),
            ]
            for got, expected in pairs:
                assert got.hex() == expected.hex()

    def test_value_sums_over_the_last_axis(self):
        """A trailing axis of one gives each leading index its own value."""
        rng = np.random.default_rng(8)
        mu0, sigma0 = self.POST.context_params(0)
        delta, sigma = rng.uniform(-3, 3, 2) - mu0, rng.uniform(0.0, 10.0, 2)
        for reg in RegKind:
            kind = _random_kind(reg, rng)
            value = CLOSED_FORMS[reg].value
            per_dim = value(delta[:, None], sigma[:, None], sigma0[:, None], kind.P, kind.beta_sd)
            for i in range(2):
                one = value(delta[i:i + 1], sigma[i:i + 1], sigma0[i:i + 1], kind.P, kind.beta_sd)
                assert per_dim[i].hex() == float(one).hex()

    @pytest.mark.parametrize("P", [2, 4, 8, 64])
    def test_l1sd_hessian_at_optimum(self, P):
        """At the truth with nominal weight: H = diag(1/s, sigma0^2 / (P s^3)) sqrt(2/pi).

        The sigma curvature, sqrt(2/pi) / (P sigma0 (1 + 1/P)^1.5), falls as P
        grows: small P gives the sharpest basin around the true spread.
        """
        sigma0 = 1.7
        hess = CLOSED_FORMS[RegKind.L1_SD].hess

        def at_optimum(P):
            return hess(0.0, sigma0, sigma0, P, beta_sd_nominal(P))

        s = sigma0 * math.sqrt(1.0 + 1.0 / P)
        h_mm, h_ms, h_ss = at_optimum(P)
        c = math.sqrt(2.0 / math.pi)
        assert h_mm == pytest.approx(c / s, rel=1e-14)
        assert h_ms == 0.0
        assert h_ss == pytest.approx(c * sigma0**2 / (P * s**3), rel=1e-14)
        assert h_ss == pytest.approx(c / (P * sigma0 * (1 + 1 / P) ** 1.5), rel=1e-14)
        assert 0.0 < at_optimum(P + 1)[2] < h_ss

    def test_variance_reward_is_flat_in_sigma(self):
        table = CLOSED_FORMS[RegKind.L2_VAR]
        sigma = np.linspace(0.0, 3.0, 7)
        _, g_sigma = table.grad(np.full(7, 0.4), sigma, 1.0, 4, None)
        _, h_ms, h_ss = table.hess(np.full(7, 0.4), sigma, 1.0, 4, None)
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
            value = closed_form_l2varp(GeneratorParams(0.0, sigma), STD_POST, 0)
            assert value == 1.0

    def test_variance_reward_keeps_bias(self):
        assert closed_form_l2varp(GeneratorParams(2.0, 3.0), STD_POST, 0) == 5.0

    def test_sigma_flatness_is_exact(self):
        values = [
            closed_form_l2varp(GeneratorParams(0.7, s), STD_POST, 0)
            for s in np.linspace(0.0, 3.0, 31)
        ]
        assert max(values) - min(values) == 0.0

    def test_dual_route_bias_variance_identity(self):
        """MC l2p minus MC lvarp / P matches the sigma-free closed form."""
        params = GeneratorParams(2.0, 1.0)
        l2 = mc_l2p(params, STD_POST, 0, 4, 400_000, STREAM.child("l2v-l2"))
        lv = mc_lvarp(params, 4, 400_000, STREAM.child("l2v-lv"))
        expected = closed_form_l2varp(params, STD_POST, 0)
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
        """Draw units make thread counts invisible in the result."""
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

# Configurations chosen to exercise the block layout inside 16384-replicate
# draw units: one block per unit with a ragged last unit (d1), several
# blocks per unit with a ragged last block (d64), a zero generator spread
# (d3) and a replicate larger than a block, so one replicate per block
# (d3000).
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

# float.hex of (value, std_error) from the unit-keyed engine; each loss here
# runs as its own single-loss pass on its own stream.
PINNED = {
    "d1-p2": {
        "l1p": ("0x1.1393ce6f1ac37p+0", "0x1.9365c49bba096p-9"),
        "lsdp": ("0x1.32c041d108648p+0", "0x1.bfb81c4c85759p-9"),
        "l2p": ("0x1.d36dfb3fb0c62p+0", "0x1.3f321078ca49fp-7"),
        "lvarp": ("0x1.70d2c6f9b1e00p+0", "0x1.f96e47fdc290ap-8"),
    },
    "d64-p8": {
        "l1p": ("0x1.501d876fab59bp+6", "0x1.3cf1ba591edfcp-5"),
        "lsdp": ("0x1.3ffb124a7bc5fp+6", "0x1.f0dd02b837ac7p-7"),
        "l2p": ("0x1.5fb6dc425a8d3p+7", "0x1.4bb62428e76b1p-3"),
        "lvarp": ("0x1.c1a5c0b2b8a40p+6", "0x1.6b6da13293a1cp-5"),
    },
    "d3-p5-zero": {
        "l1p": ("0x1.0a6a5f44bdd2cp+2", "0x1.0a51936925b40p-7"),
        "lsdp": ("0x1.009918405ae6ep+2", "0x1.59d74b2ec8a73p-8"),
        "l2p": ("0x1.2e31312a71026p+3", "0x1.2860c70c40b0cp-5"),
        "lvarp": ("0x1.410e6c98f4a48p+3", "0x1.d7dff85cfa54ep-6"),
    },
    "d3000-p64": {
        "l1p": ("0x1.d942b8de5cef3p+11", "0x1.6f4ee35b51286p+2"),
        "lsdp": ("0x1.d495df6f20a77p+11", "0x1.75414967192cdp-1"),
        "l2p": ("0x1.dca98dd6fec54p+12", "0x1.6cb204a3ed0b7p+4"),
        "lvarp": ("0x1.47f0e293c875bp+12", "0x1.281eb90f6f7a2p+1"),
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
        """Every loss replays its recorded float.hex pins bit for bit."""
        assert _pinned_run(name, 1) == PINNED[name]

    def test_all_kernels_thread_invariant(self):
        """40,000 replicates are three units, so two threads really split them."""
        assert _pinned_run("d64-p8", 2) == _pinned_run("d64-p8", 1)

    def test_memory_bounded_independent_of_p(self):
        """dim 4096, P 32: one replicate's generated draws alone are 1 MiB."""
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


# ---------------------------------------------------------------------------
# The unit-keyed Monte Carlo engine: invariance, draw counts, bounded workers
# ---------------------------------------------------------------------------

# 40,001 replicates are three units (the last one ragged) of five dimensions.
ENGINE_PARAMS = GeneratorParams(np.linspace(-1.0, 1.0, 5), np.linspace(0.5, 2.0, 5))
ENGINE_POST = ToyPosterior.single(np.linspace(0.5, -0.5, 5), np.linspace(2.0, 0.5, 5))
ENGINE_P, ENGINE_N = 4, 40_001


def _engine_callers(threads: int) -> dict:
    """Every caller of the engine on one stream; values compared with ==."""
    params, post, P, n = ENGINE_PARAMS, ENGINE_POST, ENGINE_P, ENGINE_N
    stream = STREAM.child("engine")
    val = ValidationSet(post, 0, n, stream.child("val"))
    return {
        "l1p": mc_l1p(params, post, 0, P, n, stream, threads),
        "lsdp": mc_lsdp(params, P, n, stream, threads),
        "l2p": mc_l2p(params, post, 0, P, n, stream, threads),
        "lvarp": mc_lvarp(params, P, n, stream, threads),
        "fused": mc_losses(params, post, 0, P, n, stream, threads),
        "e_hat_items": e_hat_items(params, val, P, stream).tobytes(),
        "e_hat": e_hat(params, val, P, stream),
        "ratio": check_average_error_ratio(7, (2, 8), n).details,
        "detect": streamed_plug_in_gap(logistic_classifier(1, 0.2, 0.5), post, 0, n, stream),
    }


@functools.lru_cache(maxsize=None)
def _engine_baseline() -> dict:
    """Every caller on one thread: one usable CPU."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regularizers, "_usable_cpus", lambda: 1)
        return _engine_callers(1)


@pytest.fixture()
def pools(monkeypatch) -> list:
    """The ``max_workers`` of every worker pool the engine starts, in order."""
    started = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(regularizers, "ThreadPoolExecutor", Recording)
    return started


class TestEngine:
    @pytest.mark.parametrize(
        "threads, block", [(1, None), (2, None), (4, None), (1, 1 << 10), (4, 1 << 20)]
    )
    def test_results_do_not_depend_on_threads_or_block(self, monkeypatch, threads, block):
        """Threads 1, 2 and 4 and two block sizes replay the baseline bit for bit.

        ``threads`` CPUs are usable, so the validation errors (``e_hat_items``,
        ``e_hat`` and the paired ratio of ``check_average_error_ratio``) and
        the streamed detection run on that many workers by default; the loss
        estimators also get ``threads`` as their explicit cap.
        """
        baseline = _engine_baseline()
        monkeypatch.setattr(regularizers, "_usable_cpus", lambda: threads)
        if block is not None:
            monkeypatch.setattr(regularizers, "_BLOCK", block)
        assert _engine_callers(threads) == baseline

    def test_seed_replay(self):
        assert _engine_callers(1) == _engine_baseline()

    def test_single_losses_equal_the_fused_pass(self):
        baseline = _engine_baseline()
        for name in ("l1p", "lsdp", "l2p", "lvarp"):
            single, fused = baseline[name], baseline["fused"][name]
            assert (single.value, single.std_error) == (fused.value, fused.std_error), name

    def test_normals_count_the_draws_of_each_pass(self):
        params, post, P, n = ENGINE_PARAMS, ENGINE_POST, ENGINE_P, 1000
        dim = params.dim
        stream = STREAM.child("normals")
        assert mc_l1p(params, post, 0, P, n, stream).normals == n * (P + 1) * dim
        assert mc_l2p(params, post, 0, P, n, stream).normals == n * (P + 1) * dim
        assert mc_lsdp(params, P, n, stream).normals == n * P * dim
        assert mc_lvarp(params, P, n, stream).normals == n * P * dim
        fused = mc_losses(params, post, 0, P, n, stream)
        assert {e.normals for e in fused.values()} == {n * (P + 1) * dim}

    def test_worker_pool_is_bounded(self, monkeypatch, pools):
        """threads=5000 starts min(threads, usable CPUs, units) workers, never one per unit."""
        started = pools
        monkeypatch.setattr(regularizers, "_usable_cpus", lambda: 3)
        threads_seen = []
        ran = []

        def unit(u, count):
            threads_seen.append(threading.active_count())
            ran.append(u)
            return u

        base = threading.active_count()
        units = 100
        consumed = []
        for u in regularizers._map_units(units * regularizers._UNIT, 5000, unit):
            consumed.append(u)
            # Results waiting to be consumed stay O(workers).
            assert len(ran) - len(consumed) <= 2 * 3 + 1
        assert consumed == list(range(units))
        assert started == [3]
        assert max(threads_seen) <= base + 3

        started.clear()
        mc_lsdp(STD_PARAMS, 2, 5 * regularizers._UNIT, STREAM.child("pool"), threads=5000)
        assert started == [3]
        mc_lsdp(STD_PARAMS, 2, 1000, STREAM.child("pool"), threads=5000)
        assert started == [3]  # one unit: no pool at all
        mc_lsdp(STD_PARAMS, 2, 5 * regularizers._UNIT, STREAM.child("pool"), threads=2)
        assert started == [3, 2]  # an explicit cap below the usable CPUs holds
        mc_lsdp(STD_PARAMS, 2, 5 * regularizers._UNIT, STREAM.child("pool"))
        assert started == [3, 2, 3]  # the default is every usable CPU

    def test_every_caller_spreads_units_over_the_usable_cpus(self, monkeypatch, pools):
        """With two usable CPUs and three units, each caller starts a pool of two."""
        monkeypatch.setattr(regularizers, "_usable_cpus", lambda: 2)
        params, post, P, n = ENGINE_PARAMS, ENGINE_POST, ENGINE_P, ENGINE_N
        stream = STREAM.child("engine")
        val = ValidationSet(post, 0, n, stream.child("val"))
        e_hat_items(params, val, P, stream)
        assert pools == [2]
        e_hat(params, val, P, stream)
        assert pools == [2, 2]
        check_average_error_ratio(7, (2,), n)  # one paired pass
        assert pools == [2, 2, 2]
        streamed_plug_in_gap(logistic_classifier(1, 0.2, 0.5), post, 0, n, stream)
        assert pools == [2, 2, 2, 2]
        mc_losses(params, post, 0, P, n, stream)
        assert pools == [2, 2, 2, 2, 2]

    def test_usable_cpus_count_the_affinity_set(self, monkeypatch):
        """A process pinned to two of 64 CPUs uses two; without affinity, the CPU count."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert regularizers._usable_cpus() == 2
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert regularizers._usable_cpus() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert regularizers._usable_cpus() == 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_memory_does_not_grow_with_n_outer(self, threads):
        """The traced peak of mc_l1p stays under 8 MiB at n_outer 2,000 and 200,000."""
        dim = 8
        params = GeneratorParams(np.zeros(dim), np.ones(dim))
        post = ToyPosterior.single(np.zeros(dim), np.ones(dim))
        for n_outer in (2_000, 200_000):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                mc_l1p(params, post, 0, 4, n_outer, STREAM.child("memory-n"), threads)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= 8 * 2**20, (n_outer, peak)


# Each row triggers one input check and matches its message.
INPUT_CHECKS = [
    pytest.param(lambda: RegularizerKind(RegKind.L1_SD, 1, 0.1), "P must be >= 2, got 1",
                 id="kind-p-one"),
    pytest.param(lambda: RegularizerKind.l1_sd(2, -0.1), "beta_sd must be >= 0, got -0.1",
                 id="kind-negative-beta"),
    pytest.param(lambda: closed_form_l2p(STD_PARAMS, STD_POST, 0, 0), "P must be >= 1, got 0",
                 id="l2p-p-zero"),
    pytest.param(
        lambda: e_hat_items(STD_PARAMS, ValidationSet(STD_POST, 0, 4, STREAM), 0, STREAM),
        "P must be >= 1, got 0", id="e-hat-items-p-zero",
    ),
]


@pytest.mark.parametrize("call, message", INPUT_CHECKS)
def test_input_check_rejects(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
