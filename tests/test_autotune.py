"""Feedback-law, averaging-ratio, and spread-statistic checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postsamp import (
    GeneratorParams,
    SeededStream,
    ToyPosterior,
    beta_sd_nominal,
    sample_generator,
)
from postsamp.autotune import (
    AutotuneState,
    NonMonotonePlantError,
    apsd,
    e_hat,
    e_hat_items,
    make_validation_set,
    psnr_gain_curve,
    ratio_with_se,
    simulate_autotune,
    target_ratio_db,
    update_beta,
)
from postsamp.cli import _trace_csv

STREAM = SeededStream(77, ("autotune-tests",))
STD_POST = ToyPosterior.single(0.0, 1.0)
STD_TRUTH = GeneratorParams(0.0, 1.0)  # STD_POST scored as a generator
NOMINAL2 = beta_sd_nominal(2)


class TestTargetRatio:
    def test_values(self):
        assert target_ratio_db(1) == 0.0
        assert target_ratio_db(8) == pytest.approx(10 * math.log10(16 / 9), abs=1e-15)
        assert target_ratio_db(8) == pytest.approx(2.4988, abs=1e-4)

    def test_monotone_approach_to_doubling_limit(self):
        values = [target_ratio_db(P) for P in range(1, 200)]
        limit = 10 * math.log10(2.0)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < limit for v in values)
        assert values[-1] == pytest.approx(limit, abs=0.03)


class TestUpdateBeta:
    def test_worked_example(self):
        """beta=0.325735, mu=0.1, observed 3.5 dB, P_val=8, P_train=2."""
        state = AutotuneState(beta_sd=0.325735, mu_sd=0.1, p_val=8, p_train=2)
        new = update_beta(state, e1_hat=10 ** 0.35, ep_hat=1.0)
        expected = 0.325735 - 0.1 * (3.5 - target_ratio_db(8)) * beta_sd_nominal(2)
        assert new.beta_sd == pytest.approx(expected, abs=1e-12)
        assert new.beta_sd == pytest.approx(0.29313, abs=2e-5)
        assert new.epoch == 1

    def test_fixed_point_exactly_at_target(self):
        state = AutotuneState(beta_sd=0.2, mu_sd=0.3, p_val=8, p_train=2)
        ratio = 16.0 / 9.0
        new = update_beta(state, e1_hat=ratio * 3.3, ep_hat=3.3)
        assert new.beta_sd == state.beta_sd

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(
        ep=st.floats(min_value=1e-3, max_value=1e3),
        factor=st.floats(min_value=0.2, max_value=5.0),
    )
    def test_stationary_iff_ratio_equals_target(self, ep, factor):
        state = AutotuneState(beta_sd=0.1, mu_sd=0.25, p_val=4, p_train=2)
        target = 2 * 4 / (4 + 1)
        new = update_beta(state, e1_hat=ep * target * factor, ep_hat=ep)
        if abs(10 * math.log10(factor)) < 1e-12:
            assert new.beta_sd == pytest.approx(state.beta_sd, abs=1e-15)
        else:
            assert (new.beta_sd < state.beta_sd) == (factor > 1.0)

    def test_below_target_increases_beta(self):
        state = AutotuneState(beta_sd=0.1, mu_sd=0.2, p_val=8, p_train=2)
        new = update_beta(state, e1_hat=1.0, ep_hat=1.0)  # observed 0 dB
        assert new.beta_sd > state.beta_sd

    def test_nonpositive_errors_rejected(self):
        state = AutotuneState(beta_sd=0.1, mu_sd=0.2, p_val=8, p_train=2)
        with pytest.raises(ValueError):
            update_beta(state, 0.0, 1.0)
        with pytest.raises(ValueError):
            update_beta(state, 1.0, -2.0)


# float.hex of (mean, last item) of e_hat_items over 10,000 items, computed
# when each chunk's draws were one whole (4096 * P, dim) array.
E_HAT_PINNED = {
    (1, 1): ("0x1.96eb1768541a8p-2", "0x1.06490adbeef80p-3"),
    (1, 2): ("0x1.778f77c2ef6b1p-2", "0x1.935c8e8cc1c74p-8"),
    (1, 8): ("0x1.46b4bdaddb004p-2", "0x1.6c391ea514039p-3"),
    (1, 32): ("0x1.4813aae0439d3p-2", "0x1.768a7d4d3ed4fp-3"),
    (3, 1): ("0x1.ecf3a71b3f5bcp+2", "0x1.a7ea60987030fp+0"),
    (3, 2): ("0x1.6ce61dcde0e59p+2", "0x1.f26cbf2a76aa9p+2"),
    (3, 8): ("0x1.0d2f01ac24c1ap+2", "0x1.30a170a74251bp+0"),
    (3, 32): ("0x1.ea2e2fb602bf3p+1", "0x1.b01b52dc5cd37p+0"),
    (64, 1): ("0x1.5d44f0bc609bap+7", "0x1.1b642c9c7d7a4p+7"),
    (64, 2): ("0x1.eee7732359670p+6", "0x1.1d9e6ffb30660p+7"),
    (64, 8): ("0x1.58a5e7f1f4e6ap+6", "0x1.528c292cc49d8p+6"),
    (64, 32): ("0x1.331b5517d0d25p+6", "0x1.bef183317bb6ap+6"),
}


class TestEHat:
    def test_true_posterior_single_sample_doubles_floor(self):
        """E_1 = 2 * E_mmse when the generator is the true posterior."""
        val = make_validation_set(STD_POST, 50_000, STREAM.child("val-e1"))
        items = e_hat_items(STD_TRUTH, val, 1, STREAM.child("e1"))
        se = items.std(ddof=1) / math.sqrt(items.size)
        assert abs(items.mean() - 2.0) <= 4 * se

    def test_collapsed_generator_measures_floor(self):
        post = ToyPosterior.single(1.5, 2.0)
        val = make_validation_set(post, 50_000, STREAM.child("val-floor"))
        items = e_hat_items(GeneratorParams(1.5, 0.0), val, 8, STREAM.child("floor"))
        se = items.std(ddof=1) / math.sqrt(items.size)
        assert abs(items.mean() - 4.0) <= 4 * se  # floor = sigma0^2

    def test_perfect_recovery_is_zero(self):
        post = ToyPosterior.single(3.0, 1e-12)
        val = make_validation_set(post, 100, STREAM.child("val-zero"))
        value = e_hat(GeneratorParams(3.0, 0.0), val, 2, STREAM)
        assert value <= 1e-20

    def test_deterministic(self):
        val = make_validation_set(STD_POST, 1000, STREAM.child("val-det"))
        a = e_hat(STD_TRUTH, val, 4, STREAM.child("det"))
        b = e_hat(STD_TRUTH, val, 4, STREAM.child("det"))
        assert a == b

    def test_empty_validation_set_rejected(self):
        with pytest.raises(ValueError):
            make_validation_set(STD_POST, 0, STREAM)

    def test_dimension_mismatch_rejected(self):
        val = make_validation_set(STD_POST, 10, STREAM.child("val-dim"))
        with pytest.raises(ValueError, match="dimension mismatch"):
            e_hat_items(GeneratorParams([0.0, 0.0], [1.0, 1.0]), val, 2, STREAM)

    @pytest.mark.parametrize("dim, P", sorted(E_HAT_PINNED))
    def test_bit_exact_against_whole_chunk_draws(self, dim, P):
        """10,000 items are three chunks of the validation set."""
        mu0 = np.linspace(-1.0, 2.0, dim)
        post = ToyPosterior.single(mu0, np.linspace(0.5, 1.5, dim))
        sigma = np.linspace(0.3, 2.0, dim)
        if dim == 3:
            sigma[1] = 0.0
        stream = SeededStream(2024, ("pins", dim, P))
        val = make_validation_set(post, 10_000, stream.child("val"))
        items = e_hat_items(GeneratorParams(mu0 + 0.25, sigma), val, P, stream.child("e"))
        assert (items.mean().hex(), items[-1].hex()) == E_HAT_PINNED[dim, P]

    def test_memory_bounded_independent_of_p(self):
        """dim 64, P 32: one chunk of whole draws would be 64 MiB."""
        dim = 64
        post = ToyPosterior.single(np.zeros(dim), np.ones(dim))
        val = make_validation_set(post, 4096, STREAM.child("val-memory"))
        params = GeneratorParams(np.zeros(dim), np.ones(dim))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            e_hat_items(params, val, 32, STREAM.child("memory"))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, peak


class TestAveragingRatio:
    @pytest.mark.parametrize("P", [2, 4, 8, 32])
    def test_ratio_law(self, P):
        """E_1 / E_P = 2P / (P+1) within 4 combined standard errors."""
        stream = SeededStream(1234, ("ratio-law", P))
        val = make_validation_set(STD_POST, 100_000, stream.child("val"))
        single = e_hat_items(STD_TRUTH, val, 1, stream.child("single"))
        averaged = e_hat_items(STD_TRUTH, val, P, stream.child("avg"))
        ratio, se = ratio_with_se(single, averaged)
        assert abs(ratio - 2 * P / (P + 1)) <= 4 * se


class TestSimulation:
    def test_linear_plant_converges_to_nominal(self):
        plant = lambda beta: max(beta, 0.0) / NOMINAL2  # noqa: E731
        for mu_sd in (0.05, 0.1, 0.25, 0.5):
            trace = simulate_autotune(
                plant, STD_POST, 0, 8, 200, 10, mu_sd, SeededStream(0), beta0=3 * NOMINAL2
            )
            assert trace.converged, mu_sd
            assert len(trace.rows) <= 200
            assert abs(trace.rows[-1].ratio_db - trace.target_db) <= 0.1
            # the plant maps the final weight to a spread near sigma0
            assert plant(trace.final_beta) == pytest.approx(1.0, abs=0.1)

    def test_collapsed_plant_never_converges_and_beta_grows(self):
        trace = simulate_autotune(
            lambda beta: 0.0, STD_POST, 0, 8, 50, 10, 0.2, SeededStream(0)
        )
        assert not trace.converged
        assert len(trace.rows) == 50
        assert all(row.ratio_db == 0.0 for row in trace.rows)
        betas = [row.beta_sd for row in trace.rows]
        assert all(b > a for a, b in zip(betas, betas[1:]))

    def test_zero_step_keeps_beta_constant(self):
        trace = simulate_autotune(
            lambda beta: 0.5, STD_POST, 0, 8, 20, 10, 0.0, SeededStream(0)
        )
        betas = {row.beta_sd for row in trace.rows}
        assert len(betas) == 1

    def test_non_monotone_plant_rejected(self):
        with pytest.raises(NonMonotonePlantError):
            simulate_autotune(
                lambda beta: 1.0 / (1.0 + max(beta, 0.0)),
                STD_POST, 0, 8, 10, 10, 0.1, SeededStream(0),
            )

    def test_monte_carlo_mode_matches_closed_form_loop(self):
        plant = lambda beta: max(beta, 0.0) / NOMINAL2  # noqa: E731
        trace = simulate_autotune(
            plant,
            STD_POST,
            0,
            8,
            200,
            20_000,
            0.2,
            SeededStream(6),
            beta0=2 * NOMINAL2,
            use_mc=True,
        )
        assert trace.converged
        assert plant(trace.final_beta) == pytest.approx(1.0, abs=0.15)

    def test_trace_csv_format(self):
        trace = simulate_autotune(
            lambda beta: max(beta, 0.0) / NOMINAL2,
            STD_POST, 0, 8, 50, 10, 0.2, SeededStream(0), beta0=2 * NOMINAL2,
        )
        lines = _trace_csv(trace).splitlines()
        assert lines[0] == "epoch,beta_sd,ratio_db,target_db"
        assert len(lines) == 1 + len(trace.rows)
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 2 * NOMINAL2


class TestGainCurve:
    def test_endpoint_values(self):
        curve = psnr_gain_curve(32)
        assert curve[0] == (1, 0.0)
        assert curve[-1][1] == pytest.approx(10 * math.log10(64 / 33), abs=1e-15)
        assert curve[-1][1] == pytest.approx(2.8767, abs=1e-4)

    def test_strictly_increasing_and_bounded(self):
        gains = [gain for _, gain in psnr_gain_curve(200)]
        assert all(b > a for a, b in zip(gains, gains[1:]))
        assert gains[-1] < 10 * math.log10(2.0) < 3.0103000001


class TestApsd:
    def test_collapsed_samples_zero(self):
        batch = sample_generator(GeneratorParams([1.0, 2.0], [0.0, 0.0]), 8, STREAM)
        assert apsd(batch, 8) == 0.0

    def test_two_point_example(self):
        batch = sample_generator(GeneratorParams(0.0, 1.0), 2, STREAM)
        object.__setattr__(batch, "values", np.array([[0.0], [2.0]]))
        assert apsd(batch, 2) == 1.0

    def test_unit_spread_large_p(self):
        P = 8192
        batch = sample_generator(GeneratorParams(0.0, 1.0), P, STREAM.child("apsd"))
        expected = math.sqrt((P - 1) / P)
        assert apsd(batch, P) == pytest.approx(expected, abs=0.05)

    def test_nonnegative_and_zero_iff_identical(self):
        rng = np.random.default_rng(3)
        batch = sample_generator(GeneratorParams(0.0, 1.0), 16, STREAM.child("pos"))
        assert apsd(batch, 16) > 0.0
        object.__setattr__(batch, "values", np.tile(rng.standard_normal((1, 1)), (16, 1)))
        assert apsd(batch, 16) == 0.0

    def test_p_validation(self):
        batch = sample_generator(GeneratorParams(0.0, 1.0), 4, STREAM)
        with pytest.raises(ValueError):
            apsd(batch, 1)
        with pytest.raises(ValueError):
            apsd(batch, 5)
