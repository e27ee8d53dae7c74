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
from postsamp import regularizers
from postsamp.cli import _trace_csv
from postsamp.verify import check_average_error_ratio

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


# float.hex of (mean, last item) of e_hat_items over 10,000 items (one draw
# unit) from the unit-keyed engine.
E_HAT_PINNED = {
    (1, 1): ("0x1.9d823876a8efbp-2", "0x1.649bdbf8b4006p+0"),
    (1, 2): ("0x1.770f4c475852ap-2", "0x1.313412417bca2p-5"),
    (1, 8): ("0x1.43de713fca71dp-2", "0x1.2cafafe0d22e6p-2"),
    (1, 32): ("0x1.489f81cfcf4f9p-2", "0x1.9d212e3fc99c3p-3"),
    (3, 1): ("0x1.f95de72f1ef83p+2", "0x1.58b7ddb80373cp-2"),
    (3, 2): ("0x1.6c0083f20c488p+2", "0x1.2e38fbb549758p+3"),
    (3, 8): ("0x1.0e44ae5b3ffcfp+2", "0x1.4c7b02b3b8b0ap-4"),
    (3, 32): ("0x1.eb65e87e55e74p+1", "0x1.8582fb964b71cp+0"),
    (64, 1): ("0x1.5b9a390c31329p+7", "0x1.4f680323c1e1fp+7"),
    (64, 2): ("0x1.ef498051dc3e9p+6", "0x1.21f4768ef2588p+7"),
    (64, 8): ("0x1.5834813bfb9dep+6", "0x1.afd70469b50ecp+6"),
    (64, 32): ("0x1.33255c4c457e2p+6", "0x1.9b3c0ce7f49f8p+6"),
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
        """e_hat_items replays its recorded float.hex pins bit for bit."""
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
        """dim 64, P 32: the codes of all 4096 items at once would be 64 MiB."""
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


def _traced_peak(call) -> int:
    """Bytes ``call()`` allocated at its traced peak, above what it started with."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestStreamedErrors:
    """e_hat and the paired ratio reduce each draw unit to moments as it is drawn."""

    # 40,000 items: two draw units and a ragged tail.
    V = 40_000

    def test_e_hat_is_the_mean_of_the_items(self):
        val = make_validation_set(STD_POST, self.V, STREAM.child("val-agree"))
        for P in (1, 8):
            items = e_hat_items(STD_TRUTH, val, P, STREAM.child("agree", P))
            streamed = e_hat(STD_TRUTH, val, P, STREAM.child("agree", P))
            assert streamed == pytest.approx(items.mean(), rel=1e-12, abs=0.0), P

    def test_paired_ratio_equals_ratio_with_se_of_the_items(self):
        """check_average_error_ratio's runs against the per-item path on its streams."""
        seed, p_values = 11, (2, 8, 32)
        report = check_average_error_ratio(seed, p_values, self.V)
        stream = SeededStream(seed, ("ratio",))
        val = make_validation_set(STD_POST, self.V, stream.child("val"))
        for run, P in zip(report.details["runs"], p_values):
            single = e_hat_items(STD_TRUTH, val, 1, stream.child("single", P))
            averaged = e_hat_items(STD_TRUTH, val, P, stream.child("averaged", P))
            ratio, se = ratio_with_se(single, averaged)
            assert run["ratio"] == pytest.approx(ratio, rel=1e-12, abs=0.0), P
            assert run["std_error"] == pytest.approx(se, rel=1e-12, abs=0.0), P
            assert run["normals"] == self.V * (1 + P)

    @pytest.mark.parametrize("cpus, sizes", [(1, (20_000, 400_000)), (2, (100_000, 400_000))])
    def test_memory_does_not_grow_with_the_validation_size(self, monkeypatch, cpus, sizes):
        """Beyond the validation set, the traced peak grows by under 1 MiB
        between the two sizes (a per-item array of 4e5 floats is 3.2 MB).

        The smaller size holds at least one full draw unit per worker: a
        ragged unit drawn beside a full one would lower its peak instead.
        """
        # The same worker count at both sizes, whatever the host's CPU count.
        monkeypatch.setattr(regularizers, "_usable_cpus", lambda: cpus)
        plant = lambda beta: max(beta, 0.0) / NOMINAL2  # noqa: E731
        calls = {
            "verify": lambda V: check_average_error_ratio(3, (2, 8), V),
            "autotune": lambda V: simulate_autotune(
                plant, STD_POST, 0, 8, 2, V, 0.2, SeededStream(6), use_mc=True,
                tol_db=0.0,
            ),
        }
        for name, call in calls.items():
            peaks = [_traced_peak(lambda: call(V)) - 8 * V for V in sizes]
            assert peaks[1] - peaks[0] < 2**20, (name, peaks)


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
