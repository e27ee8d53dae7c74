"""Feedback-law, averaging-ratio, and spread-statistic checks."""

import math
import re
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
)
from postsamp.autotune import (
    AutotuneState,
    ValidationSet,
    NonMonotonePlantError,
    db,
    e_hat,
    e_hat_items,
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
# unit) from the unit-keyed engine, whose unit draws its own truths.
E_HAT_PINNED = {
    (1, 1): ("0x1.9297e1f2ef654p-2", "0x1.88f32a504fc43p+1"),
    (1, 2): ("0x1.6f9d7592251bfp-2", "0x1.066b6a1c018a3p-3"),
    (1, 8): ("0x1.443153504b015p-2", "0x1.abaf3928ed12bp-10"),
    (1, 32): ("0x1.43328218c9822p-2", "0x1.29d2ddf02c97cp-6"),
    (3, 1): ("0x1.f62fbd602c47bp+2", "0x1.92a3507cdfb9ep-1"),
    (3, 2): ("0x1.70dabcd6abe78p+2", "0x1.b74e669ef601bp-1"),
    (3, 8): ("0x1.0689ff5dbe976p+2", "0x1.34112059744bep+1"),
    (3, 32): ("0x1.e989d489102e5p+1", "0x1.8d0dc9dde226bp+0"),
    (64, 1): ("0x1.5bc026ba1143dp+7", "0x1.6220a1cbe05a8p+7"),
    (64, 2): ("0x1.efb64c8b73943p+6", "0x1.14dd334d3747ep+7"),
    (64, 8): ("0x1.588e6c0a67239p+6", "0x1.27b9a4a858393p+6"),
    (64, 32): ("0x1.32c19b0327a89p+6", "0x1.bb02a504e0fdep+5"),
}


class TestEHat:
    def test_true_posterior_single_sample_doubles_floor(self):
        """E_1 = 2 * E_mmse when the generator is the true posterior."""
        val = ValidationSet(STD_POST, 0, 50_000, STREAM.child("val-e1"))
        items = e_hat_items(STD_TRUTH, val, 1, STREAM.child("e1"))
        se = items.std(ddof=1) / math.sqrt(items.size)
        assert abs(items.mean() - 2.0) <= 4 * se

    def test_collapsed_generator_measures_floor(self):
        post = ToyPosterior.single(1.5, 2.0)
        val = ValidationSet(post, 0, 50_000, STREAM.child("val-floor"))
        items = e_hat_items(GeneratorParams(1.5, 0.0), val, 8, STREAM.child("floor"))
        se = items.std(ddof=1) / math.sqrt(items.size)
        assert abs(items.mean() - 4.0) <= 4 * se  # floor = sigma0^2

    def test_perfect_recovery_is_zero(self):
        post = ToyPosterior.single(3.0, 1e-12)
        val = ValidationSet(post, 0, 100, STREAM.child("val-zero"))
        value = e_hat(GeneratorParams(3.0, 0.0), val, 2, STREAM)
        assert value <= 1e-20

    def test_deterministic(self):
        val = ValidationSet(STD_POST, 0, 1000, STREAM.child("val-det"))
        a = e_hat(STD_TRUTH, val, 4, STREAM.child("det"))
        b = e_hat(STD_TRUTH, val, 4, STREAM.child("det"))
        assert a == b

    def test_empty_validation_set_rejected(self):
        with pytest.raises(ValueError):
            ValidationSet(STD_POST, 0, 0, STREAM)

    def test_dimension_mismatch_rejected(self):
        val = ValidationSet(STD_POST, 0, 10, STREAM.child("val-dim"))
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
        val = ValidationSet(post, 0, 10_000, stream.child("val"))
        items = e_hat_items(GeneratorParams(mu0 + 0.25, sigma), val, P, stream.child("e"))
        assert (items.mean().hex(), items[-1].hex()) == E_HAT_PINNED[dim, P]

    def test_memory_bounded_independent_of_p(self):
        """dim 64, P 32: the codes of all 4096 items at once would be 64 MiB."""
        dim = 64
        post = ToyPosterior.single(np.zeros(dim), np.ones(dim))
        val = ValidationSet(post, 0, 4096, STREAM.child("val-memory"))
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
        val = ValidationSet(STD_POST, 0, self.V, STREAM.child("val-agree"))
        for P in (1, 8):
            items = e_hat_items(STD_TRUTH, val, P, STREAM.child("agree", P))
            streamed = e_hat(STD_TRUTH, val, P, STREAM.child("agree", P))
            assert streamed == pytest.approx(items.mean(), rel=1e-12, abs=0.0), P

    def test_paired_ratio_equals_ratio_with_se_of_the_items(self):
        """check_average_error_ratio's runs against the per-item path on its streams."""
        seed, p_values = 11, (2, 8, 32)
        report = check_average_error_ratio(seed, p_values, self.V)
        stream = SeededStream(seed, ("ratio",))
        val = ValidationSet(STD_POST, 0, self.V, stream.child("val"))
        for run, P in zip(report.details["runs"], p_values):
            single = e_hat_items(STD_TRUTH, val, 1, stream.child("single", P))
            averaged = e_hat_items(STD_TRUTH, val, P, stream.child("averaged", P))
            ratio, se = ratio_with_se(single, averaged)
            assert run["ratio"] == pytest.approx(ratio, rel=1e-12, abs=0.0), P
            assert run["std_error"] == pytest.approx(se, rel=1e-12, abs=0.0), P
            assert run["normals"] == self.V * (2 + P)

    @pytest.mark.parametrize("cpus, sizes", [(1, (20_000, 400_000)), (2, (100_000, 400_000))])
    def test_memory_does_not_grow_with_the_validation_size(self, monkeypatch, cpus, sizes):
        """The traced peak grows by under 1 MiB between the two sizes (the
        truths or a per-item array of 4e5 floats would be 3.2 MB).

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
            peaks = [_traced_peak(lambda: call(V)) for V in sizes]
            assert peaks[1] - peaks[0] < 2**20, (name, peaks)


class TestAveragingRatio:
    @pytest.mark.parametrize("P", [2, 4, 8, 32])
    def test_ratio_law(self, P):
        """E_1 / E_P = 2P / (P+1) within 4 combined standard errors."""
        stream = SeededStream(1234, ("ratio-law", P))
        val = ValidationSet(STD_POST, 0, 100_000, stream.child("val"))
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

    @pytest.mark.parametrize("tol_db", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_unmeetable_tolerance_rejected(self, tol_db):
        with pytest.raises(ValueError, match="tol_db"):
            simulate_autotune(
                lambda beta: max(beta, 0.0), STD_POST, 0, 8, 3, 10, 0.1, SeededStream(0),
                tol_db=tol_db,
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

    def test_normals_count_the_draws_of_each_epoch(self):
        """MC mode: per epoch, V truths of each dimension and V * (1 + p_val) codes."""
        post = ToyPosterior.single([0.0, 1.0, -1.0], [1.0, 2.0, 0.5])
        plant = lambda beta: max(beta, 0.0) / NOMINAL2  # noqa: E731
        run = lambda use_mc: simulate_autotune(  # noqa: E731
            plant, post, 0, 4, 3, 500, 0.2, SeededStream(0), beta0=3 * NOMINAL2,
            use_mc=use_mc, tol_db=0.0,
        )
        trace = run(True)
        assert len(trace.rows) == 3
        assert trace.normals == 3 * 500 * (2 + 4) * 3
        assert run(False).normals == 0

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


# Each row triggers one input check and matches its message.
INPUT_CHECKS = [
    pytest.param(lambda: AutotuneState(math.nan, 0.1, 8, 2), "beta_sd must be finite",
                 id="state-nonfinite-beta"),
    pytest.param(lambda: AutotuneState(0.1, -0.1, 8, 2), "mu_sd must be >= 0",
                 id="state-negative-mu-sd"),
    pytest.param(lambda: AutotuneState(0.1, 0.1, 1, 2), "p_val must be >= 2, got 1",
                 id="state-p-val"),
    pytest.param(lambda: AutotuneState(0.1, 0.1, 8, 1), "p_train must be >= 2, got 1",
                 id="state-p-train"),
    # verify-prop3 --v 1: one paired item has no spread to estimate.
    pytest.param(lambda: check_average_error_ratio(1, (2,), 1), "need at least 2 paired items",
                 id="ratio-one-item"),
    pytest.param(lambda: ratio_with_se(np.ones(3), np.ones(4)),
                 "need two paired 1-D arrays with at least 2 items", id="ratio-shapes"),
    pytest.param(lambda: db(0.0), "dB of a nonpositive value: 0.0", id="db-zero"),
    pytest.param(lambda: target_ratio_db(0), "P must be >= 1, got 0", id="target-p-zero"),
    pytest.param(
        lambda: simulate_autotune(lambda beta: beta, STD_POST, 0, 8, 0, 10, 0.1, STREAM),
        "epochs must be >= 1", id="simulate-zero-epochs",
    ),
    pytest.param(lambda: psnr_gain_curve(0), "P_max must be >= 1, got 0", id="curve-zero"),
]


@pytest.mark.parametrize("call, message", INPUT_CHECKS)
def test_input_check_rejects(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
