"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is the one fixed in the criterion itself; the
Monte Carlo sizes (1e5 validation items, 1e6 outer draws, 1e6 detection
samples) are likewise part of the criteria, not tuning knobs.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

from postsamp import GeneratorParams, SeededStream, ToyPosterior, beta_sd_nominal, closed_form_j
from postsamp.autotune import AutotuneState, simulate_autotune, update_beta
from postsamp.cfid import (
    EmbeddingSet,
    JointGaussianStats,
    cfid,
    write_embeddings,
)
from postsamp.cli import main as cli_main
from postsamp.detect import detection_probability, threshold_classifier
from postsamp.linops import FourierSubsampler, MaskOperator, data_consistency
from postsamp.regularizers import (
    closed_form_j_grad,
    closed_form_l2p,
    closed_form_l2varp,
    mc_l2p,
    mc_lsdp,
    mc_lvarp,
)
from postsamp.toy import sample_posterior
from postsamp.verify import (
    check_average_error_ratio,
    check_mode_collapse,
    check_posterior_recovery,
)

SEED = 20250810


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE {number:02d}] {name}: {verdict}  {detail}".rstrip())
    assert passed, f"criterion {number} ({name}) failed: {detail}"


class TestAcceptance:
    def test_01_posterior_recovery(self):
        """Combined objective at the nominal weight recovers (mu0, sigma0)."""
        report = check_posterior_recovery(SEED, p_values=(2, 3, 8), trials=10)
        worst = max(run["rel_error"] for run in report.details["runs"])
        within_budget = report.wall_time_s < 10.0
        _report(
            1,
            "posterior recovery (rel err <= 1e-3, < 10 s)",
            report.passed and within_budget,
            f"worst rel err {worst:.2e}, {report.wall_time_s:.2f} s",
        )

    def test_02_mode_collapse(self):
        """Plain squared-error objective collapses the spread."""
        report = check_mode_collapse(SEED, p_values=(2, 3, 8), trials=10)
        worst_sigma = max(
            run["sigma_star"] / run["sigma0"] for run in report.details["runs"]
        )
        within_budget = report.wall_time_s < 10.0
        _report(
            2,
            "mode collapse (sigma* <= 1e-4 sigma0, < 10 s)",
            report.passed and within_budget,
            f"worst sigma*/sigma0 {worst_sigma:.2e}, {report.wall_time_s:.2f} s",
        )

    def test_03_variance_reward_flatness(self):
        """Squared error plus variance reward cannot see the spread."""
        post = ToyPosterior.single(0.0, 1.0)
        spans = []
        for mu in (-1.0, 0.0, 2.0):
            values = [
                closed_form_l2varp(GeneratorParams(mu, sigma), post, 0)
                for sigma in np.linspace(0.0, 3.0, 301)
            ]
            spans.append(max(values) - min(values))
        _report(
            3,
            "variance-reward objective flat in sigma (<= 1e-12)",
            max(spans) <= 1e-12,
            f"max span {max(spans):.2e}",
        )

    def test_04_averaging_error_ratio(self):
        """True-posterior sampling: E1/EP = 2P/(P+1) within 4 combined SE."""
        start = time.perf_counter()
        report = check_average_error_ratio(
            SEED, p_values=(2, 4, 8, 32), validation_size=100_000
        )
        elapsed = time.perf_counter() - start
        target_p8 = next(r["target"] for r in report.details["runs"] if r["P"] == 8)
        worst_z = max(abs(r["z"]) for r in report.details["runs"])
        assert target_p8 == pytest.approx(1.7778, abs=1e-4)
        _report(
            4,
            "averaging error ratio 2P/(P+1) (4 SE at V=1e5, < 30 s)",
            report.passed and elapsed < 30.0,
            f"worst |z| {worst_z:.2f}, {elapsed:.2f} s",
        )

    def test_05_unbiasedness_suite(self):
        """Spread and variance rewards are unbiased; squared error splits."""
        start = time.perf_counter()
        stream = SeededStream(SEED, ("acceptance-unbiased",))
        post = ToyPosterior.single(0.0, 1.0)
        checks = []

        params = GeneratorParams([0.5, -1.0], [1.5, 0.7])
        spread_total = float(params.sigma.sum())
        for P in (2, 8, 32):
            est = mc_lsdp(params, P, 1_000_000, stream.child("lsdp", P))
            checks.append(est.within(spread_total, n_se=4.0))

        variance_total = float((params.sigma**2).sum())
        for P in (2, 4, 16):
            est = mc_lvarp(params, P, 1_000_000, stream.child("lvarp", P))
            checks.append(est.within(variance_total, n_se=4.0))

        for i, offset in enumerate((0.0, 0.5, 2.0)):
            for j, sigma in enumerate((0.0, 1.0, 2.5)):
                g = GeneratorParams(offset, sigma)
                est = mc_l2p(g, post, 0, 3, 200_000, stream.child("l2p", i, j))
                checks.append(est.within(closed_form_l2p(g, post, 0, 3), n_se=4.0))

        elapsed = time.perf_counter() - start
        _report(
            5,
            "unbiasedness suite (4 SE at n_outer=1e6, < 60 s)",
            all(checks) and elapsed < 60.0,
            f"{sum(checks)}/{len(checks)} checks, {elapsed:.2f} s",
        )

    def test_06_gradient_check(self):
        """Analytic gradient vs central differences at 20 random points."""
        rng = np.random.default_rng(SEED)
        post = ToyPosterior.single([0.5, -1.0], [1.2, 0.7])
        worst = 0.0
        for _ in range(20):
            params = GeneratorParams(rng.uniform(-3, 3, 2), rng.uniform(0.1, 10.0, 2))
            P = int(rng.integers(2, 17))
            beta = float(rng.uniform(0.0, 0.3))
            analytic = np.concatenate(closed_form_j_grad(params, post, 0, P, beta))
            numeric = np.empty(4)
            for k in range(2):
                h = 1e-6 * max(1.0, abs(float(params.mu[k])))
                up, down = params.mu.copy(), params.mu.copy()
                up[k] += h
                down[k] -= h
                numeric[k] = (
                    closed_form_j(GeneratorParams(up, params.sigma), post, 0, P, beta)
                    - closed_form_j(GeneratorParams(down, params.sigma), post, 0, P, beta)
                ) / (2 * h)
                h = 1e-6 * max(1.0, abs(float(params.sigma[k])))
                up, down = params.sigma.copy(), params.sigma.copy()
                up[k] += h
                down[k] -= h
                numeric[2 + k] = (
                    closed_form_j(GeneratorParams(params.mu, up), post, 0, P, beta)
                    - closed_form_j(GeneratorParams(params.mu, down), post, 0, P, beta)
                ) / (2 * h)
            rel = np.linalg.norm(analytic - numeric) / max(
                1.0, np.linalg.norm(analytic), np.linalg.norm(numeric)
            )
            worst = max(worst, rel)
        _report(
            6,
            "closed-form gradient vs finite differences (rel <= 1e-6)",
            worst <= 1e-6,
            f"worst rel err {worst:.2e}",
        )

    def test_07_cfid_analytic_equivalence(self):
        """Engine matches the conditional Gaussian distance on exact stats."""
        checks = []
        details = []

        # Exact linear-model statistics, oracle assembled independently.
        rng = np.random.default_rng(SEED)
        for _ in range(5):
            d, d_y = 5, 3
            b = rng.standard_normal((d, d_y))
            bhat = b + 0.3 * rng.standard_normal((d, d_y))
            mu_y = rng.standard_normal(d_y)
            root = rng.standard_normal((d_y, d_y)) / math.sqrt(d_y)
            s_yy = root @ root.T + 0.5 * np.eye(d_y)
            var_u = rng.uniform(0.5, 2.0, size=d)
            var_v = rng.uniform(0.5, 2.0, size=d)
            mu_u = rng.standard_normal(d)
            mu_v = rng.standard_normal(d)
            joint = JointGaussianStats(
                mu_x=b @ mu_y + mu_u,
                mu_y=mu_y,
                mu_xhat=bhat @ mu_y + mu_v,
                s_xx=b @ s_yy @ b.T + np.diag(var_u),
                s_yy=s_yy,
                s_xhatxhat=bhat @ s_yy @ bhat.T + np.diag(var_v),
                s_xy=b @ s_yy,
                s_xhaty=bhat @ s_yy,
            )
            gap = (b @ mu_y + mu_u) - (bhat @ mu_y + mu_v)
            oracle = (
                float(gap @ gap)
                + float(np.trace((b - bhat) @ s_yy @ (b - bhat).T))
                + float(((np.sqrt(var_u) - np.sqrt(var_v)) ** 2).sum())
            )
            result = cfid(joint)
            value = result.value
            mean_part, cov_part = result.parts
            checks.append(abs(value - oracle) <= 1e-10)
            checks.append(abs(mean_part + cov_part - value) <= 1e-10)
        details.append("analytic oracle x5")

        # Identical embedding sets.
        x = rng.standard_normal((400, 5))
        y = rng.standard_normal((400, 3))
        identical = cfid(EmbeddingSet(x, y, x.copy(), P=1)).value
        checks.append(identical <= 1e-8)
        details.append(f"identical sets {identical:.1e}")

        # Small-sample bias direction of the covariance part, 10 seeds.
        small, large = [], []
        for seed in range(10):
            local = np.random.default_rng(9000 + seed)
            b2 = local.standard_normal((4, 8))
            for n, sink in ((100, small), (100_000, large)):
                yy = local.standard_normal((n, 4))
                xx = yy @ b2 + local.standard_normal((n, 8))
                xxhat = yy @ b2 + local.standard_normal((n, 8))
                _, cov_part = cfid(EmbeddingSet(xx, yy, xxhat, P=1)).parts
                sink.append(cov_part)
        checks.append(float(np.mean(small)) > float(np.mean(large)))
        details.append(
            f"cov part n=100 {np.mean(small):.3f} > n=1e5 {np.mean(large):.3f}"
        )

        _report(
            7,
            "conditional Frechet distance analytic equivalence (1e-10)",
            all(checks),
            "; ".join(details),
        )

    def test_08_autotune_convergence(self):
        """Linear plant converges within 200 epochs for mu_sd in [0.05, 0.5]."""
        post = ToyPosterior.single(0.0, 1.0)
        nominal = beta_sd_nominal(2)
        plant = lambda beta: max(beta, 0.0) / nominal  # noqa: E731
        checks = []
        epochs_used = []
        for mu_sd in (0.05, 0.1, 0.2, 0.35, 0.5):
            trace = simulate_autotune(
                plant, post, 0, 8, 200, 10, mu_sd, SeededStream(SEED),
                beta0=3.0 * nominal,
            )
            checks.append(
                trace.converged
                and abs(trace.rows[-1].ratio_db - trace.target_db) <= 0.1
            )
            epochs_used.append(len(trace.rows))

        # Exact fixed point of the update law at the target ratio.
        state = AutotuneState(beta_sd=0.27, mu_sd=0.3, p_val=8, p_train=2)
        fixed = update_beta(state, e1_hat=2.0 * 8 / (8 + 1), ep_hat=1.0)
        checks.append(fixed.beta_sd == state.beta_sd)

        _report(
            8,
            "auto-tune convergence (<= 200 epochs to 0.1 dB; exact fixed point)",
            all(checks),
            f"epochs {epochs_used}",
        )

    def test_09_data_consistency(self):
        """100 random trials per family; dense-oracle agreement for N <= 64."""
        rng = np.random.default_rng(SEED)
        consistency_ok = idempotence_ok = oracle_ok = True

        for _ in range(100):  # pixel masks
            dim = int(rng.integers(2, 65))
            size = int(rng.integers(1, dim))
            kept = tuple(sorted(rng.choice(dim, size=size, replace=False).tolist()))
            op = MaskOperator(kept, dim)
            x_raw = rng.standard_normal(dim)
            y = rng.standard_normal(size)
            result = data_consistency(op, x_raw, y)
            consistency_ok &= bool(np.abs(op.apply(result) - y).max() <= 1e-10)
            twice = data_consistency(op, result, y)
            idempotence_ok &= bool(np.abs(twice - result).max() <= 1e-12)

        for _ in range(100):  # Fourier subsamplers
            grid = int(rng.choice([4, 8, 16, 32, 64, 6, 12]))
            size = int(rng.integers(1, grid))
            kept = tuple(sorted(rng.choice(grid, size=size, replace=False).tolist()))
            op = FourierSubsampler(grid, kept)
            x_raw = rng.standard_normal(grid) + 1j * rng.standard_normal(grid)
            y = op.apply(rng.standard_normal(grid) + 1j * rng.standard_normal(grid))
            result = data_consistency(op, x_raw, y)
            consistency_ok &= bool(np.abs(op.apply(result) - y).max() <= 1e-10)
            twice = data_consistency(op, result, y)
            idempotence_ok &= bool(np.abs(twice - result).max() <= 1e-12)

        for grid in (4, 8, 16, 32, 64, 6, 12, 63):  # dense-oracle equivalence
            kept = tuple(sorted(rng.choice(grid, size=max(1, grid // 3), replace=False).tolist()))
            op = FourierSubsampler(grid, kept)
            dense = op.dense_matrix()
            x = rng.standard_normal(grid) + 1j * rng.standard_normal(grid)
            oracle_ok &= bool(np.abs(op.apply(x) - dense @ x).max() <= 1e-10)
            projector = np.eye(grid) - np.linalg.pinv(dense) @ dense
            oracle_ok &= bool(
                np.abs(op.nullspace_project(x) - projector @ x).max() <= 1e-10
            )
        for dim in (4, 16, 64):
            kept = tuple(sorted(rng.choice(dim, size=dim // 2, replace=False).tolist()))
            op = MaskOperator(kept, dim)
            dense = op.dense_matrix()
            x = rng.standard_normal(dim)
            oracle_ok &= bool(np.abs(op.apply(x) - dense @ x).max() <= 1e-10)

        _report(
            9,
            "data consistency (1e-10 residual, 1e-12 idempotence, dense oracle)",
            consistency_ok and idempotence_ok and oracle_ok,
            "100 trials per family",
        )

    def test_10_detection(self):
        """Threshold classifier probability matches the Gaussian CDF."""
        n = 1_000_000
        batch = sample_posterior(
            ToyPosterior.single(1.0, 1.0), 0, n, SeededStream(SEED, ("detect",))
        )
        estimate = detection_probability(threshold_classifier(0, 0.0), batch)
        phi1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        bound = 4.0 * 0.5 / math.sqrt(n)
        assert phi1 == pytest.approx(0.8413, abs=1e-4)
        _report(
            10,
            "detection probability vs Gaussian CDF (4 Bernoulli SE at 1e6)",
            abs(estimate - phi1) <= bound,
            f"estimate {estimate:.6f} vs {phi1:.6f}",
        )

    def test_11_gain_curve_artifact(self, tmp_path):
        """Emitted curve equals 10 log10(2P/(P+1)) to 1e-12, monotone, bounded."""
        out = tmp_path / "curve.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["psnr-curve", "--pmax", "64", "--out", str(out)])
        lines = out.read_text().splitlines()[1:]
        gains = []
        exact = True
        for line in lines:
            p_text, gain_text = line.split(",")
            P = int(p_text)
            gains.append(float(gain_text))
            exact &= abs(gains[-1] - 10.0 * math.log10(2.0 * P / (P + 1))) <= 1e-12
        monotone = all(b > a for a, b in zip(gains, gains[1:]))
        bounded = all(g < 3.0103 for g in gains)
        _report(
            11,
            "averaging-gain curve artifact (exact to 1e-12, monotone, bounded)",
            code == 0 and exact and monotone and bounded,
            f"{len(gains)} rows, final {gains[-1]:.4f} dB",
        )

    def test_12_cli_reproducibility(self, tmp_path):
        """Every artifact-producing subcommand is byte-identical across runs."""
        rng = np.random.default_rng(SEED)
        x = rng.standard_normal((60, 3))
        y = rng.standard_normal((60, 2))
        write_embeddings(tmp_path / "x.emb", x)
        write_embeddings(tmp_path / "y.emb", y)
        write_embeddings(tmp_path / "xh.emb", x + 1.0)
        (tmp_path / "mask.txt").write_text("N=4\n0\n2\n")
        (tmp_path / "xr.csv").write_text("1\n2\n3\n4\n")
        (tmp_path / "yv.csv").write_text("10\n30\n")

        commands = {
            "contours": ["contours", "--kind", "l1sd", "--p", "2", "--mu0", "0",
                         "--sigma0", "1", "--resolution", "64"],
            "verify-prop1": ["verify-prop1", "--seed", "3", "--trials", "2"],
            "verify-prop2": ["verify-prop2", "--seed", "3", "--trials", "2"],
            "verify-prop3": ["verify-prop3", "--seed", "3", "--v", "5000",
                             "--p-list", "2,4"],
            "autotune-sim": ["autotune-sim", "--mu-sd", "0.2", "--beta0", "0.8"],
            "psnr-curve": ["psnr-curve", "--pmax", "16"],
            "cfid": ["cfid", "--x", str(tmp_path / "x.emb"), "--y", str(tmp_path / "y.emb"),
                     "--xhat", str(tmp_path / "xh.emb")],
            "fid": ["fid", "--x", str(tmp_path / "x.emb"), "--xhat", str(tmp_path / "xh.emb")],
            "dc": ["dc", "--mask", str(tmp_path / "mask.txt"),
                   "--x-raw", str(tmp_path / "xr.csv"), "--y", str(tmp_path / "yv.csv")],
            "detect": ["detect", "--mu0", "0.5", "--sigma0", "1", "--p", "20000",
                       "--seed", "4"],
            "losses": ["losses", "--mu", "0", "--sigma", "1", "--mu0", "0",
                       "--sigma0", "1", "--p", "2", "--n-outer", "10000", "--seed", "5"],
        }
        stable = {}
        for name, argv in commands.items():
            out = tmp_path / f"{name}.artifact"
            full = [*argv, "--out", str(out), "--force"]
            with contextlib.redirect_stdout(io.StringIO()):
                code_a = cli_main(list(full))
                first = out.read_bytes()
                code_b = cli_main(list(full))
            stable[name] = code_a == code_b and out.read_bytes() == first
        _report(
            12,
            "CLI artifact byte-reproducibility (all subcommands)",
            all(stable.values()),
            ", ".join(sorted(name for name, ok in stable.items() if not ok)) or "all stable",
        )
