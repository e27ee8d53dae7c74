"""CLI surface: artifacts, reproducibility, exit codes, error objects."""

import json
import math

import numpy as np
import pytest

from postsamp.cfid import write_embeddings
from postsamp.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1]) if out else {}


@pytest.fixture()
def embeddings(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((240, 4))
    y = rng.standard_normal((240, 3))
    xhat = x + rng.standard_normal((240, 4))
    paths = {}
    for name, matrix in (("x", x), ("y", y), ("xhat", xhat)):
        paths[name] = str(tmp_path / f"{name}.emb")
        write_embeddings(paths[name], matrix)
    return paths


class TestContours:
    def test_argmin_contains_truth(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code, summary = run_cli(
            capsys,
            "contours", "--kind", "l1sd", "--p", "2", "--beta", "nominal",
            "--mu0", "0", "--sigma0", "1", "--out", str(out),
        )
        assert code == 0
        assert summary["results"]["argmin_contains_truth"] is True
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# kind=l1sd")
        assert len(lines) == 2 + 201

    def test_l2_argmin_on_collapse_row(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code, summary = run_cli(
            capsys,
            "contours", "--kind", "l2", "--p", "8",
            "--mu0", "0", "--sigma0", "1", "--out", str(out),
        )
        assert code == 0
        assert summary["results"]["argmin_sigma"] == 0.0


class TestVerifyCommands:
    def test_recovery_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, summary = run_cli(
            capsys, "verify-prop1", "--seed", "5", "--trials", "3", "--out", str(out)
        )
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["results"]["passed"] is True
        assert artifact["seed"] == 5
        runs = artifact["results"]["details"]["runs"]
        assert all(0 < run["iterations"] <= 50 for run in runs)

    def test_collapse_passes(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, summary = run_cli(
            capsys, "verify-prop2", "--seed", "5", "--trials", "3", "--out", str(out),
        )
        assert code == 0
        runs = json.loads(out.read_text())["results"]["details"]["runs"]
        assert all(0 < run["iterations"] <= 50 for run in runs)

    def test_ratio_passes(self, tmp_path, capsys):
        code, summary = run_cli(
            capsys, "verify-prop3", "--seed", "5", "--v", "20000",
            "--p-list", "2,8", "--out", str(tmp_path / "r.json"),
        )
        assert code == 0
        assert summary["results"]["passed"] is True

    def test_seed_is_required(self, tmp_path, capsys):
        code = main(["verify-prop1", "--out", str(tmp_path / "r.json")])
        capsys.readouterr()
        assert code == 2


class TestAutotuneSim:
    def test_trace_artifact(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code, summary = run_cli(
            capsys,
            "autotune-sim", "--p-val", "8", "--mu-sd", "0.2",
            "--beta0", "0.9", "--out", str(out),
        )
        assert code == 0
        assert summary["results"]["converged"] is True
        lines = out.read_text().splitlines()
        assert lines[0] == "epoch,beta_sd,ratio_db,target_db"
        assert len(lines) == 1 + summary["results"]["epochs"]


class TestPsnrCurve:
    def test_values_exact(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _ = run_cli(capsys, "psnr-curve", "--pmax", "32", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "P,gain_db"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 32
        for P_text, gain_text in rows:
            P = int(P_text)
            expected = 10.0 * math.log10(2.0 * P / (P + 1))
            assert abs(float(gain_text) - expected) <= 1e-12
        gains = [float(g) for _, g in rows]
        assert all(b > a for a, b in zip(gains, gains[1:]))
        assert gains[-1] < 10.0 * math.log10(2.0)


class TestCfidFid:
    def test_identical_embeddings_are_zero(self, tmp_path, capsys, embeddings):
        out = tmp_path / "cfid.json"
        code, summary = run_cli(
            capsys,
            "cfid", "--x", embeddings["x"], "--y", embeddings["y"],
            "--xhat", embeddings["x"], "--out", str(out),
        )
        assert code == 0
        assert summary["results"]["cfid"] <= 1e-8
        artifact = json.loads(out.read_text())
        assert artifact["results"]["cfid"] <= 1e-8

    def test_distinct_embeddings_positive(self, tmp_path, capsys, embeddings):
        code, summary = run_cli(
            capsys,
            "cfid", "--x", embeddings["x"], "--y", embeddings["y"],
            "--xhat", embeddings["xhat"], "--out", str(tmp_path / "c.json"),
        )
        assert code == 0
        assert summary["results"]["cfid"] > 0.1

    def test_fid(self, tmp_path, capsys, embeddings):
        code, summary = run_cli(
            capsys,
            "fid", "--x", embeddings["x"], "--xhat", embeddings["xhat"],
            "--out", str(tmp_path / "f.json"),
        )
        assert code == 0
        assert summary["results"]["fid"] > 0.0


class TestDc:
    def test_mask_overwrite(self, tmp_path, capsys):
        mask = tmp_path / "m.txt"
        mask.write_text("N=4\n0\n2\n")
        (tmp_path / "xr.csv").write_text("1\n2\n3\n4\n")
        (tmp_path / "y.csv").write_text("10\n30\n")
        out = tmp_path / "dc.csv"
        code, summary = run_cli(
            capsys,
            "dc", "--mask", str(mask), "--x-raw", str(tmp_path / "xr.csv"),
            "--y", str(tmp_path / "y.csv"), "--out", str(out),
        )
        assert code == 0
        assert summary["results"]["max_residual"] == 0.0
        assert [float(v) for v in out.read_text().split()] == [10.0, 2.0, 30.0, 4.0]

    def test_fourier_complex_round_trip(self, tmp_path, capsys):
        mask = tmp_path / "f.txt"
        mask.write_text("DIMS=4\n0\n2\n")
        rng = np.random.default_rng(1)
        x_raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x_true = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        from postsamp.linops import FourierSubsampler

        y = FourierSubsampler(4, (0, 2)).apply(x_true)
        (tmp_path / "xr.csv").write_text(
            "".join(f"{float(v.real)!r},{float(v.imag)!r}\n" for v in x_raw)
        )
        (tmp_path / "y.csv").write_text(
            "".join(f"{float(v.real)!r},{float(v.imag)!r}\n" for v in y)
        )
        out = tmp_path / "dc.csv"
        code, summary = run_cli(
            capsys,
            "dc", "--mask", str(mask), "--x-raw", str(tmp_path / "xr.csv"),
            "--y", str(tmp_path / "y.csv"), "--out", str(out),
        )
        assert code == 0
        assert summary["results"]["max_residual"] <= 1e-10


class TestDetect:
    def test_threshold_probability(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        code, summary = run_cli(
            capsys,
            "detect", "--mu0", "1", "--sigma0", "1", "--p", "200000",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        phi1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        assert abs(summary["results"]["probability"] - phi1) <= 4 * 0.5 / math.sqrt(200000)
        assert summary["results"]["plug_in_estimate"] == 1.0


class TestLosses:
    def test_monte_carlo_brackets_closed_forms(self, tmp_path, capsys):
        out = tmp_path / "l.json"
        code, summary = run_cli(
            capsys,
            "losses", "--mu", "0", "--sigma", "1", "--mu0", "0", "--sigma0", "1",
            "--p", "2", "--n-outer", "50000", "--seed", "9", "--out", str(out),
        )
        assert code == 0
        results = json.loads(out.read_text())["results"]
        j = results["closed_form"]["j"]
        beta = results["closed_form"]["beta_sd"]
        combined = results["l1p"]["value"] - beta * results["lsdp"]["value"]
        se = math.hypot(results["l1p"]["std_error"], beta * results["lsdp"]["std_error"])
        assert abs(combined - j) <= 4 * se
        assert abs(results["l2p"]["value"] - results["closed_form"]["l2p"]) <= 4 * results["l2p"]["std_error"]

    def test_threads_do_not_change_results(self, tmp_path, capsys):
        args = [
            "losses", "--mu", "0.3", "--sigma", "1.2", "--mu0", "0", "--sigma0", "1",
            "--p", "4", "--n-outer", "100000", "--seed", "9",
        ]
        _, one = run_cli(capsys, *args, "--threads", "1", "--out", str(tmp_path / "a.json"))
        _, four = run_cli(capsys, *args, "--threads", "4", "--out", str(tmp_path / "b.json"))
        assert one["results"] == four["results"]


class TestReproducibilityAndErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("contours", "--kind", "l1sd", "--p", "2", "--mu0", "0", "--sigma0", "1"),
            ("psnr-curve", "--pmax", "16"),
            ("verify-prop3", "--seed", "7", "--v", "5000", "--p-list", "2,4"),
            ("autotune-sim", "--mu-sd", "0.3", "--beta0", "0.8"),
            ("losses", "--mu", "1", "--sigma", "2", "--mu0", "0", "--sigma0", "1",
             "--p", "2", "--n-outer", "10000", "--seed", "11"),
            ("detect", "--mu0", "0.5", "--sigma0", "2", "--p", "20000", "--seed", "2"),
        ],
    )
    def test_artifacts_byte_identical_across_runs(self, tmp_path, capsys, argv):
        """Same argv (artifact path included) twice: same bytes on disk."""
        out = tmp_path / "artifact.out"
        full_argv = [*argv, "--out", str(out), "--force"]
        code_a = main(list(full_argv))
        first = out.read_bytes()
        code_b = main(list(full_argv))
        capsys.readouterr()
        assert code_a == code_b
        assert out.read_bytes() == first

    def test_refuses_to_overwrite_without_force(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, _ = run_cli(capsys, "psnr-curve", "--pmax", "4", "--out", str(out))
        assert code == 0
        code, summary = run_cli(capsys, "psnr-curve", "--pmax", "4", "--out", str(out))
        assert code == 1
        assert summary["status"] == "error"
        assert "force" in summary["error"]["message"]
        code, _ = run_cli(capsys, "psnr-curve", "--pmax", "4", "--out", str(out), "--force")
        assert code == 0

    def test_runtime_failure_emits_json_error(self, tmp_path, capsys):
        code, summary = run_cli(
            capsys,
            "cfid", "--x", str(tmp_path / "missing.emb"), "--y", str(tmp_path / "missing.emb"),
            "--xhat", str(tmp_path / "missing.emb"), "--out", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert summary["status"] == "error"
        assert summary["error"]["type"] == "FileNotFoundError"

    def test_usage_error_exit_code(self, capsys):
        assert main(["no-such-command"]) == 2
        assert main([]) == 2
        capsys.readouterr()

    def test_stdout_summary_contract(self, tmp_path, capsys):
        """The run summary always carries version/argv/seed/wall_time_ms."""
        code, summary = run_cli(
            capsys, "psnr-curve", "--pmax", "2", "--out", str(tmp_path / "c.csv")
        )
        assert code == 0
        for key in ("version", "argv", "seed", "wall_time_ms", "status", "artifacts"):
            assert key in summary
