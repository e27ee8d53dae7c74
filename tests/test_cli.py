"""CLI surface: artifacts, reproducibility, exit codes, error objects."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import postsamp
from postsamp import RegularizerKind, SeededStream, ToyPosterior, beta_sd_nominal, regularizers
from postsamp.autotune import db, psnr_gain_curve, simulate_autotune
from postsamp.cfid import write_embeddings
from postsamp.cli import _contour_csv, _read_vector_csv, _trace_csv, _vector_csv, main
from postsamp.proplab import ContourGrid, contour_grid
from postsamp.regularizers import RegKind


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

    def test_beta_defaults_to_nominal(self, tmp_path, capsys):
        argv = ("contours", "--kind", "l1sd", "--p", "3", "--mu0", "0", "--sigma0", "1",
                "--resolution", "16")
        default, nominal = tmp_path / "default.csv", tmp_path / "nominal.csv"
        assert run_cli(capsys, *argv, "--out", str(default))[0] == 0
        assert run_cli(capsys, *argv, "--beta", "nominal", "--out", str(nominal))[0] == 0
        assert default.read_bytes() == nominal.read_bytes()

    @pytest.mark.parametrize("kind", ["l2", "l2var"])
    @pytest.mark.parametrize("beta", ["0.7", "nominal"])
    def test_beta_rejected_for_squared_error_kinds(self, tmp_path, capsys, kind, beta):
        out = tmp_path / "grid.csv"
        code, summary = run_cli(
            capsys,
            "contours", "--kind", kind, "--p", "8", "--beta", beta,
            "--mu0", "0", "--sigma0", "1", "--out", str(out),
        )
        assert code == 1
        assert summary["status"] == "error"
        assert not out.exists()

    def test_negative_sigma_min_rejected(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code, summary = run_cli(
            capsys,
            "contours", "--kind", "l1sd", "--p", "8", "--sigma-min", "-2",
            "--mu0", "0", "--sigma0", "1", "--out", str(out),
        )
        assert code == 1
        assert "sigma range" in summary["error"]["message"]
        assert not out.exists()

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
        details = artifact["results"]["details"]
        assert details["rel_tol"] == 1e-3
        assert all(0 < run["iterations"] <= 50 for run in details["runs"])

    def test_collapse_passes(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, summary = run_cli(
            capsys, "verify-prop2", "--seed", "5", "--trials", "3", "--out", str(out),
        )
        assert code == 0
        details = json.loads(out.read_text())["results"]["details"]
        assert details["sigma_factor"] == 1e-4 and details["mu_rel_tol"] == 1e-3
        assert all(0 < run["iterations"] <= 50 for run in details["runs"])

    def test_ratio_passes(self, tmp_path, capsys):
        code, summary = run_cli(
            capsys, "verify-prop3", "--seed", "5", "--v", "20000",
            "--p-list", "2,8", "--out", str(tmp_path / "r.json"),
        )
        assert code == 0
        assert summary["results"]["passed"] is True
        assert summary["results"]["details"]["n_se"] == 4.0

    def test_ratio_rejects_p_below_2(self, tmp_path, capsys):
        """At P = 1 the pair's two runs are single-sample errors: nothing is checked."""
        out = tmp_path / "r.json"
        code, summary = run_cli(
            capsys, "verify-prop3", "--seed", "1", "--p-list", "1", "--v", "100",
            "--out", str(out),
        )
        assert code == 1
        assert summary["status"] == "error"
        assert ">= 2" in summary["error"]["message"]
        assert not out.exists()

    def test_seed_is_required(self, tmp_path, capsys):
        code = main(["verify-prop1", "--out", str(tmp_path / "r.json")])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("command", ["verify-prop1", "verify-prop2"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_nonpositive_trials_rejected(self, tmp_path, capsys, command, trials):
        out = tmp_path / "r.json"
        code, summary = run_cli(
            capsys, command, "--seed", "1", "--trials", trials, "--out", str(out)
        )
        assert code == 1
        assert summary["status"] == "error"
        assert "trials" in summary["error"]["message"]
        assert not out.exists()

    def test_failed_check_writes_its_artifact_and_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(postsamp.proplab, "_MAX_ITERATIONS", 1)
        out = tmp_path / "r.json"
        code, summary = run_cli(
            capsys, "verify-prop1", "--seed", "5", "--trials", "1", "--p-list", "2",
            "--out", str(out),
        )
        assert code == 1
        assert summary["status"] == "failed"
        assert summary["artifacts"] == [str(out)]
        artifact = json.loads(out.read_text())
        assert artifact["results"] == summary["results"]
        assert artifact["results"]["passed"] is False


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
        assert summary["results"]["normals"] == 0

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_unmeetable_tolerance_rejected(self, tmp_path, capsys, tol):
        out = tmp_path / "trace.csv"
        code, summary = run_cli(
            capsys, "autotune-sim", "--tol-db", tol, "--epochs", "3", "--out", str(out)
        )
        assert code == 1
        assert summary["status"] == "error"
        assert "tol_db" in summary["error"]["message"]
        assert not out.exists()

    def test_monte_carlo_mode_reports_its_draws(self, tmp_path, capsys):
        """Each epoch's paired pass draws V truths and V * (1 + p_val) codes."""
        out = tmp_path / "trace.csv"
        code, summary = run_cli(
            capsys,
            "autotune-sim", "--mc", "--v", "3000", "--p-val", "4", "--epochs", "3",
            "--seed", "1", "--out", str(out),
        )
        assert code == 0
        results = summary["results"]
        assert results["normals"] == results["epochs"] * 3000 * (2 + 4)
        assert out.read_text().splitlines()[0] == "epoch,beta_sd,ratio_db,target_db"


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

    def test_interleaved_matches_two_column(self, tmp_path, capsys):
        """The same complex vectors, interleaved and as 're,im' lines, give the same bytes.

        Entry 1 is unmeasured, so its NaN imaginary part reaches the artifact.
        """
        mask = tmp_path / "m.txt"
        mask.write_text("N=3\n0\n2\n")
        x_raw = [(-0.0, 1.5), (2.0, float("nan")), (0.25, -0.0)]
        y = [(-0.0, -0.0), (-3.0, 0.5)]
        for name, parts in (("xr", x_raw), ("y", y)):
            (tmp_path / f"{name}2.csv").write_text("".join(f"{a!r},{b!r}\n" for a, b in parts))
            (tmp_path / f"{name}i.csv").write_text("".join(f"{v!r}\n" for p in parts for v in p))
        artifacts = []
        for layout, extra in (("2", []), ("i", ["--interleaved"])):
            out = tmp_path / f"dc{layout}.csv"
            code, _ = run_cli(
                capsys,
                "dc", "--mask", str(mask), "--x-raw", str(tmp_path / f"xr{layout}.csv"),
                "--y", str(tmp_path / f"y{layout}.csv"), "--out", str(out), *extra,
            )
            assert code == 0
            artifacts.append(out.read_bytes())
        assert artifacts[0] == artifacts[1]
        assert artifacts[0].decode().splitlines()[1] == "2.0,nan"

    def test_interleaved_rejects_two_column_file(self, tmp_path, capsys):
        """Casting 're,im' lines to real would drop every imaginary part."""
        mask = tmp_path / "m.txt"
        mask.write_text("N=1\n0\n")
        (tmp_path / "xr.csv").write_text("1,2\n3,4\n")
        (tmp_path / "y.csv").write_text("5,6\n7,8\n")
        out = tmp_path / "dc.csv"
        code, summary = run_cli(
            capsys,
            "dc", "--mask", str(mask), "--x-raw", str(tmp_path / "xr.csv"),
            "--y", str(tmp_path / "y.csv"), "--interleaved", "--out", str(out),
        )
        assert code == 1
        assert summary["status"] == "error"
        assert "real" in summary["error"]["message"]
        assert not out.exists()


def _loop_vector_csv(values):
    """The per-value f-string formatting that _vector_csv must reproduce byte for byte."""
    if np.iscomplexobj(values):
        return "".join(f"{float(v.real)!r},{float(v.imag)!r}\n" for v in values)
    return "".join(f"{float(v)!r}\n" for v in values)


SPECIAL_VALUES = [
    -0.0, 1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 5e-324,
    float("nan"), float("inf"), -float("inf"), 0.1, -2.5, 123456789.0,
]


class TestVectorCsv:
    def test_real_formatting_matches_loop(self):
        values = np.array(SPECIAL_VALUES)
        assert _vector_csv(values) == _loop_vector_csv(values)

    def test_complex_formatting_matches_loop(self):
        values = np.empty(len(SPECIAL_VALUES), dtype=np.complex128)
        values.real, values.imag = SPECIAL_VALUES, SPECIAL_VALUES[::-1]
        assert _vector_csv(values) == _loop_vector_csv(values)

    def test_random_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        for values in (rng.standard_normal(1000), rng.standard_normal(1000) * 1j + 1e-300):
            path = tmp_path / "v.csv"
            path.write_text(_vector_csv(values))
            assert _vector_csv(values) == _loop_vector_csv(values)
            np.testing.assert_array_equal(_read_vector_csv(str(path)), values)

    def test_reader_skips_blank_whitespace_and_comment_lines(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("# header\n1.5\n\n   \n\t\n  # indented comment\n-2\n3 # trailing\n  4\n")
        got = _read_vector_csv(str(path))
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, [1.5, -2.0, 3.0, 4.0])
        path.write_text("# re,im\n1,2\n \n-0.0, 4\n\n5e-324,nan\n")
        got = _read_vector_csv(str(path))
        assert got.dtype == np.complex128
        np.testing.assert_array_equal(got.real, [1.0, -0.0, 5e-324])
        np.testing.assert_array_equal(got.imag, [2.0, 4.0, np.nan])
        assert math.copysign(1.0, got[1].real) == -1.0

    @pytest.mark.parametrize(
        "text", ["1\n2,3\n", "1,2\n3\n", "1,2,3\n", "", "\n  \n# only comments\n", "1\nx\n"]
    )
    def test_bad_vector_files_exit_1(self, tmp_path, capsys, text):
        mask = tmp_path / "m.txt"
        mask.write_text("N=2\n0\n")
        (tmp_path / "xr.csv").write_text(text)
        (tmp_path / "y.csv").write_text("1\n")
        out = tmp_path / "dc.csv"
        code, summary = run_cli(
            capsys,
            "dc", "--mask", str(mask), "--x-raw", str(tmp_path / "xr.csv"),
            "--y", str(tmp_path / "y.csv"), "--out", str(out),
        )
        assert code == 1
        assert summary["status"] == "error"
        assert summary["error"]["type"] == "ValueError"
        assert "xr.csv" in summary["error"]["message"]
        assert not out.exists()


def _loop_contour_csv(grid):
    """The per-value loop that _contour_csv must reproduce byte for byte."""
    beta = grid.kind.beta_sd if grid.kind.beta_sd is not None else 0.0
    lines = [
        f"# kind={grid.kind.kind.value} mu0={grid.truth[0]!r} "
        f"sigma0={grid.truth[1]!r} P={grid.kind.P} beta_sd={beta!r}",
        "sigma\\mu," + ",".join(repr(float(m)) for m in grid.mu_axis),
    ]
    for i, s in enumerate(grid.sigma_axis):
        lines.append(f"{float(s)!r}," + ",".join(repr(float(v)) for v in grid.values[i]))
    return "".join(line + "\n" for line in lines)


class TestCsvWriters:
    @pytest.mark.parametrize(
        "kind, resolution",
        [(RegularizerKind.l1_sd(2), 37), (RegularizerKind.l2(8), 37),
         (RegularizerKind(RegKind.L2_VAR, 3), 37), (RegularizerKind(RegKind.L2_VAR, 8), 601)],
        ids=["kind0", "kind1", "kind2", "kind3"],
    )
    def test_contour_csv_matches_loop(self, kind, resolution):
        post = ToyPosterior.single(0.3, 1.1)
        grid = contour_grid(kind, post, 0, (-2.5, 3.0), (0.0, 2.75), resolution)
        assert _contour_csv(grid) == _loop_contour_csv(grid)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.0, 1.5, 0.0], [-0.0, 1.5, -0.0], [0.0, 1.5, 0.0]],
            [[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0]],
            [[0.1, -2.5e-300, 7.0]] * 5,
        ],
        ids=["signed-zeros", "non-adjacent-repeats", "all-identical"],
    )
    def test_contour_csv_matches_loop_on_repeated_rows(self, rows):
        values = np.array(rows)
        grid = ContourGrid(np.arange(values.shape[1]) - 1.0, np.arange(values.shape[0]) * 0.5,
                           values, RegularizerKind.l2(8), (0.0, 1.0))
        assert _contour_csv(grid) == _loop_contour_csv(grid)

    @pytest.mark.parametrize("use_mc", [False, True])
    def test_trace_csv_matches_loop(self, use_mc):
        trace = simulate_autotune(
            lambda beta: max(beta, 0.0) * 3.0, ToyPosterior.single(0.0, 1.0), 0, 8, 12, 500,
            0.3, SeededStream(4), beta0=0.9, use_mc=use_mc,
        )
        expected = "epoch,beta_sd,ratio_db,target_db\n" + "".join(
            f"{r.epoch},{r.beta_sd!r},{r.ratio_db!r},{r.target_db!r}\n" for r in trace.rows
        )
        assert _trace_csv(trace) == expected

    def test_psnr_csv_matches_loop(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, _ = run_cli(capsys, "psnr-curve", "--pmax", "300", "--out", str(out))
        assert code == 0
        expected = "P,gain_db\n" + "".join(f"{P},{g!r}\n" for P, g in psnr_gain_curve(300))
        assert out.read_text() == expected


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

    @pytest.mark.parametrize("classifier", ["threshold", "logistic"])
    def test_negative_coordinate_rejected(self, tmp_path, capsys, classifier):
        out = tmp_path / "d.json"
        code, summary = run_cli(
            capsys,
            "detect", "--mu0", "1,0", "--sigma0", "1,2", "--coordinate", "-1",
            "--classifier", classifier, "--p", "1000", "--seed", "3", "--out", str(out),
        )
        assert code == 1
        assert summary["status"] == "error"
        assert summary["error"]["type"] == "ValueError"
        assert not out.exists()

    def test_coordinate_beyond_dimension_rejected_before_drawing(
        self, tmp_path, capsys, monkeypatch
    ):
        draws = []
        generator = SeededStream.generator
        monkeypatch.setattr(
            SeededStream, "generator", lambda self: draws.append(self) or generator(self)
        )
        out = tmp_path / "d.json"
        code, summary = run_cli(
            capsys,
            "detect", "--mu0", "1,0", "--sigma0", "1,2", "--coordinate", "2",
            "--seed", "3", "--out", str(out),
        )
        assert code == 1
        assert summary["error"]["type"] == "ValueError"
        assert "coordinate 2" in summary["error"]["message"]
        assert "dimension 2" in summary["error"]["message"]
        assert draws == []
        assert not out.exists()

    def test_streamed_draws_keep_memory_bounded(self, tmp_path, capsys):
        """1e7 two-dimensional draws would be 153 MiB at once."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code = main([
                "detect", "--mu0", "1,0", "--sigma0", "1,2", "--p", "10000000",
                "--seed", "3", "--out", str(tmp_path / "d.json"),
            ])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 64 * 2**20, peak


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
        # One fused pass draws (P + 1) * dim normals per replicate for all four.
        for name in ("l1p", "lsdp", "l2p", "lvarp"):
            assert results[name]["normals"] == 50000 * 3

    def test_threads_do_not_change_results(self, tmp_path, capsys):
        args = [
            "losses", "--mu", "0.3", "--sigma", "1.2", "--mu0", "0", "--sigma0", "1",
            "--p", "4", "--n-outer", "100000", "--seed", "9",
        ]
        _, one = run_cli(capsys, *args, "--threads", "1", "--out", str(tmp_path / "a.json"))
        _, four = run_cli(capsys, *args, "--threads", "4", "--out", str(tmp_path / "b.json"))
        assert one["results"] == four["results"]

    def test_default_threads_write_the_bytes_of_one_thread(self, tmp_path, capsys, monkeypatch):
        """Without --threads every usable CPU runs, and the artifact keeps its bytes.

        The artifacts embed their argv (thread count and --out path differ),
        which sorts before every other key, so all that follows it must match
        byte for byte.
        """
        monkeypatch.setattr(regularizers, "_usable_cpus", lambda: 4)
        args = [
            "losses", "--mu", "0.3,-1", "--sigma", "1.2,0.5", "--mu0", "0,0", "--sigma0", "1,2",
            "--p", "4", "--n-outer", "100000", "--seed", "9",
        ]
        one, default = tmp_path / "one.json", tmp_path / "default.json"
        assert run_cli(capsys, *args, "--threads", "1", "--out", str(one))[0] == 0
        assert run_cli(capsys, *args, "--out", str(default))[0] == 0
        one_text, default_text = one.read_text(), default.read_text()
        assert "--threads" not in json.loads(default_text)["argv"]
        assert one_text.split('"results"', 1)[1] == default_text.split('"results"', 1)[1]

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_nonpositive_threads_rejected(self, tmp_path, capsys, threads):
        out = tmp_path / "l.json"
        code, summary = run_cli(
            capsys,
            "losses", "--mu", "0", "--sigma", "1", "--mu0", "0", "--sigma0", "1",
            "--p", "2", "--n-outer", "100", f"--threads={threads}", "--seed", "9",
            "--out", str(out),
        )
        assert code == 1
        assert summary["status"] == "error"
        assert summary["error"]["type"] == "ValueError"
        assert "threads" in summary["error"]["message"]
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1,2\n3\n", "ragged rows, line 3"),
            ("1,2,3\n", "header names 2 columns"),
            ("1,2\n1,a\n", "line 3: could not convert string to float: 'a'"),
        ],
        ids=["ragged", "wider-than-header", "non-numeric"],
    )
    def test_bad_csv_embeddings_name_the_file(self, tmp_path, capsys, body, message):
        bad = tmp_path / "bad.emb"
        bad.write_text("col0,col1\n" + body)
        good = str(tmp_path / "good.emb")
        write_embeddings(good, np.ones((2, 2)))
        code, summary = run_cli(
            capsys,
            "cfid", "--x", good, "--y", good, "--xhat", str(bad),
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert summary["status"] == "error"
        assert summary["error"]["type"] == "ValueError"
        assert str(bad) in summary["error"]["message"]
        assert message in summary["error"]["message"]
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [("psnr-curve", "--pmax", "4"),
         ("verify-prop2", "--seed", "1", "--trials", "1", "--p-list", "2")],
    )
    def test_empty_out_path_fails(self, capsys, argv):
        code, summary = run_cli(capsys, *argv, "--out", "")
        assert code == 1
        assert summary["status"] == "error"

    def test_threads_belongs_to_losses_only(self, tmp_path, capsys):
        out = str(tmp_path / "c.csv")
        assert main(["psnr-curve", "--pmax", "4", "--threads", "2", "--out", out]) == 2
        capsys.readouterr()

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


# sha256 of small artifacts: two JSON reports (one with dimension-3 closed
# forms), the gain-curve and trace CSVs, a complex dc vector, and the
# benchmark's three seed-1 contour grids.  Each runs in its own directory
# with relative paths, since a JSON artifact embeds its argv.  cfid and fid
# are not pinned: their bytes depend on the BLAS thread count.
_BENCH_TRUTH = ["--mu0=-1.06837", "--sigma0=1.287562", "--resolution", "601"]
_DC_FILES = {
    "mask.txt": "N=8\n0\n3\n5\n",
    "xraw.csv": "".join(f"{0.1 * k - 0.3!r},{0.7 - 0.3 * k!r}\n" for k in range(8)),
    "y.csv": "1.5,-0.25\n-0.75,2.0\n0.125,0.5\n",
}
ARTIFACT_PINS = {
    "verify-prop2": (
        ["verify-prop2", "--trials", "2", "--seed", "1", "--out", "collapse.json"],
        "0dd4aec1044f2748b6e5661b79ce440e6cdbf921c7fddf31502001e03ce08d1b",
    ),
    "psnr-curve": (
        ["psnr-curve", "--pmax", "64", "--out", "curve.csv"],
        "13a7fb92d8e40eefac087f057eb661b0fce30af70598a3a96b678ef6a33b0686",
    ),
    "autotune-sim": (
        ["autotune-sim", "--seed", "1", "--out", "trace.csv"],
        "7f4b7995f4918b2e304c552f19af4aaab42bbbf67ed59394a8d2e98f7b709dfe",
    ),
    "dc": (
        ["dc", "--mask", "mask.txt", "--x-raw", "xraw.csv", "--y", "y.csv", "--out", "dc.csv"],
        "0bc3f3f33fe629dbf3fdf881d113e1bae6ef72008e8db402742e2bbec3e71561",
    ),
    "losses-d3": (
        ["losses", "--mu", "0.3,-1,2.5", "--sigma", "1.2,0.5,0", "--mu0", "0,0,1",
         "--sigma0", "1,2,0.25", "--p", "4", "--n-outer", "20000", "--seed", "9",
         "--out", "losses.json"],
        "4d6d0b34989caf2aad8620b9b2aa10099ec64047291cda78a6465ba1a9d136a6",
    ),
    "contours-l1sd": (
        ["contours", "--kind", "l1sd", "--p", "2", *_BENCH_TRUTH, "--out", "l1sd.csv"],
        "5979508be5469df7ed566afff8fe99e042a17cb1851b86ad99321bae7644dd90",
    ),
    "contours-l2": (
        ["contours", "--kind", "l2", "--p", "8", *_BENCH_TRUTH, "--out", "l2.csv"],
        "c6ee59be52b13c8493ca54d8457e5713de5c5d10f1fef24dec568e4340b87d26",
    ),
    "contours-l2var": (
        ["contours", "--kind", "l2var", "--p", "8", *_BENCH_TRUTH, "--out", "l2var.csv"],
        "422a47ddddfad23266298643fffbc46ac55ff7703de60ef8a01393a609b7f2c1",
    ),
}


@pytest.mark.parametrize("name", sorted(ARTIFACT_PINS))
def test_artifact_replays_its_sha256(tmp_path, capsys, monkeypatch, name):
    argv, digest = ARTIFACT_PINS[name]
    monkeypatch.chdir(tmp_path)
    for filename, text in _DC_FILES.items():
        (tmp_path / filename).write_text(text)
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / argv[-1]).read_bytes()).hexdigest() == digest


# Runs each argv of sys.argv[1] through main() in one fresh interpreter and
# prints, as JSON, the scipy modules loaded after build_parser() and after
# each command, with the command's exit code.
_COLD_START_SCRIPT = """
import contextlib, io, json, sys
import postsamp.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

postsamp.cli.build_parser()
steps = [["build_parser", 0, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = postsamp.cli.main(argv)
    steps.append([" ".join(argv[:2]), code, scipy_modules()])
print(json.dumps(steps))
"""


class TestColdStart:
    def test_scipy_loads_only_at_the_first_closed_form(self, tmp_path):
        """Importing the CLI and every command without an absolute-error
        closed form leaves scipy unloaded; `contours --kind l1sd` loads it.
        A fresh interpreter, since other test modules import scipy here."""
        rng = np.random.default_rng(0)
        for name, cols in (("x", 3), ("y", 2), ("xhat", 3)):
            write_embeddings(str(tmp_path / f"{name}.emb"), rng.standard_normal((40, cols)))
        (tmp_path / "m.txt").write_text("N=4\n0\n2\n")
        (tmp_path / "xr.csv").write_text("1\n2\n3\n4\n")
        (tmp_path / "y.csv").write_text("10\n30\n")
        emb = {name: str(tmp_path / f"{name}.emb") for name in ("x", "y", "xhat")}
        runs = [
            ["psnr-curve", "--pmax", "4"],
            ["dc", "--mask", str(tmp_path / "m.txt"), "--x-raw", str(tmp_path / "xr.csv"),
             "--y", str(tmp_path / "y.csv")],
            ["cfid", "--x", emb["x"], "--y", emb["y"], "--xhat", emb["xhat"]],
            ["fid", "--x", emb["x"], "--xhat", emb["xhat"]],
            ["detect", "--mu0", "1", "--sigma0", "1", "--p", "1000", "--seed", "3"],
            ["verify-prop3", "--seed", "5", "--v", "20000", "--p-list", "2,8"],
            ["autotune-sim", "--p-val", "8", "--mu-sd", "0.2", "--beta0", "0.9"],
            ["autotune-sim", "--mc", "--v", "2000", "--epochs", "20", "--seed", "1"],
        ]
        closed_form = ["contours", "--kind", "l1sd", "--p", "2", "--mu0", "0",
                       "--sigma0", "1", "--resolution", "21"]
        argvs = [argv + ["--out", str(tmp_path / f"out{i}")]
                 for i, argv in enumerate(runs + [closed_form])]
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(postsamp.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", _COLD_START_SCRIPT, json.dumps(argvs)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        *without, (_, code, loaded) = json.loads(done.stdout.splitlines()[-1])
        assert [step[1:] for step in without] == [[0, []]] * (1 + len(runs)), without
        assert code == 0 and "scipy.special" in loaded


def _mask_n4(tmp_path):
    path = tmp_path / "mask.txt"
    path.write_text("N=4\n0\n")
    return str(path)


# Each row is an argv that fails an input check: exit 1 with the error JSON.
CLI_INPUT_CHECKS = [
    pytest.param(
        lambda tmp_path: ["losses", "--mu", "1,x", "--sigma", "1,1", "--mu0", "0,0",
                          "--sigma0", "1,1", "--p", "2", "--seed", "1"],
        "expected comma-separated floats, got '1,x'", id="losses-mu",
    ),
    pytest.param(
        lambda tmp_path: ["dc", "--mask", _mask_n4(tmp_path), "--coils", "2",
                          "--x-raw", "unread.csv", "--y", "unread.csv"],
        "coils only apply to Fourier operators", id="dc-coils-on-mask",
    ),
]


@pytest.mark.parametrize("argv, message", CLI_INPUT_CHECKS)
def test_input_check_exits_1_with_error_json(tmp_path, capsys, argv, message):
    code, summary = run_cli(capsys, *argv(tmp_path), "--out", str(tmp_path / "out"))
    assert code == 1
    assert summary["status"] == "error"
    assert summary["error"]["type"] == "ValueError"
    assert message in summary["error"]["message"]
    assert not (tmp_path / "out").exists()


class TestFlagsAgainstClosedForms:
    """CLI flags no other test passes, each compared with its closed form."""

    def test_detect_tau(self, tmp_path, capsys):
        n, tau = 400_000, 0.5
        code, summary = run_cli(
            capsys, "detect", "--mu0", "1", "--sigma0", "2", "--tau", str(tau),
            "--p", str(n), "--seed", "3", "--out", str(tmp_path / "d.json"),
        )
        assert code == 0
        expected = 0.5 * (1.0 + math.erf((1.0 - tau) / 2.0 / math.sqrt(2.0)))
        se = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(summary["results"]["probability"] - expected) <= 4.0 * se

    def test_detect_logistic_scale(self, tmp_path, capsys):
        code, summary = run_cli(
            capsys, "detect", "--mu0", "0", "--sigma0", "1", "--classifier", "logistic",
            "--scale", "2", "--p", "1000", "--seed", "3", "--out", str(tmp_path / "d.json"),
        )
        assert code == 0
        assert summary["results"]["classifier"] == "logistic((x[0] - 0.0) / 2.0)"

    def test_contour_ranges(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code, _ = run_cli(
            capsys, "contours", "--kind", "l2", "--p", "2", "--mu0", "0", "--sigma0", "1",
            "--mu-min", "-1", "--mu-max", "2", "--sigma-max", "4", "--resolution", "31",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        mu_axis = [float(v) for v in lines[1].split(",")[1:]]
        assert mu_axis[0] == -1.0 and mu_axis[-1] == 2.0 and len(mu_axis) == 31
        assert float(lines[-1].split(",")[0]) == 4.0

    def test_autotune_plant_flags(self, tmp_path, capsys):
        slope, offset, p_val = 0.5, 0.25, 8
        out = tmp_path / "trace.csv"
        code, _ = run_cli(
            capsys, "autotune-sim", "--plant-slope", str(slope), "--plant-offset", str(offset),
            "--p-train", "3", "--p-val", str(p_val), "--epochs", "1", "--out", str(out),
        )
        assert code == 0
        epoch, beta, ratio_db, _ = out.read_text().splitlines()[1].split(",")
        assert epoch == "0" and float(beta) == beta_sd_nominal(3)
        sigma = slope * float(beta) + offset  # sigma0 = 1
        assert float(ratio_db) == db((1.0 + sigma * sigma) / (1.0 + sigma * sigma / p_val))
