"""CLI surface: artifacts, reproducibility, exit codes, error objects."""

import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import postsamp
from postsamp import (
    RegularizerKind,
    SeededStream,
    ToyPosterior,
    beta_sd_nominal,
    cli,
    regularizers,
)
from postsamp.autotune import AutotuneTrace, TraceRow, db, psnr_gain_curve, simulate_autotune
from postsamp.cli import _contour_csv, _read_vector_csv, _trace_csv, _vector_csv, main
from postsamp.proplab import ContourGrid, contour_grid
from postsamp.regularizers import RegKind

from memory import traced_peak
from oracles import write_embeddings


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

    def test_l1sd_grid_far_past_the_truth(self, tmp_path, capsys):
        """Past |mu - mu0| / s of about 1.3e154 the folded mean's exp term is
        exactly 0: the grid is written with no overflow warning."""
        out = tmp_path / "grid.csv"
        code, summary = run_cli(
            capsys,
            "contours", "--kind", "l1sd", "--p", "2", "--mu0", "0", "--sigma0", "1",
            "--mu-min=-1e300", "--mu-max=1e300", "--out", str(out),
        )
        assert code == 0
        assert summary["results"]["argmin_contains_truth"] is True

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
        assert summary["results"]["clamped_probes"] == 0
        assert summary["results"]["clamped_epochs"] == 0

    def test_negative_plant_spreads_are_counted(self, tmp_path, capsys):
        """A plant offset of -5 puts every probe and epoch spread below 0."""
        out = tmp_path / "trace.csv"
        code, summary = run_cli(
            capsys, "autotune-sim", "--plant-offset", "-5", "--epochs", "3", "--out", str(out)
        )
        assert code == 0
        assert summary["results"]["clamped_epochs"] == 3
        assert summary["results"]["clamped_probes"] == 17

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
        """'re,im' lines keep each part as parsed, through to the artifact.

        Entry 1 is unmeasured, so its NaN imaginary part reaches the artifact,
        still imaginary; the signed zeros of the measured entries sum to 0.0.
        """
        mask = tmp_path / "m.txt"
        mask.write_text("N=3\n0\n2\n")
        x_raw = [(-0.0, 1.5), (2.0, float("nan")), (0.25, -0.0)]
        y = [(-0.0, -0.0), (-3.0, 0.5)]
        for name, parts in (("xr", x_raw), ("y", y)):
            (tmp_path / f"{name}.csv").write_text("".join(f"{a!r},{b!r}\n" for a, b in parts))
        out = tmp_path / "dc.csv"
        code, _ = run_cli(
            capsys,
            "dc", "--mask", str(mask), "--x-raw", str(tmp_path / "xr.csv"),
            "--y", str(tmp_path / "y.csv"), "--out", str(out),
        )
        assert code == 0
        assert out.read_text() == "0.0,0.0\n2.0,nan\n-3.0,0.5\n"


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
        assert "".join(_vector_csv(values)) == _loop_vector_csv(values)

    def test_complex_formatting_matches_loop(self):
        values = np.empty(len(SPECIAL_VALUES), dtype=np.complex128)
        values.real, values.imag = SPECIAL_VALUES, SPECIAL_VALUES[::-1]
        assert "".join(_vector_csv(values)) == _loop_vector_csv(values)

    @pytest.mark.parametrize("lines", [1, 7, 4096])
    def test_chunked_formatting_matches_loop(self, monkeypatch, lines):
        """Chunks of 1 and 7 lines (the last one partial) and one whole chunk."""
        monkeypatch.setattr(cli, "_VECTOR_LINES", lines)
        rng = np.random.default_rng(3)
        real = rng.standard_normal(1000)
        for values in (real, real + 1j * rng.standard_normal(1000), real[:0]):
            assert "".join(_vector_csv(values)) == _loop_vector_csv(values)

    def test_random_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        for values in (rng.standard_normal(1000), rng.standard_normal(1000) * 1j + 1e-300):
            path = tmp_path / "v.csv"
            path.write_text("".join(_vector_csv(values)))
            assert "".join(_vector_csv(values)) == _loop_vector_csv(values)
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

    def test_reader_accepts_crlf_and_cr_line_ends(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_bytes(b"# re,im\r\n1,2\r\n\r\n3,4\r5,6")
        np.testing.assert_array_equal(_read_vector_csv(str(path)), [1 + 2j, 3 + 4j, 5 + 6j])

    def test_reader_memory_stays_bounded(self, tmp_path):
        """A 262,144-line 're,im' file (10 MB of text) is parsed as it is read:
        its 4 MiB of values plus one parser chunk, not every kept line held as
        a str first (33.8 MB)."""
        rng = np.random.default_rng(4)
        values = rng.standard_normal(1 << 18) + 1j * rng.standard_normal(1 << 18)
        path = tmp_path / "v.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(_vector_csv(values))
        got, peak = traced_peak(lambda: _read_vector_csv(str(path)))
        np.testing.assert_array_equal(got, values)
        assert peak <= 8 * 2**20, peak

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
        assert "".join(_contour_csv(grid)) == _loop_contour_csv(grid)

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
        assert "".join(_contour_csv(grid)) == _loop_contour_csv(grid)

    @pytest.mark.parametrize("use_mc", [False, True])
    def test_trace_csv_matches_loop(self, use_mc):
        trace = simulate_autotune(
            lambda beta: max(beta, 0.0) * 3.0, ToyPosterior.single(0.0, 1.0), 0, 8, 12, 500,
            0.3, SeededStream(4), beta0=0.9, use_mc=use_mc,
        )
        expected = "epoch,beta_sd,ratio_db,target_db\n" + "".join(
            f"{r.epoch},{r.beta_sd!r},{r.ratio_db!r},{r.target_db!r}\n" for r in trace.rows
        )
        assert "".join(_trace_csv(trace)) == expected

    def test_long_trace_is_formatted_in_pieces(self):
        """A 10,000-epoch trace, one chunk of values, is formatted in pieces of
        at most _VECTOR_LINES lines that join to the text of every row."""
        rows = [TraceRow(e, e / 3, -e / 7, 0.1) for e in range(10_000)]
        trace = AutotuneTrace(rows, 0.1, False, 0, 0, 0)
        header, *pieces = _trace_csv(trace)
        assert len(pieces) > 1 and max(p.count("\n") for p in pieces) <= cli._VECTOR_LINES
        assert header + "".join(pieces) == "epoch,beta_sd,ratio_db,target_db\n" + "".join(
            f"{r.epoch},{r.beta_sd!r},{r.ratio_db!r},{r.target_db!r}\n" for r in rows
        )

    def test_psnr_csv_matches_loop(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, _ = run_cli(capsys, "psnr-curve", "--pmax", "300", "--out", str(out))
        assert code == 0
        expected = "P,gain_db\n" + "".join(f"{P},{g!r}\n" for P, g in psnr_gain_curve(300))
        assert out.read_text() == expected

    def test_contours_memory_stays_bounded(self, tmp_path, capsys):
        """The 601 x 601 grid is 2.8 MiB; its closed form runs in bands and its
        text is written as it is formatted, not held whole (about 26 MB)."""
        warm = ["contours", "--kind", "l1sd", "--p", "2", "--mu0", "0.3", "--sigma0", "1.1"]
        assert main([*warm, "--resolution", "16", "--out", str(tmp_path / "warm.csv")]) == 0
        code, peak = traced_peak(
            lambda: main([*warm, "--resolution", "601", "--out", str(tmp_path / "c.csv")])
        )
        capsys.readouterr()
        assert code == 0
        assert peak < 8 * 2**20, peak


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
        code, peak = traced_peak(lambda: main([
            "detect", "--mu0", "1,0", "--sigma0", "1,2", "--p", "10000000",
            "--seed", "3", "--out", str(tmp_path / "d.json"),
        ]))
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

    @pytest.mark.parametrize(
        "argv",
        [("verify-prop3", "--seed", "1"),
         ("losses", "--mu", "1,x", "--sigma", "1", "--mu0", "0", "--sigma0", "1", "--p", "2",
          "--seed", "1")],
        ids=["verify-prop3", "losses-bad-mu"],
    )
    def test_refusal_comes_before_the_handler(self, tmp_path, capsys, monkeypatch, argv):
        """An existing --out is refused before the command does any work, so
        the refusal also wins over the handler's own input errors."""
        def unreachable(args):
            raise AssertionError("the handler ran")

        monkeypatch.setattr(cli, "_cmd_verify", unreachable)
        monkeypatch.setattr(cli, "_cmd_losses", unreachable)
        out = tmp_path / "r.json"
        out.write_text("an older artifact\n")
        code, summary = run_cli(capsys, *argv, "--out", str(out))
        assert code == 1
        assert summary["error"] == {
            "type": "ArtifactExistsError",
            "message": f"refusing to overwrite existing artifact {str(out)!r}; pass --force",
        }
        assert out.read_text() == "an older artifact\n"

    def test_file_appearing_during_the_run_is_not_overwritten(self, tmp_path, capsys,
                                                               monkeypatch):
        out = tmp_path / "c.csv"
        handler = cli._cmd_psnr_curve

        def racing(args):
            out.write_text("written meanwhile\n")
            return handler(args)

        monkeypatch.setattr(cli, "_cmd_psnr_curve", racing)
        code, summary = run_cli(capsys, "psnr-curve", "--pmax", "4", "--out", str(out))
        assert code == 1
        assert summary["error"]["type"] == "FileExistsError"
        assert out.read_text() == "written meanwhile\n"

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "forced-over"])
    def test_failed_write_leaves_no_artifact(self, tmp_path, capsys, monkeypatch, existing):
        """A chunk iterator that raises mid-write: exit 1, the error JSON, no file."""
        def broken_csv(grid):
            yield "# a header line\n"
            raise RuntimeError("formatting failed")

        monkeypatch.setattr(cli, "_contour_csv", broken_csv)
        out = tmp_path / "c.csv"
        if existing:
            out.write_text("an older artifact\n")
        code, summary = run_cli(
            capsys,
            "contours", "--kind", "l2", "--p", "2", "--mu0", "0", "--sigma0", "1",
            "--resolution", "16", "--out", str(out), *(["--force"] if existing else []),
        )
        assert code == 1
        assert summary["status"] == "error"
        assert summary["error"] == {"type": "RuntimeError", "message": "formatting failed"}
        assert "artifacts" not in summary
        assert not out.exists()

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
    "verify-prop2-plist": (
        ["verify-prop2", "--p-list", "2,3,8", "--trials", "5", "--seed", "5",
         "--out", "collapse-plist.json"],
        "4b0cc366e729224b6fdb0624d3bb528d629dc0ca3113facf889400d73b25752c",
    ),
    "verify-prop1": (
        ["verify-prop1", "--trials", "3", "--seed", "1", "--out", "recovery.json"],
        "54a0db33876e6745423a3f84dba3d692941fdbe519814e3830bed6429f723933",
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


def _python(*args) -> subprocess.CompletedProcess:
    """``python args...`` in a fresh interpreter that imports this checkout's postsamp."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(postsamp.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


def _readme_loads() -> dict:
    """Subcommand -> the lab modules README § Install says it loads."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Install", 1)[1].split("\n## ", 1)[0]
    loads = {}
    for commands, modules in re.findall(r"^\| (`.+`) \| (`.+`) \|$", section, re.MULTILINE):
        for command in re.findall(r"`([^`]+)`", commands):
            loads[command] = re.findall(r"`([^`]+)`", modules)
    return loads


_README_LOADS = _readme_loads()


def _subcommand_parsers() -> dict:
    """Subcommand name -> its parser."""
    return next(a for a in cli.build_parser()._actions if a.dest == "command").choices


def _write_inputs(tmp_path) -> None:
    """Small embedding, mask and vector files for cfid, fid and dc."""
    rng = np.random.default_rng(0)
    for name, cols in (("x", 3), ("y", 2), ("xhat", 3)):
        write_embeddings(str(tmp_path / f"{name}.emb"), rng.standard_normal((40, cols)))
    (tmp_path / "m.txt").write_text("N=4\n0\n2\n")
    (tmp_path / "xr.csv").write_text("1\n2\n3\n4\n")
    (tmp_path / "y.csv").write_text("10\n30\n")


# A small run of each subcommand, on the inputs of _write_inputs.
_SMALL_ARGV = {
    "contours": "--kind l2 --p 2 --mu0 0 --sigma0 1 --resolution 16",
    "verify-prop1": "--seed 1 --trials 1 --p-list 2",
    "verify-prop2": "--seed 1 --trials 1 --p-list 2",
    "verify-prop3": "--seed 1 --v 100 --p-list 2",
    "autotune-sim": "--epochs 2",
    "psnr-curve": "--pmax 2",
    "cfid": "--x x.emb --y y.emb --xhat xhat.emb",
    "fid": "--x x.emb --xhat xhat.emb",
    "dc": "--mask m.txt --x-raw xr.csv --y y.csv",
    "detect": "--mu0 1 --sigma0 1 --p 100 --seed 3",
    "losses": "--mu 0 --sigma 1 --mu0 0 --sigma0 1 --p 2 --n-outer 100 --seed 1",
}


# Runs each code step of sys.argv[1:] in order, in one namespace of one fresh
# interpreter, and after each step takes the loaded modules of postsamp,
# numpy, scipy and concurrent.futures, and of the standard-library modules
# the front end leaves to the handlers: dataclasses (which loads inspect) and
# json.  The probe imports nothing after sys, so each list holds what the
# steps loaded; it prints one space-separated line per step at the end.
_PROBE_SCRIPT = """
import sys
scope, steps = {}, []
for code in sys.argv[1:]:
    exec(code, scope)
    steps.append(" ".join(sorted(m for m in sys.modules if m.split(".")[0] in (
        "postsamp", "numpy", "scipy", "concurrent", "dataclasses", "inspect", "json"))))
print("\\n".join(steps))
"""


def _loaded_after(*steps: str) -> list:
    """The probe's module list after each code step."""
    done = _python("-c", _PROBE_SCRIPT, *steps)
    assert done.returncode == 0, done.stderr
    return [line.split() for line in done.stdout.split("\n")[-1 - len(steps):-1]]


def _loaded_by_main(tmp_path, *runs) -> list:
    """The probe's module list after importing the CLI, then after each
    ``(argv, exit_code)`` run of main() in ``tmp_path`` with its output
    swallowed."""
    quiet = ("with contextlib.redirect_stdout(io.StringIO()), "
             "contextlib.redirect_stderr(io.StringIO()):\n")
    return _loaded_after(
        f"import contextlib, io, os, postsamp.cli\nos.chdir({str(tmp_path)!r})",
        *(f"{quiet}    assert postsamp.cli.main({argv!r}) == {code}, {argv!r}"
          for argv, code in runs),
    )


class TestColdStart:
    def test_parser_loads_no_lab_module(self):
        """Every invocation pays for the parser, so it loads only the CLI:
        no lab module, no numpy, and neither dataclasses nor json."""
        loaded = _loaded_after("import postsamp.cli; postsamp.cli.build_parser()")
        assert loaded == [["postsamp", "postsamp.cli"]]

    @pytest.mark.parametrize(
        "argv, code",
        [(["--help"], 0),
         (["contours", "--kind", "l3"], 2),
         (["verify-prop3", "--seed", "1", "--out", "existing.json"], 1)],
        ids=["help", "usage-error", "refused-out"],
    )
    def test_front_end_loads_no_numpy(self, tmp_path, argv, code):
        """--help, a usage error and a refused --out finish in the CLI alone,
        without dataclasses; only the refusal, which prints its JSON error
        object, loads json."""
        (tmp_path / "existing.json").write_text("{}\n")
        _, loaded = _loaded_by_main(tmp_path, (argv, code))
        if code == 1:
            assert "json" in loaded
            loaded = [m for m in loaded if m.split(".")[0] != "json"]
        assert loaded == ["postsamp", "postsamp.cli"]

    def test_psnr_curve_loads_no_numpy(self, tmp_path):
        """psnr-curve computes dB values of 2P/(P+1) only: besides the lab
        modules README lists, it loads no numpy, scipy or worker pool."""
        _, loaded = _loaded_by_main(tmp_path, (["psnr-curve", "--pmax", "4", "--out", "c.csv"], 0))
        assert [m for m in loaded if m.split(".")[0] in ("numpy", "scipy", "concurrent")] == []

    def test_package_root_loads_no_submodule(self):
        assert _loaded_after("import postsamp") == [["postsamp"]]

    def test_quick_tour_names_resolve_to_their_submodules(self):
        from postsamp import proplab, streams, toy

        expected = {
            "SeededStream": streams.SeededStream,
            "ToyPosterior": toy.ToyPosterior,
            "GeneratorParams": toy.GeneratorParams,
            "RegularizerKind": regularizers.RegularizerKind,
            "beta_sd_nominal": regularizers.beta_sd_nominal,
            "mc_l1p": regularizers.mc_l1p,
            "closed_form_j": regularizers.closed_form_j,
            "minimize_regularizer": proplab.minimize_regularizer,
        }
        assert sorted(expected) == sorted(set(postsamp.__all__) - {"__version__"})
        assert set(expected) <= set(dir(postsamp))
        for name, obj in expected.items():
            assert getattr(postsamp, name) is obj, name
        with pytest.raises(AttributeError, match="no attribute 'mc_l2p'"):
            getattr(postsamp, "mc_l2p")

    def test_kind_choices_are_the_regkind_values(self):
        kind = next(a for a in _subcommand_parsers()["contours"]._actions if a.dest == "kind")
        assert list(kind.choices) == [k.value for k in RegKind]

    def test_verify_defaults_are_the_checks_defaults(self):
        """Each verify-* parser writes its check's defaults as literals."""
        from postsamp import verify

        for name in ("verify-prop1", "verify-prop2", "verify-prop3"):
            sub = _subcommand_parsers()[name]
            check = getattr(verify, sub.get_default("check"))
            _, p_values, size = inspect.signature(check).parameters.values()
            assert cli._parse_int_list(sub.get_default("p_list")) == p_values.default, name
            assert sub.get_default("size") == size.default, name

    def test_readme_lists_every_subcommand(self):
        assert sorted(_README_LOADS) == sorted(_subcommand_parsers())

    @pytest.mark.parametrize("command", sorted(_README_LOADS))
    def test_each_subcommand_loads_what_the_readme_lists(self, tmp_path, command):
        """README § Install lists each subcommand's lab modules; a fresh
        interpreter that runs it loads those and the CLI, and no other."""
        _write_inputs(tmp_path)
        argv = [command, *_SMALL_ARGV[command].split(), "--out", "out"]
        _, loaded = _loaded_by_main(tmp_path, (argv, 0))
        lab = sorted(m.split(".", 1)[1] for m in loaded if m.startswith("postsamp."))
        assert lab == sorted({"cli", *_README_LOADS[command]})

    def test_scipy_loads_only_at_the_first_closed_form(self, tmp_path):
        """Importing the CLI and every command without an absolute-error
        closed form leaves scipy unloaded; `contours --kind l1sd` loads it.
        A fresh interpreter, since other test modules import scipy here."""
        _write_inputs(tmp_path)
        runs = [
            "psnr-curve --pmax 4",
            "dc --mask m.txt --x-raw xr.csv --y y.csv",
            "cfid --x x.emb --y y.emb --xhat xhat.emb",
            "fid --x x.emb --xhat xhat.emb",
            "detect --mu0 1 --sigma0 1 --p 1000 --seed 3",
            "verify-prop3 --seed 5 --v 20000 --p-list 2,8",
            "autotune-sim --p-val 8 --mu-sd 0.2 --beta0 0.9",
            "autotune-sim --mc --v 2000 --epochs 20 --seed 1",
            "contours --kind l1sd --p 2 --mu0 0 --sigma0 1 --resolution 21",
        ]
        *without, loaded = _loaded_by_main(
            tmp_path, *(([*argv.split(), "--out", f"out{i}"], 0) for i, argv in enumerate(runs))
        )
        assert [[m for m in step if m.startswith("scipy")] for step in without] == [[]] * len(runs)
        assert "scipy.special" in loaded


def test_memory_script_measures_one_cli_run(tmp_path):
    """tests/memory.py as the CI memory gates run it: it prints one number, the
    max RSS growth in MiB, and exits 1 when that exceeds --max."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "memory.py")
    argv = ["--", "psnr-curve", "--pmax", "4", "--out"]
    within = _python(script, "--max", "1000", *argv, str(tmp_path / "within.csv"))
    assert within.returncode == 0, within.stderr
    assert len(within.stdout.split()) == 1 and float(within.stdout) >= 0.0, within.stdout
    over = _python(script, "--max", "-1", *argv, str(tmp_path / "over.csv"))
    assert over.returncode == 1
    assert "more than -1" in over.stderr


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
    pytest.param(
        lambda tmp_path: ["losses", "--mu", "0", "--sigma", "1", "--mu0", "0", "--sigma0", "1",
                          "--p", "2", "--n-outer", "100", "--beta", "nan", "--seed", "1"],
        "beta_sd must be finite, got nan", id="losses-beta-nan",
    ),
    pytest.param(
        lambda tmp_path: ["contours", "--kind", "l1sd", "--p", "2", "--mu0", "0", "--sigma0", "1",
                          "--beta", "inf"],
        "beta_sd must be finite, got inf", id="contours-beta-infinite",
    ),
    pytest.param(
        lambda tmp_path: ["detect", "--mu0", "0", "--sigma0", "1", "--tau", "nan", "--p", "100",
                          "--seed", "1"],
        "tau must be finite, got nan", id="detect-tau-nan",
    ),
    pytest.param(
        lambda tmp_path: ["detect", "--mu0", "0", "--sigma0", "1", "--classifier", "logistic",
                          "--scale", "inf", "--p", "100", "--seed", "1"],
        "scale must be finite, got inf", id="detect-scale-infinite",
    ),
    pytest.param(
        lambda tmp_path: ["contours", "--kind", "l2", "--p", "2", "--mu0", "0", "--sigma0", "1",
                          "--mu-max", "inf"],
        "ranges must be finite, got mu (-3.0, inf)", id="contours-mu-max-infinite",
    ),
    pytest.param(
        lambda tmp_path: ["contours", "--kind", "l2", "--p", "2", "--mu0", "0", "--sigma0", "1",
                          "--sigma-min", "nan"],
        "ranges must be finite, got mu (-3.0, 3.0), sigma (nan, 3.0)",
        id="contours-sigma-min-nan",
    ),
    pytest.param(
        lambda tmp_path: ["autotune-sim", "--mu-sd", "nan"],
        "mu_sd must be finite, got nan", id="autotune-mu-sd-nan",
    ),
    pytest.param(
        lambda tmp_path: ["autotune-sim", "--mu-sd", "inf", "--beta0", "0.9"],
        "mu_sd must be finite, got inf", id="autotune-mu-sd-infinite",
    ),
    pytest.param(
        lambda tmp_path: ["autotune-sim", "--plant-slope", "nan"],
        "plant spread must be finite, got nan", id="autotune-plant-slope-nan",
    ),
    pytest.param(
        lambda tmp_path: ["autotune-sim", "--plant-offset", "inf"],
        "plant spread must be finite, got inf", id="autotune-plant-offset-infinite",
    ),
    # A subnormal sigma axis repeats values.
    pytest.param(
        lambda tmp_path: ["contours", "--kind", "l2", "--p", "2", "--mu0", "0",
                          "--sigma0", "5e-324", "--sigma-max", "1e-322"],
        "grid axes must be strictly increasing", id="contours-subnormal-sigma-axis",
    ),
    # Finite inputs whose results overflow float64: each is refused where it
    # is formed, with no numpy warning on the way.
    pytest.param(
        lambda tmp_path: ["contours", "--kind", "l2", "--p", "2", "--mu0", "0", "--sigma0", "1",
                          "--mu-min=-1e200", "--mu-max=1e200"],
        "grid values must be finite", id="contours-l2-overflow",
    ),
    pytest.param(
        lambda tmp_path: ["losses", "--mu", "0", "--sigma", "1e200", "--mu0", "0",
                          "--sigma0", "1", "--p", "2", "--n-outer", "10", "--seed", "1"],
        "l1p std_error overflowed float64, got inf", id="losses-sigma-overflow",
    ),
    pytest.param(
        lambda tmp_path: ["losses", "--mu", "1e155", "--sigma", "1", "--mu0", "0",
                          "--sigma0", "1", "--p", "2", "--n-outer", "10", "--seed", "1"],
        "l2p overflowed float64, got inf", id="losses-mu-overflow",
    ),
    pytest.param(
        lambda tmp_path: ["detect", "--mu0", "1e308", "--sigma0", "1e308", "--p", "1000",
                          "--seed", "1"],
        "the average of the samples overflowed float64", id="detect-overflow",
    ),
    pytest.param(
        lambda tmp_path: ["autotune-sim", "--sigma0", "1e200"],
        "the closed-form l2 value overflowed float64, got inf", id="autotune-sigma0-overflow",
    ),
    pytest.param(
        lambda tmp_path: ["autotune-sim", "--mu0", "1e200", "--mc", "--v", "1000",
                          "--seed", "1"],
        "the epoch 0 error at P = 8 overflowed float64", id="autotune-mc-overflow",
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


@pytest.mark.parametrize("beta, message", [
    ("nan", "beta_sd must be finite, got nan"),
    ("-1", "beta_sd must be >= 0, got -1.0"),
])
def test_losses_rejects_a_bad_beta_before_drawing(tmp_path, capsys, monkeypatch, beta, message):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking --beta")

    monkeypatch.setattr(regularizers, "mc_losses", no_draws)
    monkeypatch.setattr(SeededStream, "generator", no_draws)
    code, summary = run_cli(
        capsys, "losses", "--mu", "0", "--sigma", "1", "--mu0", "0", "--sigma0", "1",
        "--p", "8", "--beta", beta, "--seed", "1", "--out", str(tmp_path / "l.json"),
    )
    assert code == 1
    assert summary["error"] == {"type": "ValueError", "message": message}
    assert not (tmp_path / "l.json").exists()


@pytest.mark.parametrize("command, extra", [
    ("losses", ""),
    ("verify-prop3", ""),
    ("detect", ""),
    ("autotune-sim", "--mc --v 100 --seed 1"),
])
def test_every_monte_carlo_draw_comes_from_the_engine_runner(
    tmp_path, capsys, monkeypatch, command, extra
):
    """Each Monte Carlo command keys its generators in one place, the engine's
    draw-unit runner: every SeededStream.generator call comes from
    postsamp.regularizers."""
    callers = []
    generator = SeededStream.generator

    def recorded(self):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return generator(self)

    monkeypatch.setattr(SeededStream, "generator", recorded)
    argv = [command, *_SMALL_ARGV[command].split(), *extra.split()]
    code, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 0
    assert callers and set(callers) == {"postsamp.regularizers"}


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
