"""Frechet metric engine: sample statistics, conditionals, and distances.

The analytic oracle used throughout: for jointly Gaussian data built from
the linear model x = B y + u, xhat = Bhat y + v (independent noises with
diagonal covariances), the conditional distance is

    ||mu_x - mu_xhat||^2 + tr[(B - Bhat) S_yy (B - Bhat)^T]
    + sum_j (sqrt(var_u_j) - sqrt(var_v_j))^2,

computed here without touching the engine's Schur/pinv/sqrtm path.
"""

import json
import math
import os
import re
import struct

import numpy as np
import pytest

from postsamp import cfid as cfid_module
from postsamp.cfid import (
    EmbeddingSet,
    JointGaussianStats,
    cfid,
    compute_stats,
    conditional_stats,
    fid,
    gaussian_w2_squared,
    read_embeddings,
    sqrtm_psd,
)
from postsamp.cli import main

from memory import traced_peak
from oracles import write_embeddings


def _stats_1d(mu_x, var_x, mu_xhat, var_xhat, cov_xy=0.0, cov_xhaty=0.0, var_y=1.0):
    return JointGaussianStats(
        mu_x=np.array([mu_x]),
        mu_y=np.array([0.0]),
        mu_xhat=np.array([mu_xhat]),
        s_xx=np.array([[var_x]]),
        s_yy=np.array([[var_y]]),
        s_xhatxhat=np.array([[var_xhat]]),
        s_xy=np.array([[cov_xy]]),
        s_xhaty=np.array([[cov_xhaty]]),
    )


def _linear_model_stats(rng, d, d_y):
    """Exact joint stats for x = B y + u, xhat = Bhat y + v, plus the oracle."""
    b = rng.standard_normal((d, d_y))
    bhat = b + 0.3 * rng.standard_normal((d, d_y))
    mu_y = rng.standard_normal(d_y)
    s_yy_root = rng.standard_normal((d_y, d_y)) / math.sqrt(d_y)
    s_yy = s_yy_root @ s_yy_root.T + 0.5 * np.eye(d_y)
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
    mean_part = float(gap @ gap) + float(np.trace((b - bhat) @ s_yy @ (b - bhat).T))
    cov_part = float(((np.sqrt(var_u) - np.sqrt(var_v)) ** 2).sum())
    return joint, mean_part, cov_part


class TestComputeStats:
    def test_two_row_hand_example(self):
        """Population covariance of {0, 2} is 1 for every block."""
        x = np.array([[0.0], [2.0]])
        embeddings = EmbeddingSet(x, x.copy(), x.copy())
        assert embeddings.rows == 2
        stats = compute_stats(embeddings)
        assert stats.s_xx[0, 0] == 1.0
        assert stats.s_yy[0, 0] == 1.0
        assert stats.s_xy[0, 0] == 1.0
        # Two rows of 1 + 1 columns: fewer than dims + 2.
        diagnostics = cfid(embeddings).diagnostics
        assert diagnostics["rows"] == 2
        assert diagnostics["rank_deficient"] is True

    def test_identical_rows_give_zero_covariance(self):
        row = np.array([[1.0, 2.0, 3.0]])
        x = np.repeat(row, 10, axis=0)
        stats = compute_stats(EmbeddingSet(x, x[:, :2], x))
        assert np.all(stats.s_xx == 0.0)
        assert np.all(stats.s_xy == 0.0)
        np.testing.assert_array_equal(stats.mu_x, row[0])

    def test_identical_truth_and_generated_blocks(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((300, 4))
        y = rng.standard_normal((300, 2))
        stats = compute_stats(EmbeddingSet(x, y, x.copy()))
        np.testing.assert_array_equal(stats.s_xx, stats.s_xhatxhat)
        np.testing.assert_array_equal(stats.s_xy, stats.s_xhaty)

    def test_population_normalization(self):
        """1/rows, no Bessel correction."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 3))
        stats = compute_stats(EmbeddingSet(x, x[:, :1], x))
        centered = x - x.mean(axis=0)
        np.testing.assert_allclose(stats.s_xx, centered.T @ centered / 50, atol=1e-15)

    def test_row_count_must_divide_by_p(self):
        rng = np.random.default_rng(2)
        embeddings = EmbeddingSet(*(rng.standard_normal((10, 2)) for _ in range(3)))
        with pytest.raises(ValueError, match="row count 10 is not a multiple of P=3"):
            cfid(embeddings, 3)

    def test_non_finite_and_mismatched_inputs_rejected(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 2))
        y = rng.standard_normal((12, 2))
        bad = x.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            EmbeddingSet(bad, y, x)
        with pytest.raises(ValueError):
            EmbeddingSet(x, y[:6], x)
        with pytest.raises(ValueError):
            EmbeddingSet(x, y, rng.standard_normal((12, 3)))


class TestConditionalStats:
    def test_scalar_schur_complement(self):
        stats = _stats_1d(0.0, 2.0, 0.0, 2.0, cov_xy=1.0, cov_xhaty=1.0, var_y=1.0)
        cond = conditional_stats(stats)
        assert cond.s_xx_given_y[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_independent_measurements_leave_marginals(self):
        stats = _stats_1d(1.0, 2.0, -1.0, 3.0)
        cond = conditional_stats(stats)
        assert cond.s_xx_given_y[0, 0] == 2.0
        assert cond.s_xhatxhat_given_y[0, 0] == 3.0
        assert cond.mean_gap_term == 4.0  # ||mu_x - mu_xhat||^2 only

    def test_deterministic_coupling_collapses_conditional(self):
        """x == y exactly: nothing left to explain given the measurement."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((500, 3))
        stats = compute_stats(EmbeddingSet(x, x.copy(), x.copy()))
        cond = conditional_stats(stats)
        assert np.abs(cond.s_xx_given_y).max() <= 1e-12

    def test_asymmetric_input_rejected(self):
        stats = _stats_1d(0.0, 1.0, 0.0, 1.0)
        bad = JointGaussianStats(
            mu_x=np.zeros(2),
            mu_y=stats.mu_y,
            mu_xhat=np.zeros(2),
            s_xx=np.array([[1.0, 0.5], [-0.5, 1.0]]),
            s_yy=stats.s_yy,
            s_xhatxhat=np.eye(2),
            s_xy=np.zeros((2, 1)),
            s_xhaty=np.zeros((2, 1)),
        )
        with pytest.raises(ValueError):
            conditional_stats(bad)


class TestSqrtmPsd:
    def test_identity(self):
        np.testing.assert_array_equal(sqrtm_psd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(
            sqrtm_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14
        )

    def test_reconstruction_on_random_gram_matrices(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            b = rng.standard_normal((8, 8))
            m = b @ b.T
            root = sqrtm_psd(m)
            assert np.linalg.norm(root @ root - m) <= 1e-8 * (1 + np.linalg.norm(m))
            np.testing.assert_allclose(root, root.T, atol=1e-14)

    def test_small_negative_eigenvalues_clamped(self):
        m = np.diag([1.0, -1e-12])
        root = sqrtm_psd(m)
        assert root[1, 1] == 0.0

    def test_indefinite_input_rejected(self):
        with pytest.raises(ValueError):
            sqrtm_psd(np.diag([1.0, -0.5]))


class TestGaussianW2:
    def test_mean_shift(self):
        assert gaussian_w2_squared(
            np.array([0.0]), np.array([[1.0]]), np.array([3.0]), np.array([[1.0]])
        ).value == pytest.approx(9.0, abs=1e-12)

    def test_spread_mismatch(self):
        assert gaussian_w2_squared(
            np.array([0.0]), np.array([[1.0]]), np.array([0.0]), np.array([[9.0]])
        ).value == pytest.approx(4.0, abs=1e-12)

    def test_commuting_covariances(self):
        a = np.diag([1.0, 4.0])
        b = np.diag([9.0, 16.0])
        expected = (3 - 1) ** 2 + (4 - 2) ** 2
        assert gaussian_w2_squared(np.zeros(2), a, np.zeros(2), b).value == pytest.approx(
            expected, abs=1e-12
        )


class TestCfid:
    def test_identical_sets_are_zero(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((400, 5))
        y = rng.standard_normal((400, 3))
        assert cfid(EmbeddingSet(x, y, x.copy())).value <= 1e-8

    def test_unit_mean_shift_analytic(self):
        """x|y ~ N(0,1), xhat|y ~ N(1,1), independent y: distance 1."""
        stats = _stats_1d(0.0, 1.0, 1.0, 1.0)
        assert cfid(stats).value == pytest.approx(1.0, abs=1e-10)

    def test_unit_spread_gap_analytic(self):
        """x|y ~ N(0,1), xhat|y ~ N(0,4): distance (2-1)^2 = 1."""
        stats = _stats_1d(0.0, 1.0, 0.0, 4.0)
        assert cfid(stats).value == pytest.approx(1.0, abs=1e-10)

    def test_linear_model_oracle(self):
        """Engine output equals the independently assembled conditional W2."""
        rng = np.random.default_rng(6)
        for trial in range(5):
            joint, mean_part, cov_part = _linear_model_stats(rng, d=5, d_y=3)
            result = cfid(joint)
            got_mean, got_cov = result.parts
            assert got_mean == pytest.approx(mean_part, abs=1e-10)
            assert got_cov == pytest.approx(cov_part, abs=1e-10)
            assert result.value == pytest.approx(
                mean_part + cov_part, abs=1e-10
            ), trial

    def test_decomposition_sums_to_total_on_random_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, d, d_y = 120, 4, 2
            y = rng.standard_normal((n, d_y))
            x = y @ rng.standard_normal((d_y, d)) + rng.standard_normal((n, d))
            xhat = y @ rng.standard_normal((d_y, d)) + rng.standard_normal((n, d))
            embeddings = EmbeddingSet(x, y, xhat)
            result = cfid(embeddings)
            mean_part, cov_part = result.parts
            assert mean_part >= 0.0 and cov_part >= 0.0
            assert mean_part + cov_part == pytest.approx(result.value, abs=1e-10)

    def test_mean_shift_only_lands_in_mean_part(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((600, 4))
        y = rng.standard_normal((600, 2))
        mean_part, cov_part = cfid(EmbeddingSet(x, y, x + 3.0)).parts
        assert cov_part <= 1e-8
        assert mean_part == pytest.approx(4 * 9.0, rel=1e-12)

    def test_joint_shuffle_invariance(self):
        rng = np.random.default_rng(9)
        n = 600
        y = rng.standard_normal((n, 2))
        x = y @ rng.standard_normal((2, 4)) + rng.standard_normal((n, 4))
        xhat = 0.5 * x + rng.standard_normal((n, 4))
        base = cfid(EmbeddingSet(x, y, xhat)).value
        perm = rng.permutation(n)
        shuffled = cfid(EmbeddingSet(x[perm], y[perm], xhat[perm])).value
        assert shuffled == pytest.approx(base, abs=1e-12 * max(1.0, base))

    def test_repetition_convention_rank_deficiency_is_absorbed(self):
        """P > 1 repeats y rows; the pinv cutoff must keep results finite."""
        rng = np.random.default_rng(10)
        n_measurements, P, d, d_y = 60, 4, 3, 5
        y_unique = rng.standard_normal((n_measurements, d_y))
        y = np.repeat(y_unique, P, axis=0)
        x = np.repeat(rng.standard_normal((n_measurements, d)), P, axis=0)
        xhat = x + rng.standard_normal((n_measurements * P, d))
        value = cfid(EmbeddingSet(x, y, xhat), P).value
        assert np.isfinite(value) and value >= 0.0

    def test_small_sample_covariance_bias_direction(self):
        """cov_part estimated from n=100 rows exceeds the n=100000 estimate."""
        d, d_y = 8, 4
        small, large = [], []
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            b = rng.standard_normal((d_y, d))
            for n, sink in ((100, small), (100_000, large)):
                y = rng.standard_normal((n, d_y))
                x = y @ b + rng.standard_normal((n, d))
                xhat = y @ b + rng.standard_normal((n, d))
                _, cov_part = cfid(EmbeddingSet(x, y, xhat)).parts
                sink.append(cov_part)
        assert np.mean(small) > np.mean(large)


class TestFid:
    def test_identical(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((300, 4))
        assert fid(x, x.copy()).value <= 1e-8

    def test_analytic_1d_cases_via_sampled_stats(self):
        rng = np.random.default_rng(12)
        n = 2_000_000
        base = rng.standard_normal((n, 1))
        assert fid(base, base + 3.0).value == pytest.approx(9.0, abs=0.01)
        assert fid(base, base * 3.0).value == pytest.approx(4.0, abs=0.01)

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fid(np.zeros((4, 2)), np.zeros((4, 3)))


class TestEmbeddingIO:
    def test_binary_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        matrix = rng.standard_normal((37, 5))
        path = tmp_path / "m.emb"
        write_embeddings(path, matrix)
        assert np.array_equal(read_embeddings(path), matrix)

    def test_binary_layout(self, tmp_path):
        path = tmp_path / "tiny.emb"
        write_embeddings(path, np.array([[1.0, 2.0]]))
        raw = path.read_bytes()
        assert raw[:4] == b"EMB1"
        assert raw[4:8] == (1).to_bytes(4, "little")
        assert raw[8:12] == (2).to_bytes(4, "little")
        assert raw[12] == 1
        assert raw[13:16] == b"\x00\x00\x00"
        assert len(raw) == 16 + 2 * 8

    def test_csv_import(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("col0,col1\n1.5,2.5\n-3.0,4.0\n")
        np.testing.assert_array_equal(
            read_embeddings(path), [[1.5, 2.5], [-3.0, 4.0]]
        )

    def test_csv_requires_canonical_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_embeddings(path)

    def test_csv_ragged_rows_name_the_file_and_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("col0,col1\n1,2\n3,4\n5\n6,7\n")
        with pytest.raises(ValueError, match="ragged rows, line 4 has 1 values") as info:
            read_embeddings(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_csv_rows_wider_than_header_name_both_counts(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("col0,col1\n1,2,3\n4,5,6\n")
        with pytest.raises(ValueError, match="header names 2 columns but every row has 3") as info:
            read_embeddings(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_csv_non_numeric_cell_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("col0,col1\n1,2\n1,a\n")
        with pytest.raises(ValueError, match="line 3: could not convert string to float: 'a'") as info:
            read_embeddings(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "trunc.emb"
        write_embeddings(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            read_embeddings(path)

    def test_unsupported_dtype_tag_rejected(self, tmp_path):
        path = tmp_path / "tag.emb"
        write_embeddings(path, np.ones((1, 1)))
        raw = bytearray(path.read_bytes())
        raw[12] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            read_embeddings(path)


# ---------------------------------------------------------------------------
# Streamed statistics
# ---------------------------------------------------------------------------


def _plain_stats(x, y, xhat):
    """Two-pass statistics over all rows at once, the pre-streaming formula."""
    n = x.shape[0]
    xc, yc, hc = x - x.mean(axis=0), y - y.mean(axis=0), xhat - xhat.mean(axis=0)
    return JointGaussianStats(
        mu_x=x.mean(axis=0),
        mu_y=y.mean(axis=0),
        mu_xhat=xhat.mean(axis=0),
        s_xx=xc.T @ xc / n,
        s_yy=yc.T @ yc / n,
        s_xhatxhat=hc.T @ hc / n,
        s_xy=xc.T @ yc / n,
        s_xhaty=hc.T @ yc / n,
    )


def _sqrtm_gap(a, b):
    root_a = sqrtm_psd(a)
    inner = root_a @ b @ root_a
    return float(np.trace(a) + np.trace(b) - 2.0 * np.trace(sqrtm_psd(0.5 * (inner + inner.T))))


def _sqrtm_oracle(joint):
    """(mean part, covariance part) through pinv(S_yy) and two sqrtm_psd calls."""
    pinv = np.linalg.pinv(joint.s_yy, rcond=1e-10, hermitian=True)
    a = joint.s_xx - joint.s_xy @ pinv @ joint.s_xy.T
    b = joint.s_xhatxhat - joint.s_xhaty @ pinv @ joint.s_xhaty.T
    gap = joint.mu_x - joint.mu_xhat
    cross_gap = joint.s_xy - joint.s_xhaty
    mean_part = float(gap @ gap) + float(np.trace(cross_gap @ pinv @ cross_gap.T))
    return mean_part, _sqrtm_gap(0.5 * (a + a.T), 0.5 * (b + b.T))


def _sqrtm_fid(x, xhat):
    gap = x.mean(axis=0) - xhat.mean(axis=0)
    xc, hc = x - x.mean(axis=0), xhat - xhat.mean(axis=0)
    return float(gap @ gap) + _sqrtm_gap(xc.T @ xc / x.shape[0], hc.T @ hc / xhat.shape[0])


def _cfid_cases():
    """The embedding sets of the TestCfid cases: (x, y, xhat, P)."""
    cases = {}
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((400, 5)), rng.standard_normal((400, 3))
    cases["identical"] = (x, y, x.copy(), 1)
    rng = np.random.default_rng(7)
    for i in range(3):
        y = rng.standard_normal((120, 2))
        x = y @ rng.standard_normal((2, 4)) + rng.standard_normal((120, 4))
        xhat = y @ rng.standard_normal((2, 4)) + rng.standard_normal((120, 4))
        cases[f"random-{i}"] = (x, y, xhat, 1)
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal((600, 4)), rng.standard_normal((600, 2))
    cases["mean-shift"] = (x, y, x + 3.0, 1)
    rng = np.random.default_rng(9)
    y = rng.standard_normal((600, 2))
    x = y @ rng.standard_normal((2, 4)) + rng.standard_normal((600, 4))
    cases["shuffle"] = (x, y, 0.5 * x + rng.standard_normal((600, 4)), 1)
    rng = np.random.default_rng(10)
    y = np.repeat(rng.standard_normal((60, 5)), 4, axis=0)
    x = np.repeat(rng.standard_normal((60, 3)), 4, axis=0)
    cases["repetition"] = (x, y, x + rng.standard_normal((240, 3)), 4)
    rng = np.random.default_rng(1000)
    b = rng.standard_normal((4, 8))
    for n in (100, 100_000):
        y = rng.standard_normal((n, 4))
        cases[f"bias-{n}"] = (y @ b + rng.standard_normal((n, 8)), y,
                              y @ b + rng.standard_normal((n, 8)), 1)
    return cases


CFID_CASES = _cfid_cases()


def _write_set(tmp_path, x, y, xhat):
    paths = []
    for name, matrix in (("x", x), ("y", y), ("xhat", xhat)):
        paths.append(str(tmp_path / f"{name}.emb"))
        write_embeddings(paths[-1], matrix)
    return paths


def _raw_emb(matrix, tag=1, reserved=b"\x00\x00\x00"):
    """Embedding file bytes written without write_embeddings' checks."""
    rows, cols = matrix.shape
    header = b"EMB1" + struct.pack("<IIB", rows, cols, tag) + reserved
    return header + np.ascontiguousarray(matrix, dtype="<f8").tobytes()


class TestStreamedAgreement:
    """In-memory and streamed results against the sqrtm_psd evaluation.

    Agreement is to 1e-10 relative; the absolute floor of 1e-10 only matters
    for the cases whose distance is rounding noise around zero.
    """

    @pytest.mark.parametrize("name", sorted(CFID_CASES))
    def test_cfid_matches_sqrtm_oracle(self, name, tmp_path, monkeypatch):
        x, y, xhat, P = CFID_CASES[name]
        want = _sqrtm_oracle(_plain_stats(x, y, xhat))
        paths = _write_set(tmp_path, x, y, xhat)
        got = {
            "in-memory": cfid(EmbeddingSet(x, y, xhat), P).parts,
            "streamed": cfid(paths, P=P).parts,
        }
        # 7-row blocks: many Chan merges and a partial last block.
        monkeypatch.setattr(cfid_module, "_BUDGET", 7 * 8 * (2 * x.shape[1] + y.shape[1]))
        got["7-row blocks"] = cfid(paths, P=P).parts
        for how, parts in got.items():
            assert parts == pytest.approx(want, rel=1e-10, abs=1e-10), how

    @pytest.mark.parametrize(
        "joint",
        [
            _stats_1d(0.0, 1.0, 1.0, 1.0),
            _stats_1d(0.0, 1.0, 0.0, 4.0),
            _stats_1d(1.0, 2.0, -1.0, 3.0, cov_xy=1.0, cov_xhaty=0.5),
            *(_linear_model_stats(np.random.default_rng(6 + i), 5, 3)[0] for i in range(3)),
        ],
    )
    def test_from_stats_matches_sqrtm_oracle(self, joint):
        got = cfid(joint).parts
        assert got == pytest.approx(_sqrtm_oracle(joint), rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("name", ["random-0", "shuffle", "repetition"])
    def test_fid_matches_sqrtm_oracle(self, name, tmp_path, monkeypatch):
        x, _, xhat, _ = CFID_CASES[name]
        want = _sqrtm_fid(x, xhat[: x.shape[0] // 2])
        paths = _write_set(tmp_path, x, x, xhat[: x.shape[0] // 2])
        assert fid(x, xhat[: x.shape[0] // 2]).value == pytest.approx(want, rel=1e-10)
        assert fid(paths[0], paths[2]).value == pytest.approx(want, rel=1e-10)
        monkeypatch.setattr(cfid_module, "_BUDGET", 1)
        assert fid(paths[0], paths[2]).value == pytest.approx(want, rel=1e-10)


class TestBlockBoundaries:
    @pytest.mark.parametrize("rows_per_block", [1, 7, 99, 100])
    def test_blocked_stats_match_one_block(self, rows_per_block, monkeypatch):
        """100 rows: 1-row blocks, a partial last block, one short, exact fit."""
        rng = np.random.default_rng(14)
        y = rng.standard_normal((100, 3)) + 5.0
        x = y @ rng.standard_normal((3, 4)) + rng.standard_normal((100, 4)) - 2.0
        xhat = 0.5 * x + rng.standard_normal((100, 4))
        embeddings = EmbeddingSet(x, y, xhat)
        whole = compute_stats(embeddings)
        monkeypatch.setattr(cfid_module, "_BUDGET", rows_per_block * 8 * 11)
        blocked = compute_stats(embeddings)
        for field in ("mu_x", "mu_y", "mu_xhat", "s_xx", "s_yy", "s_xhatxhat", "s_xy", "s_xhaty"):
            np.testing.assert_allclose(
                getattr(blocked, field), getattr(whole, field), rtol=1e-12, atol=1e-13,
                err_msg=field,
            )
        assert cfid(embeddings).value == pytest.approx(cfid(whole).value, rel=1e-10)

    def test_merge_is_deterministic(self, tmp_path, monkeypatch):
        x, y, xhat, P = CFID_CASES["repetition"]
        paths = _write_set(tmp_path, x, y, xhat)
        monkeypatch.setattr(cfid_module, "_BUDGET", 13 * 8 * 11)
        first = cfid(paths, P=P)
        assert cfid(paths, P=P) == first


class TestStreamedValidation:
    CORRUPTIONS = {
        "truncated header": lambda raw: raw[:10],
        "short payload": lambda raw: raw[:-8],
        "long payload": lambda raw: raw + b"\x00" * 8,
        "dtype tag": lambda raw: raw[:12] + b"\x07" + raw[13:],
        "reserved bytes": lambda raw: raw[:14] + b"\x01" + raw[15:],
        "zero rows": lambda raw: raw[:4] + struct.pack("<I", 0) + raw[8:16],
    }

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_bad_file_rejected_by_every_reader(self, corruption, tmp_path):
        rng = np.random.default_rng(15)
        x, y, xhat = (rng.standard_normal((20, 3)) for _ in range(3))
        paths = _write_set(tmp_path, x, y, xhat)
        target = tmp_path / "xhat.emb"
        target.write_bytes(self.CORRUPTIONS[corruption](target.read_bytes()))
        with pytest.raises(ValueError):
            read_embeddings(paths[2])
        with pytest.raises(ValueError):
            cfid(paths)
        with pytest.raises(ValueError):
            fid(paths[0], paths[2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_in_a_later_block_rejected(self, bad, tmp_path, monkeypatch):
        rng = np.random.default_rng(16)
        x, y, xhat = (rng.standard_normal((50, 2)) for _ in range(3))
        paths = _write_set(tmp_path, x, y, xhat)
        xhat[47, 1] = bad
        (tmp_path / "xhat.emb").write_bytes(_raw_emb(xhat))
        monkeypatch.setattr(cfid_module, "_BUDGET", 5 * 8 * 6)  # 10 blocks of 5 rows
        with pytest.raises(ValueError, match="finite"):
            cfid(paths)
        with pytest.raises(ValueError, match="finite"):
            fid(paths[0], paths[2])
        with pytest.raises(ValueError, match="finite"):
            read_embeddings(paths[2])

    def test_shape_checks_match_embedding_set(self, tmp_path):
        rng = np.random.default_rng(17)
        x, y = rng.standard_normal((12, 2)), rng.standard_normal((12, 2))
        paths = _write_set(tmp_path, x, y, rng.standard_normal((12, 3)))
        with pytest.raises(ValueError, match="column count"):
            cfid(paths)
        with pytest.raises(ValueError, match="column counts"):
            fid(paths[0], paths[2])
        paths = _write_set(tmp_path, x, y[:6], x)
        with pytest.raises(ValueError, match="row counts"):
            cfid(paths)
        paths = _write_set(tmp_path, x, y, x)
        with pytest.raises(ValueError, match="multiple of P"):
            cfid(paths, P=5)


class TestDiagnostics:
    def test_rank_deficient_s_yy_is_reported(self, tmp_path):
        x, y, xhat, P = CFID_CASES["repetition"]
        # Two copies of y: S_yy has rank 5 of 10.
        paths = _write_set(tmp_path, x, np.hstack([y, y]), xhat)
        result = cfid(paths, P=P)
        mean_part, cov_part = result.parts
        diagnostics = result.diagnostics
        assert diagnostics["rows"] == 240
        assert diagnostics["rank_deficient"] is False
        assert diagnostics["s_yy"]["kept"] == 5
        assert diagnostics["s_yy"]["dropped"] == 5
        assert 0.0 <= diagnostics["s_yy"]["clamped_mass"] <= 1e-10
        for report in (diagnostics["a"], diagnostics["cross"]):
            assert report["min_eigenvalue"] > 0.0
            assert report["clamped_mass"] == 0.0
        assert "clamped" not in diagnostics
        assert (mean_part, cov_part) == pytest.approx(
            cfid(EmbeddingSet(x, y, xhat), P).parts, rel=1e-10
        )

    def test_few_rows_flag_rank_deficiency_and_clamps(self, tmp_path):
        rng = np.random.default_rng(18)
        x, y = rng.standard_normal((5, 4)), rng.standard_normal((5, 3))
        paths = _write_set(tmp_path, x, y, x + rng.standard_normal((5, 4)))
        diagnostics = cfid(paths).diagnostics
        assert diagnostics["rank_deficient"] is True
        # 5 rows leave S_xx|y with rank <= 1 of 4: its zero eigenvalues round
        # either way, and the negative ones are what the clamp removed.
        assert diagnostics["a"]["min_eigenvalue"] <= 1e-12
        assert diagnostics["a"]["clamped_mass"] >= 0.0
        diagnostics = fid(paths[0], paths[2]).diagnostics
        assert diagnostics["rank_deficient"] is True
        assert (diagnostics["rows_x"], diagnostics["rows_xhat"]) == (5, 5)

    def test_self_fid_reports_every_zeroed_value(self, tmp_path, capsys):
        """A cloud against itself rounds to a few ulp either side of 0; each
        value the clamp zeroes is reported in the artifact, and only those."""
        fired = 0
        for seed in range(12):
            x = np.random.default_rng(seed).standard_normal((60, 3))
            paths = _write_set(tmp_path, x, x, x)
            out = tmp_path / f"fid-{seed}.json"
            assert main(["fid", "--x", paths[0], "--xhat", paths[2], "--out", str(out)]) == 0
            results = json.loads(out.read_text())["results"]
            clamped = results["diagnostics"].get("clamped")
            if clamped is None:
                assert results["fid"] >= 0.0
                continue
            fired += 1
            assert results["fid"] == 0.0
            assert list(clamped) == ["squared Wasserstein distance"]
            assert -1e-8 < clamped["squared Wasserstein distance"] < 0.0
        capsys.readouterr()
        assert fired > 0

    def test_cfid_clamp_records_the_part_it_zeroed(self, tmp_path, monkeypatch):
        x, y, xhat, P = CFID_CASES["repetition"]
        paths = _write_set(tmp_path, x, y, xhat)
        monkeypatch.setattr(cfid_module, "_covariance_distance", lambda a, b: (-1e-12, {}))
        result = cfid(paths, P=P)
        mean_part, cov_part = result.parts
        assert mean_part > 0.0 and cov_part == 0.0
        assert result.diagnostics["clamped"] == {"conditional covariance part": -1e-12}
        monkeypatch.setattr(cfid_module, "_covariance_distance", lambda a, b: (-1e-6, {}))
        with pytest.raises(ArithmeticError, match="beyond tolerance"):
            cfid(paths, P=P)


class TestClampDiagnostics:
    """Every input form reports each value it clamps in its diagnostics."""

    def test_self_fid_reports_the_clamp_and_returns_zero(self):
        x = np.random.default_rng(0).standard_normal((50, 3))
        result = fid(x, x)
        assert result.value == 0.0
        assert -1e-8 < result.diagnostics["clamped"]["squared Wasserstein distance"] < 0.0

    def test_every_input_form_reports_the_part_it_zeroed(self, tmp_path, monkeypatch):
        x, y, xhat, P = CFID_CASES["repetition"]
        embeddings = EmbeddingSet(x, y, xhat)
        joint = compute_stats(embeddings)
        paths = _write_set(tmp_path, x, y, xhat)
        mean_part = cfid(embeddings, P).parts[0]
        monkeypatch.setattr(cfid_module, "_covariance_distance", lambda a, b: (-1e-12, {}))
        for name, result in (
            ("in-memory", cfid(embeddings, P)),
            ("stats", cfid(joint)),
            ("files", cfid(paths, P=P)),
        ):
            assert result.value == mean_part, name
            assert result.parts == (mean_part, 0.0), name
            assert result.diagnostics["clamped"] == {"conditional covariance part": -1e-12}, name
        zero, eye = np.zeros(3), np.eye(3)
        result = gaussian_w2_squared(zero, eye, zero, eye)
        assert result.value == 0.0
        assert result.diagnostics["clamped"] == {"squared Wasserstein distance": -1e-12}

    def test_no_clamp_no_report(self):
        rng = np.random.default_rng(1)
        x, xhat = rng.standard_normal((50, 3)), rng.standard_normal((50, 3)) + 0.5
        x_c, y, xhat_c, P = CFID_CASES["repetition"]
        results = (
            fid(x, xhat),
            gaussian_w2_squared(np.zeros(3), np.eye(3), np.ones(3), 2 * np.eye(3)),
            cfid(EmbeddingSet(x_c, y, xhat_c), P),
            cfid(compute_stats(EmbeddingSet(x_c, y, xhat_c)), P),
        )
        for result in results:
            assert result.value > 0.0
            assert "clamped" not in result.diagnostics
        assert results[2].diagnostics["rank_deficient"] is False
        assert "rank_deficient" not in results[3].diagnostics


class TestMemory:
    def test_cli_peak_is_one_block_not_the_file(self, tmp_path, monkeypatch, capsys):
        """With a 1 MiB block budget, CLI cfid and fid hold O(block + D^2)."""
        monkeypatch.setattr(cfid_module, "_BUDGET", 2**20)
        rng = np.random.default_rng(19)

        def peaks(rows):
            y = rng.standard_normal((rows, 2))
            x = y @ rng.standard_normal((2, 4)) + rng.standard_normal((rows, 4))
            paths = _write_set(tmp_path, x, y, x + rng.standard_normal((rows, 4)))
            del x, y
            out = {}
            for command, argv in (
                ("cfid", ["cfid", "--x", paths[0], "--y", paths[1], "--xhat", paths[2]]),
                ("fid", ["fid", "--x", paths[0], "--xhat", paths[2]]),
            ):
                code, out[command] = traced_peak(
                    lambda: main(argv + ["--out", str(tmp_path / f"{command}.json"), "--force"])
                )
                assert code == 0, capsys.readouterr().out
            return out, os.path.getsize(paths[0])

        small, file_size = peaks(200_000)
        large, _ = peaks(400_000)
        capsys.readouterr()
        for command in ("cfid", "fid"):
            assert small[command] < file_size, command
            assert large[command] - small[command] < 2**20, command


@pytest.mark.parametrize("d, d_y", [(3, 2), (40, 24), (130, 70)])
def test_conditionals_are_exactly_symmetric(d, d_y):
    """S - x_u x_u^T is symmetric bit for bit, from accumulated rows and from
    symmetric stats: conditional_stats does not re-symmetrize it."""
    rng = np.random.default_rng(d)
    y = rng.standard_normal((6 * d, d_y))
    x = y @ rng.standard_normal((d_y, d)) + rng.standard_normal((6 * d, d))
    xhat = x + 0.5 * rng.standard_normal(x.shape)
    joint, _, _ = _linear_model_stats(rng, d, d_y)
    symmetric = JointGaussianStats(
        **{
            name: 0.5 * (value + value.T) if name in ("s_xx", "s_yy", "s_xhatxhat") else value
            for name, value in vars(joint).items()
        }
    )
    for stats in (compute_stats(EmbeddingSet(x, y, xhat)), symmetric):
        cond = conditional_stats(stats)
        for matrix in (cond.s_xx_given_y, cond.s_xhatxhat_given_y):
            assert np.array_equal(matrix, matrix.T)


def _embedding_file(tmp_path, text):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    return path


# Each row triggers one input check and matches its message.
INPUT_CHECKS = [
    pytest.param(lambda tmp_path: EmbeddingSet(np.zeros(3), np.zeros((3, 1)), np.zeros((3, 1))),
                 "x must be a nonempty 2-D matrix, got shape (3,)", id="matrix-one-dimensional"),
    pytest.param(lambda tmp_path: cfid((np.zeros((4, 1)), np.zeros((4, 1)), np.zeros((4, 1))), 0),
                 "P must be >= 1, got 0", id="cfid-p-zero"),
    pytest.param(lambda tmp_path: sqrtm_psd(np.zeros((2, 3))),
                 "matrix must be square, got shape (2, 3)", id="sqrtm-not-square"),
    pytest.param(lambda tmp_path: read_embeddings(_embedding_file(tmp_path, "")),
                 "empty embedding CSV", id="csv-empty"),
    pytest.param(lambda tmp_path: read_embeddings(_embedding_file(tmp_path, "col0,col1\n")),
                 "no data rows", id="csv-header-only"),
]


@pytest.mark.parametrize("call, message", INPUT_CHECKS)
def test_input_check_rejects(tmp_path, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(tmp_path)


def test_csv_blank_rows_are_skipped(tmp_path):
    path = _embedding_file(tmp_path, "col0,col1\n1,2\n\n3,4\n")
    np.testing.assert_array_equal(read_embeddings(path), [[1.0, 2.0], [3.0, 4.0]])
