"""Operator families and exact data consistency.

Every FFT path is checked against an explicitly constructed dense
matrix; the dense path is the oracle throughout.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postsamp import SeededStream, ToyPosterior, linops
from postsamp.linops import (
    FourierSubsampler,
    MaskOperator,
    data_consistency,
    load_operator,
)
from postsamp.toy import sample_posterior

from oracles import dense_dft_matrix, dense_matrix

RNG = np.random.default_rng(20240818)


def _random_complex(n):
    return RNG.standard_normal(n) + 1j * RNG.standard_normal(n)


class TestMaskOperator:
    def test_apply_selects_kept_entries(self):
        op = MaskOperator((0, 2), 4)
        np.testing.assert_array_equal(op.apply(np.array([1.0, 2, 3, 4])), [1.0, 3.0])

    def test_nullspace_keeps_complement(self):
        op = MaskOperator((0, 2), 4)
        np.testing.assert_array_equal(
            op.nullspace_project(np.array([1.0, 2, 3, 4])), [0.0, 2.0, 0.0, 4.0]
        )

    def test_nullspace_projection_idempotent(self):
        op = MaskOperator((1, 3, 4), 6)
        x = RNG.standard_normal(6)
        once = op.nullspace_project(x)
        np.testing.assert_allclose(op.nullspace_project(once), once, atol=1e-12)

    def test_data_consistency_overwrites_measured_pixels(self):
        op = MaskOperator((0, 2), 4)
        result = data_consistency(op, np.array([1.0, 2, 3, 4]), np.array([10.0, 30.0]))
        np.testing.assert_array_equal(result, [10.0, 2.0, 30.0, 4.0])

    def test_consistent_input_is_fixed_point(self):
        op = MaskOperator((1, 2), 5)
        x = RNG.standard_normal(5)
        result = data_consistency(op, x, op.apply(x))
        np.testing.assert_allclose(result, x, atol=1e-12)

    def test_dense_matrix_equivalence(self):
        op = MaskOperator((0, 3, 7), 8)
        a = dense_matrix(op)
        x = RNG.standard_normal(8)
        np.testing.assert_allclose(op.apply(x), a @ x, atol=1e-14)
        pinv = np.linalg.pinv(a)
        np.testing.assert_allclose(op.pinv_apply(op.apply(x)), pinv @ a @ x, atol=1e-12)
        np.testing.assert_allclose(
            op.nullspace_project(x), (np.eye(8) - pinv @ a) @ x, atol=1e-12
        )

    def test_index_validation(self):
        with pytest.raises(ValueError):
            MaskOperator((2, 1), 4)  # not increasing
        with pytest.raises(ValueError):
            MaskOperator((0, 4), 4)  # out of range
        with pytest.raises(ValueError):
            MaskOperator((), 4)

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(
        dim=st.integers(min_value=2, max_value=24),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_consistency_property(self, dim, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, dim))
        kept = tuple(sorted(rng.choice(dim, size=size, replace=False).tolist()))
        op = MaskOperator(kept, dim)
        x_raw = rng.standard_normal(dim)
        y = rng.standard_normal(len(kept))
        result = data_consistency(op, x_raw, y)
        np.testing.assert_allclose(op.apply(result), y, atol=1e-12)
        np.testing.assert_allclose(
            op.nullspace_project(result), op.nullspace_project(x_raw), atol=1e-12
        )


class TestFourierSubsampler:
    def test_keep_all_is_identity(self):
        op = FourierSubsampler(8, tuple(range(8)))
        x = _random_complex(8)
        np.testing.assert_allclose(op.apply(x), x, atol=1e-12)

    def test_unit_impulse_matches_dense_dft_product(self):
        op = FourierSubsampler(4, (0, 2))
        e0 = np.zeros(4, dtype=complex)
        e0[0] = 1.0
        f = dense_dft_matrix(4)
        keep = np.zeros(4)
        keep[[0, 2]] = 1.0
        expected = f.conj().T @ (keep[:, None] * f) @ e0
        np.testing.assert_allclose(op.apply(e0), expected, atol=1e-12)

    @pytest.mark.parametrize(
        "shape,coils",
        [
            ((8,), 1), ((16,), 1), ((4, 4), 1), ((4, 8), 2), ((6,), 1),
            ((6, 10), 2), ((5, 3), 1), ((8, 12), 3),
        ],
    )
    def test_dense_equivalence(self, shape, coils):
        grid = int(np.prod(shape))
        kept = tuple(sorted(RNG.choice(grid, size=max(1, grid // 3), replace=False).tolist()))
        op = FourierSubsampler(shape, kept, coils=coils)
        a = dense_matrix(op)
        x = _random_complex(grid * coils)
        np.testing.assert_allclose(op.apply(x), a @ x, atol=1e-10)
        # A's singular values are 0 or 1; the cutoff drops the rounding noise
        # on the zeros, which at 288 rows exceeds pinv's default 1e-15.
        projector = np.eye(grid * coils) - np.linalg.pinv(a, rcond=1e-10) @ a
        np.testing.assert_allclose(op.nullspace_project(x), projector @ x, atol=1e-10)

    def test_operator_is_orthogonal_projection(self):
        op = FourierSubsampler((4, 4), (0, 3, 5, 9))
        a = dense_matrix(op)
        np.testing.assert_allclose(a, a.conj().T, atol=1e-12)
        np.testing.assert_allclose(a @ a, a, atol=1e-12)

    def test_projection_removes_kept_frequencies(self):
        op = FourierSubsampler(16, (0, 3, 9))
        x = _random_complex(16)
        spectrum = np.fft.fft(op.nullspace_project(x), norm="ortho")
        assert np.abs(spectrum[[0, 3, 9]]).max() <= 1e-12

    def test_dc_only_consistency_scenario(self):
        """Keeping one frequency: that bin comes from y, the rest from x_raw."""
        op = FourierSubsampler(8, (0,))
        x_true = _random_complex(8)
        x_raw = _random_complex(8)
        result = data_consistency(op, x_raw, op.apply(x_true))
        spectrum_result = np.fft.fft(result, norm="ortho")
        spectrum_true = np.fft.fft(x_true, norm="ortho")
        spectrum_raw = np.fft.fft(x_raw, norm="ortho")
        np.testing.assert_allclose(spectrum_result[0], spectrum_true[0], atol=1e-12)
        np.testing.assert_allclose(spectrum_result[1:], spectrum_raw[1:], atol=1e-12)


class TestDataConsistencyInvariants:
    def _random_operator(self, rng):
        if rng.uniform() < 0.5:
            dim = int(rng.integers(2, 33))
            size = int(rng.integers(1, dim))
            kept = tuple(sorted(rng.choice(dim, size=size, replace=False).tolist()))
            op = MaskOperator(kept, dim)
            x_raw = rng.standard_normal(dim)
            y = rng.standard_normal(len(kept))
        else:
            grid = int(rng.choice([4, 8, 16, 6, 12]))
            coils = int(rng.integers(1, 3))
            size = int(rng.integers(1, grid))
            kept = tuple(sorted(rng.choice(grid, size=size, replace=False).tolist()))
            op = FourierSubsampler(grid, kept, coils=coils)
            x_raw = rng.standard_normal(grid * coils) + 1j * rng.standard_normal(grid * coils)
            y = op.apply(rng.standard_normal(grid * coils) + 1j * rng.standard_normal(grid * coils))
        return op, x_raw, y

    def test_hundred_randomized_trials(self):
        """A dc(x_raw, y) = y to 1e-10; idempotence to 1e-12; orthogonality."""
        rng = np.random.default_rng(55)
        for _ in range(100):
            op, x_raw, y = self._random_operator(rng)
            result = data_consistency(op, x_raw, y)
            assert np.abs(op.apply(result) - y).max() <= 1e-10
            twice = data_consistency(op, result, y)
            assert np.abs(twice - result).max() <= 1e-12
            inner = np.vdot(op.nullspace_project(x_raw), op.pinv_apply(op.apply(x_raw)))
            assert abs(inner) <= 1e-10 * max(1.0, np.linalg.norm(x_raw) ** 2)

    def test_posterior_nullspace_statistics_preserved(self):
        """Consistency replaces the measured part only, so the nullspace
        component of posterior samples (and hence its covariance) is
        untouched."""
        post = ToyPosterior.single([0.0, 1.0, -1.0, 0.5], [1.0, 2.0, 0.5, 1.5])
        batch = sample_posterior(post, 0, 4000, SeededStream(5, ("dc",)))
        op = MaskOperator((0, 2), 4)
        x_true = np.array([0.5, -0.5, 1.5, 2.0])
        y = op.apply(x_true)
        projected_raw = np.array([op.nullspace_project(row) for row in batch])
        projected_dc = np.array(
            [op.nullspace_project(data_consistency(op, row, y)) for row in batch]
        )
        np.testing.assert_array_equal(projected_raw, projected_dc)
        cov_raw = np.cov(projected_raw.T)
        cov_dc = np.cov(projected_dc.T)
        np.testing.assert_allclose(cov_dc, cov_raw, atol=1e-12)


class TestMaskFiles:
    def test_pixel_mask_file_loads(self, tmp_path):
        path = tmp_path / "mask.txt"
        path.write_text("N=8\n1\n4\n5\n")
        assert load_operator(path) == MaskOperator((1, 4, 5), 8)

    def test_fourier_mask_file_loads(self, tmp_path):
        path = tmp_path / "fmask.txt"
        path.write_text("DIMS=4x8\n0\n5\n31\n")
        assert load_operator(path, coils=1) == FourierSubsampler((4, 8), (0, 5, 31))

    @pytest.mark.parametrize("text, coils, message", [
        ("DIMS=4\n0\n", 0, "coils must be >= 1, got 0"),
        ("N=4\n0\n", 2, "coils only apply to Fourier operators"),
    ])
    def test_coils_errors_do_not_name_the_file(self, tmp_path, text, coils, message):
        """--coils is a flag, not a line of the file, so its errors carry no position."""
        with pytest.raises(ValueError) as caught:
            load_operator(_mask_file(tmp_path, text), coils=coils)
        assert str(caught.value) == message

    @pytest.mark.parametrize("text, message", [
        ("N=4\n0\n\n3\n2\n", "line 5: mask indices must be strictly increasing"),
        ("DIMS=4\n\n1\n4\n", "line 4: frequency indices must lie in [0, 4)"),
    ], ids=["unsorted", "outside"])
    def test_bad_index_error_opens_the_file_once(self, tmp_path, monkeypatch, text, message):
        """The line of an index at fault is kept from the one read of the file."""
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(linops, "open", counting_open, raising=False)
        path = _mask_file(tmp_path, text)
        with pytest.raises(ValueError) as caught:
            load_operator(path)
        assert str(caught.value) == f"{path}: {message}"
        assert opened == [path]

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("SIZE=4\n0\n")
        with pytest.raises(ValueError):
            load_operator(path)


def _mask_file(tmp_path, text):
    path = tmp_path / "mask.txt"
    path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    return path


# Each row triggers one input check and matches its exception and message.
INPUT_CHECKS = [
    pytest.param(lambda tmp_path: dense_dft_matrix(0), ValueError, "n must be >= 1, got 0",
                 id="dft-zero"),
    pytest.param(lambda tmp_path: MaskOperator((0,), 2).apply(np.zeros(3)), ValueError,
                 "x must have shape (2,), got (3,)", id="mask-input-shape"),
    pytest.param(lambda tmp_path: FourierSubsampler(4, (0,)).apply(np.zeros(3)), ValueError,
                 "x must have shape (4,), got (3,)", id="fourier-input-shape"),
    pytest.param(lambda tmp_path: FourierSubsampler((2, 2, 2), (0,)), ValueError,
                 "shape must be a 1-D length or 2-D shape, got (2, 2, 2)", id="fourier-3d"),
    pytest.param(lambda tmp_path: FourierSubsampler(4, (0,), coils=0), ValueError,
                 "coils must be >= 1, got 0", id="fourier-no-coils"),
    pytest.param(lambda tmp_path: load_operator(_mask_file(tmp_path, "\n")), ValueError,
                 "empty mask file", id="mask-file-empty"),
    pytest.param(lambda tmp_path: FourierSubsampler((4, 4), (0,)).pinv_apply(np.zeros(8)),
                 ValueError, "y must have shape (16,), got (8,)", id="fourier-pinv-input-shape"),
    pytest.param(lambda tmp_path: load_operator(_mask_file(tmp_path, "N=abc\n0\n")), ValueError,
                 "mask.txt: line 1: invalid literal for int() with base 10: 'abc'",
                 id="mask-file-bad-size"),
    pytest.param(lambda tmp_path: load_operator(_mask_file(tmp_path, "N=4\n0\n\nx\n")),
                 ValueError, "mask.txt: line 4: invalid literal for int() with base 10: 'x'",
                 id="mask-file-bad-index"),
    pytest.param(lambda tmp_path: load_operator(_mask_file(tmp_path, "DIMS=4\n1.5\n")),
                 ValueError, "mask.txt: line 2: invalid literal for int() with base 10: '1.5'",
                 id="mask-file-fractional-index"),
    pytest.param(lambda tmp_path: load_operator(_mask_file(tmp_path, "DIMS=2x4\n3\n\n5\n1\n")),
                 ValueError, "mask.txt: line 5: frequency indices must be strictly increasing",
                 id="mask-file-unsorted"),
    pytest.param(lambda tmp_path: load_operator(_mask_file(tmp_path, "N=4\n0\n4\n")),
                 ValueError, "mask.txt: line 3: mask indices must lie in [0, 4)",
                 id="mask-file-index-outside"),
    pytest.param(lambda tmp_path: load_operator(_mask_file(tmp_path, "\nDIMS=0x4\n0\n")),
                 ValueError,
                 "mask.txt: line 2: shape must be a 1-D length or 2-D shape, got (0, 4)",
                 id="mask-file-empty-grid"),
    pytest.param(lambda tmp_path: load_operator(_mask_file(tmp_path, "N=0\n0\n")),
                 ValueError, "mask.txt: line 1: dim must be >= 1, got 0", id="mask-file-zero-dim"),
    pytest.param(lambda tmp_path: load_operator(_mask_file(tmp_path, "N=-3\n0\n")),
                 ValueError, "mask.txt: line 1: dim must be >= 1, got -3",
                 id="mask-file-negative-dim"),
    pytest.param(lambda tmp_path: load_operator(_mask_file(tmp_path, "DIMS=2x2\n")),
                 ValueError, "mask.txt: frequency must keep at least one index",
                 id="mask-file-no-frequencies"),
    pytest.param(lambda tmp_path: load_operator(_mask_file(tmp_path, "N=4\n\n")),
                 ValueError, "mask.txt: mask must keep at least one index",
                 id="mask-file-no-indices"),
    # The bad byte lies past the first block the reader decodes.
    pytest.param(lambda tmp_path: load_operator(_mask_file(
        tmp_path, b"N=9999\n" + b"".join(b"%d\n" % i for i in range(5000)) + b"\xff\n"
    )), UnicodeDecodeError, "can't decode byte 0xff", id="mask-file-not-utf8"),
]


@pytest.mark.parametrize("call, error, message", INPUT_CHECKS)
def test_input_check_rejects(tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(tmp_path)
