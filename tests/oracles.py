"""Slow, literal versions of results the package computes by a faster path.

The tests check the package against these: each operator rebuilt as a
dense matrix (the FFT path's oracle), the delta-method ratio of two
paired Monte Carlo means taken from whole per-item arrays (the streamed
moments' oracle), and CFID/FID evaluated two other ways than the
package's Cholesky factor (two ``sqrtm_psd`` calls, or singular values of
a product of centred rows).  :func:`write_embeddings` writes the binary
embedding files that the package only reads.
"""

import math
import struct

import numpy as np

from postsamp import _as_matrix
from postsamp.autotune import _ratio_from_moments
from postsamp.cfid import _DTYPE_F64, _MAGIC, JointGaussianStats, sqrtm_psd
from postsamp.linops import MaskOperator
from postsamp.regularizers import _comoments


def dense_dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix F[j, k] = exp(-2 pi i j k / n) / sqrt(n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    j = np.arange(n)
    return np.exp(-2j * math.pi * np.outer(j, j) / n) / math.sqrt(n)


def dense_matrix(op) -> np.ndarray:
    """The matrix of a :class:`MaskOperator` or a :class:`FourierSubsampler`."""
    if isinstance(op, MaskOperator):
        matrix = np.zeros((op.out_dim, op.dim))
        for row, col in enumerate(op.kept):
            matrix[row, col] = 1.0
        return matrix
    if len(op.shape) == 1:
        f = dense_dft_matrix(op.shape[0])
    else:
        f = np.kron(dense_dft_matrix(op.shape[0]), dense_dft_matrix(op.shape[1]))
    keep = np.zeros(op.grid_size)
    keep[list(op.kept)] = 1.0
    block = f.conj().T @ (keep[:, None] * f)
    if op.coils == 1:
        return block
    return np.kron(np.eye(op.coils), block)


def ratio_with_se(numer_items: np.ndarray, denom_items: np.ndarray) -> tuple[float, float]:
    """Ratio of two Monte Carlo means with a delta-method standard error.

    The items must be paired (same validation set), so the covariance
    term matters and is included.
    """
    a = np.asarray(numer_items, dtype=np.float64)
    b = np.asarray(denom_items, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two paired 1-D arrays with at least 2 items")
    return _ratio_from_moments(*_comoments(np.stack([a, b])))


def write_embeddings(path, matrix: np.ndarray) -> None:
    """``matrix`` as a binary embedding file (the layout :mod:`postsamp.cfid` reads)."""
    matrix = _as_matrix(matrix, "matrix")
    rows, cols = matrix.shape
    header = _MAGIC + struct.pack("<IIB3x", rows, cols, _DTYPE_F64)
    payload = np.ascontiguousarray(matrix, dtype="<f8").tobytes()
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(payload)


def plain_stats(x, y, xhat) -> JointGaussianStats:
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


def sqrtm_cfid_parts(joint) -> tuple[float, float]:
    """(mean part, covariance part) through pinv(S_yy) and two sqrtm_psd calls.

    ``sqrtm_psd`` drops rounding-level eigenvalues, so a singular A costs
    this evaluation no sqrt(eps) of the scale.
    """
    pinv = np.linalg.pinv(joint.s_yy, rcond=1e-10, hermitian=True)
    a = joint.s_xx - joint.s_xy @ pinv @ joint.s_xy.T
    b = joint.s_xhatxhat - joint.s_xhaty @ pinv @ joint.s_xhaty.T
    gap = joint.mu_x - joint.mu_xhat
    cross_gap = joint.s_xy - joint.s_xhaty
    mean_part = float(gap @ gap) + float(np.trace(cross_gap @ pinv @ cross_gap.T))
    return mean_part, _sqrtm_gap(0.5 * (a + a.T), 0.5 * (b + b.T))


def sqrtm_fid(x, xhat) -> float:
    """FID through two sqrtm_psd calls (see :func:`sqrtm_cfid_parts`)."""
    gap = x.mean(axis=0) - xhat.mean(axis=0)
    xc, hc = x - x.mean(axis=0), xhat - xhat.mean(axis=0)
    return float(gap @ gap) + _sqrtm_gap(xc.T @ xc / x.shape[0], hc.T @ hc / xhat.shape[0])


def _singular_value_gap(f, g) -> float:
    """tr[A + B - 2 (A^1/2 B A^1/2)^1/2] for A = F^T F and B = G^T G.

    The cross term is the sum of the singular values of G F^T, so no
    eigenvalue is squared and a singular A or B costs no sqrt(eps).  G F^T
    has one row per row of G and one column per row of F.
    """
    cross = np.linalg.svd(g @ f.T, compute_uv=False).sum()
    return float(np.sum(f * f) + np.sum(g * g) - 2.0 * cross)


def singular_value_cfid_parts(x, y, xhat) -> tuple[float, float]:
    """(mean part, covariance part) from the centred rows.

    With U the left singular vectors of the centred ``y`` kept by the
    package's cutoff (eigenvalues of S_yy above 1e-10 of the largest), the
    conditional covariances are F^T F and G^T G for the centred ``x`` and
    ``xhat`` with their projection on U removed, over sqrt(rows).
    """
    n = x.shape[0]
    xc, yc, hc = x - x.mean(axis=0), y - y.mean(axis=0), xhat - xhat.mean(axis=0)
    u, s, _ = np.linalg.svd(yc, full_matrices=False)
    u = u[:, s * s > 1e-10 * s[0] * s[0]]
    gap = x.mean(axis=0) - xhat.mean(axis=0)
    mean_part = float(gap @ gap) + float(np.sum((u.T @ (xc - hc)) ** 2)) / n
    f = (xc - u @ (u.T @ xc)) / math.sqrt(n)
    g = (hc - u @ (u.T @ hc)) / math.sqrt(n)
    return mean_part, _singular_value_gap(f, g)


def singular_value_fid(x, xhat) -> float:
    """FID from the centred rows (see :func:`_singular_value_gap`)."""
    gap = x.mean(axis=0) - xhat.mean(axis=0)
    f = (x - x.mean(axis=0)) / math.sqrt(x.shape[0])
    g = (xhat - xhat.mean(axis=0)) / math.sqrt(xhat.shape[0])
    return float(gap @ gap) + _singular_value_gap(f, g)
