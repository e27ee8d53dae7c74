"""Frechet distances between Gaussian-approximated embedding distributions.

Inputs are three row-aligned embedding matrices: truths ``x``,
measurements ``y``, and generated samples ``xhat``.  When each
measurement has ``P`` generated samples, the truth/measurement rows are
repeated ``P`` times so all three matrices share one row count (the
repetition convention).  The pipeline is:

1. sample means and population covariances (``1/rows`` normalization,
   no Bessel correction) over all rows, accumulated one row block at a
   time: each block is centred on its own mean and merged into the
   running means and co-moments pairwise (Chan, Golub & LeVeque, 1983),
   in row order;
2. measurement-conditional statistics via Schur complements, with the
   measurement covariance inverted by a cutoff pseudo-inverse (the
   repetition convention makes it sample-rank-deficient by construction,
   which the cutoff absorbs).  One ``eigh`` of S_yy gives
   ``U = V_kept / sqrt(w_kept)`` with ``pinv(S_yy) = U U^T``;
3. the conditional squared Wasserstein-2 distance between the two
   Gaussian conditionals, written so the measurement expectation of the
   conditional-mean gap collapses to

       ||mu_x - mu_xhat||^2
       + tr[(S_xy - S_xhaty) pinv(S_yy) (S_xy - S_xhaty)^T]

   plus the usual covariance term
   ``tr[A + B - 2 (A^{1/2} B A^{1/2})^{1/2}]`` on the conditional
   covariances.  With ``A = W W^T``, ``A^{1/2} B A^{1/2}`` is similar to
   ``W^T B W``, so the cross term is ``sum sqrt(mu)`` over
   ``mu = eigvalsh(W^T B W)``: no matrix square root is formed.  W = L,
   the Cholesky factor of A.  Only when A is singular to rounding
   (Cholesky fails, or a pivot L_ii^2 is at most ``dim * eps`` of the
   largest) is W ``V sqrt(lambda)`` from ``eigh`` of A.  Eigenvalues of
   A's ``eigh`` and of ``W^T B W`` at most ``dim * eps`` of their largest
   are rounding and are set to zero: through a square root, each would
   add about ``sqrt(eps)`` of the scale.

Each metric has one function (``cfid``, ``fid``, ``gaussian_w2_squared``)
that returns one :class:`FrechetResult`: the value, its parts and the
diagnostics.  CFID's parts are the mean-gap and covariance terms: the
first quantifies conditional-mean error, the second conditional-covariance
error, and they sum to the value.  The plug-in value is biased upward
at finite row counts, by a term that falls as 1/rows.  With an exact
sampler (true CFID 0) at d = d_y = 64, it read 2.21, 0.587 and 0.144 at
1,024, 4,096 and 16,384 rows, and the mean-gap term carried 85-88% of
that bias, so comparisons at small row counts should be read with that
in mind.  Clamps of rounding-negative values and rank deficiency are
reported only in the diagnostics.

Embedding files are read block by block into reused buffers of about
``_BUDGET`` bytes in all, so file input takes O(block + D^2) memory
whatever the row count.  In-memory matrices are copied through the same
buffers, so the statistics have one code path; such input takes the
matrices' own O(rows * D) as well.

Everything is float64 and deterministic: blocks merge in row order, and
the covariance term uses a Cholesky factor or a symmetric
eigendecomposition, never an iterative method.  ``sqrtm_psd`` is kept as
the public square root and the tests' oracle; it drops rounding-level
eigenvalues by the same rule as the factor.
"""

from __future__ import annotations

import os
import struct
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from . import _as_matrix, _check_p

__all__ = [
    "JointGaussianStats",
    "ConditionalStats",
    "FrechetResult",
    "compute_stats",
    "conditional_stats",
    "sqrtm_psd",
    "gaussian_w2_squared",
    "cfid",
    "fid",
    "read_embeddings",
]

# Relative eigenvalue cutoff for the measurement-covariance pseudo-inverse.
_PINV_CUTOFF = 1e-10
# Eigenvalues of a nominally-PSD matrix may round slightly negative; anything
# below -_PSD_TOL * lambda_max is treated as a genuinely indefinite input.
_PSD_TOL = 1e-8
# A total (or part) this far below zero is rounding noise and clamps to 0.
_NEG_CLAMP = 1e-8
_SYM_TOL = 1e-12
_EPS = float(np.finfo(np.float64).eps)
# Bytes of row-block buffers across all input columns.  Larger blocks keep
# the Gram products efficient: for 4096 rows of three 1024-column inputs on
# a 2-CPU x86-64 machine with OpenBLAS, the statistics took 0.85 s in
# 341-row blocks (8 MiB), 0.58 s in 1365-row blocks (32 MiB) and 0.50 s in
# one block.
_BUDGET = 32 * 2**20

_MAGIC = b"EMB1"
_DTYPE_F64 = 1

# Co-moment blocks of the column groups (x, y, xhat) that CFID needs, and
# the single block of one cloud that FID needs.
_CFID_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (2, 1))
_FID_PAIRS = ((0, 0),)


def _check_shapes(x_shape, y_shape, xhat_shape) -> bool:
    """Validate row-aligned shapes; True when rows < dims + 2 (rank-deficient)."""
    rows = x_shape[0]
    if not (rows == y_shape[0] == xhat_shape[0]):
        raise ValueError(
            f"row counts differ: x {x_shape[0]}, y {y_shape[0]}, xhat {xhat_shape[0]}"
        )
    if x_shape[1] != xhat_shape[1]:
        raise ValueError(
            f"x and xhat must share a column count: {x_shape[1]} vs {xhat_shape[1]}"
        )
    return rows < x_shape[1] + y_shape[1] + 2


@dataclass(frozen=True)
class JointGaussianStats:
    """First and second moments of the joint embedding distribution."""

    mu_x: np.ndarray
    mu_y: np.ndarray
    mu_xhat: np.ndarray
    s_xx: np.ndarray
    s_yy: np.ndarray
    s_xhatxhat: np.ndarray
    s_xy: np.ndarray
    s_xhaty: np.ndarray


@dataclass(frozen=True)
class ConditionalStats:
    """Measurement-conditional covariances plus the expected mean gap.

    ``s_yy_diagnostics`` describes the pseudo-inverse of S_yy: directions
    ``kept`` and ``dropped`` by the cutoff, the ``min_eigenvalue``, and the
    ``clamped_mass`` (sum of |eigenvalue|) of the dropped directions.
    """

    s_xx_given_y: np.ndarray
    s_xhatxhat_given_y: np.ndarray
    mean_gap_term: float
    s_yy_diagnostics: dict


# ---------------------------------------------------------------------------
# Streamed moments
# ---------------------------------------------------------------------------


class _ArrayRows:
    """Sequential row reader over an in-memory matrix."""

    def __init__(self, matrix: np.ndarray, name: str):
        self.matrix = matrix
        self.name = name
        self.shape = matrix.shape
        self._next = 0

    def readinto(self, out: np.ndarray) -> None:
        stop = self._next + out.shape[0]
        out[...] = self.matrix[self._next : stop]
        self._next = stop


class _FileRows:
    """Sequential row reader over the payload of an open binary embedding file."""

    def __init__(self, handle, shape: tuple, name: str):
        self.handle = handle
        self.name = name
        self.shape = shape

    def readinto(self, out: np.ndarray) -> None:
        if self.handle.readinto(out) != out.nbytes:
            raise ValueError(f"{self.name}: payload ended before {self.shape[0]} rows")


def _open_rows(handle, path):
    """A row reader streaming the payload of an open EMB1 embedding file."""
    header = handle.read(16)
    if header[:4] != _MAGIC:
        raise ValueError(f"{path}: not an EMB1 embedding file")
    if len(header) < 16:
        raise ValueError(f"{path}: truncated embedding header")
    rows, cols, tag = struct.unpack_from("<IIB", header, 4)
    if tag != _DTYPE_F64:
        raise ValueError(f"{path}: unsupported dtype tag {tag}")
    if header[13:16] != b"\x00\x00\x00":
        raise ValueError(f"{path}: reserved header bytes must be zero")
    expected = 16 + rows * cols * 8
    size = os.fstat(handle.fileno()).st_size
    if size != expected:
        raise ValueError(
            f"{path}: payload size mismatch, expected {expected} bytes, got {size}"
        )
    if rows < 1 or cols < 1:
        raise ValueError(f"{path} must be a nonempty 2-D matrix, got shape {(rows, cols)}")
    return _FileRows(handle, (rows, cols), str(path))


class _Moments:
    """Row count, column means and co-moments (sums of centred products) of
    column groups, merged one row block at a time (Chan, Golub & LeVeque)."""

    def __init__(self, widths, pairs):
        self.rows = 0
        self.means = [np.zeros(width) for width in widths]
        self.comoments = {(i, j): np.zeros((widths[i], widths[j])) for i, j in pairs}

    def add(self, blocks) -> None:
        """Merge one block per column group; the blocks are centred in place."""
        count = blocks[0].shape[0]
        total = self.rows + count
        deltas = []
        for block, mean in zip(blocks, self.means):
            block_mean = block.mean(axis=0)
            block -= block_mean
            delta = block_mean - mean
            mean += delta * (count / total)
            deltas.append(delta)
        weight = self.rows * count / total
        for (i, j), comoment in self.comoments.items():
            comoment += blocks[i].T @ blocks[j]
            comoment += np.outer(weight * deltas[i], deltas[j])
        self.rows = total

    def covariance(self, i: int, j: int) -> np.ndarray:
        """Population covariance of groups i and j.  A diagonal block is
        returned as ``0.5 (S + S^T)``, the bits :func:`_require_symmetric`
        would give, so it need not be checked again."""
        covariance = self.comoments[i, j] / self.rows
        return 0.5 * (covariance + covariance.T) if i == j else covariance


def _accumulate(sources, pairs) -> _Moments:
    """Moments of row-aligned sources, read in blocks of about _BUDGET bytes."""
    rows = sources[0].shape[0]
    widths = [source.shape[1] for source in sources]
    step = min(rows, max(1, _BUDGET // (8 * sum(widths))))
    buffers = [np.empty((step, width), dtype="<f8") for width in widths]
    moments = _Moments(widths, pairs)
    for start in range(0, rows, step):
        blocks = [buffer[: min(step, rows - start)] for buffer in buffers]
        for source, block in zip(sources, blocks):
            source.readinto(block)
            if not np.isfinite(block).all():
                raise ValueError(f"{source.name} must be finite")
        moments.add(blocks)
    return moments


def _row_source(stack: ExitStack, item, name: str):
    """A row reader over an embedding file path or an in-memory matrix."""
    if isinstance(item, (str, os.PathLike)):
        return _open_rows(stack.enter_context(open(item, "rb")), item)
    return _ArrayRows(_as_matrix(item, name), name)


def _row_moments(x, y, xhat, P: int = 1) -> tuple[_Moments, bool]:
    """Moments of row inputs x, y and xhat, and whether rows < dims + 2."""
    with ExitStack() as stack:
        sources = [_row_source(stack, item, name)
                   for item, name in ((x, "x"), (y, "y"), (xhat, "xhat"))]
        rank_deficient = _check_shapes(*(rows.shape for rows in sources))
        if sources[0].shape[0] % P != 0:
            raise ValueError(f"row count {sources[0].shape[0]} is not a multiple of P={P}")
        return _accumulate(sources, _CFID_PAIRS), rank_deficient


class _RowStats(JointGaussianStats):
    """Statistics :func:`cfid` accumulated from rows.  Their covariances are
    symmetric bit for bit (:meth:`_Moments.covariance`), so
    :func:`conditional_stats` does not scan them; they never leave
    :func:`cfid`, so no caller can swap in an unchecked matrix."""


def _joint_stats(moments: _Moments, kind: type = JointGaussianStats) -> JointGaussianStats:
    mu_x, mu_y, mu_xhat = moments.means
    return kind(
        mu_x=mu_x,
        mu_y=mu_y,
        mu_xhat=mu_xhat,
        s_xx=moments.covariance(0, 0),
        s_yy=moments.covariance(1, 1),
        s_xhatxhat=moments.covariance(2, 2),
        s_xy=moments.covariance(0, 1),
        s_xhaty=moments.covariance(2, 1),
    )


def compute_stats(x, y, xhat) -> JointGaussianStats:
    """Sample means and population covariances of row-aligned truths ``x``,
    measurements ``y`` and generated samples ``xhat``, each an embedding-file
    path or a matrix."""
    return _joint_stats(_row_moments(x, y, xhat)[0])


# ---------------------------------------------------------------------------
# Eigendecompositions
# ---------------------------------------------------------------------------


def _require_symmetric(matrix: np.ndarray, name: str) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be square, got shape {matrix.shape}")
    scale = 1.0 + float(np.abs(matrix).max(initial=0.0))
    if float(np.abs(matrix - matrix.T).max(initial=0.0)) > _SYM_TOL * scale:
        raise ValueError(f"{name} is asymmetric beyond tolerance")
    return 0.5 * (matrix + matrix.T)


def _drop_rounding(eigenvalues: np.ndarray, name: str) -> tuple[np.ndarray, dict]:
    """Ascending eigenvalues of a nominally-PSD matrix with the rounding-level
    ones set to zero, and a report of them.

    An eigenvalue below ``-1e-8 * lambda_max`` is rejected as an indefinite
    input.  Those at most ``dim * eps * lambda_max`` are rounding: through a
    square root each would add about ``sqrt(eps)`` of the scale.  The report
    holds the ``min_eigenvalue``, the ``clamped_mass`` (sum of |negative
    eigenvalues|) and the count ``dropped`` of eigenvalues set to zero.
    """
    lowest = float(eigenvalues[0])
    lambda_max = max(float(eigenvalues[-1]), 0.0)
    if lowest < -_PSD_TOL * max(lambda_max, np.finfo(np.float64).tiny):
        raise ValueError(f"{name} has eigenvalue {lowest:.3e} below the PSD tolerance")
    rounding = eigenvalues <= eigenvalues.size * _EPS * lambda_max
    report = {
        "min_eigenvalue": lowest,
        "clamped_mass": float(np.maximum(-eigenvalues, 0.0).sum()),
        "dropped": int(rounding.sum()),
    }
    return np.where(rounding, 0.0, eigenvalues), report


def _check_reconstruction(square: np.ndarray, matrix: np.ndarray) -> None:
    residual = float(np.linalg.norm(square - matrix))
    if residual > _PSD_TOL * (1.0 + float(np.linalg.norm(matrix))):
        raise ArithmeticError(
            f"square-root reconstruction residual {residual:.3e} too large"
        )


def sqrtm_psd(matrix: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues at most ``dim * eps * lambda_max`` are set to zero (see
    :func:`_drop_rounding`); one below ``-1e-8 * lambda_max`` is rejected
    as an indefinite input.
    """
    matrix = _require_symmetric(matrix, "matrix")
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    eigenvalues, _ = _drop_rounding(eigenvalues, "matrix")
    root = (eigenvectors * np.sqrt(eigenvalues)) @ eigenvectors.T
    root = 0.5 * (root + root.T)
    _check_reconstruction(root @ root, matrix)
    return root


def conditional_stats(joint: JointGaussianStats) -> ConditionalStats:
    """Schur-complement conditionals and the expected conditional-mean gap.

    S_yy, S_xx and S_xhatxhat must be symmetric to within 1e-12 of their
    largest entry, and are symmetrized before use.
    """
    names = ("s_yy", "s_xx", "s_xhatxhat")
    if isinstance(joint, _RowStats):
        s_yy, s_xx, s_xhatxhat = (getattr(joint, name) for name in names)
    else:
        s_yy, s_xx, s_xhatxhat = (_require_symmetric(getattr(joint, name), name) for name in names)
    w, v = np.linalg.eigh(s_yy)
    keep = w > _PINV_CUTOFF * float(np.abs(w).max())
    # pinv(S_yy) = U U^T on the kept directions.
    u = v[:, keep] / np.sqrt(w[keep])
    x_u = np.asarray(joint.s_xy, dtype=np.float64) @ u
    xhat_u = np.asarray(joint.s_xhaty, dtype=np.float64) @ u
    # Both conditionals are exactly symmetric: the inputs were symmetrized
    # above, and numpy forms u @ u.T with BLAS syrk, which mirrors a triangle.
    s_xx_given_y = s_xx - x_u @ x_u.T
    s_xhat_given_y = s_xhatxhat - xhat_u @ xhat_u.T

    mu_gap = joint.mu_x - joint.mu_xhat
    mean_gap = float(mu_gap @ mu_gap) + float(np.sum((x_u - xhat_u) ** 2))
    kept = int(keep.sum())
    return ConditionalStats(
        s_xx_given_y=s_xx_given_y,
        s_xhatxhat_given_y=s_xhat_given_y,
        mean_gap_term=mean_gap,
        s_yy_diagnostics={
            "kept": kept,
            "dropped": int(w.size) - kept,
            "min_eigenvalue": float(w[0]),
            "clamped_mass": float(np.abs(w[~keep]).sum()),
        },
    )


def _factor(sigma_a: np.ndarray) -> tuple[np.ndarray, dict]:
    """W with A = W W^T, and the report ``a`` naming the factor.

    Cholesky (W = L) unless it fails or a pivot L_ii^2 is at most ``dim *
    eps`` times the largest; then A is singular to rounding, and W is
    ``V sqrt(lambda)`` from ``eigh`` with :func:`_drop_rounding` applied.
    """
    try:
        lower = np.linalg.cholesky(sigma_a)
    except np.linalg.LinAlgError:
        pass
    else:
        pivots = np.diagonal(lower) ** 2
        if pivots.min() > pivots.size * _EPS * pivots.max():
            return lower, {"factor": "cholesky", "min_pivot": float(pivots.min())}
    eigenvalues, eigenvectors = np.linalg.eigh(sigma_a)
    eigenvalues, report = _drop_rounding(eigenvalues, "sigma_a")
    return eigenvectors * np.sqrt(eigenvalues), {"factor": "eigh", **report}


def _covariance_distance(sigma_a: np.ndarray, sigma_b: np.ndarray) -> tuple[float, dict]:
    """tr[A + B - 2 (A^{1/2} B A^{1/2})^{1/2}], the Gaussian covariance gap.

    Also returns the reports of the factor of A (``a``, see :func:`_factor`)
    and of ``eigvalsh(W^T B W)`` (``cross``: minimum eigenvalue, clamped
    mass and the rounding-level eigenvalues dropped).
    """
    w, a_report = _factor(sigma_a)
    _check_reconstruction(w @ w.T, sigma_a)
    inner = w.T @ sigma_b @ w
    cross, cross_report = _drop_rounding(
        np.linalg.eigvalsh(0.5 * (inner + inner.T)), "the cross term"
    )
    value = float(np.trace(sigma_a) + np.trace(sigma_b) - 2.0 * np.sqrt(cross).sum())
    return value, {"a": a_report, "cross": cross_report}


def _clamp_nonnegative(value: float, what: str, report: dict) -> float:
    """``value``, with a rounding negative in (-_NEG_CLAMP, 0) set to zero.

    A value so set is recorded as ``report["clamped"][what]``; the key is
    added only then.  Anything more negative is an error.
    """
    if value < -_NEG_CLAMP:
        raise ArithmeticError(f"{what} = {value:.6e} is negative beyond tolerance")
    if value < 0.0:
        report.setdefault("clamped", {})[what] = value
        return 0.0
    return value


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrechetResult:
    """A Frechet distance with its parts and diagnostics.

    ``parts`` is CFID's (conditional-mean part, conditional-covariance part),
    which sum to ``value``, and empty for the unconditional distances.
    ``diagnostics`` holds the eigendecomposition reports ``a`` and ``cross``
    (and ``s_yy`` for CFID), the row counts and ``rank_deficient`` flag of
    row input, and ``clamped``, each value before the clamp, when a
    rounding-negative distance or part was set to zero.
    """

    value: float
    parts: tuple
    diagnostics: dict


def _w2_squared(gap: np.ndarray, sigma_a: np.ndarray, sigma_b: np.ndarray) -> FrechetResult:
    """Squared Wasserstein-2 distance from the mean gap and two symmetric covariances."""
    cov, report = _covariance_distance(sigma_a, sigma_b)
    value = _clamp_nonnegative(float(gap @ gap) + cov, "squared Wasserstein distance", report)
    return FrechetResult(value, (), report)


def gaussian_w2_squared(
    mu_a: np.ndarray, sigma_a: np.ndarray, mu_b: np.ndarray, sigma_b: np.ndarray
) -> FrechetResult:
    """Squared Wasserstein-2 distance between two Gaussians."""
    return _w2_squared(
        np.asarray(mu_a, dtype=np.float64) - np.asarray(mu_b, dtype=np.float64),
        _require_symmetric(sigma_a, "sigma_a"),
        _require_symmetric(sigma_b, "sigma_b"),
    )


def cfid(source, P: int = 1) -> FrechetResult:
    """Conditional Frechet distance between truth and generated embeddings.

    ``source`` is a :class:`JointGaussianStats` or the row inputs (x, y,
    xhat), each an embedding-file path or a matrix; ``P`` (at least 1) is
    given here for either.  Rows follow the repetition convention with ``P``
    rows per measurement, so a row count must be a multiple of ``P``.  Row
    input adds ``rows`` and ``rank_deficient`` (rows < dims + 2) to the
    diagnostics.
    """
    _check_p(P, 1)
    report = {}
    if isinstance(source, JointGaussianStats):
        joint = source
    else:
        moments, rank_deficient = _row_moments(*source, P=P)
        joint = _joint_stats(moments, _RowStats)
        report.update(rows=moments.rows, rank_deficient=rank_deficient)
    cond = conditional_stats(joint)
    report["s_yy"] = cond.s_yy_diagnostics
    mean_part = _clamp_nonnegative(cond.mean_gap_term, "conditional mean part", report)
    cov, eigen = _covariance_distance(cond.s_xx_given_y, cond.s_xhatxhat_given_y)
    report.update(eigen)
    cov_part = _clamp_nonnegative(cov, "conditional covariance part", report)
    return FrechetResult(mean_part + cov_part, (mean_part, cov_part), report)


def fid(x, xhat) -> FrechetResult:
    """Unconditional Frechet distance between two embedding clouds.

    ``x`` and ``xhat`` are matrices or embedding-file paths.  The
    diagnostics add ``rows_x``, ``rows_xhat`` and ``rank_deficient`` (fewer
    rows than dims + 2 in either cloud) to those of
    :func:`gaussian_w2_squared`.
    """
    with ExitStack() as stack:
        sources = [_row_source(stack, item, name) for item, name in ((x, "x"), (xhat, "xhat"))]
        cols = sources[0].shape[1]
        if sources[1].shape[1] != cols:
            raise ValueError(f"column counts differ: x {cols}, xhat {sources[1].shape[1]}")
        clouds = [_accumulate([rows], _FID_PAIRS) for rows in sources]
    w2 = _w2_squared(
        clouds[0].means[0] - clouds[1].means[0],
        clouds[0].covariance(0, 0),
        clouds[1].covariance(0, 0),
    )
    rows_x, rows_xhat = clouds[0].rows, clouds[1].rows
    return FrechetResult(w2.value, (), {
        "rows_x": rows_x,
        "rows_xhat": rows_xhat,
        "rank_deficient": min(rows_x, rows_xhat) < cols + 2,
        **w2.diagnostics,
    })


# ---------------------------------------------------------------------------
# Embedding file format
# ---------------------------------------------------------------------------
#
# Binary layout (little-endian): magic "EMB1", u32 rows, u32 cols, u8 dtype
# tag (1 = float64), 3 reserved zero bytes, then the row-major payload.


def read_embeddings(path) -> np.ndarray:
    """Read one embedding matrix from an EMB1 file."""
    with open(path, "rb") as handle:
        reader = _open_rows(handle, path)
        matrix = np.empty(reader.shape, dtype="<f8")
        reader.readinto(matrix)
    return _as_matrix(matrix, str(path))
