"""Dense complex linear-algebra kernel with explicit tolerance discipline.

Operators are square ``complex128`` numpy arrays, states are 1-d unit
vectors.  Everything in this module is a pure function: arguments are never
mutated and results are freshly allocated.  Tensor ordering is fixed
package-wide as system-first: the joint index ``(i, a)`` of system index
``i`` and probe index ``a`` flattens to ``i * probe_dim + a``, which is
exactly numpy's Kronecker / C-order convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatchError,
    NotHermitianError,
    NotOrthonormalInputError,
    NotSquareError,
)


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds used throughout the package.

    eq_tol
        Operator/vector comparison threshold.
    eig_cluster_tol
        Gap under which eigenvalues are treated as degenerate.
    rank_tol
        Relative cutoff for numerical rank (floor 1 on the scale).
    """

    eq_tol: float = 1e-9
    eig_cluster_tol: float = 1e-8
    rank_tol: float = 1e-10

    def __post_init__(self):
        if not all(0.0 < t < np.inf for t in (self.eq_tol, self.eig_cluster_tol, self.rank_tol)):
            raise ValueError("tolerances must be finite and strictly positive")
        if self.eq_tol < self.rank_tol:
            raise ValueError("eq_tol must be at least rank_tol")


DEFAULT_TOL = ToleranceConfig()


def as_operator(matrix) -> np.ndarray:
    """Coerce to a finite 2-d complex array (no squareness requirement)."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise NotSquareError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def as_square(matrix) -> np.ndarray:
    m = as_operator(matrix)
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_state(vector, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Coerce to a 1-d complex unit vector (norm within eq_tol of 1)."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise ValueError("state amplitudes must be finite")
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > tol.eq_tol:
        raise ValueError(f"state norm {nrm!r} is not within {tol.eq_tol} of 1")
    return v


def op_norm(x: np.ndarray) -> float:
    """Spectral norm for matrices, Euclidean norm for vectors."""
    x = np.asarray(x)
    if x.ndim <= 1:
        return float(np.linalg.norm(x))
    return float(np.linalg.norm(x, 2))


def close(x, y, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Absolute-plus-relative comparison: ||x - y|| <= eq_tol * max(1, ||x||, ||y||)."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return op_norm(x - y) <= tol.eq_tol * max(1.0, op_norm(x), op_norm(y))


def is_hermitian(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    m = as_square(matrix)
    return op_norm(m - m.conj().T) <= tol.eq_tol * max(1.0, op_norm(m))


def eigh(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ascending real eigenvalues ``w`` and a unitary ``v`` with
    ``v @ diag(w) @ v.conj().T`` reconstructing the input to around 1e-15
    relative accuracy.  The input is symmetrized before factorization so a
    Hermiticity defect below ``eq_tol`` cannot leak into the results.
    """
    m = as_square(matrix)
    if op_norm(m - m.conj().T) > tol.eq_tol * op_norm(m):
        raise NotHermitianError("matrix is not Hermitian within eq_tol")
    return np.linalg.eigh(_hermitian_part(m))


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m†) / 2, halved first so entries near the float maximum cannot overflow."""
    half = 0.5 * m
    return half + half.conj().T


def range_basis(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the numerical range of ``matrix``.

    Singular values below ``rank_tol * max(largest, 1)`` count as zero, so
    the column count is the numerical rank.  A zero matrix yields an
    ``(n, 0)`` array.
    """
    u, s, _ = np.linalg.svd(as_operator(matrix))
    return u[:, :_rank(s, tol)]


def null_basis(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the numerical kernel of ``matrix``.

    Singular values at or below ``rank_tol * max(largest, 1)`` count as
    zero.  A tall input is first reduced to its triangular QR factor, which
    has the same singular values and right singular vectors, so memory stays
    at rows x cols however many rows are stacked.
    """
    m = as_operator(matrix)
    if m.shape[0] > m.shape[1]:
        m = np.linalg.qr(m, mode="r")
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    return vh[_rank(s, tol):, :].conj().T


def _rank(s: np.ndarray, tol: ToleranceConfig) -> int:
    """Count of descending singular values above ``rank_tol * max(largest, 1)``."""
    return int(np.sum(s > tol.rank_tol * max(float(s[0]) if s.size else 0.0, 1.0)))


def _check_orthonormal(basis: np.ndarray, tol: ToleranceConfig) -> None:
    gram = basis.conj().T @ basis
    if op_norm(gram - np.eye(basis.shape[1])) > tol.eq_tol * max(1.0, op_norm(gram)):
        raise NotOrthonormalInputError("basis columns are not orthonormal within eq_tol")


def _eigenspace(matrix: np.ndarray, lo: float = -np.inf, hi: float = np.inf) -> np.ndarray:
    """Orthonormal eigenvectors (as columns) of the Hermitian part of
    ``matrix`` whose eigenvalues lie in [lo, hi]."""
    w, v = np.linalg.eigh(_hermitian_part(matrix))
    return v[:, (w >= lo) & (w <= hi)]


def subspace_intersection(
    basis_a, basis_b, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Orthonormal basis of span(basis_a) ∩ span(basis_b).

    Both inputs must have orthonormal columns.  The intersection is read
    off the top eigenspace of the sum of the two orthogonal projectors:
    eigenvalues within ``eig_cluster_tol`` of 2 correspond to principal
    angles of (numerically) zero.
    """
    a = as_operator(basis_a)
    b = as_operator(basis_b)
    if a.shape[0] != b.shape[0]:
        raise DimMismatchError(f"ambient dims differ: {a.shape[0]} vs {b.shape[0]}")
    _check_orthonormal(a, tol)
    _check_orthonormal(b, tol)
    if a.shape[1] == 0 or b.shape[1] == 0:
        return a[:, :0]
    return _eigenspace(a @ a.conj().T + b @ b.conj().T, lo=2.0 - tol.eig_cluster_tol)


def kron(a, b) -> np.ndarray:
    """Kronecker product, system factor first."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def probe_compress(joint_op, probe_state, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Compress an operator on system ⊗ probe against a probe vector.

    Computes ``R[i, j] = sum_{a,b} conj(xi[a]) X[(i,a), (j,b)] xi[b]``,
    i.e. the partial expectation of ``X`` in the probe state ``xi``.  The
    probe dimension is ``len(xi)``; the joint dimension must factorize as
    ``sys_dim * len(xi)``.
    """
    x = as_square(joint_op)
    xi = np.asarray(probe_state, dtype=complex).reshape(-1)
    k = xi.size
    if k == 0 or x.shape[0] % k != 0:
        raise DimMismatchError(
            f"joint dim {x.shape[0]} does not factor over probe dim {k}"
        )
    n = x.shape[0] // k
    blocks = x.reshape(n, k, n, k)
    return np.einsum("a,iajb,b->ij", xi.conj(), blocks, xi)
