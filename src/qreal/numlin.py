"""Dense complex linear-algebra kernel with explicit tolerance discipline.

Operators are square ``complex128`` numpy arrays, states 1-d unit vectors
of the length their caller names.  :func:`eigh` factors Hermitian parts and
checks nothing; ``Observable`` decides Hermiticity.  Functions are pure:
arguments are never mutated, results are fresh.  Tensor ordering is
system-first: the joint index ``(i, a)`` of system index ``i`` and probe
index ``a`` flattens to ``i * probe_dim + a``, numpy's Kronecker order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, NotSquareError


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds used throughout the package, one role each.

    eq_tol
        Operator/vector comparison threshold and the one subspace cutoff: a
        direction at sine <= eq_tol to a subspace lies in it.  Membership,
        inclusion, meet, commutator subspaces, value identity and numerical
        rank (:func:`kernel_split`) share it.
    eig_cluster_tol
        Only clusters eigenvalues and matches values to eigenvalues.
    """

    eq_tol: float = 1e-9
    eig_cluster_tol: float = 1e-8

    def __post_init__(self):
        if not all(0.0 < t < np.inf for t in (self.eq_tol, self.eig_cluster_tol)):
            raise ValueError("tolerances must be finite and strictly positive")


DEFAULT_TOL = ToleranceConfig()
_EPS = float(np.finfo(float).eps)


def as_operator(matrix) -> np.ndarray:
    """Coerce to a finite 2-d complex array (no squareness requirement)."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise NotSquareError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_square(matrix) -> np.ndarray:
    m = as_operator(matrix)
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_state(vector, dim: int, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Coerce to a 1-d complex unit vector (norm within eq_tol of 1) of length ``dim``."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    if v.shape[0] != dim:
        raise DimMismatchError(f"state dim {v.shape[0]} != expected dim {dim}")
    if not np.isfinite(v).all():
        raise ValueError("state amplitudes must be finite")
    with np.errstate(over="ignore"):
        nrm = frobenius(v)
    if abs(nrm - 1.0) > tol.eq_tol:
        raise ValueError(f"state norm {nrm!r} is not within {tol.eq_tol} of 1")
    return v


def frobenius(x: np.ndarray) -> float:
    """||x||_F, ||x||₂ of a vector: np.linalg.norm's own sum, bit for bit, without its
    dispatch; like it, ``dot`` may warn when a sum of squares overflows."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def op_norm(x: np.ndarray) -> float:
    """Spectral norm for matrices, Euclidean norm for vectors."""
    return float(np.linalg.norm(x, 2))


def norm_within(x: np.ndarray, bound: float, scale: np.ndarray | None = None) -> bool:
    """||x||₂ <= bound * max(1, ||scale||₂); an overflowing ||scale||₂ raises.  As ||x||₂ <= ||x||_F,
    a Frobenius sum within ``bound``, less 4 * x.size ulps of rounding, accepts first with no SVD
    when ||scale||_F is finite."""
    with np.errstate(over="ignore"):
        if frobenius(x) <= bound * (1.0 - 4 * x.size * _EPS) and (
                scale is None or math.isfinite(frobenius(scale))):
            return True
    limit = 1.0 if scale is None else op_norm(scale)
    if not np.isfinite(limit):
        raise ValueError("matrix operator norm is not finite")
    return op_norm(x) <= bound * max(1.0, limit)


def is_hermitian(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """||m - m†|| <= eq_tol * max(1, ||m||) by :func:`norm_within`, on halves so
    that no defect overflows; a matrix whose operator norm overflows is rejected."""
    m = as_square(matrix)
    half = 0.5 * m
    return norm_within(half - half.conj().T, 0.5 * tol.eq_tol, scale=m)


def eigh(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues ``w`` and unitary ``v`` of the Hermitian part
    (m + m†)/2 of a square matrix, or of each in a stack (..., d, d),
    ``v @ diag(w) @ v.conj().T`` to around 1e-15 relative accuracy.  Nothing is checked: ``Observable`` decides
    Hermiticity once, under its own ``eq_tol``, and is not re-checked when
    factored under another tolerance; other callers pass matrices that are
    Hermitian by construction.  A defect the check accepted cannot leak in.
    """
    return np.linalg.eigh(_hermitian_part(np.asarray(matrix, dtype=complex)))


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m†) / 2 over the last two axes, halved first so entries near the
    float maximum cannot overflow."""
    half = 0.5 * m
    return half + half.conj().swapaxes(-1, -2)


def range_basis(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the numerical range of ``matrix``:
    singular values at or below ``eq_tol * max(largest, 1)`` count as zero."""
    return kernel_split(as_operator(matrix).conj().T, tol.eq_tol)[1]


def null_basis(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the numerical kernel of ``matrix``:
    singular values at or below ``eq_tol * max(largest, 1)`` count as zero."""
    return kernel_split(as_operator(matrix), tol.eq_tol)[0]


def kernel_split(matrix: np.ndarray, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Right singular vectors of ``matrix`` as orthonormal columns, split at
    ``cutoff * max(largest, 1)`` into (the near-kernel, the rest); on
    principal-angle sines the cutoff is absolute.  A tall input takes the
    economic SVD, whose right vectors are already complete, so memory stays
    at rows x cols however many rows are stacked.  An overflowing norm is rejected.
    """
    _, s, vh = np.linalg.svd(matrix, full_matrices=matrix.shape[0] < matrix.shape[1])
    if s.size and not np.isfinite(s[0]):
        raise ValueError("matrix operator norm is not finite")
    rank = int(np.sum(s > cutoff * max(float(s[0]) if s.size else 0.0, 1.0)))
    v = vh.conj().T
    return v[:, rank:], v[:, :rank]


def kron(a, b) -> np.ndarray:
    """Kronecker product, system factor first."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def probe_compress(joint_op, probe_state) -> np.ndarray:
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
