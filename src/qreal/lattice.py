"""The orthomodular lattice of orthogonal projections on C^n.

Connectives are computed spectrally, not by iterated alternating
projections: the meet is the eigenspace of P + Q at eigenvalue 2 (within
``eig_cluster_tol``), and all other connectives are built from meet and
complement.  Commutator subspaces are numerical kernels of stacked
commutators (singular values within ``rank_tol``).  Every operation builds
its result from orthonormal columns (``Projection._spanned``), which is the
spectral snap to eigenvalues {0, 1}; complements of snapped projections stay
snapped, so tolerance drift cannot accumulate no matter how deeply
expressions nest.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import DimMismatchError, EmptyFamilyError
from .numlin import (
    DEFAULT_TOL,
    ToleranceConfig,
    _eigenspace,
    _hermitian_part,
    as_square,
    null_basis,
    op_norm,
    range_basis,
)


class Projection:
    """An orthogonal projection; an element of the lattice L(H).

    Instances are immutable.  ``&``, ``|`` and ``~`` are shorthand for
    :func:`meet`, :func:`join` and :func:`complement` at default tolerances.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, tol: ToleranceConfig = DEFAULT_TOL):
        m = as_square(matrix)
        scale = max(1.0, op_norm(m))
        if op_norm(m - m.conj().T) > tol.eq_tol * scale:
            raise ValueError("projection matrix is not self-adjoint within eq_tol")
        if op_norm(m @ m - m) > tol.eq_tol * scale:
            raise ValueError("projection matrix is not idempotent within eq_tol")
        # Snap eigenvalues to {0, 1} so downstream algebra starts clean.
        cols = _eigenspace(m, lo=0.5)
        object.__setattr__(self, "matrix", _sym_readonly(cols @ cols.conj().T))

    def __setattr__(self, name, value):
        raise AttributeError("Projection is immutable")

    @classmethod
    def _trusted(cls, matrix: np.ndarray) -> "Projection":
        p = object.__new__(cls)
        object.__setattr__(p, "matrix", _sym_readonly(matrix))
        return p

    @classmethod
    def _spanned(cls, columns: np.ndarray) -> "Projection":
        """Projection onto the span of orthonormal columns."""
        return cls._trusted(columns @ columns.conj().T)

    @classmethod
    def zero(cls, dim: int) -> "Projection":
        return cls._trusted(np.zeros((dim, dim), dtype=complex))

    @classmethod
    def identity(cls, dim: int) -> "Projection":
        return cls._trusted(np.eye(dim, dtype=complex))

    @classmethod
    def onto(cls, columns, tol: ToleranceConfig = DEFAULT_TOL) -> "Projection":
        """Projection onto the span of the given column vectors."""
        cols = np.asarray(columns, dtype=complex)
        if cols.ndim == 1:
            cols = cols[:, None]
        return cls._spanned(range_basis(cols, tol))

    @classmethod
    def rank1(cls, vector) -> "Projection":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        return cls._trusted(np.outer(v, v.conj()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return int(round(float(np.trace(self.matrix).real)))

    @property
    def is_zero(self) -> bool:
        return self.rank == 0

    def basis(self, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
        """Orthonormal basis (columns) of the range."""
        return range_basis(self.matrix, tol)

    def apply(self, vector) -> np.ndarray:
        return self.matrix @ np.asarray(vector, dtype=complex).reshape(-1)

    def contains(self, vector, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        """Range membership of a unit vector: ||P v - v|| <= eq_tol."""
        v = np.asarray(vector, dtype=complex).reshape(-1)
        return float(np.linalg.norm(self.matrix @ v - v)) <= tol.eq_tol

    def isclose(self, other: "Projection", tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        return op_norm(self.matrix - other.matrix) <= tol.eq_tol

    def leq(self, other: "Projection", tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        """Range inclusion: P <= Q iff QP = P."""
        _same_dim(self, other)
        return op_norm(other.matrix @ self.matrix - self.matrix) <= tol.eq_tol

    def __and__(self, other):
        return meet(self, other)

    def __or__(self, other):
        return join(self, other)

    def __invert__(self):
        return complement(self)

    def __repr__(self):
        return f"Projection(dim={self.dim}, rank={self.rank})"


def _sym_readonly(m: np.ndarray) -> np.ndarray:
    out = _hermitian_part(m)
    out.setflags(write=False)
    return out


def _same_dim(p: Projection, q: Projection) -> None:
    if p.dim != q.dim:
        raise DimMismatchError(f"projection dims differ: {p.dim} vs {q.dim}")


def complement(p: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """Orthocomplement I - P."""
    return Projection._trusted(np.eye(p.dim, dtype=complex) - p.matrix)


def meet(p: Projection, q: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """Lattice infimum P ∧ Q: projection onto ran P ∩ ran Q.

    Computed as the eigenspace of P + Q at eigenvalue 2 (clustered within
    eig_cluster_tol), which is exactly the common fixed space.
    """
    _same_dim(p, q)
    return Projection._spanned(_eigenspace(p.matrix + q.matrix, lo=2.0 - tol.eig_cluster_tol))


def join(p: Projection, q: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """Lattice supremum P ∨ Q = (P⊥ ∧ Q⊥)⊥."""
    return complement(meet(complement(p, tol), complement(q, tol), tol), tol)


def sasaki(p: Projection, q: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """Sasaki hook P →ₛ Q = P⊥ ∨ (P ∧ Q).

    Reduces to material implication I - P + PQ when P and Q commute.
    """
    return join(complement(p, tol), meet(p, q, tol), tol)


def biconditional(p: Projection, q: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """P ↔ Q = (P →ₛ Q) ∧ (Q →ₛ P); symmetric in its arguments."""
    return meet(sasaki(p, q, tol), sasaki(q, p, tol), tol)


def com_pair(p: Projection, q: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """Commutator projection of a pair: onto ker[P, Q].

    This is (P∧Q) ∨ (P∧Q⊥) ∨ (P⊥∧Q) ∨ (P⊥∧Q⊥), the largest subspace on
    which the pair acts compatibly.  ker[P, Q] is invariant under P and Q,
    so it is :func:`com_family` of the pair.
    """
    return com_family([p, q], tol)


def com_family(projections: Sequence[Projection], tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """Commutator projection of a family.

    Projects onto the largest subspace that is invariant under every
    member and on which all pairs commute.  Computed as a shrinking fixed
    point: start from the common kernel of all pairwise commutators, then
    repeatedly restrict to vectors whose images under every member stay
    inside the current subspace.  Terminates in at most dim steps.
    """
    ps = list(projections)
    if not ps:
        raise EmptyFamilyError("com_family requires at least one projection")
    dim = ps[0].dim
    for p in ps[1:]:
        _same_dim(ps[0], p)
    mats = [p.matrix for p in ps]

    commutators = [
        mats[i] @ mats[j] - mats[j] @ mats[i]
        for i in range(len(mats))
        for j in range(i + 1, len(mats))
    ]
    if commutators:
        basis = null_basis(np.vstack(commutators), tol)
    else:
        basis = np.eye(dim, dtype=complex)

    while basis.shape[1] > 0:
        outside = np.eye(dim, dtype=complex) - basis @ basis.conj().T
        constraints = np.vstack([outside @ m @ basis for m in mats])
        coeffs = null_basis(constraints, tol)
        if coeffs.shape[1] == basis.shape[1]:
            break
        basis = basis @ coeffs

    return Projection._spanned(basis)
