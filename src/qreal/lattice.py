"""The orthomodular lattice of orthogonal projections on C^n.

Connectives are computed spectrally, not by iterated alternating
projections: the meet is the eigenspace of P + Q at eigenvalue 2 (within
``eig_cluster_tol``), and all other connectives are built from meet and
complement.  Commutator subspaces are spans of :func:`joint_eigenspaces`,
whose principal-angle sines are cut at ``rank_tol``.  Every operation builds
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
    member and on which all pairs commute.  That subspace is the span of
    the joint eigenspaces of the two-member families {P, I − P}, one
    frame per member from one ``eigh`` split at ½.
    """
    ps = list(projections)
    if not ps:
        raise EmptyFamilyError("com_family requires at least one projection")
    for p in ps[1:]:
        _same_dim(ps[0], p)
    frames = []
    for p in ps:
        w, v = np.linalg.eigh(p.matrix)
        split = int(np.sum(w < 0.5))
        frames.append((v, [slice(0, split), slice(split, p.dim)]))
    return _span(joint_eigenspaces(frames, tol), ps[0].dim)


def joint_eigenspaces(frames, tol: ToleranceConfig = DEFAULT_TOL) -> dict[tuple[int, ...], np.ndarray]:
    """Nonzero joint eigenspaces ran P₁(i₁) ∩ ran P₂(i₂) ∩ … of complete
    orthogonal families, as orthonormal columns keyed by (i₁, i₂, …).

    A family is a frame (V, slices): V is unitary and its column slices
    span the members.  The first family's pieces are its slices; each
    later family splits every piece S: S ∩ member i is S times the
    :func:`null_basis` of the rows of V†S outside slice i, whose singular
    values are the principal-angle sines.  A unit vector of S in member i
    puts weight ≈ 1 on its rows, so members with ||V_i†S||² < ½ are
    skipped: S has weight rank S in all, so at most 2·dim SVDs per family.
    """
    (v0, slices0), *rest = frames
    pieces = {(i,): v0[:, sl] for i, sl in enumerate(slices0) if sl.stop > sl.start}
    for v, slices in rest:
        split = {}
        for key, piece in pieces.items():
            overlap = v.conj().T @ piece
            weights = np.sum(np.abs(overlap) ** 2, axis=1)
            for i, sl in enumerate(slices):
                if np.sum(weights[sl]) < 0.5:
                    continue
                cols = piece @ null_basis(np.delete(overlap, sl, axis=0), tol)
                if cols.shape[1]:
                    split[key + (i,)] = cols
        pieces = split
    return pieces


def _span(pieces: dict[tuple[int, ...], np.ndarray], dim: int) -> Projection:
    """Projection onto the span of mutually orthogonal pieces."""
    return Projection._spanned(np.hstack([np.zeros((dim, 0), complex), *pieces.values()]))
