"""The orthomodular lattice of orthogonal projections on C^n.

A :class:`Projection` is two read-only orthonormal frames, of its range and
of its kernel; the complement swaps them.  Every intersection is decided by
one rule, principal angles (Björck & Golub, Math. Comp. 27, 1973): the
singular values of Q.kernel† P.range are the sines of the angles of ran P
to ran Q, and :func:`numlin.kernel_split` keeps the directions at sine <=
``eq_tol``, the cutoff :meth:`Projection.contains` applies to one vector.
Join is the complement of the meet of complements.  The hooks reuse the
meet's split of ran P into ran P ∩ ran Q and the rest: P →ₛ Q is the
orthogonal sum P⊥ ⊕ (P ∧ Q), as P ∧ Q <= P, and (P →ₛ Q) ∧ (Q →ₛ P) =
(P ∧ Q) ⊕ (P⊥ ∧ Q⊥).  Commutator subspaces are spans of the pieces the
lazy walk :func:`joint_eigenspaces` yields, cut by the same rule.  Results
are orthonormal columns, so tolerance drift cannot accumulate.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimMismatchError, EmptyFamilyError
from .numlin import (DEFAULT_TOL, ToleranceConfig, _hermitian_part, as_operator, as_square, eigh, frobenius,
                     is_hermitian, kernel_split, norm_within)


class Projection:
    """An orthogonal projection; an element of the lattice L(H).

    ``range`` and ``kernel`` are read-only orthonormal columns of the range
    and the kernel, together a unitary.  Instances are immutable.  ``&``,
    ``|`` and ``~`` are :func:`meet`, :func:`join` and :func:`complement`.
    """

    __slots__ = ("range", "kernel", "_matrix")

    def __init__(self, matrix, tol: ToleranceConfig = DEFAULT_TOL):
        m = as_square(matrix)
        if not is_hermitian(m, tol):
            raise ValueError("projection matrix is not self-adjoint within eq_tol")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing defect is rejected
            defect = m @ m - m
        if not (np.all(np.isfinite(defect)) and norm_within(defect, tol.eq_tol, scale=m)):
            raise ValueError("projection matrix is not idempotent within eq_tol")
        # Snap eigenvalues to {0, 1} so downstream algebra starts clean.
        w, v = eigh(m)
        self._frame(v[:, w >= 0.5], v[:, w < 0.5])

    def _frame(self, range_cols: np.ndarray, kernel_cols: np.ndarray) -> "Projection":
        for name, cols in (("range", range_cols), ("kernel", kernel_cols)):
            cols.setflags(write=False)
            object.__setattr__(self, name, cols)
        object.__setattr__(self, "_matrix", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Projection is immutable")

    @classmethod
    def _spanned(cls, columns: np.ndarray, kernel: np.ndarray | None = None) -> "Projection":
        """Projection onto the span of orthonormal columns; ``kernel``, when
        known, completes them to a unitary.  Otherwise one SVD splits it off:
        the columns' singular values are all 1, so any cutoff in (0, 1) works.
        With no columns that SVD's right vectors are exactly I, taken as is.
        Columns that fill the space have an empty kernel, but only a caller
        can vouch that they are orthonormal enough: :func:`_span` does."""
        if kernel is None:
            kernel = (kernel_split(columns.conj().T, 0.5)[0] if columns.shape[1]
                      else np.eye(columns.shape[0], dtype=complex).conj().T)
        return object.__new__(cls)._frame(columns, kernel)

    @classmethod
    def zero(cls, dim: int) -> "Projection":
        return cls._spanned(np.zeros((dim, 0), dtype=complex))

    @classmethod
    def identity(cls, dim: int) -> "Projection":
        return ~cls.zero(dim)

    @classmethod
    def onto(cls, columns, tol: ToleranceConfig = DEFAULT_TOL) -> "Projection":
        """Projection onto the span of the given finite column vectors, at
        numerical rank ``eq_tol``: one SVD gives the range and the kernel."""
        cols = np.asarray(columns, dtype=complex)
        if cols.ndim == 1:
            cols = cols[:, None]
        kernel_cols, range_cols = kernel_split(as_operator(cols).conj().T, tol.eq_tol)
        return cls._spanned(range_cols, kernel_cols)

    @classmethod
    def rank1(cls, vector) -> "Projection":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        with np.errstate(over="ignore"):  # a norm that overflows is inf, rejected below
            norm = np.linalg.norm(v)
        if not 0.0 < norm < np.inf:
            raise ValueError("rank1 needs a nonzero vector of finite norm")
        return cls._spanned((v / norm)[:, None])

    @property
    def matrix(self) -> np.ndarray:
        """The read-only d×d matrix, formed from the range columns on first use."""
        if self._matrix is None:
            m = _hermitian_part(self.range @ self.range.conj().T)
            m.setflags(write=False)
            object.__setattr__(self, "_matrix", m)
        return self._matrix

    @property
    def dim(self) -> int:
        return self.range.shape[0]

    @property
    def rank(self) -> int:
        return self.range.shape[1]

    @property
    def is_zero(self) -> bool:
        return self.rank == 0

    def basis(self) -> np.ndarray:
        """Orthonormal basis (columns) of the range."""
        return self.range

    def apply(self, vector) -> np.ndarray:
        v = np.asarray(vector, dtype=complex).reshape(-1)
        return self.range @ (self.range.conj().T @ v)

    def weight(self, vector) -> float:
        """Born weight ||P v||² of a unit vector, clipped to [0, 1]."""
        v = np.asarray(vector, dtype=complex).reshape(-1)
        return min(max(frobenius(self.range.conj().T @ v) ** 2, 0.0), 1.0)

    def contains(self, vector, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        """Range membership of a unit vector: ||P v - v|| = ||kernel† v|| <= eq_tol."""
        v = np.asarray(vector, dtype=complex).reshape(-1)
        return frobenius(self.kernel.conj().T @ v) <= tol.eq_tol

    def isclose(self, other: "Projection", tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        """||P - Q|| <= eq_tol: each range lies within the other."""
        return self.leq(other, tol) and other.leq(self, tol)

    def leq(self, other: "Projection", tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        """Range inclusion P <= Q: the largest principal-angle sine of ran P
        to ran Q, ||Q⊥ P|| = ||Q.kernel† P.range||, is at most eq_tol."""
        _same_dim(self, other)
        return norm_within(other.kernel.conj().T @ self.range, tol.eq_tol)

    def __and__(self, other):
        return meet(self, other)

    def __or__(self, other):
        return join(self, other)

    def __invert__(self):
        return complement(self)

    def __repr__(self):
        return f"Projection(dim={self.dim}, rank={self.rank})"


def _same_dim(p: Projection, q: Projection) -> None:
    if p.dim != q.dim:
        raise DimMismatchError(f"projection dims differ: {p.dim} vs {q.dim}")


def complement(p: Projection) -> Projection:
    """Orthocomplement I - P: the two frames swapped."""
    return Projection._spanned(p.kernel, p.range)


def _split(p: Projection, q: Projection, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """ran P ∩ ran Q and the rest of ran P, as orthonormal columns: the right
    singular vectors of Q.kernel† P.range at sine <= eq_tol, and the others."""
    _same_dim(p, q)
    inside, outside = kernel_split(q.kernel.conj().T @ p.range, tol.eq_tol)
    return p.range @ inside, p.range @ outside


def meet(p: Projection, q: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """Lattice infimum P ∧ Q: projection onto ran P ∩ ran Q; the rest of
    ran P joins ker P in its kernel."""
    both, rest = _split(p, q, tol)
    return Projection._spanned(both, np.hstack([p.kernel, rest]))


def join(p: Projection, q: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """Lattice supremum P ∨ Q = (P⊥ ∧ Q⊥)⊥."""
    return complement(meet(complement(p), complement(q), tol))


def sasaki(p: Projection, q: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """Sasaki hook P →ₛ Q = P⊥ ∨ (P ∧ Q) = P⊥ ⊕ (P ∧ Q): its kernel is the
    rest of ran P.  Reduces to material implication I - P + PQ when P and Q
    commute."""
    both, rest = _split(p, q, tol)
    return Projection._spanned(np.hstack([p.kernel, both]), rest)


def biconditional(p: Projection, q: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """P ↔ Q = (P →ₛ Q) ∧ (Q →ₛ P) = (P ∧ Q) ⊕ (P⊥ ∧ Q⊥); symmetric in its
    arguments.  Both hooks contain P ∧ Q and are P⊥ and Q⊥ beside it."""
    both, rest = _split(p, q, tol)
    neither, other = _split(complement(p), complement(q), tol)
    return Projection._spanned(np.hstack([both, neither]), np.hstack([rest, other]))


def com_pair(p: Projection, q: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """Commutator projection of a pair: onto ker[P, Q] = (P∧Q) ∨ (P∧Q⊥) ∨
    (P⊥∧Q) ∨ (P⊥∧Q⊥), the largest subspace on which the pair acts
    compatibly; it is invariant under P and Q, so it is :func:`com_family`."""
    return com_family([p, q], tol)


def com_family(projections: Sequence[Projection], tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """Commutator projection of a family.

    Projects onto the largest subspace that is invariant under every
    member and on which all pairs commute.  That subspace is the span of
    the joint eigenspaces of the two-member families {P, I − P}, whose
    frames are each projection's kernel and range columns.
    """
    ps = list(projections)
    if not ps:
        raise EmptyFamilyError("com_family requires at least one projection")
    for p in ps[1:]:
        _same_dim(ps[0], p)
    frames = [(np.hstack([p.kernel, p.range]), [slice(0, p.dim - p.rank), slice(p.dim - p.rank, p.dim)])
              for p in ps]
    return _span(joint_eigenspaces(frames, tol), ps[0].dim, tol)


def joint_eigenspaces(frames, tol: ToleranceConfig = DEFAULT_TOL,
                      keep=None) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Nonzero joint eigenspaces ran P₁(i₁) ∩ ran P₂(i₂) ∩ … of complete
    orthogonal families, as orthonormal columns keyed by (i₁, i₂, …).

    A family is a frame (V, slices): V is unitary and its column slices,
    possibly empty, span the members.  The first family's pieces are its
    slices; each later family splits every piece S: S ∩ member i is S times
    the near-kernel of the rows of V†S outside slice i, principal-angle
    sines cut at eq_tol as in :func:`meet`.

    Only members that can hold a piece are split.  A kept unit vector Sc
    has ||V_i†Sc||² >= 1 − eq_tol², and no unit vector of S has more than
    the member's weight ||V_i†S||²_F, so a member whose weight is below
    max(½, 1 − eq_tol² − 1e-6) is skipped before its SVD.  The ½ floor
    sets the bound at eq_tol >= 1/√2; there it is a rule, not a proof.  S
    has weight rank S in all, so at most 2·dim SVDs per family.  A piece
    whose key ``keep`` (when given) rejects is skipped before its SVD.
    The (key, columns) pairs come one at a time, each family's split run
    only as far as the pieces asked for, so a caller that stops at the
    first piece makes only the SVDs that find it.
    """
    (v0, slices0), *rest = frames
    pieces = (((i,), v0[:, sl]) for i, sl in enumerate(slices0) if sl.stop > sl.start)
    for v, slices in rest:
        pieces = _split_pieces(pieces, v.conj().T, slices, tol, keep)
    return pieces


def _split_pieces(pieces, vh: np.ndarray, slices, tol: ToleranceConfig, keep):
    """Each (key, S) of ``pieces`` split by the family (V, slices), given vh = V†."""
    # A kept direction c has ||V_¬i†Sc|| <= eq_tol·max(s₀, 1), s₀ <= ||V†S|| = 1,
    # so ||V_i†Sc||² = 1 − ||V_¬i†Sc||² >= 1 − eq_tol².  V's unitarity, S's
    # orthonormality, the SVD and the weights' sums each round by a few
    # d·eps, so the margin 1e-6 holds for any d a dense SVD can reach.
    bound = max(0.5, 1.0 - tol.eq_tol ** 2 - 1e-6)
    for key, piece in pieces:
        overlap = vh @ piece
        # Running sums of the row weights: member i has weight[stop] - weight[start].
        weight = [0.0, *np.cumsum(np.sum(np.abs(overlap) ** 2, axis=1)).tolist()]
        for i, sl in enumerate(slices):
            if weight[sl.stop] - weight[sl.start] < bound or (keep and not keep(key + (i,))):
                continue
            cols = piece @ kernel_split(np.concatenate((overlap[:sl.start], overlap[sl.stop:])), tol.eq_tol)[0]
            if cols.shape[1]:
                yield key + (i,), cols


def _span(pieces: Iterable[tuple[tuple[int, ...], np.ndarray]], dim: int, tol: ToleranceConfig) -> Projection:
    """Projection onto the span of (key, columns) pieces of :func:`joint_eigenspaces`.

    Pieces with different keys lie within sine eq_tol of orthogonal
    members, so no two of their columns have an inner product above
    2·eq_tol + eq_tol².  While dim times that is at most ½, the columns'
    singular values lie in [0.7, 1.23], far from the cutoff of
    :meth:`Projection._spanned`'s SVD, so dim columns fill the space and
    their kernel is empty with no SVD.  At a larger eq_tol the pieces need
    not be orthogonal, and the SVD decides.
    """
    columns = np.hstack([np.zeros((dim, 0), complex), *(cols for _, cols in pieces)])
    fills = columns.shape[1] == dim and dim * tol.eq_tol * (2.0 + tol.eq_tol) <= 0.5
    return Projection._spanned(columns, np.zeros((dim, 0), complex) if fills else None)
