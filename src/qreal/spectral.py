"""Observables as Hermitian matrices with spectral families.

Degenerate eigenvalues are merged by single-linkage clustering at
``eig_cluster_tol`` so numerical jitter cannot split a spectral
projection.  Value lookups (``spectral_projection``, value maps) also
match at ``eig_cluster_tol``, which lets file-supplied values like 1.0
find computed eigenvalues like 0.9999999999.

An observable's :class:`SpectralFamily` (eigenvalues, eigenvectors and
cluster slices from one ``eigh``) is computed once per ``ToleranceConfig``
and kept on the immutable ``Observable``, so asking one object many
questions diagonalises its matrix once.  :func:`spectral_projection` is the
one constructor of a spectral ``Projection``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from itertools import accumulate

import numpy as np

from .errors import DimMismatchError, NonFiniteLabelError, NotHermitianError, UnmappedEigenvalueError
from .lattice import Projection
from .numlin import DEFAULT_TOL, ToleranceConfig, _hermitian_part, eigh, frobenius, is_hermitian


class Observable:
    """A Hermitian operator with a text label.

    Hermiticity is decided here, once, under ``tol``.  ``_spectra`` keeps
    the :func:`spectral_family` per frozen ``ToleranceConfig``; a family
    under another tolerance factors the Hermitian part without a re-check.
    """

    __slots__ = ("matrix", "name", "_spectra")

    def __init__(self, matrix, name: str = "A", tol: ToleranceConfig = DEFAULT_TOL):
        m = np.array(matrix, dtype=complex)  # a private copy, checked by is_hermitian
        if not is_hermitian(m, tol):
            raise NotHermitianError(f"observable {name!r} is not Hermitian within eq_tol")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "_spectra", {})

    def __setattr__(self, name, value):
        raise AttributeError("Observable is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def expectation(self, psi) -> float:
        v = np.asarray(psi, dtype=complex).reshape(-1)
        return float(np.real(v.conj() @ (self.matrix @ v)))

    def std_dev(self, psi) -> float:
        """||(A − <A>)psi||, which keeps its digits where sqrt(<A²> − <A>²) cancels."""
        v = np.asarray(psi, dtype=complex).reshape(-1)
        av = self.matrix @ v
        return frobenius(av - float(np.real(v.conj() @ av)) * v)

    def __repr__(self):
        return f"Observable({self.name!r}, dim={self.dim})"


class SpectralFamily:
    """The columns of an observable's spectral resolution, from one ``eigh``.

    ``eigenvalues`` are the distinct eigenvalues, ascending and pairwise more
    than eig_cluster_tol apart; ``vectors`` is the read-only unitary V,
    ``slices`` its column slices spanning each eigenspace and
    ``column_values`` each column's eigenvalue.  The package computes from
    these columns; :func:`spectral_projection` forms the projections.
    """

    __slots__ = ("eigenvalues", "vectors", "slices", "column_values")

    def __init__(self, eigenvalues: Iterable[float], vectors: np.ndarray, slices: Iterable[slice]):
        object.__setattr__(self, "eigenvalues", tuple(float(v) for v in eigenvalues))
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "slices", tuple(slices))
        column_values = np.repeat(self.eigenvalues, [sl.stop - sl.start for sl in self.slices])
        column_values.setflags(write=False)
        object.__setattr__(self, "column_values", column_values)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralFamily is immutable")


def cluster_indices(values, gap: float) -> list[slice]:
    """Single-linkage clusters of an ascending 1-d array: split where the gap
    exceeds ``gap``.  Read as Python floats, an overflowing gap is inf, a split."""
    values = np.asarray(values, dtype=float).tolist()
    cuts = [0, *(i for i in range(1, len(values)) if values[i] - values[i - 1] > gap), len(values)]
    return list(map(slice, cuts, cuts[1:])) if values else []


def cluster_ids(spectra, gap: float) -> list[np.ndarray]:
    """Single-linkage cluster ids of every value of each spectrum in their
    union: the index of its :func:`cluster_indices` slice of the sorted union."""
    values = np.concatenate(spectra, dtype=float)
    order = np.argsort(values, kind="stable")
    sizes = [sl.stop - sl.start for sl in cluster_indices(values[order], gap)]
    ids = np.empty(values.size, dtype=np.intp)
    ids[order] = np.repeat(np.arange(len(sizes)), sizes)
    ends = list(accumulate(len(s) for s in spectra))
    return [ids[start:end] for start, end in zip([0, *ends], ends)]


def spectral_family(obs: Observable, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralFamily:
    """Spectral resolution of an observable, degeneracies merged, from one
    ``eigh``; built on the first call for each ``tol`` and kept on ``obs``."""
    family = obs._spectra.get(tol)
    if family is None:
        w, v = eigh(obs.matrix)
        v.setflags(write=False)
        slices = cluster_indices(w, tol.eig_cluster_tol)
        # A one-value cluster's mean is numpy's one-element sum, value + 0.0
        # (-0.0 becomes 0.0), read from one list instead of one sum each.
        values = w.tolist()
        family = SpectralFamily((values[sl.start] + 0.0 if sl.stop - sl.start == 1
                                 else w[sl].sum() / (sl.stop - sl.start) for sl in slices), v, slices)
        obs._spectra[tol] = family
    return family


def _value_hits(eigenvalues, keys, tol: ToleranceConfig) -> np.ndarray:
    """hits[i, j] = |eigenvalues[i] − float(keys[j])| <= eig_cluster_tol, the one
    rule matching values to eigenvalues; a difference that overflows is inf, a miss."""
    keys = np.array(list(keys), dtype=float)
    with np.errstate(over="ignore"):
        return np.abs(np.subtract.outer(eigenvalues, keys)) <= tol.eig_cluster_tol


def spectral_projection(
    obs: Observable, values: Iterable[float], tol: ToleranceConfig = DEFAULT_TOL
) -> Projection:
    """Projection onto the eigenspaces whose eigenvalue lies within
    eig_cluster_tol of some element of ``values``; zero if none match."""
    family = spectral_family(obs, tol)
    columns = _value_hits(family.column_values, values, tol).any(axis=1)
    return Projection._spanned(family.vectors[:, columns], family.vectors[:, ~columns])


def _meter_labels(meter: Observable, label_map: Mapping[float, float],
                  tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """The meter's eigenvector columns and f(m) for every column, m the
    column's eigenvalue (its cluster's value) and f(m) the value of the
    first key of ``label_map`` within eig_cluster_tol of m.

    The one rule by which label maps meet meter outcomes: value maps and
    the measurement layer both use it.  Every key and value must be finite.
    """
    for key, value in label_map.items():
        if not (math.isfinite(float(key)) and math.isfinite(float(value))):
            raise NonFiniteLabelError(
                f"label map entry {float(key)!r} -> {float(value)!r} is not finite")
    family = spectral_family(meter, tol)
    values = family.column_values
    hits = _value_hits(values, label_map, tol)
    unmapped = ~hits.any(axis=1)
    if unmapped.any():
        raise UnmappedEigenvalueError(
            f"label map is undefined on eigenvalue {float(values[unmapped.argmax()])!r} of {meter.name!r}")
    return family.vectors, np.array(list(label_map.values()), dtype=float)[hits.argmax(axis=1)]


def apply_value_map(
    obs: Observable, value_map: Mapping[float, float], tol: ToleranceConfig = DEFAULT_TOL
) -> Observable:
    """Post-process an observable through a finite map on its spectrum.

    Every eigenvalue must match a key of ``value_map`` within
    eig_cluster_tol; eigenspaces whose images coincide merge in the
    result's spectral family.  The result is the Hermitian part of
    V diag(f) V†, exactly Hermitian, so no ``eq_tol`` can reject it.
    """
    v, labels = _meter_labels(obs, value_map, tol)
    return Observable(_hermitian_part((v * labels) @ v.conj().T), name=f"f({obs.name})", tol=tol)


def born_distribution(
    obs: Observable, psi, tol: ToleranceConfig = DEFAULT_TOL
) -> dict[float, float]:
    """Outcome distribution p(λ) = ||E(λ) ψ||² of a pure state."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.size != obs.dim:
        raise DimMismatchError(f"state dim {v.size} vs observable dim {obs.dim}")
    family = spectral_family(obs, tol)
    return {value: frobenius(family.vectors[:, sl].conj().T @ v) ** 2
            for value, sl in zip(family.eigenvalues, family.slices)}
