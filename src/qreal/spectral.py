"""Observables as Hermitian matrices with spectral families.

Degenerate eigenvalues are merged by single-linkage clustering at
``eig_cluster_tol`` so numerical jitter cannot split a spectral
projection.  Value lookups (``spectral_projection``, value maps) also
match at ``eig_cluster_tol``, which lets file-supplied values like 1.0
find computed eigenvalues like 0.9999999999.

An observable's :class:`SpectralFamily` (eigenvalues, eigenvectors and
cluster slices from one ``eigh``) is computed once per ``ToleranceConfig``
and kept on the immutable ``Observable``, so asking one object many
questions diagonalises its matrix once; d×d projections are formed on demand.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import accumulate

import numpy as np

from .errors import DimMismatchError, NonFiniteLabelError, NotHermitianError, UnmappedEigenvalueError
from .lattice import Projection
from .numlin import DEFAULT_TOL, ToleranceConfig, _hermitian_part, as_square, eigh, is_hermitian


class Observable:
    """A Hermitian operator with a text label.

    Hermiticity is decided here, once, under ``tol``.  ``_spectra`` keeps
    the :func:`spectral_family` per frozen ``ToleranceConfig``; a family
    under another tolerance factors the Hermitian part without a re-check.
    """

    __slots__ = ("matrix", "name", "_spectra")

    def __init__(self, matrix, name: str = "A", tol: ToleranceConfig = DEFAULT_TOL):
        if not is_hermitian(matrix, tol):
            raise NotHermitianError(f"observable {name!r} is not Hermitian within eq_tol")
        m = np.array(as_square(matrix), dtype=complex)
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
        v = np.asarray(psi, dtype=complex).reshape(-1)
        mean = self.expectation(v)
        second = float(np.real(v.conj() @ (self.matrix @ (self.matrix @ v))))
        return float(np.sqrt(max(second - mean * mean, 0.0)))

    def __repr__(self):
        return f"Observable({self.name!r}, dim={self.dim})"


class SpectralFamily:
    """Distinct eigenvalues of an observable and their spectral projections,
    from one ``eigh``.

    ``eigenvalues`` ascend, pairwise more than eig_cluster_tol apart;
    ``vectors`` is the read-only unitary V, ``slices`` its column slices
    spanning each eigenspace and ``column_values`` each column's eigenvalue;
    the package computes from these.  The member projections, mutually
    orthogonal and summing to the identity, take V's slice as range and the
    other columns as kernel; they are formed on first use and kept, and
    inside the package only the witness search's set-up reads their matrices.
    """

    __slots__ = ("eigenvalues", "vectors", "slices", "column_values", "_projections")

    def __init__(self, eigenvalues: Iterable[float], vectors: np.ndarray, slices: Iterable[slice]):
        object.__setattr__(self, "eigenvalues", tuple(float(v) for v in eigenvalues))
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "slices", tuple(slices))
        column_values = np.repeat(self.eigenvalues, [sl.stop - sl.start for sl in self.slices])
        column_values.setflags(write=False)
        object.__setattr__(self, "column_values", column_values)
        object.__setattr__(self, "_projections", None)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralFamily is immutable")

    @property
    def projections(self) -> tuple[Projection, ...]:
        if self._projections is None:
            v = self.vectors
            object.__setattr__(self, "_projections", tuple(
                Projection._spanned(v[:, sl], np.delete(v, sl, axis=1)) for sl in self.slices))
        return self._projections

    def __iter__(self):
        return zip(self.eigenvalues, self.projections)

    def __len__(self):
        return len(self.slices)


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
        family = SpectralFamily((np.mean(w[sl]) for sl in slices), v, slices)
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
        if not (np.isfinite(float(key)) and np.isfinite(float(value))):
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
    return {value: float(np.linalg.norm(family.vectors[:, sl].conj().T @ v) ** 2)
            for value, sl in zip(family.eigenvalues, family.slices)}
