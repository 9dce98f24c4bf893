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

import numpy as np

from .errors import DimMismatchError, NonFiniteLabelError, NotHermitianError, UnmappedEigenvalueError
from .lattice import Projection
from .numlin import DEFAULT_TOL, ToleranceConfig, as_square, eigh, is_hermitian


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
    ``vectors`` is the read-only unitary V and ``slices`` its column slices
    spanning each eigenspace.  The projections, mutually orthogonal and
    summing to the identity, take V's slice as range and the other columns
    as kernel; they are formed on first use and kept.
    """

    __slots__ = ("eigenvalues", "vectors", "slices", "_entries")

    def __init__(self, eigenvalues: Iterable[float], vectors: np.ndarray, slices: Iterable[slice]):
        object.__setattr__(self, "eigenvalues", tuple(float(v) for v in eigenvalues))
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "slices", tuple(slices))
        object.__setattr__(self, "_entries", None)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralFamily is immutable")

    @property
    def entries(self) -> tuple[tuple[float, Projection], ...]:
        if self._entries is None:
            v = self.vectors
            object.__setattr__(self, "_entries", tuple(
                (value, Projection._spanned(v[:, sl], np.delete(v, sl, axis=1)))
                for value, sl in zip(self.eigenvalues, self.slices)))
        return self._entries

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.slices)

    @property
    def projections(self) -> tuple[Projection, ...]:
        return tuple(p for _, p in self.entries)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def cluster_indices(values: np.ndarray, gap: float) -> list[slice]:
    """Single-linkage clusters of an ascending 1-d array: split where the gap exceeds ``gap``."""
    slices = []
    start = 0
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > gap:
            slices.append(slice(start, i))
            start = i
    if len(values):
        slices.append(slice(start, len(values)))
    return slices


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
    hit = _value_hits(family.eigenvalues, values, tol).any(axis=1)
    columns = np.repeat(hit, [sl.stop - sl.start for sl in family.slices])
    return Projection._spanned(family.vectors[:, columns], family.vectors[:, ~columns])


def _meter_labels(meter: Observable, label_map: Mapping[float, float],
                  tol: ToleranceConfig) -> list[tuple[float, np.ndarray]]:
    """(f(m), E(m)) for every eigenvalue m of ``meter``, where f(m) is the
    value of the first key of ``label_map`` within eig_cluster_tol of m.

    The one rule by which label maps meet meter outcomes: value maps and
    the measurement layer both use it.  Every key and value must be finite.
    """
    for key, value in label_map.items():
        if not (np.isfinite(float(key)) and np.isfinite(float(value))):
            raise NonFiniteLabelError(
                f"label map entry {float(key)!r} -> {float(value)!r} is not finite")
    family = spectral_family(meter, tol)
    keys = list(label_map)
    hits = _value_hits(family.eigenvalues, keys, tol)
    for m, row in zip(family.eigenvalues, hits):
        if not row.any():
            raise UnmappedEigenvalueError(
                f"label map is undefined on eigenvalue {m!r} of {meter.name!r}")
    return [(float(label_map[keys[j]]), proj.matrix)
            for j, proj in zip(hits.argmax(axis=1), family.projections)]


def apply_value_map(
    obs: Observable, value_map: Mapping[float, float], tol: ToleranceConfig = DEFAULT_TOL
) -> Observable:
    """Post-process an observable through a finite map on its spectrum.

    Every eigenvalue must match a key of ``value_map`` within
    eig_cluster_tol; eigenspaces whose images coincide merge in the
    result's spectral family.
    """
    out = sum(value * proj for value, proj in _meter_labels(obs, value_map, tol))
    return Observable(out, name=f"f({obs.name})", tol=tol)


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
