"""Observables as Hermitian matrices with spectral families.

Degenerate eigenvalues are merged by single-linkage clustering at
``eig_cluster_tol`` so numerical jitter cannot split a spectral
projection.  Value lookups (``spectral_projection``, value maps) also
match at ``eig_cluster_tol``, which lets file-supplied values like 1.0
find computed eigenvalues like 0.9999999999.

An observable's spectrum is computed once per ``ToleranceConfig`` and kept
on the immutable ``Observable``, so asking one object many questions
diagonalises its matrix once.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from .errors import DimMismatchError, NonFiniteLabelError, NotHermitianError, UnmappedEigenvalueError
from .lattice import Projection
from .numlin import DEFAULT_TOL, ToleranceConfig, as_square, eigh, is_hermitian


class Observable:
    """A Hermitian operator with a text label.

    ``_spectra`` keeps the results of :func:`eigenframe` and
    :func:`spectral_family`, keyed by the frozen ``ToleranceConfig``.
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
    """Distinct eigenvalues of an observable with their spectral projections.

    Entries are sorted ascending, pairwise separated by more than
    eig_cluster_tol, with mutually orthogonal projections summing to the
    identity.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[float, Projection]]):
        object.__setattr__(self, "entries", tuple((float(v), p) for v, p in entries))

    def __setattr__(self, name, value):
        raise AttributeError("SpectralFamily is immutable")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.entries)

    @property
    def projections(self) -> tuple[Projection, ...]:
        return tuple(p for _, p in self.entries)

    @property
    def dim(self) -> int:
        return self.entries[0][1].dim


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


def eigenframe(obs: Observable, tol: ToleranceConfig = DEFAULT_TOL
               ) -> tuple[tuple[float, ...], np.ndarray, tuple[slice, ...]]:
    """(values, V, slices) from one ``eigh``: the distinct eigenvalues,
    degeneracies merged, and the column slices of the unitary V that span
    their eigenspaces.

    Computed on the first call for each ``tol`` and kept on ``obs``; later
    calls return the same objects, with V read-only.
    """
    frame = obs._spectra.get(("frame", tol))
    if frame is None:
        w, v = eigh(obs.matrix, tol)
        v.setflags(write=False)
        slices = tuple(cluster_indices(w, tol.eig_cluster_tol))
        frame = tuple(float(np.mean(w[sl])) for sl in slices), v, slices
        obs._spectra[("frame", tol)] = frame
    return frame


def spectral_family(obs: Observable, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralFamily:
    """Spectral resolution of an observable, degeneracies merged; built on
    the first call for each ``tol`` and kept on ``obs``."""
    family = obs._spectra.get(("family", tol))
    if family is None:
        values, v, slices = eigenframe(obs, tol)
        family = SpectralFamily((value, Projection._spanned(v[:, sl]))
                                for value, sl in zip(values, slices))
        obs._spectra[("family", tol)] = family
    return family


def spectral_projection(
    obs: Observable, values: Iterable[float], tol: ToleranceConfig = DEFAULT_TOL
) -> Projection:
    """Projection onto the eigenspaces whose eigenvalue lies within
    eig_cluster_tol of some element of ``values``; zero if none match."""
    wanted = [float(x) for x in values]
    eigvals, v, slices = eigenframe(obs, tol)
    return Projection._spanned(np.hstack([v[:, :0]] + [
        v[:, sl] for eigval, sl in zip(eigvals, slices)
        if any(abs(eigval - x) <= tol.eig_cluster_tol for x in wanted)]))


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
    labels = []
    for m, proj in spectral_family(meter, tol):
        key = next((k for k in label_map if abs(m - float(k)) <= tol.eig_cluster_tol), None)
        if key is None:
            raise UnmappedEigenvalueError(
                f"label map is undefined on eigenvalue {m!r} of {meter.name!r}")
        labels.append((float(label_map[key]), proj.matrix))
    return labels


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
    values, frame, slices = eigenframe(obs, tol)
    return {value: float(np.linalg.norm(frame[:, sl].conj().T @ v) ** 2)
            for value, sl in zip(values, slices)}
