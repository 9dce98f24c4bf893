import numpy as np
import pytest

from qreal import (
    Observable,
    PAULI_X,
    PAULI_Z,
    apply_value_map,
    born_distribution,
    spectral_family,
    spectral_projection,
)
from qreal.errors import DimMismatchError, NotHermitianError, UnmappedEigenvalueError
from qreal.spectral import cluster_indices
from qreal.standard import random_hermitian, random_state, random_unitary


def test_observable_validation_and_metadata():
    obs = Observable(PAULI_Z, name="Z")
    assert obs.dim == 2 and obs.name == "Z"
    with pytest.raises(NotHermitianError):
        Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(AttributeError):
        obs.name = "other"


def test_spectral_family_near_float_max():
    assert spectral_family(Observable(np.diag([1.0, 1e308]))).eigenvalues == (1.0, 1e308)


def test_expectation_and_std_dev_against_manual():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = random_hermitian(3, rng)
        psi = random_state(3, rng)
        obs = Observable(m)
        mean = np.vdot(psi, m @ psi).real
        var = np.vdot(psi, m @ m @ psi).real - mean**2
        assert obs.expectation(psi) == pytest.approx(mean)
        assert obs.std_dev(psi) == pytest.approx(np.sqrt(max(var, 0.0)))


def test_cluster_indices():
    values = np.array([0.0, 1e-10, 1.0, 1.0 + 5e-9, 2.0])
    slices = cluster_indices(values, 1e-8)
    assert slices == [slice(0, 2), slice(2, 4), slice(4, 5)]
    assert cluster_indices(np.array([]), 1e-8) == []


def test_spectral_family_resolution_of_identity():
    rng = np.random.default_rng(5)
    for _ in range(25):
        dim = int(rng.integers(2, 6))
        m = random_hermitian(dim, rng)
        fam = spectral_family(Observable(m))
        projections = [p.matrix for p in fam.projections]
        assert np.allclose(sum(projections), np.eye(dim), atol=1e-10)
        rebuilt = sum(lam * p for lam, p in zip(fam.eigenvalues, projections))
        assert np.allclose(rebuilt, m, atol=1e-10)
        for i, p in enumerate(projections):
            for q in projections[i + 1:]:
                assert np.linalg.norm(p @ q) < 1e-10
        gaps = np.diff(fam.eigenvalues)
        assert np.all(gaps > 1e-8)


def test_spectral_family_merges_near_degenerate_eigenvalues():
    m = np.diag([1.0, 1.0 + 1e-12, 2.0])
    fam = spectral_family(Observable(m))
    assert len(fam) == 2
    assert fam.projections[0].rank == 2
    assert fam.eigenvalues[1] == pytest.approx(2.0)


def test_spectral_projection_value_matching():
    obs = Observable(np.diag([1.0, 2.0, 3.0]))
    assert spectral_projection(obs, [1.0, 3.0]).rank == 2
    assert spectral_projection(obs, [1.0 + 5e-9]).rank == 1  # within cluster tol
    assert spectral_projection(obs, [7.0]).is_zero


def test_apply_value_map_against_diagonal_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        dim = 4
        values = np.array(sorted(rng.choice(np.arange(-3.0, 4.0), size=dim, replace=False)))
        v = random_unitary(dim, rng)
        obs = Observable((v * values) @ v.conj().T, name="A")
        table = {float(x): float(x) ** 2 for x in values}
        got = apply_value_map(obs, table)
        want = (v * values**2) @ v.conj().T
        assert np.allclose(got.matrix, want, atol=1e-10)
        assert got.name == "f(A)"


def test_apply_value_map_requires_total_map():
    obs = Observable(np.diag([1.0, 2.0]))
    with pytest.raises(UnmappedEigenvalueError):
        apply_value_map(obs, {1.0: 0.0})
    # Keys match within the clustering tolerance.
    mapped = apply_value_map(obs, {1.0 + 5e-9: 5.0, 2.0: 6.0})
    assert np.allclose(mapped.matrix, np.diag([5.0, 6.0]))


def test_born_distribution_against_amplitude_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        m = random_hermitian(dim, rng)
        psi = random_state(dim, rng)
        w, v = np.linalg.eigh(m)
        dist = born_distribution(Observable(m), psi)
        assert sum(dist.values()) == pytest.approx(1.0)
        for lam, prob in dist.items():
            weight = sum(
                abs(np.vdot(v[:, i], psi)) ** 2
                for i in range(dim)
                if abs(w[i] - lam) <= 1e-8
            )
            assert prob == pytest.approx(weight, abs=1e-10)


def test_born_distribution_golden_plus_state():
    dist = born_distribution(Observable(PAULI_Z), np.array([1.0, 1.0]) / np.sqrt(2))
    assert dist[1.0] == pytest.approx(0.5)
    assert dist[-1.0] == pytest.approx(0.5)
    with pytest.raises(DimMismatchError):
        born_distribution(Observable(PAULI_X), np.array([1.0, 0.0, 0.0]))
