import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreal import (
    DEFAULT_TOL,
    Observable,
    PAULI_X,
    PAULI_Z,
    ToleranceConfig,
    apply_value_map,
    born_distribution,
    spectral_family,
    spectral_projection,
)
from qreal import numlin
from qreal.errors import DimMismatchError, NotHermitianError, UnmappedEigenvalueError
from qreal.spectral import _meter_labels, cluster_indices
from qreal.standard import random_hermitian, random_state, random_unitary

from corpus import eigenspaces


def test_observable_validation_and_metadata():
    obs = Observable(PAULI_Z, name="Z")
    assert obs.dim == 2 and obs.name == "Z"
    with pytest.raises(NotHermitianError):
        Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(AttributeError):
        obs.name = "other"


def test_observable_and_its_spectrum_share_one_hermiticity_rule():
    # Tiny entries: the defect 1e-15 is within eq_tol * max(1, ||m||).
    obs = Observable(1e-12 * np.array([[0.0, 1.0], [1.001, 0.0]]))
    fam = spectral_family(obs)
    assert len(fam.eigenvalues) == 1 and spectral_projection(obs, fam.eigenvalues).rank == 2


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


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 8), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_std_dev_of_an_eigenvector_is_rounding(seed, d, scale):
    """sigma(A) vanishes on an eigenvector up to rounding: ||(A − <A>)psi|| keeps
    the digits that sqrt(<A²> − <A>²) cancels (it read 1.5e-8 on X at |+>)."""
    rng = np.random.default_rng(seed)
    m = scale * random_hermitian(d, rng)
    _, v = np.linalg.eigh(m)
    psi = v[:, rng.integers(d)]
    assert Observable(m).std_dev(psi) <= 1e-13 * max(1.0, numlin.op_norm(m))


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
        obs = Observable(m)
        fam = spectral_family(obs)
        projections = [p.matrix for _, p in eigenspaces(obs)]
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
    obs = Observable(m)
    fam = spectral_family(obs)
    assert len(fam.eigenvalues) == 2
    assert spectral_projection(obs, [fam.eigenvalues[0]]).rank == 2
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


def test_apply_value_map_is_exactly_hermitian_under_the_tightest_tolerance():
    # eq_tol = 1e-300 accepts only a matrix equal to its adjoint.
    tight = ToleranceConfig(eq_tol=1e-300)
    rng = np.random.default_rng(4)
    for dim in (3, 6, 12):
        obs = Observable(numlin._hermitian_part(random_hermitian(dim, rng)), tol=tight)
        family = spectral_family(obs, tight)
        table = {value: float(rng.normal()) for value in family.eigenvalues}
        got = apply_value_map(obs, table, tight)
        assert np.array_equal(got.matrix, got.matrix.conj().T)


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


def test_spectrum_is_kept_on_the_observable():
    obs = Observable(random_hermitian(4, np.random.default_rng(13)))
    family = spectral_family(obs)
    assert spectral_family(obs) is family
    v = family.vectors
    assert not v.flags.writeable
    assert not any(p.matrix.flags.writeable for _, p in eigenspaces(obs))
    with pytest.raises(ValueError):
        v[0, 0] = 0.0


@pytest.mark.parametrize("fine_first", [False, True])
def test_spectrum_cache_is_keyed_by_tolerance(fine_first):
    obs = Observable(np.diag([0.0, 1e-9, 1.0]))
    fine = ToleranceConfig(eig_cluster_tol=1e-10)
    order = [(fine, 3), (DEFAULT_TOL, 2)]
    for tol, clusters in (order if fine_first else order[::-1]):
        assert len(spectral_family(obs, tol).eigenvalues) == clusters
        assert len(spectral_family(obs, tol).slices) == clusters
        assert len(born_distribution(obs, [1.0, 0.0, 0.0], tol)) == clusters
        # 0 matches {0, 1e-9} when merged, {0} alone when split.
        assert spectral_projection(obs, [0.0], tol).rank == 4 - clusters


@st.composite
def planted_hermitian(draw, dim=None):
    """A = V diag(values) V† with repeated values (planted degeneracies),
    each jittered far below eig_cluster_tol, of dimension ``dim`` or 1-7;
    returns (A, distinct values)."""
    values = draw(st.lists(st.integers(-3, 3), min_size=dim or 1, max_size=dim or 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jittered = np.array(values, dtype=float) + rng.uniform(-1e-12, 1e-12, size=len(values))
    v = random_unitary(len(values), rng)
    return (v * jittered) @ v.conj().T, sorted(set(values))


@settings(max_examples=60, deadline=None)
@given(planted_hermitian())
def test_spectral_family_resolves_planted_degeneracies(case):
    m, distinct = case
    obs = Observable(m)
    fam = spectral_family(obs)
    assert fam.eigenvalues == pytest.approx(distinct, abs=1e-10)
    projections = [p.matrix for _, p in eigenspaces(obs)]
    dim = m.shape[0]
    assert np.linalg.norm(sum(projections) - np.eye(dim), 2) < 1e-10
    assert np.linalg.norm(sum(lam * p for lam, p in zip(fam.eigenvalues, projections)) - m, 2) < 1e-10
    for i, p in enumerate(projections):
        for q in projections[i + 1:]:
            assert np.linalg.norm(p @ q, 2) < 1e-10


@settings(max_examples=60, deadline=None)
@given(planted_hermitian())
def test_kept_spectrum_is_bit_identical_to_a_fresh_one(case):
    m, _ = case
    kept, new = Observable(m), Observable(m)
    spectral_family(kept)
    cached, fresh = spectral_family(kept), spectral_family(new)
    assert cached.eigenvalues == fresh.eigenvalues
    assert all(np.array_equal(p.matrix, q.matrix)
               for (_, p), (_, q) in zip(eigenspaces(kept), eigenspaces(new)))
    assert cached.slices == fresh.slices and np.array_equal(cached.vectors, fresh.vectors)


def test_first_spectral_family_decides_no_hermiticity(monkeypatch):
    obs = Observable(random_hermitian(4, np.random.default_rng(19)))
    calls = []
    norm_within = numlin.norm_within
    monkeypatch.setattr(numlin, "norm_within", lambda *args, **kwargs: calls.append(args) or norm_within(*args, **kwargs))
    spectral_family(obs)
    spectral_family(obs, ToleranceConfig(eig_cluster_tol=1e-10))
    assert calls == []


def test_value_matching_at_the_cutoff_agrees_with_the_scalar_rule():
    cut = DEFAULT_TOL.eig_cluster_tol
    # 0 and 1.5e-8 are separate clusters, and a key between them hits both.
    obs = Observable(np.diag([0.0, 1.5e-8, 1.0]), name="M")
    eigenvalues = spectral_family(obs).eigenvalues
    assert len(eigenvalues) == 3
    edges = [lam + sign * cut for lam in eigenvalues for sign in (-1, 1)] + [0.75e-8]
    keys = edges + [float(np.nextafter(e, d)) for e in edges for d in (-np.inf, np.inf)]
    rng = np.random.default_rng(17)
    mapped = unmapped = 0
    for _ in range(300):
        chosen = [keys[i] for i in rng.permutation(len(keys))[:int(rng.integers(1, 12))]]
        # The scalar rule: a key matches when |eigenvalue − key| <= eig_cluster_tol.
        hits = [[k for k in chosen if abs(lam - k) <= cut] for lam in eigenvalues]
        selected = np.diag(spectral_projection(obs, chosen).matrix).real > 0.5
        assert list(selected) == [bool(h) for h in hits]
        label_map = {k: float(i) for i, k in enumerate(chosen)}
        if all(hits):
            mapped += 1
            # One label per eigenvector column; each eigenvalue here has one column.
            labels = _meter_labels(obs, label_map, DEFAULT_TOL)[1].tolist()
            assert labels == [label_map[h[0]] for h in hits]  # first key in map order
        else:
            unmapped += 1
            with pytest.raises(UnmappedEigenvalueError):
                _meter_labels(obs, label_map, DEFAULT_TOL)
    assert mapped and unmapped


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), distinct=st.integers(1, 4),
       jitter=st.sampled_from([0.0, 1e-13, 1e-10, 3e-9]), scale=st.sampled_from([1e-6, 1.0, 1e6]))
def test_cluster_means_are_np_mean_bit_for_bit(dim, seed, distinct, jitter, scale):
    # Degenerate spectra read back through eigh jitter within a cluster, so the
    # cluster sums round; the family's values are np.mean of its slices.
    rng = np.random.default_rng(seed)
    values = scale * rng.integers(0, distinct, size=dim) + jitter * rng.normal(size=dim)
    v = random_unitary(dim, rng)
    obs = Observable(numlin._hermitian_part((v * values) @ v.conj().T))
    family = spectral_family(obs)
    w, _ = numlin.eigh(obs.matrix)
    assert [np.float64(value).tobytes() for value in family.eigenvalues] == [
        np.mean(w[sl]).tobytes() for sl in family.slices]
