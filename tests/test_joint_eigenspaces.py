"""Joint eigenspaces give the same bits as the references in ``corpus``.

``lattice.joint_eigenspaces`` skips the SVD of every member whose weight
proves it empty, ``nowhere_commuting`` stops at the first piece, ``lattice._span``
takes the empty kernel of a full span without an SVD, and ``spectral_family``
reads one-value cluster means without a numpy sum.  None of it may move a bit:
each law compares keys, shapes and bytes with the code kept in ``corpus``.
One more law counts the SVDs of a round of the benchmark's joint-reality ops.
"""

import contextlib
import pathlib
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import PLANTED_KINDS, planted_pair, reference_cluster_means, reference_joint_eigenspaces, reference_span
from qreal import (
    DEFAULT_TOL,
    Observable,
    Projection,
    ToleranceConfig,
    com_family,
    jointly_determinate,
    jpd_exists,
    lattice,
    nowhere_commuting,
    random_state,
    random_unitary,
    spectral_family,
    value_identity,
)
from qreal.numlin import eigh

# eq_tol = 0.8 is past 1/√2, where the ½ floor, not 1 − eq_tol², sets the bound.
TOLERANCES = st.sampled_from([DEFAULT_TOL, ToleranceConfig(eq_tol=0.8)])


@contextlib.contextmanager
def reference_lattice():
    """Run the lattice's joint eigenspaces and spans on the ``corpus`` code,
    whose eager dict is walked as (key, columns) pairs."""
    with mock.patch.object(lattice, "joint_eigenspaces",
                           lambda *args, **kwargs: iter(reference_joint_eigenspaces(*args, **kwargs).items())), \
            mock.patch.object(lattice, "_span", reference_span):
        yield


def same_bits(x, y) -> bool:
    """Equal structure, equal floats bit for bit (so 0.0 is not -0.0)."""
    if isinstance(x, Projection):
        return same_bits((x.range, x.kernel), (y.range, y.kernel))
    if isinstance(x, dict):
        return list(x) == list(y) and same_bits(list(x.values()), list(y.values()))
    if isinstance(x, (tuple, list)):
        return type(x) is type(y) and len(x) == len(y) and all(map(same_bits, x, y))
    if isinstance(x, (np.ndarray, float)):
        x, y = np.asarray(x), np.asarray(y)
        return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
    return x == y


def verdicts(a, b, psi, tol):
    """Every joint-reality answer on fresh observables, so no spectrum is reused."""
    def pair():
        return Observable(a, name="A", tol=tol), Observable(b, name="B", tol=tol)

    return (jointly_determinate(list(pair()), psi, tol=tol), nowhere_commuting(*pair(), tol=tol),
            jpd_exists(*pair(), psi, tol=tol), value_identity(*pair(), tol=tol))


def planted_case(kind: str, dim: int, seed: int, exponent: float | None):
    """(A, B, psi): a planted pair of ``corpus.PLANTED_KINDS``, B moved off
    A's eigenbasis by a Hermitian ε = 10**exponent unless exponent is None."""
    rng = np.random.default_rng(seed)
    a, b, _ = planted_pair(kind, dim, rng)
    if exponent is not None:
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = b + 10.0 ** exponent * (g + g.conj().T) / 2
    return a, b, random_state(dim, rng)


# d = 2–16 and ε ∈ [1e-12, 1e-6] in half of the pairs.  The example is a
# perturbed degenerate pair whose 16 pieces at eq_tol = 0.8 are not
# orthogonal: their span is not C^16, and only the SVD can tell.
@settings(max_examples=120, deadline=None)
@given(st.sampled_from(PLANTED_KINDS), st.integers(2, 16), st.integers(0, 2**32 - 1),
       st.none() | st.floats(-12.0, -6.0), TOLERANCES)
@example("degenerate", 16, 0, -7.0, ToleranceConfig(eq_tol=0.8))
def test_joint_reality_verdicts_match_the_reference_bit_for_bit(kind, dim, seed, exponent, tol):
    a, b, psi = planted_case(kind, dim, seed, exponent)
    families = [spectral_family(Observable(m, tol=tol), tol) for m in (a, b)]
    frames = [(f.vectors, f.slices) for f in families]
    assert same_bits(dict(lattice.joint_eigenspaces(frames, tol)), reference_joint_eigenspaces(frames, tol))
    # value_identity's frames merge clusters across both spectra and keep only keys (c, c).
    got = verdicts(a, b, psi, tol)
    with reference_lattice():
        want = verdicts(a, b, psi, tol)
    assert same_bits(got, want)


@st.composite
def families(draw):
    """(projections, tol): 3–4 projections on C^d, d = 2–12, each spanned
    by columns of one shared basis (so they commute) or of its own."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 12))
    shared = random_unitary(dim, rng)
    projections = []
    for _ in range(draw(st.integers(3, 4))):
        basis = shared if draw(st.booleans()) else random_unitary(dim, rng)
        projections.append(Projection.onto(basis[:, rng.random(dim) < 0.5]))
    return projections, draw(TOLERANCES)


@settings(max_examples=80, deadline=None)
@given(families())
def test_com_family_matches_the_reference_bit_for_bit(case):
    projections, tol = case
    got = com_family(projections, tol)
    with reference_lattice():
        want = com_family(projections, tol)
    assert same_bits(got, want)


# One untimed round of the benchmark's joint-reality ops, every np.linalg.svd
# counted.  A piece is split by a member only when the member's weight
# reaches 1 − eq_tol² (floored at ½), nowhere_commuting stops at its first
# piece, and a span that fills the space takes no SVD: 311 per round on both
# seeds, where splitting every member of weight ½ made 585 and 593.
@pytest.mark.parametrize("seed", [1, 2])
def test_a_joint_reality_round_makes_311_svds(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ is only read
    import workloads

    with tempfile.TemporaryDirectory() as work:
        ops = workloads.joint_reality(np.random.default_rng(seed), pathlib.Path(work))
    calls = [0]

    def counted(*args, _original=np.linalg.svd, **kwargs):
        calls[0] += 1
        return _original(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    for op in ops:
        op.run()
    assert calls[0] == 311


@settings(max_examples=120, deadline=None)
@given(st.lists(st.sampled_from([-0.0, 0.0, 1.0, 1.0 + 3e-9, -2.5, 7.0]), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
@example([-0.0, 1.0], 0)
def test_cluster_means_match_the_reference_bit_for_bit(values, seed):
    # Degenerate spectra: repeats and values 3e-9 apart share a cluster.
    if seed:
        u = random_unitary(len(values), np.random.default_rng(seed))
        obs = Observable((u * values) @ u.conj().T)
    else:
        obs = Observable(np.diag(values))  # keeps -0.0 on the diagonal
    w, _ = eigh(obs.matrix)
    family = spectral_family(obs)
    assert same_bits(list(family.eigenvalues), reference_cluster_means(w, family.slices))


def test_a_negative_zero_eigenvalue_has_mean_positive_zero():
    w, _ = eigh(np.diag([-0.0, 1.0]))
    assert np.signbit(w[0])
    assert not np.signbit(spectral_family(Observable(np.diag([-0.0, 1.0]))).eigenvalues[0])
