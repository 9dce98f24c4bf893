import numpy as np
import pytest
import scipy.linalg

from corpus import kernel, stacked_com_family
from qreal import (
    KET_MINUS,
    KET_PLUS,
    PAULI_X,
    PAULI_Y,
    Projection,
    biconditional,
    com_family,
    com_pair,
    complement,
    join,
    meet,
    sasaki,
)
from qreal.errors import DimMismatchError, EmptyFamilyError
from qreal.numlin import op_norm
from qreal.spectral import Observable, spectral_family
from qreal.standard import random_projection_matrix, random_unitary


def random_projection(rng, dim, rank=None):
    if rank is None:
        rank = int(rng.integers(0, dim + 1))
    if rank == 0:
        return Projection.zero(dim)
    return Projection(random_projection_matrix(dim, rank, rng))


def same_subspace(p: Projection, basis: np.ndarray, angle_tol: float = 1e-8) -> bool:
    """Range of p equals the span of basis columns, by principal angles."""
    mine = p.basis()
    if mine.shape[1] != basis.shape[1]:
        return False
    if mine.shape[1] == 0:
        return True
    return float(scipy.linalg.subspace_angles(mine, basis).max()) < angle_tol


# ---------------------------------------------------------------------------
# Projection construction and basics.


def test_projection_rejects_bad_matrices():
    with pytest.raises(ValueError):
        Projection(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not self-adjoint
    with pytest.raises(ValueError):
        Projection(0.5 * np.eye(2))  # not idempotent
    with pytest.raises(Exception):
        Projection(np.zeros((2, 3)))


def test_projection_snaps_to_exact_idempotency():
    rng = np.random.default_rng(3)
    noisy = random_projection_matrix(4, 2, rng) + 1e-11 * np.eye(4)
    p = Projection(noisy)
    assert op_norm(p.matrix @ p.matrix - p.matrix) < 1e-14
    assert p.rank == 2


def test_projection_constructors_and_queries():
    z = Projection.zero(3)
    i = Projection.identity(3)
    assert z.is_zero and z.rank == 0 and i.rank == 3
    v = np.array([1.0, 1.0, 0.0])
    r1 = Projection.rank1(v)
    assert r1.rank == 1
    assert r1.contains(v / np.linalg.norm(v))
    assert not r1.contains(np.array([0.0, 0.0, 1.0]))
    onto = Projection.onto(np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))
    assert onto.rank == 1  # dependent columns collapse
    assert z.leq(r1) and r1.leq(i)
    assert not i.leq(r1)


@pytest.mark.parametrize("vector", [np.zeros(2), [np.nan, 1.0], [np.inf, 0.0], [0.0, complex(0.0, np.inf)]],
                         ids=["zero", "nan", "inf", "imaginary inf"])
def test_rank1_rejects_a_vector_without_a_finite_nonzero_norm(vector):
    with pytest.raises(ValueError, match="nonzero vector of finite norm"):
        Projection.rank1(vector)


def test_projection_is_immutable():
    p = Projection.identity(2)
    with pytest.raises(AttributeError):
        p.matrix = np.zeros((2, 2))
    with pytest.raises(ValueError):
        p.matrix[0, 0] = 5.0
    rng = np.random.default_rng(8)
    for q in (p, ~p, Projection.rank1([1.0, 2.0]), random_projection(rng, 4, 2),
              meet(random_projection(rng, 4, 3), random_projection(rng, 4, 3))):
        for name in ("range", "kernel"):
            with pytest.raises(AttributeError):
                setattr(q, name, np.eye(q.dim))
            with pytest.raises(ValueError):
                getattr(q, name)[0, 0] = 5.0
        # The two frames complete each other; the rank is the column count.
        frame = np.hstack([q.range, q.kernel])
        assert frame.shape == (q.dim, q.dim) and q.rank == q.range.shape[1]
        assert np.allclose(frame.conj().T @ frame, np.eye(q.dim), atol=1e-12)
        assert q.basis() is q.range


def test_operator_sugar_matches_functions():
    rng = np.random.default_rng(5)
    p = random_projection(rng, 3, 2)
    q = random_projection(rng, 3, 1)
    assert (p & q).isclose(meet(p, q))
    assert (p | q).isclose(join(p, q))
    assert (~p).isclose(complement(p))


def test_dim_mismatch_raises():
    with pytest.raises(DimMismatchError):
        meet(Projection.zero(2), Projection.zero(3))


# ---------------------------------------------------------------------------
# Meet / join against an independent kernel oracle.


def test_meet_matches_stacked_kernel_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        p = random_projection(rng, dim)
        q = random_projection(rng, dim)
        got = meet(p, q)
        # v is in ran P and ran Q iff (P - I)v = 0 and (Q - I)v = 0.
        stacked = np.vstack([p.matrix - np.eye(dim), q.matrix - np.eye(dim)])
        assert same_subspace(got, kernel(stacked))


def test_join_spans_column_union():
    rng = np.random.default_rng(9)
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        p = random_projection(rng, dim)
        q = random_projection(rng, dim)
        got = join(p, q)
        u, s, _ = np.linalg.svd(np.hstack([p.matrix, q.matrix]))
        want = u[:, s > 1e-10]
        assert same_subspace(got, want)


def test_meet_of_commuting_projections_is_product():
    rng = np.random.default_rng(11)
    v = random_unitary(4, rng)
    p = Projection((v[:, :2]) @ v[:, :2].conj().T)
    q = Projection((v[:, 1:3]) @ v[:, 1:3].conj().T)
    assert op_norm(meet(p, q).matrix - p.matrix @ q.matrix) < 1e-12


def test_lattice_bounds_and_order():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = random_projection(rng, 4)
        q = random_projection(rng, 4)
        assert meet(p, q).leq(p) and meet(p, q).leq(q)
        assert p.leq(join(p, q)) and q.leq(join(p, q))
        assert meet(p, complement(p)).is_zero
        assert join(p, complement(p)).rank == 4


# ---------------------------------------------------------------------------
# Orthomodularity, Sasaki hook, biconditional.


def test_orthomodular_law_on_random_chains():
    rng = np.random.default_rng(17)
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        v = random_unitary(dim, rng)
        r_small = int(rng.integers(0, dim + 1))
        r_big = int(rng.integers(r_small, dim + 1))
        p = Projection.onto(v[:, :r_small]) if r_small else Projection.zero(dim)
        q = Projection.onto(v[:, :r_big]) if r_big else Projection.zero(dim)
        assert p.leq(q)
        rebuilt = join(p, meet(complement(p), q))
        assert op_norm(rebuilt.matrix - q.matrix) < 1e-9


def test_sasaki_hook_properties():
    rng = np.random.default_rng(19)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        p = random_projection(rng, dim)
        q = random_projection(rng, dim)
        hook = sasaki(p, q)
        assert complement(p).leq(hook)
        # Modus ponens: P ∧ (P -> Q) <= Q.
        assert meet(p, hook).leq(q)


def test_sasaki_reduces_to_material_implication_when_commuting():
    rng = np.random.default_rng(21)
    v = random_unitary(4, rng)
    p = Projection(v[:, :2] @ v[:, :2].conj().T)
    q = Projection(v[:, 1:4] @ v[:, 1:4].conj().T)
    material = np.eye(4) - p.matrix + p.matrix @ q.matrix
    assert op_norm(sasaki(p, q).matrix - material) < 1e-12


def test_biconditional_is_symmetric_and_classical_when_commuting():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = random_projection(rng, 4)
        q = random_projection(rng, 4)
        assert biconditional(p, q).isclose(biconditional(q, p))
    v = random_unitary(4, rng)
    p = Projection(v[:, :2] @ v[:, :2].conj().T)
    q = Projection(v[:, 1:3] @ v[:, 1:3].conj().T)
    both = p.matrix @ q.matrix
    neither = (np.eye(4) - p.matrix) @ (np.eye(4) - q.matrix)
    assert op_norm(biconditional(p, q).matrix - (both + neither)) < 1e-12


def test_nondistributivity_exhibit():
    p = Projection.rank1(np.array([1.0, 0.0]))
    q = Projection.rank1(KET_PLUS)
    r = Projection.rank1(KET_MINUS)
    left = meet(p, join(q, r))
    right = join(meet(p, q), meet(p, r))
    assert op_norm(left.matrix - right.matrix) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Commutator projections.


def test_com_pair_range_is_commutator_kernel():
    rng = np.random.default_rng(29)
    for _ in range(60):
        dim = int(rng.integers(2, 6))
        p = random_projection(rng, dim)
        q = random_projection(rng, dim)
        got = com_pair(p, q)
        assert same_subspace(got, kernel(p.matrix @ q.matrix - q.matrix @ p.matrix))


def test_com_pair_of_commuting_pair_is_identity():
    rng = np.random.default_rng(31)
    v = random_unitary(5, rng)
    p = Projection(v[:, :2] @ v[:, :2].conj().T)
    q = Projection(v[:, 1:4] @ v[:, 1:4].conj().T)
    assert com_pair(p, q).rank == 5


def test_com_family_validation_and_fixed_points():
    with pytest.raises(EmptyFamilyError):
        com_family([])
    p = Projection.rank1(np.array([1.0, 0.0]))
    assert com_family([p]).rank == 2  # a single projection commutes with itself


def test_com_family_of_pauli_spectra_is_zero():
    projections = list(spectral_family(Observable(PAULI_X)).projections)
    projections += list(spectral_family(Observable(PAULI_Y)).projections)
    assert com_family(projections).rank == 0


def test_com_family_block_structure():
    # Incompatible on the first 2x2 block, diagonal on the second: the
    # compatible subspace is exactly the second block.
    def embed(m, where):
        out = np.zeros((4, 4), dtype=complex)
        out[where:where + 2, where:where + 2] = m
        return out

    x_proj = (np.eye(2) + PAULI_X) / 2
    y_proj = (np.eye(2) + PAULI_Y) / 2
    family = [
        Projection(embed(x_proj, 0) + embed(np.diag([1.0, 0.0]), 2)),
        Projection(embed(y_proj, 0) + embed(np.diag([0.0, 1.0]), 2)),
    ]
    got = com_family(family)
    assert got.rank == 2
    assert same_subspace(got, np.eye(4)[:, 2:])


def test_com_family_result_is_invariant_and_classical():
    rng = np.random.default_rng(37)
    for _ in range(20):
        dim = 4
        family = [random_projection(rng, dim) for _ in range(3)]
        c = com_family(family)
        if c.is_zero:
            continue
        cm = c.matrix
        for p in family:
            # The subspace is invariant: P maps ran C into ran C.
            assert op_norm((np.eye(dim) - cm) @ p.matrix @ cm) < 1e-9
        for i, p in enumerate(family):
            for q in family[i + 1:]:
                left = cm @ p.matrix @ cm @ q.matrix @ cm
                right = cm @ q.matrix @ cm @ p.matrix @ cm
                assert op_norm(left - right) < 1e-9


def test_com_family_matches_stacked_commutator_reference():
    # Random families of 1-4 projections with random ranks in dims 2-6.
    rng = np.random.default_rng(41)
    partial = 0
    for _ in range(300):
        dim = int(rng.integers(2, 7))
        family = [random_projection(rng, dim) for _ in range(int(rng.integers(1, 5)))]
        got, want = com_family(family), stacked_com_family(family)
        assert got.rank == want.rank
        assert op_norm(got.matrix - want.matrix) < 1e-8
        partial += 0 < got.rank < dim
    assert partial >= 50
