import tracemalloc

import numpy as np
import pytest

from corpus import (
    PLANTED_KINDS,
    equality_corpus,
    nowhere_pair,
    planted_pair,
    shared_vector_pair,
    stacked_com_family,
)
from qreal import (
    And,
    Atom,
    Com,
    Environment,
    Equal,
    Iff,
    Not,
    Observable,
    Or,
    PAULI_X,
    PAULI_Y,
    Sasaki,
    holds_in,
    jointly_determinate,
    jpd_exists,
    meet,
    nowhere_commuting,
    parse,
    perfectly_correlated,
    spectral_family,
    truth_projection,
    value_identity,
)
from qreal.errors import DimMismatchError, UnboundObservableError
from qreal.numlin import op_norm
from qreal.standard import random_state, random_unitary


# ---------------------------------------------------------------------------
# Environment.


def test_environment_binding_rules():
    env = Environment({"A": Observable(PAULI_X), "B": Observable(PAULI_Y)})
    assert env.dim == 2
    assert set(env.names()) == {"A", "B"}
    assert "A" in env and "Z" not in env
    with pytest.raises(UnboundObservableError):
        env["Z"]
    with pytest.raises(DimMismatchError):
        Environment({"A": Observable(PAULI_X), "B": Observable(np.eye(3))})
    with pytest.raises(ValueError):
        Environment({})


# ---------------------------------------------------------------------------
# Truth projections: the classical (all-diagonal) case has a Boolean oracle.


def _bool_eval(formula, diagonals, index):
    """Coordinatewise evaluation; valid because diagonal observables all
    commute, where every connective reduces to its classical reading."""
    if isinstance(formula, Atom):
        value = diagonals[formula.obs_id][index]
        return any(abs(value - v) <= 1e-8 for v in formula.values)
    if isinstance(formula, Not):
        return not _bool_eval(formula.operand, diagonals, index)
    if isinstance(formula, And):
        return _bool_eval(formula.left, diagonals, index) and _bool_eval(formula.right, diagonals, index)
    if isinstance(formula, Or):
        return _bool_eval(formula.left, diagonals, index) or _bool_eval(formula.right, diagonals, index)
    if isinstance(formula, Sasaki):
        return (not _bool_eval(formula.left, diagonals, index)) or _bool_eval(formula.right, diagonals, index)
    if isinstance(formula, Iff):
        return _bool_eval(formula.left, diagonals, index) == _bool_eval(formula.right, diagonals, index)
    if isinstance(formula, Equal):
        return abs(diagonals[formula.left_id][index] - diagonals[formula.right_id][index]) <= 1e-8
    if isinstance(formula, Com):
        return True
    raise TypeError(formula)


def _random_classical_formula(rng, names, depth=3):
    def leaf():
        kind = rng.integers(0, 3)
        if kind == 0:
            values = tuple(float(v) for v in rng.integers(-3, 4, size=rng.integers(1, 3)))
            return Atom(str(rng.choice(names)), values)
        if kind == 1:
            left, right = rng.choice(names, size=2)
            return Equal(str(left), str(right))
        return Com(tuple(str(n) for n in rng.choice(names, size=2, replace=False)))

    def build(level):
        if level <= 0 or rng.random() < 0.3:
            return leaf()
        kind = int(rng.integers(0, 5))
        if kind == 0:
            return Not(build(level - 1))
        node = {1: And, 2: Or, 3: Sasaki, 4: Iff}[kind]
        return node(build(level - 1), build(level - 1))

    return build(depth)


def test_truth_projection_matches_boolean_oracle_in_classical_case():
    rng = np.random.default_rng(47)
    names = ("A", "B", "C")
    for _ in range(150):
        dim = int(rng.integers(2, 6))
        diagonals = {name: rng.integers(-3, 4, size=dim).astype(float) for name in names}
        env = Environment({name: Observable(np.diag(d)) for name, d in diagonals.items()})
        formula = _random_classical_formula(rng, names)
        proj = truth_projection(formula, env)
        want = np.diag([float(_bool_eval(formula, diagonals, i)) for i in range(dim)])
        assert np.allclose(proj.matrix, want, atol=1e-9), (formula, diagonals)


def test_truth_projection_atom_golden():
    env = Environment({"D": Observable(np.diag([1.0, 2.0, 3.0]))})
    proj = truth_projection(parse("D in {1, 3}"), env)
    assert np.allclose(proj.matrix, np.diag([1.0, 0.0, 1.0]))


def test_holds_in_reports_probability_and_membership():
    env = Environment({"D": Observable(np.diag([1.0, 2.0, 3.0]))})
    psi = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    report = holds_in(parse("D in {1, 2}"), env, psi)
    assert report.holds and report.probability == pytest.approx(1.0)
    report = holds_in(parse("D in {1}"), env, psi)
    assert not report.holds and report.probability == pytest.approx(0.5)
    with pytest.raises(DimMismatchError):
        holds_in(parse("D in {1}"), env, np.array([1.0, 0.0]))
    with pytest.raises(UnboundObservableError):
        holds_in(parse("E in {1}"), env, psi)


# ---------------------------------------------------------------------------
# Value identity and perfect correlation.


def test_value_identity_diagonal_golden():
    a = Observable(np.diag([1.0, 2.0, 3.0]))
    b = Observable(np.diag([1.0, 2.0, 4.0]))
    proj = value_identity(a, b)
    assert np.allclose(proj.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-9)


def test_value_identity_extremes():
    a = Observable(np.diag([1.0, 2.0]))
    assert value_identity(a, a).rank == 2
    assert value_identity(Observable(PAULI_X), Observable(PAULI_Y)).rank == 0


def test_value_identity_is_unitarily_covariant():
    rng = np.random.default_rng(53)
    a = np.diag([1.0, 2.0, 3.0, 3.0])
    b = np.diag([1.0, 2.0, 2.0, 3.0])
    u = random_unitary(4, rng)
    direct = value_identity(Observable(u @ a @ u.conj().T), Observable(u @ b @ u.conj().T))
    rotated = u @ value_identity(Observable(a), Observable(b)).matrix @ u.conj().T
    assert np.allclose(direct.matrix, rotated, atol=1e-9)


def _oracle_perfectly_correlated(a, b, psi, tol=1e-9):
    """Straight from the definition, using raw eigendecompositions."""
    wa, va = np.linalg.eigh(a)
    wb, vb = np.linalg.eigh(b)
    for lam in np.concatenate([wa, wb]):
        pa = sum(np.outer(va[:, i], va[:, i].conj()) for i in range(len(wa)) if abs(wa[i] - lam) <= 1e-8)
        pb = sum(np.outer(vb[:, i], vb[:, i].conj()) for i in range(len(wb)) if abs(wb[i] - lam) <= 1e-8)
        if np.linalg.norm((pa - pb) @ psi) > tol:
            return False
    return True


def test_perfect_correlation_matches_definition_oracle():
    rng = np.random.default_rng(59)
    mismatches = 0
    for kind, a, b, psi in equality_corpus(rng, 150):
        got = perfectly_correlated(Observable(a), Observable(b), psi)
        want = _oracle_perfectly_correlated(a, b, psi)
        mismatches += got != want
    assert mismatches == 0


def test_equality_truth_equals_perfect_correlation():
    rng = np.random.default_rng(61)
    formula = parse("[A = B]")
    for kind, a, b, psi in equality_corpus(rng, 150):
        env = Environment({"A": Observable(a, name="A"), "B": Observable(b, name="B")})
        lattice_route = holds_in(formula, env, psi).holds
        vector_route = perfectly_correlated(env["A"], env["B"], psi)
        assert lattice_route == vector_route, kind


def test_perfect_correlation_is_transitive():
    rng = np.random.default_rng(67)
    checked = 0
    for _ in range(40):
        dim = int(rng.integers(2, 5))
        a, b, psi = shared_vector_pair(rng, dim)
        # A third observable with the same eigenvector and eigenvalue 1,
        # arbitrary elsewhere.
        basis, _ = np.linalg.qr(np.column_stack([psi, rng.normal(size=(dim, dim - 1))]))
        c_vals = np.concatenate([[1.0], np.arange(2, dim + 1) + rng.normal(0, 0.1, dim - 1)])
        c = (basis * c_vals) @ basis.conj().T
        oa, ob, oc = Observable(a), Observable(b), Observable(c)
        if perfectly_correlated(oa, ob, psi) and perfectly_correlated(ob, oc, psi):
            assert perfectly_correlated(oa, oc, psi)
            checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# Joint determinateness and joint distributions.


def test_jointly_determinate_goldens():
    rng = np.random.default_rng(71)
    x, y = Observable(PAULI_X), Observable(PAULI_Y)
    flag, proj = jointly_determinate([x, y], random_state(2, rng))
    assert not flag and proj.rank == 0

    d1 = Observable(np.diag([1.0, 2.0, 3.0]))
    d2 = Observable(np.diag([5.0, 5.0, 6.0]))
    flag, proj = jointly_determinate([d1, d2], random_state(3, rng))
    assert flag and proj.rank == 3

    with pytest.raises(ValueError):
        jointly_determinate([x], np.array([1.0, 0.0]))
    with pytest.raises(DimMismatchError):
        jointly_determinate([x, d1], np.array([1.0, 0.0]))


def test_jointly_determinate_block_case():
    a, b = nowhere_pair(np.random.default_rng(73), 2)
    a4 = np.zeros((4, 4), dtype=complex)
    b4 = np.zeros((4, 4), dtype=complex)
    a4[:2, :2], b4[:2, :2] = a, b
    a4[2, 2], a4[3, 3] = 4.0, 5.0
    b4[2, 2], b4[3, 3] = 6.0, 7.0
    inside = np.array([0.0, 0.0, 1.0, 1.0]) / np.sqrt(2)
    outside = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
    oa, ob = Observable(a4), Observable(b4)
    flag_in, proj = jointly_determinate([oa, ob], inside)
    flag_out, _ = jointly_determinate([oa, ob], outside)
    assert flag_in and not flag_out
    assert proj.rank == 2


def test_joint_reality_of_generic_d32_pair_within_memory_budget():
    # A generic pair has d distinct eigenvalues each; joint determinateness,
    # nowhere-commutation and the JPD must cost O(d²) memory, not the
    # (2d)² × d² of a stack of pairwise commutators (485 MiB at d=48).
    rng = np.random.default_rng(101)
    for dim in (32, 48):
        a, b = nowhere_pair(rng, dim)
        oa, ob = Observable(a), Observable(b)
        psi = random_state(dim, rng)
        tracemalloc.start()
        try:
            flag, proj = jointly_determinate([oa, ob], psi)
            nowhere = nowhere_commuting(oa, ob)
            exists, candidate = jpd_exists(oa, ob, psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not flag and proj.rank == 0 and nowhere, dim
        assert not exists and len(candidate) == dim * dim and not any(candidate.values()), dim
        assert peak < 16 * 2**20, (dim, peak)


def test_com_rank_of_planted_d16_block_pair():
    # Incompatible on a 2-dim block, diagonal on the other 14, then rotated.
    rng = np.random.default_rng(103)
    a2, b2 = nowhere_pair(rng, 2)
    a = np.zeros((16, 16), dtype=complex)
    b = np.zeros((16, 16), dtype=complex)
    a[:2, :2], b[:2, :2] = a2, b2
    a[2:, 2:] = np.diag(rng.integers(4, 8, size=14).astype(float))
    b[2:, 2:] = np.diag(rng.integers(4, 8, size=14).astype(float))
    w = random_unitary(16, rng)
    oa, ob = Observable(w @ a @ w.conj().T), Observable(w @ b @ w.conj().T)
    inside = w @ np.concatenate([np.zeros(2), random_state(14, rng)])
    flag, proj = jointly_determinate([oa, ob], inside)
    assert flag and proj.rank == 14
    assert not nowhere_commuting(oa, ob)


def test_nowhere_commuting_goldens():
    assert nowhere_commuting(Observable(PAULI_X), Observable(PAULI_Y))
    assert not nowhere_commuting(
        Observable(np.diag([1.0, 2.0])), Observable(np.diag([3.0, 4.0]))
    )


def test_jpd_exists_for_commuting_pair():
    rng = np.random.default_rng(79)
    a = Observable(np.diag([1.0, 2.0]))
    b = Observable(np.diag([3.0, 3.0]))
    psi = random_state(2, rng)
    exists, candidate = jpd_exists(a, b, psi)
    assert exists
    assert candidate[(1.0, 3.0)] == pytest.approx(abs(psi[0]) ** 2)
    assert candidate[(2.0, 3.0)] == pytest.approx(abs(psi[1]) ** 2)


def test_jpd_never_exists_for_pauli_pair():
    rng = np.random.default_rng(83)
    x, y = Observable(PAULI_X), Observable(PAULI_Y)
    for _ in range(25):
        exists, candidate = jpd_exists(x, y, random_state(2, rng))
        assert not exists
        assert all(weight == 0.0 for weight in candidate.values())


def test_jpd_agrees_with_joint_determinateness():
    rng = np.random.default_rng(89)
    for kind, a, b, psi in equality_corpus(rng, 120):
        oa, ob = Observable(a), Observable(b)
        exists, _ = jpd_exists(oa, ob, psi)
        determinate, _ = jointly_determinate([oa, ob], psi)
        assert exists == determinate, kind


def _meet_weights(oa, ob, psi):
    """Born weights of the meets E^A(λ) ∧ E^B(μ): the lattice-route JPD."""
    return {(lam, mu): float(np.real(np.vdot(psi, meet(pa, pb).apply(psi))))
            for lam, pa in spectral_family(oa) for mu, pb in spectral_family(ob)}


def test_joint_eigenspaces_match_stacked_reference_on_planted_pairs():
    rng = np.random.default_rng(107)
    for kind in PLANTED_KINDS:
        for dim in range(3, 11):
            a, b, rank = planted_pair(kind, dim, rng)
            oa, ob = Observable(a), Observable(b)
            projections = [p for obs in (oa, ob) for p in spectral_family(obs).projections]
            want = stacked_com_family(projections)
            psi = random_state(dim, rng)
            flag, com = jointly_determinate([oa, ob], psi)
            assert com.rank == want.rank == rank, (kind, dim)
            assert op_norm(com.matrix - want.matrix) < 1e-8, (kind, dim)
            assert nowhere_commuting(oa, ob) == (rank == 0)
            states = [psi]
            if rank:
                inside = com.apply(psi)
                states.append(inside / np.linalg.norm(inside))
            for state in states:
                exists, candidate = jpd_exists(oa, ob, state)
                determinate, _ = jointly_determinate([oa, ob], state)
                assert exists == determinate == (rank == dim or state is not psi), (kind, dim)
                weights = _meet_weights(oa, ob, state)
                assert candidate.keys() == weights.keys()
                assert all(abs(candidate[key] - w) <= 1e-9 for key, w in weights.items())


def test_jpd_agrees_with_joint_determinateness_near_the_cutoff():
    # diag(0, 1) against a copy rotated by theta: the pair shares no
    # eigenvector once sin(theta) exceeds rank_tol, and then no state has a JPD.
    # At the cutoffs themselves (sin theta = rank_tol, eps = eq_tol) either
    # verdict is right, but the two questions must still give the same one.
    for theta in (1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        a = Observable(np.diag([0.0, 1.0]))
        b = Observable(rot @ np.diag([0.0, 1.0]) @ rot.T)
        nowhere = nowhere_commuting(a, b)
        assert nowhere == (theta > 1e-10) or theta == 1e-10, theta
        for psi in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
            exists, _ = jpd_exists(a, b, psi)
            assert exists == jointly_determinate([a, b], psi)[0], theta
            assert not (nowhere and exists), theta
    # A Z/X qubit block plus a diagonal block; psi at distance eps from com.
    a = np.diag([1.0, -1.0, 2.0, 3.0]).astype(complex)
    b = np.zeros((4, 4), dtype=complex)
    b[:2, :2] = PAULI_X
    b[2, 2], b[3, 3] = 4.0, 5.0
    oa, ob = Observable(a), Observable(b)
    for eps in (1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4):
        psi = np.cos(eps) * np.array([0.0, 0.0, 0.6, 0.8]) + np.sin(eps) * np.array([1.0, 0.0, 0.0, 0.0])
        determinate, _ = jointly_determinate([oa, ob], psi)
        exists, _ = jpd_exists(oa, ob, psi)
        assert exists == determinate, eps
        assert determinate == (eps < 1e-9) or eps == 1e-9, eps
