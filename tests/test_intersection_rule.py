"""One principal-angle rule for meet, com and [A = B].

Every intersection in qreal keeps the directions whose principal-angle sine
to a subspace is at most eq_tol, the cutoff ``Projection.contains`` applies
to a single vector.  These laws draw an angle theta log-uniform in
[1e-12, 1e-2], so both sides of the cutoff (and the band 1e-9 < sin theta
< 1.4e-4 where older rules disagreed) are exercised.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import lattice_value_identity, reference_biconditional, reference_sasaki
from qreal import (
    DEFAULT_TOL,
    Environment,
    Observable,
    Projection,
    ToleranceConfig,
    biconditional,
    com_pair,
    complement,
    holds_in,
    join,
    meet,
    parse,
    perfectly_correlated,
    random_state,
    random_unitary,
    sasaki,
    spectral_projection,
    truth_projection,
    value_identity,
)
from qreal.lattice import joint_eigenspaces


def on_the_cutoff(theta: float) -> bool:
    """sin theta within rounding of eq_tol, where either verdict is right."""
    return abs(np.sin(theta) / DEFAULT_TOL.eq_tol - 1.0) < 1e-6


def resolution(theta: float) -> ToleranceConfig:
    """Tolerances at which two correct answers must agree.  A principal
    angle theta that is cut (sin theta > eq_tol) separates the kept
    directions from a dropped one by a gap of sin theta, so rounding of
    1e-16 in the frames moves the kept directions by about 1e-16 / sin theta
    (Wedin, BIT 12, 1972): up to 1e-7 just above the cutoff."""
    sine = np.sin(theta)
    return ToleranceConfig(eq_tol=max(DEFAULT_TOL.eq_tol, 1e-14 / sine if sine > DEFAULT_TOL.eq_tol else 0.0))


@st.composite
def tilted_pair(draw):
    """(P, Q, U, theta, shared): random subspaces of C^d, d <= 12, whose
    principal angles are theta (between U[:, 0] and its tilt towards
    U[:, -1]), 0 on ``shared`` common columns U[:, 1:1+shared], and pi/2
    on the rest."""
    dim = draw(st.integers(2, 12))
    theta = 10.0 ** draw(st.floats(-12.0, -2.0))
    shared = draw(st.integers(0, dim - 2))
    p_extra = draw(st.integers(0, dim - 2 - shared))
    q_extra = draw(st.integers(0, dim - 2 - shared - p_extra))
    return tilted(dim, theta, shared, p_extra, q_extra, draw(st.integers(0, 2**32 - 1)))


def tilted(dim: int, theta: float, shared: int, p_extra: int, q_extra: int, seed: int):
    """:func:`tilted_pair`'s draw, built from U = random_unitary(dim, seed)."""
    u = random_unitary(dim, np.random.default_rng(seed))
    tilted = np.cos(theta) * u[:, 0] + np.sin(theta) * u[:, -1]
    common = u[:, 1:1 + shared]
    p = Projection.onto(np.column_stack([u[:, 0], common, u[:, 1 + shared:1 + shared + p_extra]]))
    q_cols = u[:, 1 + shared + p_extra:1 + shared + p_extra + q_extra]
    q = Projection.onto(np.column_stack([tilted, common, q_cols]))
    return p, q, u, theta, shared


def observables(p: Projection, q: Projection):
    """A = 1 on ran P and 0 on ker P; B likewise for Q."""
    return Observable(p.matrix, name="A"), Observable(q.matrix, name="B")


# On the cutoff the meet's SVD and the joint eigenspace's SVD see the tilted
# direction's sine as eq_tol give or take rounding, and may each keep it or
# not: at theta = 1e-9 (the example, where the meet keeps it and the joint
# eigenspace does not) they disagree on about 5% of draws.
@settings(max_examples=80, deadline=None)
@given(tilted_pair())
@example(tilted(10, 1e-9, 8, 0, 0, 10))
def test_meet_has_rank_of_the_range_range_joint_eigenspace(case):
    p, q, _, theta, shared = case
    m = meet(p, q)
    frames = [(np.hstack([x.kernel, x.range]), [slice(0, x.dim - x.rank), slice(x.dim - x.rank, x.dim)])
              for x in (p, q)]
    pieces = dict(joint_eigenspaces(frames))
    rank = pieces[(1, 1)].shape[1] if (1, 1) in pieces else 0
    if on_the_cutoff(theta):
        assert abs(m.rank - rank) <= 1
    else:
        assert m.rank == rank == shared + (np.sin(theta) <= DEFAULT_TOL.eq_tol)


@settings(max_examples=80, deadline=None)
@given(tilted_pair())
def test_meet_and_value_identity_lie_in_com(case):
    p, q, _, theta, _ = case
    tol = resolution(theta)
    com = com_pair(p, q)
    assert com.rank == com_pair(q, p).rank
    assert com.isclose(com_pair(q, p), tol)
    if on_the_cutoff(theta):
        return
    assert meet(p, q).leq(com, tol)
    env = Environment(dict(zip("AB", observables(p, q))))
    com_ab = truth_projection(parse("com(A, B)"), env)
    assert truth_projection(parse("[A = B]"), env).leq(com_ab, tol)
    assert com.rank == com_ab.rank


@settings(max_examples=80, deadline=None)
@given(tilted_pair())
def test_conjunction_holds_exactly_where_both_atoms_contain_the_principal_vector(case):
    p, q, u, theta, _ = case
    if on_the_cutoff(theta):
        return
    a, b = observables(p, q)
    env = Environment({"A": a, "B": b})
    formula = parse("A in {1} & B in {1}")
    in_a, in_b = spectral_projection(a, [1.0]), spectral_projection(b, [1.0])
    tilted = np.cos(theta) * u[:, 0] + np.sin(theta) * u[:, -1]
    # The principal vectors of ran P at angle theta, 0 (shared) and pi/2,
    # the tilted line and a generic state.
    states = [u[:, i] for i in range(p.rank)] + [tilted, random_state(p.dim, np.random.default_rng(p.rank))]
    tol = resolution(theta)
    for i, psi in enumerate(states):
        report = holds_in(formula, env, psi)
        both = in_a.contains(psi) and in_b.contains(psi)
        # u[:, 0] is decided by the rule itself.  The other vectors are
        # resolved to tol, which is eq_tol unless a cut angle sits just above it.
        assert (report.holds if i == 0 else report.projection.contains(psi, tol)) == both, i


@settings(max_examples=80, deadline=None)
@given(tilted_pair())
def test_de_morgan_and_orthomodularity(case):
    p, q, u, theta, shared = case
    assert complement(meet(p, q)).isclose(join(complement(p), complement(q)))
    assert complement(join(p, q)).isclose(meet(complement(p), complement(q)))
    # P <= Q  =>  Q = P ∨ (Q ∧ P⊥), on the tilted line (inside ran Q, and
    # inside ran P when sin theta <= eq_tol) and on the shared columns.
    line = Projection.rank1(np.cos(theta) * u[:, 0] + np.sin(theta) * u[:, -1])
    if not on_the_cutoff(theta):
        assert line.leq(p) == (np.sin(theta) <= DEFAULT_TOL.eq_tol)
    pairs = [(line, p), (line, q)] + ([(Projection.onto(u[:, 1:1 + shared]), q)] if shared else [])
    for small, big in pairs:
        if small.leq(big):
            assert big.isclose(join(small, meet(big, complement(small))))


def composed_resolution(theta: float) -> ToleranceConfig:
    """Tolerances at which a composed biconditional, the meet of two hooks,
    resolves its answer.  Each hook's frames move by about 1e-16 / sin theta,
    and the hooks meet at the principal angle theta, which magnifies that
    move by 1 / sin theta again: no resolution at all below sin theta ~ 1e-7."""
    sine = np.sin(theta)
    return ToleranceConfig(eq_tol=max(DEFAULT_TOL.eq_tol, 1e-14 / sine**2 if sine > DEFAULT_TOL.eq_tol else 0.0))


@settings(max_examples=80, deadline=None)
@given(tilted_pair())
def test_hook_and_biconditional_agree_with_their_composed_definitions(case):
    # sasaki and biconditional split each pair once; their definitions,
    # P⊥ ∨ (P ∧ Q) and the meet of the two hooks, compose two and five meets.
    p, q, u, theta, shared = case
    if on_the_cutoff(theta):
        return
    tol = resolution(theta)
    for mine, reference in ((sasaki(p, q), reference_sasaki(p, q)), (sasaki(q, p), reference_sasaki(q, p))):
        assert mine.rank == reference.rank
        assert mine.isclose(reference, tol)
    iff, reference = biconditional(p, q), reference_biconditional(p, q)
    assert iff.rank == reference.rank
    assert iff.isclose(reference, composed_resolution(theta))
    # P ∧ Q is the shared columns and P⊥ ∧ Q⊥ the columns neither range
    # uses, u[:, p.rank + q.rank - 1 - shared:-1]; a kept angle adds u[:, 0]
    # to the first and u[:, -1] to the second.
    rest = u[:, p.rank + q.rank - 1 - shared:-1]
    kept = np.sin(theta) <= DEFAULT_TOL.eq_tol
    assert iff.rank == shared + rest.shape[1] + 2 * kept
    if not kept:
        assert iff.isclose(Projection.onto(np.column_stack([u[:, 1:1 + shared], rest])), tol)


def chained_pair(rng: np.random.Generator, dim: int, degenerate: bool):
    """A and B whose merged spectrum has a chain a1 < b < a2 (gaps 0.8e-8,
    a2 - a1 = 1.6e-8 > eig_cluster_tol) on span(v0, v1), where B has one
    value b twice (``degenerate``) or values b < a2 < b' in another basis of
    that span; both are 3 on v2 and differ on the rest.  Returns (A, B,
    columns spanning [A = B])."""
    v = random_unitary(dim, rng)
    a1, gap = 1.0, 0.8e-8
    a_vals = np.array([a1, a1 + 2 * gap, 3.0] + [4.0 + i for i in range(dim - 3)])
    b_vals = np.array([a1 + gap, a1 + gap if degenerate else a1 + 3 * gap, 3.0]
                      + [4.5 + i for i in range(dim - 3)])
    w = v.copy()
    w[:, :2] = v[:, :2] @ random_unitary(2, rng)
    a = (v * a_vals) @ v.conj().T
    b = (w * b_vals) @ w.conj().T
    return (a + a.conj().T) / 2, (b + b.conj().T) / 2, v[:, :3]


def test_value_identity_merges_chained_spectra():
    rng = np.random.default_rng(2024)
    for degenerate in (True, False):
        for dim in (4, 5, 8):
            a, b, equal_cols = chained_pair(rng, dim, degenerate)
            oa, ob = Observable(a, name="A"), Observable(b, name="B")
            mine, reference = value_identity(oa, ob), lattice_value_identity(oa, ob)
            assert mine.rank == reference.rank == 3, (degenerate, dim)
            assert mine.isclose(reference) and mine.isclose(Projection.onto(equal_cols))
            planted = [equal_cols @ (rng.normal(size=3) + 1j * rng.normal(size=3)) for _ in range(4)]
            states = [x / np.linalg.norm(x) for x in planted] + [random_state(dim, rng) for _ in range(4)]
            for i, psi in enumerate(states):
                want = i < len(planted)
                assert mine.contains(psi) == reference.contains(psi) == want, (degenerate, dim, i)
                assert perfectly_correlated(oa, ob, psi) == want, (degenerate, dim, i)
