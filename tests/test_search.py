"""The witness search decides on the state side: laws for its three
branches (eigenvector, exact, ψ-search), the Kirkwood–Dirac array it reads
and the necessity bound its margin comes from."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreal import (
    DEFAULT_TOL,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    MeasurementModel,
    Observable,
    RestartTelemetry,
    context_report,
    kd_distribution,
    measures_in_state,
    meet,
    search_simultaneous,
    simultaneously_measures,
    spectral_family,
    spectral_projection,
)
import qreal.measure
from qreal.errors import DimMismatchError
from qreal.measure import _kd_violation, _pairs, _witness_model
from qreal.standard import random_hermitian, random_state, random_unitary

MARGIN = 2 * DEFAULT_TOL.eq_tol + DEFAULT_TOL.eq_tol ** 2
QUTRIT_B = np.array([[0, 1, 1j], [1, 1, 1], [-1j, 1, 2]])


def _pair(dim: int, seed: int):
    rng = np.random.default_rng(seed)
    return Observable(random_hermitian(dim, rng), name="A"), Observable(random_hermitian(dim, rng), name="B")


def _same(first, second) -> bool:
    return (np.array_equal(first.model.unitary, second.model.unitary)
            and np.array_equal(first.psi, second.psi) and first.defect == second.defect
            and first.map_a == second.map_a and first.map_b == second.map_b
            and first.restart_index == second.restart_index and first.telemetry == second.telemetry)


def test_search_validates_arguments():
    z = Observable(PAULI_Z, name="A")
    with pytest.raises(DimMismatchError):
        search_simultaneous(z, Observable(np.eye(3)), probe_dim=2)
    with pytest.raises(ValueError):
        search_simultaneous(z, z, probe_dim=1)
    with pytest.raises(ValueError):
        search_simultaneous(z, z, probe_dim=2, restarts=0)
    for budget in (0, -3):
        with pytest.raises(ValueError, match="budget"):
            search_simultaneous(z, z, probe_dim=2, budget=budget)


def test_planted_pair_resolves_immediately():
    result = search_simultaneous(
        Observable(PAULI_Z, name="A"), Observable(3 * PAULI_Z, name="B"),
        probe_dim=2, restarts=5, seed=0,
    )
    assert result.defect < 1e-15
    assert result.restart_index == 0 and result.telemetry == ()
    # The found maps relabel meter outcomes into the actual spectra.
    assert set(result.map_a) == {1.0, 2.0}
    assert set(result.map_a.values()) <= {-1.0, 1.0}
    assert set(result.map_b.values()) <= {-3.0, 3.0}


def test_search_result_defect_is_recertifiable():
    z = Observable(PAULI_Z, name="A")
    result = search_simultaneous(z, Observable(PAULI_Z, name="B"), probe_dim=2, restarts=3, seed=1)
    assert isinstance(result.model, MeasurementModel)
    cert_a = measures_in_state(result.model, z, result.map_a, result.psi)
    cert_b = measures_in_state(result.model, z, result.map_b, result.psi)
    assert result.defect == max(cert_a.defect, cert_b.defect) < 1e-15


def test_search_is_deterministic_for_fixed_seed():
    # One pair per branch: eigenvector, exact, ψ-search.
    runs = [((Observable(PAULI_Z, name="A"), Observable(3 * PAULI_Z, name="B")), {"probe_dim": 2}),
            ((Observable(np.diag([1.0, 2.0, 3.0]), name="A"), Observable(QUTRIT_B, name="B")), {"probe_dim": 2}),
            (_pair(4, 11), {"probe_dim": 3, "restarts": 2, "budget": 60})]
    for pair, options in runs:
        assert _same(search_simultaneous(*pair, seed=7, **options), search_simultaneous(*pair, seed=7, **options))
    # Only the ψ-search reads the seed.
    for pair, options in runs[:2]:
        assert _same(search_simultaneous(*pair, seed=7, **options), search_simultaneous(*pair, seed=8, **options))


def test_headline_witness_is_an_x_eigenstate_and_shows_no_joint_reality():
    x, y = Observable(PAULI_X, name="A"), Observable(PAULI_Y, name="B")
    result = search_simultaneous(x, y, probe_dim=2)
    # |spec B| = 2 <= k: psi is X's first eigenvector column, q = [[1/2, 1/2], [0, 0]].
    assert result.branch == "eigenvector" and result.candidates == 0
    assert np.array_equal(result.psi, spectral_family(x).vectors[:, 0])
    assert np.allclose(kd_distribution(x, y, result.psi), [[0.5, 0.5], [0, 0]], atol=1e-15)
    assert result.map_a == {1.0: -1.0, 2.0: -1.0} and result.map_b == {1.0: -1.0, 2.0: 1.0}
    report = context_report(result.model, x, result.map_a, y, result.map_b, result.psi)
    assert report.both_passed and report.nowhere_commuting
    assert not report.jointly_determinate and not report.jpd_exists
    assert result.defect < 1e-15 and result.violation <= result.margin == MARGIN


def test_eigenvector_side_is_a_when_b_fits_the_meter_else_b():
    rng = np.random.default_rng(8)
    v = random_unitary(4, rng)
    two_valued = Observable((v * [1.0, 1.0, 2.0, 2.0]) @ v.conj().T, name="B")
    four_valued = Observable(random_hermitian(4, rng), name="A")
    for a, b, side in ((four_valued, two_valued, "a"), (two_valued, four_valued, "b")):
        result = search_simultaneous(a, b, probe_dim=2)
        family = spectral_family(a if side == "a" else b)
        assert result.branch == "eigenvector"
        assert np.array_equal(result.psi, family.vectors[:, 0])
        assert result.defect < 1e-14


@st.composite
def witnessed_pairs(draw):
    """A and B of one dimension 2-8, each V diag(values) V† with small
    integer values (planted degeneracies), and a probe dimension at least
    min(|spec A|, |spec B|)."""
    dim = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pair = []
    for _ in range(2):
        values = np.array(draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)), dtype=float)
        v = random_unitary(dim, rng)
        pair.append(Observable((v * values) @ v.conj().T))
    least = min(len(spectral_family(obs).eigenvalues) for obs in pair)
    return (*pair, draw(st.integers(max(2, least), max(2, least) + 2)))


@settings(max_examples=150, deadline=None)
@given(witnessed_pairs())
def test_every_pair_has_a_witness_once_the_meter_holds_one_spectrum(case):
    a, b, k = case
    result = search_simultaneous(a, b, probe_dim=k)
    assert result.branch == "eigenvector"
    assert result.defect <= 1e-14
    report = context_report(result.model, a, result.map_a, b, result.map_b, result.psi)
    assert report.both_passed
    assert max(report.cert_a.defect, report.cert_b.defect) == result.defect


@pytest.mark.parametrize("seed", range(3))
def test_seeded_qutrit_pairs_have_a_witness_at_probe_dim_three(seed):
    a, b = _pair(3, seed)
    result = search_simultaneous(a, b, probe_dim=3)
    assert result.branch == "eigenvector" and result.defect <= 1e-14


@pytest.mark.parametrize("seed", range(4))
def test_generic_qutrits_at_probe_dim_two_have_no_witness(seed):
    """At k = 2 a witness's psi lies in ran E^A(C) ∩ ran E^B(D), |C|, |D| <= 2.
    For a generic nondegenerate qutrit pair only |C| = |D| = 2 meet, in 9
    lines, so each candidate is fixed and the exact branch decides."""
    pairs = [_pair(3, seed)] if seed else [(Observable(np.diag([1.0, 2.0, 3.0]), name="A"),
                                            Observable(QUTRIT_B, name="B"))]
    (a, b), = pairs
    result = search_simultaneous(a, b, probe_dim=2)
    assert result.branch == "exact" and result.candidates == 9 and result.telemetry == ()
    assert result.violation > 1e-3 > result.margin
    assert "verdict=none exists" in result.summary(DEFAULT_TOL.eq_tol)
    assert result.defect > DEFAULT_TOL.eq_tol
    # The written stand-in is certified as built.
    report = simultaneously_measures(result.model, a, result.map_a, b, result.map_b, result.psi)
    assert max(report.cert_a.defect, report.cert_b.defect) == result.defect


def test_a_shared_eigenvector_below_the_bound_is_accepted_at_once():
    a, b = Observable(np.diag([1.0, 2.0, 3.0]), name="A"), Observable(np.diag([1.0, 2.0, 4.0]), name="B")
    result = search_simultaneous(a, b, probe_dim=2)
    # The first pair, C = {1}, D = {1}, meets in e_0.
    assert result.branch == "exact" and result.candidates == 1
    assert result.defect < 1e-15 and "verdict=witness" in result.summary(DEFAULT_TOL.eq_tol)


@pytest.mark.parametrize("dims", [(11, 2), (8, 3), (7, 4)])
def test_generic_pairs_up_to_the_pair_cap_are_decided(dims):
    """Only the top pairs |C| = |D| = k count when their W is at most a
    line: C(11, 2)² = 3025, C(8, 3)² = 3136 and C(7, 4)² = 1225 are under
    4096, so each generic nondegenerate pair gets an exact answer."""
    n, k = dims
    a, b = _pair(n, 0)
    result = search_simultaneous(a, b, probe_dim=k)
    assert result.branch == "exact" and result.violation > result.margin
    assert "verdict=none exists" in result.summary(DEFAULT_TOL.eq_tol)


def test_a_fixed_state_is_accepted_only_when_its_model_certifies(monkeypatch):
    """A KD violation within the margin is necessary, not sufficient: a
    fixed state whose model fails its certificates is kept as a candidate
    and the walk goes on."""
    a, b = Observable(np.diag([1.0, 2.0, 3.0]), name="A"), Observable(np.diag([1.0, 2.0, 4.0]), name="B")
    psi, candidates, _ = _pairs(a, b, 2, MARGIN, DEFAULT_TOL)
    assert candidates == 1
    monkeypatch.setattr(qreal.measure, "_witness", lambda *args: (None, None, None, 1.0))
    kept, candidates, spaces = _pairs(a, b, 2, MARGIN, DEFAULT_TOL)
    assert candidates > 1 and spaces
    assert np.array_equal(kept, psi) and _kd_violation(kd_distribution(a, b, kept), 2) <= MARGIN


@pytest.mark.parametrize("dims", [(12, 2), (9, 3), (10, 3), (8, 4)])
def test_too_many_subset_pairs_is_an_error(dims):
    # C(12, 2)² = 4356, C(9, 3)² = 7056, C(10, 3)² = 14400, C(8, 4)² = 4900.
    n, k = dims
    a, b = _pair(n, 2)
    with pytest.raises(ValueError, match="more than 4096 \\(C, D\\) pairs at probe dim"):
        search_simultaneous(a, b, probe_dim=k)


def test_a_wide_top_pair_counts_its_smaller_pairs_against_the_cap():
    """On seven levels at k = 6 the C(7, 6)² = 49 top pairs meet in
    5-dimensional spaces, so together they bring every pair of nonempty
    subsets of at most 6 clusters, 126² in all: past the cap."""
    a, b = _pair(7, 0)
    with pytest.raises(ValueError, match="more than 4096"):
        search_simultaneous(a, b, probe_dim=6)


def _degenerate_five(seed: int):
    rng = np.random.default_rng(seed)
    v = random_unitary(5, rng)
    return Observable((v * [1.0, 1.0, 2.0, 3.0, 4.0]) @ v.conj().T, name="A"), \
        Observable(random_hermitian(5, rng), name="B")


# Pairs with no witness at k, so _pairs walks every (C, D) pair.
_WALKS = {
    "qutrit-k2": (lambda: (Observable(np.diag([1.0, 2.0, 3.0]), name="A"), Observable(QUTRIT_B, name="B")), 2),
    "random-qutrit-k2": (lambda: _pair(3, 1), 2),
    "four-level-k3": (lambda: _pair(4, 11), 3),
    "degenerate-five-k3": (lambda: _degenerate_five(0), 3),
}


@pytest.mark.parametrize("case", sorted(_WALKS))
def test_candidates_are_the_subset_pairs_whose_meet_is_not_zero(case):
    """Each W = ran E^A(C) ∩ ran E^B(D) that _pairs forms from one
    kernel_split is the lattice meet of the two spectral projections.  The
    candidates are the pairs whose meet is not zero among the top pairs
    |C| = |D| = k and the pairs under a top meet of rank > 1, and the
    ψ-search spaces are the top meets of rank > 1."""
    make, k = _WALKS[case]
    a, b = make()
    psi, candidates, spaces = _pairs(a, b, k, MARGIN, DEFAULT_TOL)
    assert _kd_violation(kd_distribution(a, b, psi), k) > MARGIN
    subsets = [[s for r in range(1, k + 1) for s in itertools.combinations(spectral_family(obs).eigenvalues, r)]
               for obs in (a, b)]
    meets = {(c_set, d_set): meet(spectral_projection(a, c_set), spectral_projection(b, d_set))
             for c_set, d_set in itertools.product(*subsets)}
    wide_tops = [(set(c_set), set(d_set)) for (c_set, d_set), w in meets.items()
                 if len(c_set) == len(d_set) == k and w.rank > 1]
    walked = [w for (c_set, d_set), w in meets.items()
              if len(c_set) == len(d_set) == k
              or any(set(c_set) <= c_top and set(d_set) <= d_top for c_top, d_top in wide_tops)]
    assert candidates == sum(not w.is_zero for w in walked)
    wide = [w for (c_set, d_set), w in meets.items() if len(c_set) == len(d_set) == k and w.rank > 1]
    assert len(spaces) == len(wide)
    for space, w in zip(spaces, wide):
        assert space.shape[1] == w.rank
        assert np.allclose(space @ space.conj().T, w.matrix, atol=1e-12)


# ---------------------------------------------------------------------------
# The ψ-search: each W of dim > 1 at |C| = |D| = k, on four levels at k = 3.

def test_psi_search_is_deterministic_and_restart_i_draws_from_seed_plus_i():
    a, b = _pair(4, 11)
    calls = []
    first = search_simultaneous(a, b, probe_dim=3, restarts=2, seed=4, budget=60,
                                progress=lambda index, violation: calls.append((index, violation)))
    again = search_simultaneous(a, b, probe_dim=3, restarts=2, seed=4, budget=60)
    assert first.branch == "psi-search" and _same(first, again)
    assert calls == [(record.index, record.violation) for record in first.telemetry]
    assert [record.index for record in first.telemetry] == [0, 1]
    later = search_simultaneous(a, b, probe_dim=3, restarts=1, seed=5, budget=60)
    assert later.telemetry[0].violation == first.telemetry[1].violation
    # Nothing within the margin: the least violation wins, ties to the lowest index.
    best = min(first.telemetry, key=lambda record: record.violation)
    assert first.restart_index == best.index
    assert first.violation == best.violation > first.margin
    assert "verdict=not found" in first.summary(DEFAULT_TOL.eq_tol)


def test_progress_callback_leaves_the_search_bit_identical():
    a, b = _pair(4, 11)
    plain = search_simultaneous(a, b, probe_dim=3, restarts=3, seed=0, budget=40)
    calls = []
    watched = search_simultaneous(a, b, probe_dim=3, restarts=3, seed=0, budget=40,
                                  progress=lambda index, violation: calls.append((index, violation)))
    assert _same(plain, watched)
    assert calls == [(record.index, record.violation) for record in plain.telemetry]


def test_telemetry_has_one_record_per_restart_that_ran():
    a, b = _pair(4, 11)
    result = search_simultaneous(a, b, probe_dim=3, restarts=3, seed=0, budget=40)
    assert [record.index for record in result.telemetry] == [0, 1, 2]
    # Each record is its restart alone: restart 0 of a search seeded seed + i.
    for record in result.telemetry:
        alone = search_simultaneous(a, b, probe_dim=3, restarts=1, seed=record.index, budget=40)
        assert alone.telemetry == (RestartTelemetry(index=0, violation=record.violation),)
        assert record.summary() == f"restart {record.index}: kd_violation={record.violation:.6e}"
    # The fixed candidates compete with the records, and win ties.
    fixed, _, _ = _pairs(a, b, 3, MARGIN, DEFAULT_TOL)
    fixed_violation = _kd_violation(kd_distribution(a, b, fixed), 3)
    assert result.violation == min(fixed_violation, *(record.violation for record in result.telemetry))
    if result.violation == fixed_violation:
        assert result.restart_index == 0 and np.array_equal(result.psi, fixed)
    else:
        assert result.telemetry[result.restart_index].violation == result.violation


def test_search_reports_nonzero_defect_when_budget_is_tiny():
    a, b = _pair(4, 11)
    result = search_simultaneous(a, b, probe_dim=3, restarts=1, seed=0, budget=1)
    assert result.branch == "psi-search" and len(result.telemetry) == 1
    assert result.violation > result.margin and result.defect > DEFAULT_TOL.eq_tol
    # The stand-in model is still well formed and certified as built.
    report = simultaneously_measures(result.model, a, result.map_a, b, result.map_b, result.psi)
    assert max(report.cert_a.defect, report.cert_b.defect) == result.defect


def test_closed_form_branches_call_no_progress():
    calls = []
    search_simultaneous(Observable(PAULI_X), Observable(PAULI_Y), probe_dim=2,
                        progress=lambda index, violation: calls.append(index))
    search_simultaneous(Observable(np.diag([1.0, 2.0, 3.0])), Observable(QUTRIT_B), probe_dim=2,
                        progress=lambda index, violation: calls.append(index))
    assert calls == []


# ---------------------------------------------------------------------------
# The Kirkwood–Dirac array and the necessity bound that gives the margin.

@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (5, 3)])
def test_kd_distribution_is_the_spectral_projection_sum(dims):
    dim, probe = dims
    rng = np.random.default_rng(dim)
    v = random_unitary(dim, rng)
    a = Observable((v * (np.arange(dim) // 2)) @ v.conj().T)  # degenerate for dim > 2
    b = Observable(random_hermitian(dim, rng))
    psi = random_state(dim, rng)
    left = np.stack([spectral_projection(a, [lam]).matrix for lam in spectral_family(a).eigenvalues])
    right = np.stack([spectral_projection(b, [mu]).matrix for mu in spectral_family(b).eigenvalues])
    want = np.einsum("i,cij,djk,k->cd", psi.conj(), left, right, psi)
    assert np.allclose(kd_distribution(a, b, psi), want, atol=1e-14)
    assert kd_distribution(a, b, psi).sum() == pytest.approx(1.0, abs=1e-14)


def test_kd_distribution_validates_the_state():
    x, y = Observable(PAULI_X, name="A"), Observable(PAULI_Y, name="B")
    with pytest.raises(DimMismatchError):
        kd_distribution(x, y, [1.0, 0.0, 0.0])
    with pytest.raises(DimMismatchError):
        kd_distribution(x, Observable(np.eye(3)), [1.0, 0.0])
    for psi in ([np.nan, 1.0], [1.0, 1.0]):
        with pytest.raises(ValueError, match="finite|norm"):
            kd_distribution(x, y, psi)


def test_kd_distribution_of_x_and_y_is_the_qubit_formula():
    # q(c, d) = (1 + c<X> + d<Y> + i cd<Z>) / 4, rows and columns at -1, +1.
    rng = np.random.default_rng(3)
    x, y = Observable(PAULI_X, name="A"), Observable(PAULI_Y, name="B")
    for _ in range(5):
        psi = random_state(2, rng)
        mean = {name: float(np.real(psi.conj() @ m @ psi))
                for name, m in (("x", PAULI_X), ("y", PAULI_Y), ("z", PAULI_Z))}
        want = np.array([[(1 + c * mean["x"] + d * mean["y"] + 1j * c * d * mean["z"]) / 4
                          for d in (-1, 1)] for c in (-1, 1)])
        assert np.allclose(kd_distribution(x, y, psi), want, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.floats(0.0, 0.3), st.integers(0, 2**32 - 1))
def test_certificates_within_delta_bound_the_kd_array(dim, k, noise, seed):
    """Let Ψ = ψ⊗ξ and P_c = U†(1⊗F_c)U with F_c the sum of the meter
    projections E_m over f(m) = c; likewise Q_d with G_d over g(m) = d.
    Both certificates within δ give P_cΨ = E^A(c)ψ⊗ξ + a_c and Q_dΨ =
    E^B(d)ψ⊗ξ + b_d with ‖a_c‖, ‖b_d‖ ≤ δ, so q(c, d) = ⟨P_cΨ, Q_dΨ⟩ −
    ⟨a_c, Q_dΨ⟩ − ⟨P_cΨ, b_d⟩ + ⟨a_c, b_d⟩, whose last three terms are at
    most δ, δ and δ² in modulus.  F_c G_d is the sum of E_m over f(m) = c,
    g(m) = d, so ⟨P_cΨ, Q_dΨ⟩ is real, non-negative and zero for all but at
    most k cells.  Hence, with s = 2δ + δ²: Re q ≥ −s, |Im q| ≤ s, and the
    (k+1)-th largest |q| is at most s, which is the KD violation's bound.
    Checked on witnesses whose coupling is bent by a random unitary, so δ
    ranges from rounding to order one."""
    rng = np.random.default_rng(seed)
    a, b = Observable(random_hermitian(dim, rng)), Observable(random_hermitian(dim, rng))
    found = search_simultaneous(a, b, probe_dim=k, restarts=1, budget=20)
    generator = random_hermitian(dim * k, rng)
    w, v = np.linalg.eigh(generator)
    bend = (v * np.exp(1j * noise * w)) @ v.conj().T
    model = MeasurementModel(dim, k, found.model.probe_state, bend @ found.model.unitary,
                             found.model.meter, {"fA": found.map_a, "fB": found.map_b})
    report = simultaneously_measures(model, a, found.map_a, b, found.map_b, found.psi)
    delta = max(report.cert_a.defect, report.cert_b.defect)
    slack = 2 * delta + delta ** 2 + 1e-14
    q = kd_distribution(a, b, found.psi)
    assert q.real.min() >= -slack
    assert np.abs(q.imag).max() <= slack
    assert _kd_violation(q, k) <= slack


# (q, k, violation): a distribution on at most k cells is at 0, else the
# worst of |Im q|, -Re q and the (k+1)-th largest |q|.
_VIOLATIONS = {
    "diagonal": ([[0.5, 0.0], [0.0, 0.5]], 2, 0.0),
    "one-cell-short": ([[0.5, 0.0], [0.0, 0.5]], 1, 0.5),
    "k-covers-every-cell": ([[0.25, 0.25], [0.25, 0.25]], 4, 0.0),
    "one-cell-over-k": ([[0.5, 0.3], [0.2, 0.0]], 2, 0.2),
    "negative": ([[0.6, -0.125], [0.25, 0.25]], 4, 0.125),
    "imaginary": ([[0.5 + 0.0625j, 0.0], [0.0, 0.5 - 0.0625j]], 2, 0.0625),
}


@pytest.mark.parametrize("case", sorted(_VIOLATIONS))
def test_kd_violation_is_the_worst_of_imaginary_negative_and_excess_entries(case):
    q, k, want = _VIOLATIONS[case]
    assert _kd_violation(np.array(q, dtype=complex), k) == want


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 4)])
def test_witness_model_certifies_every_kd_distribution_on_k_cells(dims):
    """A and B diagonal in one basis V with small integer spectra, psi = V z
    with z on at most k basis vectors: q(c, d) is the weight of z on the
    vectors labelled (c, d), a distribution on at most k cells, over
    several rows and columns.  The closed-form model certifies both."""
    n, k = dims
    rng = np.random.default_rng(10 * n + k)
    for _ in range(10):
        v = random_unitary(n, rng)
        a = Observable((v * rng.integers(-2, 3, size=n)) @ v.conj().T, name="A")
        b = Observable((v * rng.integers(-2, 3, size=n)) @ v.conj().T, name="B")
        z = np.zeros(n, dtype=complex)
        support = rng.choice(n, size=int(rng.integers(1, min(n, k) + 1)), replace=False)
        z[support] = rng.normal(size=support.size) + 1j * rng.normal(size=support.size)
        psi = v @ (z / np.linalg.norm(z))
        assert _kd_violation(kd_distribution(a, b, psi), k) <= 1e-14
        model, map_a, map_b = _witness_model(a, b, psi, k, DEFAULT_TOL)
        assert set(map_a.values()) <= set(spectral_family(a).eigenvalues)
        assert set(map_b.values()) <= set(spectral_family(b).eigenvalues)
        report = simultaneously_measures(model, a, map_a, b, map_b, psi)
        assert max(report.cert_a.defect, report.cert_b.defect) <= 1e-13


# (A, B, options); seed 0 and probe dimension 2 unless the options say.
_CASES = {
    "headline": (PAULI_X, PAULI_Y, {}),
    "planted": (PAULI_Z, 3 * PAULI_Z, {"restarts": 5}),
    "qubit-k4": (PAULI_X, PAULI_Y, {"probe_dim": 4}),
    "qutrit-k3": (*(m.matrix for m in _pair(3, 5)), {"probe_dim": 3}),
    "qutrit-k2": (np.diag([1.0, 2.0, 3.0]), QUTRIT_B, {}),
    "six-level": (*(m.matrix for m in _pair(6, 106)), {}),
    "four-level-k3": (*(m.matrix for m in _pair(4, 11)), {"probe_dim": 3, "restarts": 2, "budget": 60}),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_every_search_winner_meets_the_kirkwood_dirac_necessity_bound(case):
    """The bound of test_certificates_within_delta_bound_the_kd_array, on
    what the search reports: with s = 2δ + δ², δ its defect, Re q ≥ −s,
    |Im q| ≤ s and at most k entries exceed s.  It holds for every δ, so
    the stand-ins of pairs with no witness meet it too."""
    a_matrix, b_matrix, options = _CASES[case]
    a, b = Observable(a_matrix, name="A"), Observable(b_matrix, name="B")
    result = search_simultaneous(a, b, seed=0, **{"probe_dim": 2, **options})
    q = kd_distribution(a, b, result.psi)
    slack = 2 * result.defect + result.defect ** 2
    assert q.real.min() >= -slack
    assert np.abs(q.imag).max() <= slack
    above = int(np.count_nonzero(np.abs(q) > slack))
    assert above <= result.model.probe_dim
    # An eigenvector of A (B) keeps one row (column) of q; the exact
    # stand-ins end at defect 0.41, whose slack exceeds every entry.
    assert above == {"headline": 2, "planted": 1, "qubit-k4": 2, "qutrit-k3": 3, "qutrit-k2": 0,
                     "six-level": 0, "four-level-k3": 2}[case]
