import tracemalloc

import numpy as np
import pytest

from corpus import (
    cluster_sums,
    clusters,
    eigenprojectors,
    joint_space_defect,
    kernel,
    mapped_lift,
    random_model_parts,
    tensor_eye,
)
from qreal import (
    CNOT,
    KET_PLUS,
    KET_PLUS_I,
    MeasurementModel,
    Observable,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    apply_value_map,
    born_distribution,
    context_report,
    measures_in_state,
    meter_output,
    output_distribution,
    perfectly_correlated,
    povm,
    rms_disturbance,
    rms_noise,
    simultaneously_measures,
    spectral_family,
    uncertainty_report,
)
from qreal import measure
from qreal.errors import (
    DimMismatchError,
    NonFiniteLabelError,
    NotUnitaryError,
    UnmappedEigenvalueError,
)
from qreal.numlin import ToleranceConfig
from qreal.standard import basis_state, random_hermitian, random_state, random_unitary

SQRT2 = np.sqrt(2.0)


def _model(rng, sys_dim=2, probe_dim=2, label_maps=None):
    u, xi, meter = random_model_parts(rng, sys_dim, probe_dim)
    maps = label_maps or {"f": {float(m): float(m) for m in range(1, probe_dim + 1)}}
    return MeasurementModel(
        sys_dim=sys_dim, probe_dim=probe_dim, probe_state=xi, unitary=u,
        meter=Observable(meter, name="M"), label_maps=maps,
    )


# ---------------------------------------------------------------------------
# Model construction.


def test_model_validation():
    with pytest.raises(NotUnitaryError):
        MeasurementModel(2, 2, [1.0, 0.0], np.eye(4) * 1.1,
                         Observable(PAULI_Z), {})
    # U†U overflows to inf and inf − inf: a NaN residual is a rejection, with
    # no RuntimeWarning on the way.
    with pytest.raises(NotUnitaryError, match="nan"):
        MeasurementModel(1, 2, [1.0, 0.0], 1e200 * np.array([[1.0, 1.0], [1.0, -1.0]]),
                         Observable(PAULI_Z), {})
    with pytest.raises(DimMismatchError):
        MeasurementModel(2, 2, [1.0, 0.0, 0.0], np.eye(4), Observable(PAULI_Z), {})
    with pytest.raises(DimMismatchError):
        MeasurementModel(2, 2, [1.0, 0.0], np.eye(6), Observable(PAULI_Z), {})
    with pytest.raises(DimMismatchError):
        MeasurementModel(2, 2, [1.0, 0.0], np.eye(4), Observable(np.eye(3)), {})
    with pytest.raises(UnmappedEigenvalueError):
        MeasurementModel(2, 2, [1.0, 0.0], np.eye(4), Observable(PAULI_Z),
                         {"f": {1.0: 1.0}})


@pytest.mark.parametrize("label_map", [
    {1.0: 1.0, -1.0: np.nan},
    {1.0: 1.0, -1.0: np.inf},
    {1.0: 1.0, -1.0: -1.0, np.nan: 0.0},
    {1.0: 1.0, -1.0: -1.0, -np.inf: 0.0},
])
def test_non_finite_label_maps_are_rejected(cnot_model, label_map):
    with pytest.raises(NonFiniteLabelError, match="not finite .*map 'f'"):
        MeasurementModel(2, 2, [1.0, 0.0], CNOT, Observable(PAULI_Z), {"f": label_map})
    z = Observable(PAULI_Z, name="A")
    for call in (measures_in_state, rms_noise):
        with pytest.raises(NonFiniteLabelError):
            call(cnot_model, z, label_map, KET_PLUS)
    with pytest.raises(NonFiniteLabelError):
        apply_value_map(z, label_map)


def test_model_label_map_keys_match_within_cluster_tol():
    model = MeasurementModel(2, 2, [1.0, 0.0], np.eye(4), Observable(PAULI_Z),
                             {"f": {1.0 + 5e-9: 1.0, -1.0: 0.0}})
    assert model.label_maps["f"][1.000000005] == 1.0


def test_joint_state_is_kron(cnot_model):
    psi = np.array([0.6, 0.8])
    assert np.allclose(cnot_model.joint_state(psi), np.kron(psi, [1.0, 0.0]))
    with pytest.raises(DimMismatchError):
        cnot_model.joint_state(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(AttributeError):
        cnot_model.unitary = np.eye(4)


# ---------------------------------------------------------------------------
# Meter output and statistics.


def test_meter_output_of_cnot_is_zz(cnot_model):
    got = meter_output(cnot_model)
    assert np.allclose(got.matrix, np.kron(PAULI_Z, PAULI_Z))


def test_meter_output_matches_conjugation_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        model = _model(rng, sys_dim=3, probe_dim=2)
        want = model.unitary.conj().T @ np.kron(np.eye(3), model.meter.matrix) @ model.unitary
        assert np.allclose(meter_output(model).matrix, want, atol=1e-12)


def test_povm_of_cnot_is_basis_readout(cnot_model):
    effects = dict(povm(cnot_model))
    assert np.allclose(effects[1.0], np.diag([1.0, 0.0]))
    assert np.allclose(effects[-1.0], np.diag([0.0, 1.0]))


def test_povm_completeness_and_positivity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        model = _model(rng, sys_dim=int(rng.integers(2, 4)), probe_dim=int(rng.integers(2, 4)))
        effects = povm(model)
        total = sum(effect for _, effect in effects)
        assert np.linalg.norm(total - np.eye(model.sys_dim)) < 1e-10
        for _, effect in effects:
            assert np.allclose(effect, effect.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(effect).min() > -1e-12


def test_output_distribution_matches_state_vector_simulation():
    rng = np.random.default_rng(7)
    for _ in range(15):
        model = _model(rng, sys_dim=2, probe_dim=3)
        psi = random_state(2, rng)
        dist = output_distribution(model, psi)
        evolved = model.unitary @ np.kron(psi, model.probe_state)
        w, v = np.linalg.eigh(model.meter.matrix)
        for outcome, prob in dist.items():
            projector = sum(
                np.outer(v[:, i], v[:, i].conj())
                for i in range(len(w)) if abs(w[i] - outcome) <= 1e-8
            )
            amplitude = np.kron(np.eye(2), projector) @ evolved
            assert prob == pytest.approx(float(np.linalg.norm(amplitude) ** 2), abs=1e-10)
        assert sum(dist.values()) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Certification.


def test_cnot_certifies_z_in_any_state(cnot_model):
    rng = np.random.default_rng(9)
    f = cnot_model.label_maps["f"]
    z = Observable(PAULI_Z, name="A")
    for _ in range(10):
        psi = random_state(2, rng)
        cert = measures_in_state(cnot_model, z, f, psi)
        assert cert.passed and cert.defect <= 1e-12
        assert rms_noise(cnot_model, z, f, psi) <= 1e-12


def test_cnot_fails_x_in_plus_state(cnot_model):
    f = cnot_model.label_maps["f"]
    x = Observable(PAULI_X, name="A")
    cert = measures_in_state(cnot_model, x, f, KET_PLUS)
    assert not cert.passed
    assert cert.defect == pytest.approx(1 / SQRT2, abs=1e-12)
    assert rms_noise(cnot_model, x, f, KET_PLUS) == pytest.approx(SQRT2, abs=1e-12)


def test_rms_disturbance_golden(cnot_model):
    rng = np.random.default_rng(11)
    # CNOT flips X (x) 1 into X (x) X: disturbance sqrt(2) in every state.
    for _ in range(5):
        psi = random_state(2, rng)
        assert rms_disturbance(cnot_model, Observable(PAULI_X), psi) == pytest.approx(SQRT2)
    # Z (x) 1 commutes with CNOT: never disturbed.
    assert rms_disturbance(cnot_model, Observable(PAULI_Z), KET_PLUS) <= 1e-12


def test_uncertainty_report_structure(cnot_model):
    report = uncertainty_report(
        cnot_model, Observable(PAULI_Z), cnot_model.label_maps["f"],
        Observable(PAULI_X), KET_PLUS_I,
    )
    assert report.epsilon == pytest.approx(0.0, abs=1e-12)
    assert report.eta == pytest.approx(SQRT2, abs=1e-12)
    # <[Z, X]> = 2i<Y> = 2i at |y+>, so the bound is 1.
    assert report.bound == pytest.approx(1.0, abs=1e-12)
    assert report.lhs == pytest.approx(report.sigma_a * SQRT2, abs=1e-12)
    assert report.satisfied
    keys = set(report.to_dict())
    assert keys == {"epsilon", "eta", "sigma_a", "sigma_b", "bound", "lhs", "satisfied"}


def test_uncertainty_holds_on_random_instances():
    rng = np.random.default_rng(13)
    for _ in range(40):
        sys_dim = int(rng.integers(2, 4))
        model = _model(rng, sys_dim=sys_dim, probe_dim=int(rng.integers(2, 4)))
        a = Observable(random_hermitian(sys_dim, rng), name="A")
        b = Observable(random_hermitian(sys_dim, rng), name="B")
        psi = random_state(sys_dim, rng)
        report = uncertainty_report(model, a, model.label_maps["f"], b, psi)
        assert report.lhs >= report.bound - 1e-9


@pytest.mark.parametrize("eq_tol,satisfied", [(1e-6, True), (1e-9, False)])
def test_trade_off_is_decided_within_the_runs_eq_tol(uncoupled_model, eq_tol, satisfied):
    # U = 1 disturbs nothing, so at |0> with A = X and B = Y the left side
    # is epsilon * sigma(Y) = epsilon, against the bound |<[X, Y]>| / 2 = 1.
    epsilon = 1 - 5e-7
    report = measure._trade_off(uncoupled_model, Observable(PAULI_X), epsilon, Observable(PAULI_Y),
                                basis_state(2, 0), ToleranceConfig(eq_tol=eq_tol))
    assert (report.eta, report.bound, report.lhs) == (0.0, 1.0, epsilon)
    assert report.satisfied is satisfied


# ---------------------------------------------------------------------------
# The simultaneous-measurement exhibit.


def test_headline_model_measures_both_paulis(headline_model):
    pair = simultaneously_measures(
        headline_model,
        Observable(PAULI_X, name="A"), headline_model.label_maps["fA"],
        Observable(PAULI_Y, name="B"), headline_model.label_maps["fB"],
        KET_PLUS_I,
    )
    assert pair.both
    assert pair.cert_a.defect <= 1e-12 and pair.cert_b.defect <= 1e-12


def test_headline_context_report_flags(headline_model):
    report = context_report(
        headline_model,
        Observable(PAULI_X, name="A"), headline_model.label_maps["fA"],
        Observable(PAULI_Y, name="B"), headline_model.label_maps["fB"],
        KET_PLUS_I,
    )
    assert report.both_passed
    assert report.nowhere_commuting
    assert not report.jointly_determinate and report.determinateness_rank == 0
    assert not report.jpd_exists
    assert report.meter_equality_a and report.meter_equality_b
    assert not report.lifted_equality
    assert not report.system_equality
    assert report.system_equality_probability == pytest.approx(0.0, abs=1e-9)
    summary = report.summary()
    assert "pass" in summary and "nowhere commuting: yes" in summary
    assert set(report.to_dict()) == {
        "certificate_a", "certificate_b", "both_passed", "nowhere_commuting",
        "jointly_determinate", "determinateness_rank", "jpd_exists",
        "meter_equality_a", "meter_equality_b", "lifted_equality",
        "system_equality", "system_equality_probability",
    }


def test_headline_certificates_fail_off_the_witness_state(headline_model):
    # fB is the constant map; it only tracks sigma_y on its +1 eigenstate.
    pair = simultaneously_measures(
        headline_model,
        Observable(PAULI_X, name="A"), headline_model.label_maps["fA"],
        Observable(PAULI_Y, name="B"), headline_model.label_maps["fB"],
        basis_state(2, 0),
    )
    assert pair.cert_a.passed and not pair.cert_b.passed


def test_statistics_can_match_born_without_correlation(uncoupled_model):
    psi = basis_state(2, 0)
    x = Observable(PAULI_X, name="A")
    f = uncoupled_model.label_maps["f"]
    born = born_distribution(x, psi)
    stats = output_distribution(uncoupled_model, psi)
    mapped = {}
    for outcome, prob in stats.items():
        mapped[f[outcome]] = mapped.get(f[outcome], 0.0) + prob
    assert set(mapped) == set(born)
    for value, prob in born.items():
        assert mapped[value] == pytest.approx(prob, abs=1e-10)
    cert = measures_in_state(uncoupled_model, x, f, psi)
    assert not cert.passed
    assert cert.defect == pytest.approx(1 / SQRT2, abs=1e-12)


# ---------------------------------------------------------------------------
# Certificate and statistics against definitions written on the joint space.

def _contains_kernel(differences, joint) -> bool:
    basis = kernel(np.vstack(differences))
    return float(np.linalg.norm(basis @ (basis.conj().T @ joint) - joint)) <= 1e-9


def _unitary_with_first_column(v, rng):
    a = rng.normal(size=(v.size, v.size)) + 1j * rng.normal(size=(v.size, v.size))
    a[:, 0] = v
    q, r = np.linalg.qr(a)
    q[:, 0] *= r[0, 0]
    return q


def _oracle_case(rng, n, k, planted):
    """A degenerate A, a label map with shared values, a pair 5e-9 apart and
    a key no meter outcome reaches; ``planted`` couples each eigenvector of A
    to a meter outcome labelled with its eigenvalue, so f(O) tracks A."""
    distinct = [-1.0, 0.5, 2.0][:min(n, k, 3)]
    labels = [distinct[j % len(distinct)] for j in range(k)]
    if k > len(distinct):
        labels[-1] += 5e-9
    eigvals = distinct + [float(x) for x in rng.choice(distinct, size=n - len(distinct))]
    sys_basis = random_unitary(n, rng)
    a = sys_basis @ np.diag(eigvals) @ sys_basis.conj().T
    meter_basis = random_unitary(k, rng)
    meter = meter_basis @ np.diag(np.arange(1.0, k + 1.0)) @ meter_basis.conj().T
    xi = random_state(k, rng)
    if planted:
        to_xi = _unitary_with_first_column(xi, rng)
        u = sum(np.kron(np.outer(sys_basis[:, i], sys_basis[:, i].conj()),
                        _unitary_with_first_column(meter_basis[:, labels.index(lam)], rng)
                        @ to_xi.conj().T)
                for i, lam in enumerate(eigvals))
    else:
        u = random_unitary(n * k, rng)
    label_map = {float(m + 1): labels[m] for m in range(k)}
    label_map[100.0] = 9.0
    model = MeasurementModel(n, k, xi, u, Observable((meter + meter.conj().T) / 2, name="M"))
    return model, Observable((a + a.conj().T) / 2, name="A"), label_map


def _oracle_cases():
    rng = np.random.default_rng(2024)
    for n in (2, 3, 4):
        for k in (2, 3, 4):
            for planted in (False, True):
                model, a, label_map = _oracle_case(rng, n, k, planted)
                yield model, a, label_map, random_state(n, rng), rng


def test_measurement_layer_matches_joint_space_definitions():
    checked_equal = 0
    for model, a, label_map, psi, rng in _oracle_cases():
        n, k, xi = model.sys_dim, model.probe_dim, model.probe_state
        joint = np.kron(psi, xi)
        outputs = mapped_lift(model, label_map)
        fam_a = tensor_eye(eigenprojectors(a.matrix), k)
        want = joint_space_defect(model, a, label_map, psi)
        assert measures_in_state(model, a, label_map, psi).defect == pytest.approx(want, abs=1e-12)

        f_out = sum(value * lifted for value, lifted in outputs)
        noise = np.linalg.norm((f_out - np.kron(a.matrix, np.eye(k))) @ joint)
        assert rms_noise(model, a, label_map, psi) == pytest.approx(noise, abs=1e-12)

        embed = np.kron(np.eye(n), xi.reshape(-1, 1))
        lifted = mapped_lift(model, {m: m for m in np.linalg.eigvalsh(model.meter.matrix)})
        effects = povm(model)
        dist = output_distribution(model, psi)
        assert len(effects) == len(lifted) == len(dist)
        for (outcome, effect), (m, want_lift), got_p in zip(effects, lifted, sorted(dist.items())):
            want_effect = embed.conj().T @ want_lift @ embed
            assert outcome == pytest.approx(m, abs=1e-12)
            assert np.abs(effect - want_effect).max() <= 1e-12
            assert got_p[1] == pytest.approx(np.real(np.vdot(psi, want_effect @ psi)), abs=1e-12)

        # Meter and lifted equalities: a scipy kernel of the stacked differences.
        b_basis = random_unitary(n, rng)
        b = Observable(b_basis @ np.diag(rng.choice([-1.0, 2.0], size=n)) @ b_basis.conj().T, name="B")
        fam_b = tensor_eye(eigenprojectors(b.matrix), k)
        b_joint = np.kron(b.matrix, np.eye(k))
        u = model.unitary
        eta = np.linalg.norm((u.conj().T @ b_joint @ u - b_joint) @ joint)
        assert rms_disturbance(model, b, psi) == pytest.approx(eta, abs=1e-12)
        trade_off = uncertainty_report(model, a, label_map, b, psi)
        assert trade_off.epsilon == pytest.approx(noise, abs=1e-12)
        assert trade_off.eta == pytest.approx(eta, abs=1e-12)
        report = context_report(model, a, label_map, b, label_map, psi)
        for got, fam in ((report.meter_equality_a, fam_a), (report.meter_equality_b, fam_b)):
            values = list(label_map.values()) + [lam for lam, _ in fam]
            want_eq = _contains_kernel([cluster_sums(outputs, c, n * k) - cluster_sums(fam, c, n * k)
                                        for c in clusters(values)], joint)
            assert got == want_eq
            checked_equal += want_eq
        values = [lam for lam, _ in fam_a] + [lam for lam, _ in fam_b]
        assert report.lifted_equality == _contains_kernel(
            [cluster_sums(fam_a, c, n * k) - cluster_sums(fam_b, c, n * k) for c in clusters(values)],
            joint)
    # Every planted model makes the A-side meter equality hold.
    assert checked_equal >= 9


def test_unreached_label_value_still_joins_clusters(cnot_model):
    # 0.75e-8 bridges spec(A) = {0, 1.5e-8} into one cluster, which f(O) = 0 matches.
    a = Observable(np.diag([0.0, 1.5e-8]), name="A")
    label_map = {1.0: 0.0, -1.0: 0.0, 5.0: 0.75e-8}
    assert measures_in_state(cnot_model, a, label_map, KET_PLUS).defect <= 1e-15
    assert measures_in_state(cnot_model, a, {1.0: 0.0, -1.0: 0.0}, KET_PLUS).defect == pytest.approx(
        1 / SQRT2, abs=1e-12)
    # The meter equality is the certificate, unreached label values included.
    report = context_report(cnot_model, a, label_map, a, label_map, KET_PLUS)
    assert report.meter_equality_a is True and report.cert_a.passed


def test_measurement_layer_diagonalises_only_factor_sized_matrices(eigh_inputs):
    rng = np.random.default_rng(31)
    model = _model(rng, sys_dim=4, probe_dim=4)
    a = Observable(random_hermitian(4, rng), name="A")
    b = Observable(random_hermitian(4, rng), name="B")
    f = model.label_maps["f"]
    psi = random_state(4, rng)
    measures_in_state(model, a, f, psi)
    rms_noise(model, a, f, psi)
    povm(model)
    output_distribution(model, psi)
    context_report(model, a, f, b, f, psi)
    assert eigh_inputs and max(shape[0] for shape, _ in eigh_inputs) <= 4
    # The meter, A and B are each diagonalised once, from the model's
    # construction through all five calls.
    assert max(eigh_inputs.values()) == 1


def test_context_report_diagonalises_each_matrix_once(eigh_inputs):
    rng = np.random.default_rng(37)
    model = _model(rng, sys_dim=3, probe_dim=3)
    a = Observable(random_hermitian(3, rng), name="A")
    b = Observable(random_hermitian(3, rng), name="B")
    f = model.label_maps["f"]
    context_report(model, a, f, b, f, random_state(3, rng))
    # The meter (first at the model's construction), A and B.
    assert len(eigh_inputs) == 3 and max(eigh_inputs.values()) == 1


def test_one_reading_per_model_and_state(monkeypatch):
    """A two-observable measure validates psi once, builds its outcome rows
    once and reads each label map's columns from the model; a new state, or
    the same array changed in place, is read afresh."""
    rng = np.random.default_rng(41)
    model = _model(rng, sys_dim=3, probe_dim=2)
    a = Observable(random_hermitian(3, rng), name="A")
    b = Observable(random_hermitian(3, rng), name="B")
    f = model.label_maps["f"]
    calls = {"as_state": 0, "_outcome_vectors": 0, "_meter_labels": 0}
    for name in calls:
        original = getattr(measure, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(measure, name, counted)

    def measure_both(psi):
        return (output_distribution(model, psi), measures_in_state(model, a, f, psi),
                rms_noise(model, a, f, psi), measures_in_state(model, b, f, psi),
                rms_noise(model, b, f, psi), uncertainty_report(model, a, f, b, psi))

    psi = random_state(3, rng)
    first = measure_both(psi)
    assert calls == {"as_state": 1, "_outcome_vectors": 1, "_meter_labels": 0}
    assert measure_both(psi.copy()) == first
    assert calls == {"as_state": 1, "_outcome_vectors": 1, "_meter_labels": 0}
    psi[:] = random_state(3, rng)
    moved = measure_both(psi)
    assert calls["as_state"] == 2 and calls["_outcome_vectors"] == 2
    assert moved[0] != first[0]
    # A map the model was not built with is labelled on each use.
    flipped = {m: -v for m, v in f.items()}
    assert rms_noise(model, a, flipped, psi) >= 0.0 and calls["_meter_labels"] == 1
    with pytest.raises(ValueError):
        model.unitary[0, 0] = 0.0


def test_measurement_layer_allocates_no_joint_space_matrix():
    # At n = k = 16 one joint-space matrix (256 x 256 complex) is 1 MiB.
    rng = np.random.default_rng(47)
    model = _model(rng, sys_dim=16, probe_dim=16)
    a = Observable(random_hermitian(16, rng), name="A")
    f = model.label_maps["f"]
    psi = random_state(16, rng)
    b = Observable(random_hermitian(16, rng), name="B")
    calls = {
        "measures_in_state": lambda: measures_in_state(model, a, f, psi),
        "rms_noise": lambda: rms_noise(model, a, f, psi),
        "rms_disturbance": lambda: rms_disturbance(model, a, psi),
        "povm": lambda: povm(model),
        "context_report": lambda: context_report(model, a, f, b, f, psi),
    }
    peaks = {}
    for name, call in calls.items():
        call()  # one-time allocations (imports, numpy internals) stay out
        peaks[name] = _peak_mib(call)
    assert all(peak < 2.0 for peak in peaks.values()), peaks


def _peak_mib(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _fresh(dim, rng, name):
    """A new observable whose spectral family is built, and no projection matrix."""
    obs = Observable(random_hermitian(dim, rng), name=name)
    spectral_family(obs)
    return obs


def test_certificate_reads_columns_at_n_192():
    # One n x n complex matrix is 0.56 MiB at n = 192; the certificate needs
    # rows of length nk, not the n x n spectral projections of A.
    rng = np.random.default_rng(53)
    model = _model(rng, sys_dim=192, probe_dim=2)
    f = model.label_maps["f"]
    psi = random_state(192, rng)
    measures_in_state(model, _fresh(192, rng, "A0"), f, psi)  # one-time allocations stay out
    a = _fresh(192, rng, "A")
    peak = _peak_mib(lambda: measures_in_state(model, a, f, psi))
    assert peak < 8.0, peak


def test_perfect_correlation_reads_columns_at_d_192():
    rng = np.random.default_rng(59)
    psi = random_state(192, rng)
    perfectly_correlated(_fresh(192, rng, "A0"), _fresh(192, rng, "B0"), psi)
    a, b = _fresh(192, rng, "A"), _fresh(192, rng, "B")
    peak = _peak_mib(lambda: perfectly_correlated(a, b, psi))
    assert peak < 4.0, peak
