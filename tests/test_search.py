from dataclasses import asdict

import numpy as np
import pytest

from qreal import (
    DEFAULT_TOL,
    MeasurementModel,
    Observable,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    measures_in_state,
    search_simultaneous,
)
from qreal.cli import load_model
from qreal.errors import DimMismatchError
from qreal.measure import _SearchProblem, _state_from_params
from qreal.standard import random_hermitian, random_state, random_unitary

from corpus import (
    reference_defects,
    reference_objective,
    reference_outcome_rows,
    reference_polish,
    reference_state,
    reference_target_rows,
    reference_unitary,
)


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
    assert result.defect < 1e-8
    assert result.restart_index == 0
    # The found maps relabel meter outcomes into the actual spectra.
    assert set(result.map_a) == {1.0, 2.0}
    assert set(result.map_a.values()) <= {-1.0, 1.0}
    assert set(result.map_b.values()) <= {-3.0, 3.0}


def test_search_result_defect_is_recertifiable():
    result = search_simultaneous(
        Observable(PAULI_Z, name="A"), Observable(PAULI_Z, name="B"),
        probe_dim=2, restarts=3, seed=1,
    )
    assert isinstance(result.model, MeasurementModel)
    cert_a = measures_in_state(result.model, Observable(PAULI_Z, name="A"),
                               result.map_a, result.psi)
    cert_b = measures_in_state(result.model, Observable(PAULI_Z, name="B"),
                               result.map_b, result.psi)
    assert result.defect == pytest.approx(max(cert_a.defect, cert_b.defect), abs=1e-15)
    assert result.defect < 1e-8


def test_search_is_deterministic_for_fixed_seed():
    z = Observable(PAULI_Z, name="A")
    first = search_simultaneous(z, Observable(3 * PAULI_Z, name="B"),
                                probe_dim=2, restarts=2, seed=7)
    second = search_simultaneous(z, Observable(3 * PAULI_Z, name="B"),
                                 probe_dim=2, restarts=2, seed=7)
    assert first.defect == second.defect
    assert first.restart_index == second.restart_index
    assert first.map_a == second.map_a and first.map_b == second.map_b
    assert np.array_equal(first.model.unitary, second.model.unitary)


def test_progress_callback_and_early_exit():
    calls = []
    result = search_simultaneous(
        Observable(PAULI_Z, name="A"), Observable(3 * PAULI_Z, name="B"),
        probe_dim=2, restarts=10, seed=0,
        progress=lambda index, defect: calls.append((index, defect)),
    )
    # The planted pair succeeds at restart 0, so later restarts never run.
    assert calls[0][0] == 0
    assert len(calls) == 1
    assert result.restart_index == 0


def test_progress_callback_leaves_the_search_bit_identical():
    pair = Observable(PAULI_X, name="A"), Observable(PAULI_Y, name="B")
    plain = search_simultaneous(*pair, probe_dim=2, restarts=3, seed=0, budget=200)
    calls = []
    watched = search_simultaneous(*pair, probe_dim=2, restarts=3, seed=0, budget=200,
                                  progress=lambda index, defect: calls.append(index))
    assert calls == [0, 1, 2]
    assert np.array_equal(plain.model.unitary, watched.model.unitary)
    assert np.array_equal(plain.psi, watched.psi)
    assert plain.map_a == watched.map_a and plain.map_b == watched.map_b
    assert plain.defect == watched.defect and plain.restart_index == watched.restart_index

    def records(result):
        return [{**asdict(record), "wall_ms": None} for record in result.telemetry]

    assert records(plain) == records(watched)


def test_label_maps_are_enumerated_up_to_256_a_side():
    x, y = Observable(PAULI_X, name="A"), Observable(PAULI_Y, name="B")
    for k, exhaustive in ((8, True), (9, False), (14, False)):
        problem = _SearchProblem(x, y, k, DEFAULT_TOL)
        for maps, one_hot in problem.candidate_maps(np.random.default_rng(0)):
            assert one_hot.shape == (len(maps), 2, k)
            if exhaustive:
                assert len(maps) == 2 ** k
            else:
                # A seeded sample of 64 plus both constant maps, not 2**k.
                assert len(maps) <= 64 + 2
                assert {(0,) * k, (1,) * k} <= set(map(tuple, maps))


def test_telemetry_has_one_record_per_restart_that_ran(monkeypatch):
    evaluations = []
    objective = _SearchProblem.objective

    def counted(self, theta, side_a, side_b):
        evaluations.append(1)
        return objective(self, theta, side_a, side_b)

    monkeypatch.setattr(_SearchProblem, "objective", counted)
    z = Observable(PAULI_Z, name="A")
    planted = search_simultaneous(z, Observable(3 * PAULI_Z, name="B"),
                                  probe_dim=2, restarts=5, seed=0)
    assert len(planted.telemetry) == 1
    assert sum(record.evals for record in planted.telemetry) == len(evaluations)

    evaluations.clear()
    calls = []
    budget = 150
    result = search_simultaneous(
        Observable(PAULI_X, name="A"), Observable(PAULI_Y, name="B"),
        probe_dim=2, restarts=3, seed=0, budget=budget,
        progress=lambda index, defect: calls.append((index, defect)),
    )
    assert [record.index for record in result.telemetry] == [0, 1, 2]
    assert [(record.index, record.defect) for record in result.telemetry] == calls
    for record in result.telemetry:
        assert 1 <= record.evals <= budget
        assert 0 <= record.accepted <= record.evals
        assert record.polish_wins >= 0 and record.step > 0 and record.wall_ms >= 0
    assert sum(record.evals for record in result.telemetry) == len(evaluations)
    assert result.telemetry[result.restart_index].defect == pytest.approx(result.defect, abs=1e-12)


def test_search_reports_nonzero_defect_when_budget_is_tiny():
    result = search_simultaneous(
        Observable(PAULI_X, name="A"), Observable(PAULI_Y, name="B"),
        probe_dim=2, restarts=1, seed=0, budget=50,
    )
    assert result.defect > 1e-8  # not solvable in 50 evaluations
    assert result.restart_index == 0
    # The witness model is still well-formed and certifiable.
    cert = measures_in_state(result.model, Observable(PAULI_X, name="A"),
                             result.map_a, result.psi)
    assert cert.defect <= result.defect + 1e-12


# ---------------------------------------------------------------------------
# The defect table the search ranks label maps by.


def _table_entry(problem, model, values, side, label_map, psi) -> float:
    """The search's defect for ``label_map`` of side 0 (A) or 1 (B) on
    ``model``, whose meter is diagonal in the probe basis and whose probe
    state is e_0."""
    slots = [int(np.argmin(np.abs(np.asarray(values) - label_map[m])))
             for m in np.diag(model.meter.matrix).real]
    one_hot = (np.array(slots)[None, None, :] == np.arange(len(values))[None, :, None]).astype(float)
    vectors = problem.outcome_vectors(model.unitary, psi)
    return float(problem.defects(vectors, problem.targets(psi)[side], one_hot)[0])


def _degenerate(n: int, rng) -> np.ndarray:
    v = random_unitary(n, rng)
    return v @ np.diag([0.0] * (n - 1) + [1.0]) @ v.conj().T


@pytest.mark.parametrize("n, k", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_defect_table_is_the_certificate_defect_of_every_label_map(n, k):
    rng = np.random.default_rng(100 + 10 * n + k)
    meter = Observable(np.diag(np.arange(1.0, k + 1.0)), name="M")
    for a_matrix in (random_hermitian(n, rng), _degenerate(n, rng)):
        a, b = Observable(a_matrix, name="A"), Observable(random_hermitian(n, rng), name="B")
        problem = _SearchProblem(a, b, k, DEFAULT_TOL)
        sides = problem.candidate_maps(rng)
        for _ in range(3):
            u, psi = random_unitary(n * k, rng), random_state(n, rng)
            vectors = problem.outcome_vectors(u, psi)
            for obs, values, targets, (maps, one_hot) in zip(
                    (a, b), (problem.vals_a, problem.vals_b), problem.targets(psi), sides):
                table = problem.defects(vectors, targets, one_hot)
                assert table.shape == (len(values) ** k,)
                for assignment, entry in zip(maps, table):
                    label_map = {float(m + 1): values[slot] for m, slot in enumerate(assignment)}
                    model = MeasurementModel(sys_dim=n, probe_dim=k, probe_state=problem.xi,
                                             unitary=u, meter=meter, label_maps={"f": label_map})
                    cert = measures_in_state(model, obs, label_map, psi)
                    assert entry == pytest.approx(cert.defect, abs=1e-12)


def test_defect_table_is_exact_near_zero(data_dir):
    # A Gram-matrix form of the table loses half the digits to cancellation:
    # it read 1.05e-8 for the fixture's fA, whose certificate defect is 3e-16.
    x, y = Observable(PAULI_X, name="A"), Observable(PAULI_Y, name="B")
    problem = _SearchProblem(x, y, 2, DEFAULT_TOL)
    fixture, fixture_psi = load_model(str(data_dir / "model_headline.json"), DEFAULT_TOL)
    # The X/Y search winner, restart 8 of seed 0, sits at 7.7e-10.
    found = search_simultaneous(x, y, probe_dim=2, restarts=1, seed=8)
    assert 1e-10 < found.defect < 1e-9
    for model, map_a, map_b, psi in (
            (fixture, fixture.label_maps["fA"], fixture.label_maps["fB"], fixture_psi),
            (found.model, found.map_a, found.map_b, found.psi)):
        for side, (obs, values, label_map) in enumerate(((x, problem.vals_a, map_a), (y, problem.vals_b, map_b))):
            entry = _table_entry(problem, model, values, side, label_map, psi)
            cert = measures_in_state(model, obs, label_map, psi)
            assert entry == pytest.approx(cert.defect, abs=1e-15)


# ---------------------------------------------------------------------------
# The search's kernels reproduce their first, set-up-per-call form bit for
# bit, so a seeded search follows the same trajectory to the same winner.


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_search_kernels_are_bit_identical_to_the_reference(n, k):
    rng = np.random.default_rng(7 + 10 * n + k)
    a = Observable(random_hermitian(n, rng), name="A")
    b = Observable(_degenerate(n, rng) if n > 2 else random_hermitian(n, rng), name="B")
    problem = _SearchProblem(a, b, k, DEFAULT_TOL)
    sides = problem.candidate_maps(rng)
    maps_a, maps_b = sides[0][0], sides[1][0]
    theta = np.concatenate([rng.normal(0.0, 0.6, size=problem.u_params),
                            rng.normal(0.0, 1.0, size=problem.s_params)])
    # A short walk of single-coordinate moves, as the pattern search makes,
    # through both the generator and the state parameters.
    for step in range(6):
        u = problem.unitary(theta)
        psi = _state_from_params(theta[problem.u_params:], n)
        assert np.array_equal(u, reference_unitary(theta[:problem.u_params], n * k))
        assert np.array_equal(psi, reference_state(theta[problem.u_params:], n))
        vectors = problem.outcome_vectors(u, psi)
        assert np.array_equal(vectors, reference_outcome_rows(problem, u, psi))
        for projections, targets, (maps, one_hot) in zip((problem.proj_a, problem.proj_b),
                                                          problem.targets(psi), sides):
            assert np.array_equal(targets, reference_target_rows(projections, psi, problem.xi))
            assert np.array_equal(problem.defects(vectors, targets, one_hot),
                                  reference_defects(problem, vectors, psi, projections, maps))
        value, map_a, map_b = problem.objective(theta, *sides)
        want, want_a, want_b = reference_objective(problem, theta, maps_a, maps_b)
        assert value == want
        assert np.array_equal(map_a, want_a) and np.array_equal(map_b, want_b)
        polished, reference = problem.polish(u, *sides), reference_polish(problem, u, maps_a, maps_b)
        assert polished[0] == reference[0]
        for got, expected in zip(polished[1:], reference[1:]):
            assert np.array_equal(got, expected)
        # Rows at the polished state, whose components eigh may leave real.
        assert np.array_equal(problem.outcome_vectors(u, polished[1]),
                              reference_outcome_rows(problem, u, reference[1]))
        # Both signs of the move, as the pattern search tries them: the
        # objective keeps psi and its target rows from the call before across
        # a generator move, and U across a state move.
        generator_move = step % 2 == 0
        index = rng.integers(problem.u_params) if generator_move else problem.u_params + step % problem.s_params
        def kept_parts():
            return (problem._psi, *problem._targets) if generator_move else (problem._u,)

        kept = kept_parts()
        for delta in (0.5 ** step, -0.5 ** step):
            candidate = theta.copy()
            candidate[index] += delta
            value, map_a, map_b = problem.objective(candidate, *sides)
            want, want_a, want_b = reference_objective(problem, candidate, maps_a, maps_b)
            assert value == want
            assert np.array_equal(map_a, want_a) and np.array_equal(map_b, want_b)
        assert all(now is before for now, before in zip(kept_parts(), kept))
        theta = candidate
