import contextlib
import functools
import multiprocessing
import os
import pickle
import signal
import threading
import time
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from qreal import measure
from qreal.cli import load_model
from qreal.errors import DimMismatchError
from qreal.measure import _POLL_BATCH, _pattern_search, _SearchProblem, _state_from_params
from qreal.standard import random_hermitian, random_state, random_unitary

from corpus import (
    kd_distribution,
    reference_defects,
    reference_objective,
    reference_outcome_rows,
    reference_pattern_search,
    reference_polish,
    reference_state,
    reference_target_rows,
    reference_unitary,
    serial_search,
)


def _records(result):
    """The telemetry as dicts, without the one field a rerun may change."""
    return [{**asdict(record), "wall_ms": None} for record in result.telemetry]


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
    assert _records(plain) == _records(watched)


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
    # evals counts the polls the search reads: every value of a polls call
    # up to the first accepted one, not the batched ones it drops.
    evaluations = []
    polls = _SearchProblem.polls

    def counted_polls(self, here, moves, side_a, side_b):
        values, maps_a, maps_b, iterate = polls(self, here, moves, side_a, side_b)

        def read():
            for value in values:
                evaluations.append(1)
                yield value

        return read(), maps_a, maps_b, iterate

    monkeypatch.setattr(_SearchProblem, "polls", counted_polls)
    # The counter sees only evaluations made in this process.
    monkeypatch.setattr(measure, "_search_workers", lambda restarts: 1)
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
# Restarts run in forked worker processes and are read back in index order,
# so the record, the telemetry and the progress calls are the serial loop's.

def _hermitian_pair(dim: int, seed: int):
    rng = np.random.default_rng(seed)
    return random_hermitian(dim, rng), random_hermitian(dim, rng)


_CASES = {
    # X/Y at the defaults: restart 8 is the first to reach eq_tol.
    "headline": (PAULI_X, PAULI_Y, {}),
    # Z and 3Z: restart 0 certifies, so no other restart is read.
    "planted": (PAULI_Z, 3 * PAULI_Z, {"restarts": 5}),
    # X/Y on a budget of 150: no restart certifies and the minimum wins.
    "short": (PAULI_X, PAULI_Y, {"restarts": 3, "budget": 150}),
    # Larger joint spaces, whose sweeps cross more poll batches.
    "qutrit-k3": (*_hermitian_pair(3, 5), {"probe_dim": 3, "restarts": 3, "budget": 1500}),
    "qubit-k4": (PAULI_X, PAULI_Y, {"probe_dim": 4, "restarts": 3, "budget": 1500}),
    # 36 label maps a side: past _POLL_ENTRIES, so every poll runs alone.
    "six-level": (*_hermitian_pair(6, 106), {"restarts": 2, "budget": 300}),
}


def _run_case(search, case: str, progress=None):
    """``search`` on ``case`` at seed 0 and, unless the case names its own,
    probe dimension 2; the result and the (index, defect) progress calls."""
    a_matrix, b_matrix, options = _CASES[case]
    calls = []

    def record(index, defect):
        calls.append((index, defect))
        if progress is not None:
            progress(index, defect)

    result = search(Observable(a_matrix, name="A"), Observable(b_matrix, name="B"),
                    seed=0, progress=record, **{"probe_dim": 2, **options})
    return result, calls


@functools.lru_cache(maxsize=None)
def _reference(case: str):
    return _run_case(serial_search, case)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_search_is_bit_identical_to_the_serial_loop(monkeypatch, case, workers):
    monkeypatch.setattr(measure, "_search_workers", lambda restarts: workers)
    reference, reference_calls = _reference(case)
    result, calls = _run_case(search_simultaneous, case)
    assert calls == reference_calls
    assert np.array_equal(result.model.unitary, reference.model.unitary)
    assert np.array_equal(result.psi, reference.psi)
    assert result.map_a == reference.map_a and result.map_b == reference.map_b
    assert result.defect == reference.defect
    assert result.restart_index == reference.restart_index
    assert _records(result) == _records(reference)
    assert calls == [(record.index, record.defect) for record in result.telemetry]
    if case == "headline":
        assert result.restart_index == 8 and len(calls) == 9
        assert result.defect == float.fromhex("0x1.a50c4c252a281p-31")
        assert sum(record.evals for record in result.telemetry) == 23205
    elif case == "planted":
        assert result.restart_index == 0 and len(calls) == 1
    else:
        assert len(calls) == _CASES[case][2]["restarts"] and result.defect > DEFAULT_TOL.eq_tol


class _Stop(Exception):
    pass


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail, rather than hang, a search left waiting on a worker."""
    def expire(signum, frame):
        raise TimeoutError(f"search still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_search_leaves_no_worker_process(monkeypatch):
    monkeypatch.setattr(measure, "_search_workers", lambda restarts: 2)
    for case in ("planted", "short"):  # a success, then a search that falls short
        _run_case(search_simultaneous, case)
        assert multiprocessing.active_children() == []

    def stop_at_one(index, defect):
        if index == 1:
            raise _Stop

    with pytest.raises(_Stop):
        _run_case(search_simultaneous, "short", progress=stop_at_one)
    assert multiprocessing.active_children() == []

    # A restart that raises in its worker raises here, after restart 0, which
    # ran in this process, is read; the other worker, still busy, is
    # terminated, not waited for.
    pattern_search = measure._pattern_search

    def failing(problem, rng, budget, index):
        if index == 1:
            raise _Stop
        if index == 2:
            time.sleep(600)
        return pattern_search(problem, rng, budget, index)

    monkeypatch.setattr(measure, "_pattern_search", failing)
    seen = []
    with _deadline(60), pytest.raises(_Stop):
        _run_case(search_simultaneous, "short", progress=lambda index, defect: seen.append(index))
    assert seen == [0]
    assert multiprocessing.active_children() == []


def test_a_search_won_by_restart_zero_forks_nothing(monkeypatch):
    def no_workers(restarts):
        raise AssertionError("asked for workers")

    monkeypatch.setattr(measure, "_search_workers", no_workers)
    result, calls = _run_case(search_simultaneous, "planted")
    assert result.restart_index == 0 and calls == _reference("planted")[1]


def test_a_worker_killed_from_outside_raises_and_leaves_no_process(monkeypatch):
    monkeypatch.setattr(measure, "_search_workers", lambda restarts: 2)
    pattern_search = measure._pattern_search

    def killed(problem, rng, budget, index):
        if index == 2:  # the second worker's only restart
            os.kill(os.getpid(), signal.SIGKILL)
        return pattern_search(problem, rng, budget, index)

    monkeypatch.setattr(measure, "_pattern_search", killed)
    seen = []
    with _deadline(60), pytest.raises(ChildProcessError, match="restart 2 died .exit code -9"):
        _run_case(search_simultaneous, "short", progress=lambda index, defect: seen.append(index))
    assert seen == [0, 1]
    assert multiprocessing.active_children() == []


def test_search_forks_only_where_it_may():
    cpus = len(os.sched_getaffinity(0))
    assert measure._search_workers(20) == min(20, cpus)
    assert measure._search_workers(1) == 1

    seen = []
    thread = threading.Thread(target=lambda: seen.append(measure._search_workers(20)))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive() and seen == [1]

    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    child = context.Process(target=lambda: writer.send(measure._search_workers(20)), daemon=True)
    child.start()
    assert reader.poll(10) and reader.recv() == 1
    child.join(timeout=10)
    assert child.exitcode == 0


@pytest.mark.parametrize("case", sorted(_CASES))
def test_every_search_winner_meets_the_kirkwood_dirac_necessity_bound(case):
    """Let q(c, d) = ⟨ψ|E^A(c) E^B(d)|ψ⟩, Ψ = ψ⊗ξ and P_c = U†(1⊗F_c)U with
    F_c the sum of the meter projections E_m over f(m) = c; likewise Q_d
    with G_d over g(m) = d.  Both certificates within δ give P_cΨ = E^A(c)ψ⊗ξ
    + a_c and Q_dΨ = E^B(d)ψ⊗ξ + b_d with ‖a_c‖, ‖b_d‖ ≤ δ, so
    q(c, d) = ⟨P_cΨ, Q_dΨ⟩ − ⟨a_c, Q_dΨ⟩ − ⟨P_cΨ, b_d⟩ + ⟨a_c, b_d⟩, whose
    last three terms are at most δ, δ and δ² in modulus (‖Ψ‖ = 1, P_c and
    Q_d projections).  The meter's E_m are orthogonal, so F_c G_d is the sum
    of E_m over f(m) = c, g(m) = d, and ⟨P_cΨ, Q_dΨ⟩ = Σ ‖(1⊗E_m)UΨ‖² is
    real and non-negative.  Hence, with s = 2δ + δ²: Re q ≥ −s, |Im q| ≤ s,
    and an entry with |q| > s has an outcome m of its own, so at most k do.
    The bound holds for every δ, so losers must meet it too."""
    a_matrix, b_matrix, _ = _CASES[case]
    result, _ = _reference(case)
    q = kd_distribution(Observable(a_matrix, name="A"), Observable(b_matrix, name="B"), result.psi)
    delta = result.defect
    slack = 2 * delta + delta ** 2
    assert q.real.min() >= -slack
    assert np.abs(q.imag).max() <= slack
    above = int(np.count_nonzero(np.abs(q) > slack))
    assert above <= result.model.probe_dim
    # The headline ψ is a Y eigenstate, q = [[0, 1/2], [0, 1/2]]; the planted
    # winner is a Z eigenstate; the short loser's slack exceeds every entry.
    assert above == {"headline": 2, "planted": 1, "short": 0, "qutrit-k3": 1, "qubit-k4": 1,
                     "six-level": 0}[case]


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
        here = problem.start(theta)
        _, u, psi, targets = here
        assert np.array_equal(u, reference_unitary(theta[:problem.u_params], n * k))
        assert np.array_equal(psi, reference_state(theta[problem.u_params:], n))
        assert np.array_equal(psi, _state_from_params(theta[problem.u_params:], n))
        vectors = problem.outcome_vectors(u, psi)
        assert np.array_equal(vectors, reference_outcome_rows(problem, u, psi))
        for projections, rows, (maps, one_hot) in zip((problem.proj_a, problem.proj_b), targets, sides):
            assert np.array_equal(rows, reference_target_rows(projections, psi, problem.xi))
            assert np.array_equal(problem.defects(vectors, rows, one_hot),
                                  reference_defects(problem, vectors, psi, projections, maps))
        polished, reference = problem.polish(u, *sides), reference_polish(problem, u, maps_a, maps_b)
        assert polished[0] == reference[0]
        for got, expected in zip(polished[1:], reference[1:]):
            assert np.array_equal(got, expected)
        # Rows at the polished state, whose components eigh may leave real.
        assert np.array_equal(problem.outcome_vectors(u, polished[1]),
                              reference_outcome_rows(problem, u, reference[1]))
        # The null move, which reads the value at the iterate itself, then
        # both signs of the move, one poll each, as a ride polls them.  A
        # generator move keeps the iterate's psi and its target rows, a state
        # move its U.
        generator_move = step % 2 == 0
        index = rng.integers(problem.u_params) if generator_move else problem.u_params + step % problem.s_params
        for delta in (-0.0, 0.5 ** step, -0.5 ** step):
            (value,), (map_a,), (map_b,), iterate = problem.polls(here, [(index, delta)], *sides)
            point = iterate(0)
            candidate = theta.copy()
            candidate[index] += delta
            want, want_a, want_b = reference_objective(problem, candidate, maps_a, maps_b)
            assert value == want
            assert np.array_equal(map_a, want_a) and np.array_equal(map_b, want_b)
            _assert_same_iterate(point, problem.start(candidate))
            assert (point[2] is psi and point[3] is targets) if generator_move else point[1] is u
        theta = candidate


def _assert_same_iterate(got, want):
    """Two iterates (theta, U, psi, target rows) hold the same bytes."""
    got_theta, got_u, got_psi, got_targets = got
    want_theta, want_u, want_psi, want_targets = want
    for left, right in ((got_theta, want_theta), (got_u, want_u), (got_psi, want_psi),
                        *zip(got_targets, want_targets)):
        assert left.shape == right.shape and left.tobytes() == right.tobytes()


def test_a_restart_leaves_the_search_problem_unchanged():
    # The restarts share one problem and own their iterates, so a restart,
    # run here in this process, changes no byte of any attribute.
    problem = _SearchProblem(Observable(PAULI_X, name="A"), Observable(PAULI_Y, name="B"), 2, DEFAULT_TOL)

    def snapshot():
        return {name: pickle.dumps(value) for name, value in vars(problem).items()}

    before = snapshot()
    for index in range(2):
        _pattern_search(problem, np.random.default_rng(index), 300, index)
        assert snapshot() == before


# ---------------------------------------------------------------------------
# Batched polls and the stacked polish reproduce the one-point search: each
# restart's record, and each poll and polish value, bit for bit.


def test_batched_polls_reproduce_the_restarts_past_the_headline_winner():
    # The headline search stops at restart 8, so only here are restarts 9-19
    # compared with the one-point search.
    problem = _SearchProblem(Observable(PAULI_X, name="A"), Observable(PAULI_Y, name="B"), 2, DEFAULT_TOL)
    for index in range(9, 20):
        records = []
        for pattern_search in (_pattern_search, reference_pattern_search):
            u, psi, map_a, map_b, record = pattern_search(problem, np.random.default_rng(index), 3000, index)
            records.append((u.tobytes(), psi.tobytes(), np.asarray(map_a).tobytes(),
                            np.asarray(map_b).tobytes(), {**asdict(record), "wall_ms": None}))
        assert records[0] == records[1], index


@st.composite
def poll_batches(draw):
    """A problem at n in {2, 3, 4}, k in {2, 3, 4}, a point, and a run of the
    sweep's polls from a drawn position, across the generator/state border
    as often as not."""
    n, k = draw(st.sampled_from([2, 3, 4])), draw(st.sampled_from([2, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = Observable(random_hermitian(n, rng), name="A")
    b = Observable(_degenerate(n, rng) if draw(st.booleans()) else random_hermitian(n, rng), name="B")
    problem = _SearchProblem(a, b, k, DEFAULT_TOL)
    sides = problem.candidate_maps(rng)
    theta = np.concatenate([rng.normal(0.0, 0.6, size=problem.u_params),
                            rng.normal(0.0, 1.0, size=problem.s_params)])
    sweep = 2 * theta.size
    border = 2 * problem.u_params
    first = draw(st.integers(max(0, border - _POLL_BATCH), sweep - 1) | st.integers(0, sweep - 1))
    count = draw(st.integers(1, min(_POLL_BATCH, sweep - first)))
    step = 0.5 ** draw(st.integers(1, 34))
    moves = [(p // 2, -step if p % 2 else step) for p in range(first, first + count)]
    return problem, sides, theta, moves


@settings(max_examples=60, deadline=None)
@given(poll_batches())
def test_batched_polls_are_the_objective_of_each_candidate(batch):
    # Each poll's value and map rows are the reference objective's at its
    # candidate, and the iterate it returns, which an accepted poll becomes,
    # is the one start builds there, bit for bit.
    problem, sides, theta, moves = batch
    maps_a, maps_b = sides[0][0], sides[1][0]
    values, rows_a, rows_b, iterate = problem.polls(problem.start(theta), moves, *sides)
    assert len(values) == len(moves)
    for j, ((i, delta), value, row_a, row_b) in enumerate(zip(moves, values, rows_a, rows_b)):
        candidate = theta.copy()
        candidate[i] += delta
        want, want_a, want_b = reference_objective(problem, candidate, maps_a, maps_b)
        assert np.array_equal(value, want)
        assert np.array_equal(row_a, want_a) and np.array_equal(row_b, want_b)
        _assert_same_iterate(iterate(j), problem.start(candidate))


@settings(max_examples=40, deadline=None)
@given(poll_batches())
def test_stacked_polish_is_the_pairwise_polish(batch):
    problem, sides, theta, _ = batch
    u = problem.start(theta)[1]
    polished, reference = problem.polish(u, *sides), reference_polish(problem, u, sides[0][0], sides[1][0])
    assert polished[0] == reference[0]
    for got, expected in zip(polished[1:], reference[1:]):
        assert np.array_equal(got, expected)
