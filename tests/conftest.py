import pathlib
from collections import Counter

import numpy as np
import pytest

from qreal import CNOT, HADAMARD, PAULI_X, PAULI_Z, MeasurementModel, Observable


@pytest.fixture(scope="session")
def data_dir() -> pathlib.Path:
    return pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def cnot_model() -> MeasurementModel:
    """Probe reads the system's computational basis; certifies sigma_z."""
    return MeasurementModel(
        sys_dim=2, probe_dim=2,
        probe_state=np.array([1.0, 0.0]),
        unitary=CNOT,
        meter=Observable(PAULI_Z, name="M"),
        label_maps={"f": {-1.0: -1.0, 1.0: 1.0}},
    )


@pytest.fixture(scope="session")
def headline_model() -> MeasurementModel:
    """One apparatus whose meter output is X (x) Z: reads sigma_x exactly in
    every state, and any +1-eigenstate observable through the constant map."""
    coupling = np.kron(HADAMARD, np.eye(2)) @ CNOT @ np.kron(HADAMARD, np.eye(2))
    return MeasurementModel(
        sys_dim=2, probe_dim=2,
        probe_state=np.array([1.0, 0.0]),
        unitary=coupling,
        meter=Observable(PAULI_Z, name="M"),
        label_maps={
            "fA": {-1.0: -1.0, 1.0: 1.0},
            "fB": {-1.0: 1.0, 1.0: 1.0},
        },
    )


@pytest.fixture(scope="session")
def uncoupled_model() -> MeasurementModel:
    """U = 1: meter statistics are independent of the system state."""
    return MeasurementModel(
        sys_dim=2, probe_dim=2,
        probe_state=np.array([1.0, 0.0]),
        unitary=np.eye(4),
        meter=Observable(PAULI_X, name="M"),
        label_maps={"f": {-1.0: -1.0, 1.0: 1.0}},
    )


@pytest.fixture
def eigh_inputs(monkeypatch) -> Counter:
    """Counts every matrix handed to ``np.linalg.eigh``, keyed by (shape, bytes)."""
    seen = Counter()
    eigh = np.linalg.eigh

    def recording(matrix, *args, **kwargs):
        m = np.asarray(matrix)
        seen[(m.shape, m.tobytes())] += 1
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return seen
