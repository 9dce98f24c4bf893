"""Regenerate the fixture files in this directory.

Run from anywhere: python3 tests/data/make_fixtures.py
"""

import json
import pathlib

import numpy as np

from qreal import CNOT, HADAMARD, KET_PLUS, KET_PLUS_I, PAULI_X, PAULI_Y, PAULI_Z
from qreal.standard import random_hermitian

HERE = pathlib.Path(__file__).parent


def matrix_body(matrix) -> dict:
    m = np.asarray(matrix, dtype=complex)
    return {
        "dim": m.shape[0],
        "matrix": [[[float(x.real), float(x.imag)] for x in row] for row in m],
    }


def state_body(vector) -> dict:
    v = np.asarray(vector, dtype=complex).reshape(-1)
    return {
        "dim": v.shape[0],
        "vector": [[float(x.real), float(x.imag)] for x in v],
    }


def dump(name: str, body: dict) -> None:
    with open(HERE / name, "w", encoding="utf-8") as handle:
        json.dump(body, handle, indent=2)
        handle.write("\n")


def main() -> None:
    dump("obs_sigma_x.json", matrix_body(PAULI_X))
    dump("obs_sigma_y.json", matrix_body(PAULI_Y))
    dump("obs_sigma_z.json", matrix_body(PAULI_Z))
    dump("obs_diag123.json", matrix_body(np.diag([1.0, 2.0, 3.0])))
    dump("obs_diag124.json", matrix_body(np.diag([1.0, 2.0, 4.0])))
    # With diag(1, 2, 3), a pair with no witness at probe dim 2: eigenvalues
    # -1, 1, 3, and no eigenvector has a zero entry, so each of the 9
    # candidate states is fixed by its pair; the least KD violation is 0.118.
    dump("obs_qutrit_b.json", matrix_body(np.array([[0, 1, 1j], [1, 1, 1], [-1j, 1, 2]])))
    # A generic four-level pair: at probe dim 3 each of its 16 (C, D) pairs
    # with |C| = |D| = 3 meets in a plane, so the search runs its ψ-search,
    # which reads the seed; no witness is known.
    rng = np.random.default_rng(11)
    dump("obs_quart_a.json", matrix_body(random_hermitian(4, rng)))
    dump("obs_quart_b.json", matrix_body(random_hermitian(4, rng)))
    dump("obs_nonhermitian.json", matrix_body(np.array([[0.0, 1.0], [0.0, 0.0]])))

    dump("state_zero2.json", state_body([1.0, 0.0]))
    dump("state_one2.json", state_body([0.0, 1.0]))
    dump("state_plus.json", state_body(KET_PLUS))
    dump("state_plus_i.json", state_body(KET_PLUS_I))
    dump("state_zero3.json", state_body([1.0, 0.0, 0.0]))
    dump("state_bad_norm.json", state_body([1.0, 0.0]) | {"vector": [[0.5, 0.0], [0.0, 0.0]]})

    eye2 = np.eye(2)
    dump("model_cnot.json", {
        "sys_dim": 2, "probe_dim": 2,
        "probe_state": state_body([1.0, 0.0]),
        "unitary": matrix_body(CNOT),
        "meter": matrix_body(PAULI_Z),
        "label_maps": {"f": [[-1.0, -1.0], [1.0, 1.0]]},
    })

    # One apparatus, two post-processings: certifies two nowhere-commuting
    # observables in the embedded state.
    coupling = np.kron(HADAMARD, eye2) @ CNOT @ np.kron(HADAMARD, eye2)
    dump("model_headline.json", {
        "sys_dim": 2, "probe_dim": 2,
        "probe_state": state_body([1.0, 0.0]),
        "unitary": matrix_body(coupling),
        "meter": matrix_body(PAULI_Z),
        "label_maps": {
            "fA": [[-1.0, -1.0], [1.0, 1.0]],
            "fB": [[-1.0, 1.0], [1.0, 1.0]],
        },
        "system_state": state_body(KET_PLUS_I),
    })

    # No coupling at all: the meter tosses its own coin, which happens to
    # match the Born statistics of sigma_x at |0>, yet certifies nothing.
    dump("model_uncoupled.json", {
        "sys_dim": 2, "probe_dim": 2,
        "probe_state": state_body([1.0, 0.0]),
        "unitary": matrix_body(np.eye(4)),
        "meter": matrix_body(PAULI_X),
        "label_maps": {"f": [[-1.0, -1.0], [1.0, 1.0]]},
    })

    bad = matrix_body(np.eye(4) * 1.001)
    dump("model_bad_unitary.json", {
        "sys_dim": 2, "probe_dim": 2,
        "probe_state": state_body([1.0, 0.0]),
        "unitary": bad,
        "meter": matrix_body(PAULI_Z),
        "label_maps": {"f": [[-1.0, -1.0], [1.0, 1.0]]},
    })


if __name__ == "__main__":
    main()
