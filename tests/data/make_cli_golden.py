"""Record cli_golden.json: the exact output of `qreal measure` and
`qreal context` on the fixture files, the headline witness and one seeded
n = k = 4 model.

tests/test_cli_golden.py replays every case and compares stdout, stderr and
the exit code byte for byte, so a change that is meant to leave the CLI's
answers alone can be checked against the answers recorded before it.
Record with the code whose output is to be pinned on the path:

    PYTHONPATH=src python3 tests/data/make_cli_golden.py

Argument paths are written with the placeholders {data} (this directory) and
{work} (a scratch directory holding the generated files stored under
"files"); the same placeholders stand for those directories in stderr.
"""

import contextlib
import io
import json
import pathlib
import tempfile

import numpy as np

from qreal import cli
from qreal.cli import _matrix_body, _state_body
from qreal.standard import random_unitary

HERE = pathlib.Path(__file__).parent
OUT = HERE / "cli_golden.json"

MODELS = {
    "model_cnot": [("Z", "obs_sigma_z", "f"), ("X", "obs_sigma_x", "f")],
    "model_headline": [("X", "obs_sigma_x", "fA"), ("Y", "obs_sigma_y", "fB")],
    "model_uncoupled": [("X", "obs_sigma_x", "f"), ("Z", "obs_sigma_z", "f")],
    "model_bad_unitary": [("Z", "obs_sigma_z", "f"), ("X", "obs_sigma_x", "f")],
}
STATES = ["state_zero2", "state_one2", "state_plus", "state_plus_i", "state_zero3", "state_bad_norm"]


def measure_argv(model: str, state: str, observables) -> list[str]:
    argv = ["measure", model, "--state", state]
    for name, path, map_name in observables:
        argv += ["--observable", f"{name}={path}", "--map", map_name]
    return argv


def context_argv(model: str, observables, state: str | None) -> list[str]:
    (_, a, map_a), (_, b, map_b) = observables
    argv = ["context", model, a, map_a, b, map_b]
    return argv if state is None else argv + ["--state", state]


def fixture_cases() -> list[list[str]]:
    cases = []
    for model, observables in MODELS.items():
        obs = [(name, f"{{data}}/{path}.json", m) for name, path, m in observables]
        for state in STATES:
            model_path, state_path = f"{{data}}/{model}.json", f"{{data}}/{state}.json"
            cases.append(measure_argv(model_path, state_path, obs))
            cases.append(measure_argv(model_path, state_path, obs[:1]))
            cases.append(context_argv(model_path, obs, state_path))
        cases.append(context_argv(f"{{data}}/{model}.json", obs, None))
        cases.append(context_argv(f"{{data}}/{model}.json", obs, None) + ["--pretty"])
    xz = [("X", "{data}/obs_sigma_x.json", "f"), ("Z", "{data}/obs_sigma_z.json", "g")]
    return cases + [
        measure_argv("{data}/model_cnot.json", "{data}/state_plus.json", xz),
        context_argv("{data}/model_cnot.json", xz, "{data}/state_plus.json"),
        measure_argv("{data}/missing.json", "{data}/state_plus.json", xz[:1]),
        measure_argv("{data}/model_cnot.json", "{data}/state_plus.json", xz[:1]) + ["--map", "f"],
    ]


def copy_gate(v: np.ndarray) -> np.ndarray:
    """U = (V⊗1) C (V†⊗1) with C|i, j> = |i, i+j mod n>: the meter reads V's basis index."""
    n = v.shape[0]
    c = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            c[i * n + (i + j) % n, i * n + j] = 1.0
    lift = np.kron(v, np.eye(n))
    return lift @ c @ lift.conj().T


def seeded_files(rng: np.random.Generator) -> dict[str, dict]:
    """One n = k = 4 model whose copy gate certifies A, with an unrelated B."""
    n = 4
    v, w = random_unitary(n, rng), random_unitary(n, rng)
    a_vals, b_vals = np.array([-2.0, -1.0, 0.0, 1.0]), np.array([0.5, 1.5, 2.5, 3.5])
    state = rng.normal(size=n) + 1j * rng.normal(size=n)
    return {
        "n4-model.json": {
            "sys_dim": n, "probe_dim": n,
            "probe_state": _state_body(np.eye(n, dtype=complex)[0]),
            "unitary": _matrix_body(copy_gate(v)),
            "meter": _matrix_body(np.diag(np.arange(1.0, n + 1)).astype(complex)),
            "label_maps": {
                "fA": [[float(m + 1), float(a_vals[m])] for m in range(n)],
                "fB": [[float(m + 1), float(b_vals[m])] for m in range(n)],
            },
        },
        "n4-a.json": _matrix_body((v * a_vals) @ v.conj().T),
        "n4-b.json": _matrix_body((w * b_vals) @ w.conj().T),
        "n4-state.json": _state_body(state / np.linalg.norm(state)),
        "w-state.json": _state_body(np.array([0.6, 0.8j])),
    }


def seeded_cases() -> list[list[str]]:
    n4 = [("A", "{work}/n4-a.json", "fA"), ("B", "{work}/n4-b.json", "fB")]
    xy = [("X", "{data}/obs_sigma_x.json", "fA"), ("Y", "{data}/obs_sigma_y.json", "fB")]
    return [
        measure_argv("{work}/n4-model.json", "{work}/n4-state.json", n4),
        context_argv("{work}/n4-model.json", n4, "{work}/n4-state.json"),
        context_argv("{work}/witness.json", xy, None),
        context_argv("{work}/witness.json", xy, None) + ["--pretty"],
        context_argv("{work}/witness.json", xy, "{work}/w-state.json"),
        measure_argv("{work}/witness.json", "{work}/w-state.json", xy),
        measure_argv("{work}/witness.json", "{data}/state_plus.json", xy),
    ]


def expand(argv: list[str], places: dict[str, str]) -> list[str]:
    return [arg.format(**places) for arg in argv]


def call(argv: list[str], places: dict[str, str]) -> dict:
    """Run ``qreal.cli.main`` in-process; stderr with the directories put back as placeholders."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(expand(argv, places))
    stderr = err.getvalue()
    for key, path in places.items():
        stderr = stderr.replace(path, f"{{{key}}}")
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": stderr}


def headline_witness(work: pathlib.Path) -> str:
    """The text `qreal search` writes for the headline X/Y search (probe dim 2, seed 0)."""
    path = work / "witness.json"
    call(["search", "{data}/obs_sigma_x.json", "{data}/obs_sigma_y.json", "--probe-dim", "2",
          "--out", str(path)], {"data": str(HERE)})
    return path.read_text(encoding="utf-8")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        files = {name: json.dumps(body, indent=2) + "\n"
                 for name, body in seeded_files(np.random.default_rng(4)).items()}
        files["witness.json"] = headline_witness(work)
        for name, text in files.items():
            (work / name).write_text(text, encoding="utf-8")
        places = {"data": str(HERE), "work": str(work)}
        cases = [call(argv, places) for argv in fixture_cases() + seeded_cases()]
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump({"files": files, "cases": cases}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
