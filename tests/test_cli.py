import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qreal
import qreal.cli
from corpus import nowhere_pair, random_model_parts
from qreal.cli import _matrix_body, _state_body, main
from qreal.numlin import DEFAULT_TOL, ToleranceConfig, frobenius
from qreal.standard import random_hermitian, random_state, random_unitary

SCHEMA_DIR = pathlib.Path(qreal.__file__).parent / "schemas"


def schema(name: str) -> dict:
    with open(SCHEMA_DIR / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_cli(capsys, *argv) -> tuple[int, dict | None, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip().startswith("{") else None
    return code, payload, captured.err


# ---------------------------------------------------------------------------
# eval


def test_eval_holds(data_dir, capsys):
    code, out, _ = run_cli(
        capsys, "eval", "D in {1}",
        "--obs", f"D={data_dir / 'obs_diag123.json'}",
        "--state", str(data_dir / "state_zero3.json"),
    )
    assert code == 0
    assert out == {"probability": 1.0, "holds": True, "projection_rank": 1}
    jsonschema.validate(out, schema("eval_output"))


def test_eval_fails(data_dir, capsys):
    code, out, _ = run_cli(
        capsys, "eval", "D in {2, 3}",
        "--obs", f"D={data_dir / 'obs_diag123.json'}",
        "--state", str(data_dir / "state_zero3.json"),
    )
    assert code == 1
    assert out["holds"] is False and out["probability"] == 0.0


def test_eval_compound_formula(data_dir, capsys):
    code, out, _ = run_cli(
        capsys, "eval", "[X = Y] | com(X, Y)",
        "--obs", f"X={data_dir / 'obs_sigma_x.json'}",
        "--obs", f"Y={data_dir / 'obs_sigma_y.json'}",
        "--state", str(data_dir / "state_plus.json"),
    )
    assert code == 1
    assert out["projection_rank"] == 0


@pytest.mark.parametrize("formula,code,probability,rank", [
    # X = 1 and Z = 1 are different lines, as are X = -1 and Z = -1.
    ("X in {1} <-> Z in {1}", 1, 0.0, 0),
    ("Z in {1} <-> Z in {1}", 0, 1.0, 2),
    # The hook from |0> to its orthocomplement is |1>.
    ("Z in {1} -> Z in {-1}", 1, 0.5, 1),
])
def test_eval_hook_and_biconditional(data_dir, capsys, formula, code, probability, rank):
    got = run_cli(
        capsys, "eval", formula,
        "--obs", f"X={data_dir / 'obs_sigma_x.json'}",
        "--obs", f"Z={data_dir / 'obs_sigma_z.json'}",
        "--state", str(data_dir / "state_plus.json"),
    )
    want = {"probability": pytest.approx(probability), "holds": code == 0, "projection_rank": rank}
    assert got[:2] == (code, want)


def test_eval_error_paths(data_dir, capsys):
    code, _, err = run_cli(
        capsys, "eval", "E in {1}",
        "--obs", f"D={data_dir / 'obs_diag123.json'}",
        "--state", str(data_dir / "state_zero3.json"),
    )
    assert code == 2 and "E" in err

    code, _, err = run_cli(
        capsys, "eval", "D in",
        "--obs", f"D={data_dir / 'obs_diag123.json'}",
        "--state", str(data_dir / "state_zero3.json"),
    )
    assert code == 2 and "offset 4" in err

    code, _, err = run_cli(
        capsys, "eval", "D in {1}",
        "--obs", f"D={data_dir / 'obs_diag123.json'}",
        "--state", str(data_dir / "state_bad_norm.json"),
    )
    assert code == 2 and "norm" in err

    code, _, err = run_cli(
        capsys, "eval", "D in {1}",
        "--obs", f"D={data_dir / 'obs_nonhermitian.json'}",
        "--state", str(data_dir / "state_zero2.json"),
    )
    assert code == 2 and "Hermitian" in err

    code, _, err = run_cli(
        capsys, "eval", "D in {1}",
        "--obs", "D=/nonexistent/path.json",
        "--state", str(data_dir / "state_zero3.json"),
    )
    assert code == 2


def _eval_sigma_z(capsys, data_dir, formula):
    return run_cli(capsys, "eval", formula, "--obs", f"A={data_dir / 'obs_sigma_z.json'}",
                   "--state", str(data_dir / "state_plus.json"))


def test_eval_of_nested_parentheses_answers_as_without_them(data_dir, capsys):
    want = _eval_sigma_z(capsys, data_dir, "A in {1}")
    assert want[:2] == (1, {"probability": pytest.approx(0.5), "holds": False, "projection_rank": 1})
    assert _eval_sigma_z(capsys, data_dir, "(" * 200 + "A in {1}" + ")" * 200) == want


@pytest.mark.parametrize("formula,message", [
    ("(" * 50_000 + "A in {1}" + ")" * 50_000, "expected a less deeply nested formula, found ("),
    ("~" * 50_000 + "A in {1}", "expected a less deeply nested formula, found ~"),
    # Parses (a connective chain folds in a loop), but evaluates recursively.
    (" & ".join(["A in {1}"] * 5_000), "formula too deep to evaluate"),
], ids=["parentheses", "negations", "conjunctions"])
def test_eval_of_too_deep_a_formula_exits_two(data_dir, capsys, formula, message):
    # Exit 1 would read as "predicate false", so a too-deep formula is a
    # usage error: exit 2, nothing on stdout and one error line.
    code, out, err = _eval_sigma_z(capsys, data_dir, formula)
    assert (code, out) == (2, None)
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# ---------------------------------------------------------------------------
# jointdet / jpd / com


def test_jointdet_paths(data_dir, capsys):
    code, out, _ = run_cli(
        capsys, "jointdet",
        str(data_dir / "obs_diag123.json"), str(data_dir / "obs_diag124.json"),
        "--state", str(data_dir / "state_zero3.json"),
    )
    assert code == 0
    assert out == {"determinate": True, "com_rank": 3}
    jsonschema.validate(out, schema("jointdet_output"))

    code, out, _ = run_cli(
        capsys, "jointdet",
        str(data_dir / "obs_sigma_x.json"), str(data_dir / "obs_sigma_y.json"),
        "--state", str(data_dir / "state_plus.json"),
    )
    assert code == 1
    assert out == {"determinate": False, "com_rank": 0}


def test_jpd_paths(data_dir, capsys):
    code, out, _ = run_cli(
        capsys, "jpd",
        str(data_dir / "obs_diag123.json"), str(data_dir / "obs_diag124.json"),
        "--state", str(data_dir / "state_zero3.json"),
    )
    assert code == 0 and out["exists"] is True
    jsonschema.validate(out, schema("jpd_output"))
    table = {(row[0], row[1]): row[2] for row in out["candidate"]}
    assert table[(1.0, 1.0)] == pytest.approx(1.0)

    code, out, _ = run_cli(
        capsys, "jpd",
        str(data_dir / "obs_sigma_x.json"), str(data_dir / "obs_sigma_y.json"),
        "--state", str(data_dir / "state_plus.json"),
    )
    assert code == 1 and out["exists"] is False


def test_com_paths(data_dir, capsys):
    code, out, _ = run_cli(
        capsys, "com",
        str(data_dir / "obs_sigma_x.json"), str(data_dir / "obs_sigma_y.json"),
    )
    assert code == 0
    assert out == {"rank": 0, "nowhere_commuting": True}
    jsonschema.validate(out, schema("com_output"))

    code, out, _ = run_cli(
        capsys, "com",
        str(data_dir / "obs_diag123.json"), str(data_dir / "obs_diag124.json"),
    )
    assert code == 1
    assert out == {"rank": 3, "nowhere_commuting": False}


def _write_json(path: pathlib.Path, body: dict) -> str:
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


def test_com_on_generic_d32_pair(tmp_path, capsys):
    # 64 spectral projections stack 2016 commutators into a 64512x32 matrix.
    a, b = nowhere_pair(np.random.default_rng(97), 32)
    code, out, err = run_cli(capsys, "com", _write_json(tmp_path / "a.json", _matrix_body(a)),
                             _write_json(tmp_path / "b.json", _matrix_body(b)))
    assert (code, out, err) == (0, {"rank": 0, "nowhere_commuting": True}, "")


def test_com_with_entries_near_float_max(data_dir, tmp_path, capsys):
    huge = _write_json(tmp_path / "huge.json", _matrix_body(np.diag([1.0, 1e308])))
    code, out, err = run_cli(capsys, "com", huge, str(data_dir / "obs_sigma_x.json"))
    assert (code, out, err) == (0, {"rank": 0, "nowhere_commuting": True}, "")


@pytest.mark.parametrize("matrix", [[[1.5e308, 1.5e308], [0.0, 1.5e308]], [[0.0, 1e308], [-1e308, 0.0]]],
                         ids=["norm overflows", "anti-Hermitian"])
def test_non_hermitian_matrices_near_float_max_exit_two(data_dir, tmp_path, capsys, matrix):
    path = _write_json(tmp_path / "huge.json", _matrix_body(np.array(matrix)))
    code, out, err = run_cli(capsys, "eval", "A in {1}", "--obs", f"A={path}",
                             "--state", str(data_dir / "state_zero2.json"))
    assert code == 2 and out is None
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err
    # The same matrix as a model's meter names the model file.
    model = json.loads((data_dir / "model_cnot.json").read_text(encoding="utf-8"))
    model["meter"] = _matrix_body(np.array(matrix))
    path = _write_json(tmp_path / "model.json", model)
    code, out, err = run_cli(capsys, "measure", path, "--state", str(data_dir / "state_zero2.json"))
    assert code == 2 and out is None
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


def test_loaders_reject_bodies_that_are_not_lists(data_dir, tmp_path, capsys):
    sigma_x = str(data_dir / "obs_sigma_x.json")
    for name, matrix in (("scalar", 5), ("flat", [5, 6]), ("null", None)):
        bad = _write_json(tmp_path / f"{name}.json", {"dim": 2, "matrix": matrix})
        code, out, err = run_cli(capsys, "com", bad, sigma_x)
        assert code == 2 and out is None and err.startswith("error:"), name

    for name, vector in (("null", None), ("scalar", 1.0), ("string", "ab")):
        bad = _write_json(tmp_path / f"state_{name}.json", {"dim": 2, "vector": vector})
        code, out, err = run_cli(capsys, "jointdet", sigma_x, sigma_x, "--state", bad)
        assert code == 2 and out is None and err.startswith("error:"), name

    # JSON true is a Python int subclass; the schemas ask for an integer.
    one_by_one = _write_json(tmp_path / "bool_dim.json", {"dim": True, "matrix": [[[1, 0]]]})
    code, out, err = run_cli(capsys, "com", one_by_one, one_by_one)
    assert code == 2 and out is None and err.startswith("error:") and "'dim'" in err
    bad = _write_json(tmp_path / "state_bool_dim.json", {"dim": True, "vector": [[1, 0]]})
    code, out, err = run_cli(capsys, "jointdet", one_by_one, one_by_one, "--state", bad)
    assert code == 2 and out is None and err.startswith("error:") and "'dim'" in err
    for key in ("sys_dim", "probe_dim"):
        model = json.loads((data_dir / "model_cnot.json").read_text(encoding="utf-8"))
        model[key] = True
        code, out, err = run_cli(
            capsys, "measure", _write_json(tmp_path / f"model_{key}.json", model),
            "--state", str(data_dir / "state_zero2.json"),
        )
        assert code == 2 and out is None and err.startswith("error:") and repr(key) in err, key

    model = json.loads((data_dir / "model_cnot.json").read_text(encoding="utf-8"))
    model["label_maps"] = [["f", [[1.0, 1.0]]]]
    code, out, err = run_cli(
        capsys, "measure", _write_json(tmp_path / "model.json", model),
        "--state", str(data_dir / "state_zero2.json"),
    )
    assert code == 2 and out is None and "label_maps" in err

    # Entries the schemas type as numbers: no strings, no JSON true/false, no
    # string "11" unpacked character by character, no integer beyond a float.
    sigma_z = str(data_dir / "obs_sigma_z.json")
    for name, pairs, said in (
            ("strings", [["1", "-1"], ["-1", "1"]], "label map 'f'"),
            ("pair_string", ["11", [-1, -1]], "label map 'f'"),
            ("booleans", [[True, 1], [-1, -1]], "label map 'f'"),
            ("triple", [[1, 1, 0], [-1, -1]], "label map 'f'"),
            ("huge", [[10 ** 400, 1], [-1, -1]], "too large")):
        model = json.loads((data_dir / "model_cnot.json").read_text(encoding="utf-8"))
        model["label_maps"] = {"f": pairs}
        code, out, err = run_cli(
            capsys, "measure", _write_json(tmp_path / f"map_{name}.json", model),
            "--state", str(data_dir / "state_zero2.json"), "--observable", f"Z={sigma_z}", "--map", "f",
        )
        assert code == 2 and out is None and err.startswith("error:") and said in err, name
    for name, entry, said in (("booleans", [True, False], "entries"), ("string", ["1", 0], "entries"),
                              ("huge", [10 ** 400, 0], "too large")):
        body = {"dim": 2, "matrix": [[entry, [0, 0]], [[0, 0], [-1, 0]]]}
        code, out, err = run_cli(capsys, "com", _write_json(tmp_path / f"entry_{name}.json", body), sigma_x)
        assert code == 2 and out is None and err.startswith("error:") and said in err, name
        bad = _write_json(tmp_path / f"state_entry_{name}.json", {"dim": 2, "vector": [entry, [0, 0]]})
        code, out, err = run_cli(capsys, "jointdet", sigma_x, sigma_x, "--state", bad)
        assert code == 2 and out is None and err.startswith("error:") and said in err, name


# Each loader, reached through a command, and a fixture file it reads.
LOADERS = {
    "observable": "obs_sigma_x.json",
    "state": "state_zero2.json",
    "model": "model_cnot.json",
}


def _reading(data_dir, loader: str, path: str) -> list[str]:
    """argv that hands ``path`` to load_observable, load_state or load_model."""
    state, x, z = (str(data_dir / name) for name in ("state_zero2.json", "obs_sigma_x.json", "obs_sigma_z.json"))
    return {
        "observable": ["eval", "A in {1}", "--obs", f"A={path}", "--state", state],
        "state": ["measure", str(data_dir / "model_cnot.json"), "--state", path],
        "model": ["context", path, x, "f", z, "f", "--state", state],
    }[loader]


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, '{"a":' * 100_000 + "1" + "}" * 100_000],
                         ids=["lists", "objects"])
def test_deeply_nested_json_exits_two_naming_the_file(data_dir, tmp_path, capsys, loader, text):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, *_reading(data_dir, loader, str(path)))
    assert (code, out) == (2, None)
    assert err.startswith(f"error: {path}: invalid JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("encode, said", [
    (lambda text: b"\xff\xfe" + text.encode("utf-8"), "'utf-8' codec can't decode byte 0xff in position 0"),
    (lambda text: text.encode("utf-16"), "'utf-8' codec can't decode byte"),
    (lambda text: text.encode("latin-1").replace(b"dim", b"d\xefm"), "'utf-8' codec can't decode byte 0xef"),
    (lambda text: b"\xef\xbb\xbf" + text.encode("utf-8"), "invalid JSON: Unexpected UTF-8 BOM"),
], ids=["ff-fe", "utf-16", "latin-1", "utf-8-bom"])
def test_files_that_are_not_plain_utf8_exit_two_naming_the_file(data_dir, tmp_path, capsys, loader, encode, said):
    path = tmp_path / "encoded.json"
    path.write_bytes(encode((data_dir / LOADERS[loader]).read_text(encoding="utf-8")))
    code, out, err = run_cli(capsys, *_reading(data_dir, loader, str(path)))
    assert (code, out) == (2, None)
    assert err.startswith(f"error: {path}: {said}") and err.count("\n") == 1


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_loaders_read_newlines_as_text_mode_does(data_dir, tmp_path, capsys, loader, newline):
    text = (data_dir / LOADERS[loader]).read_text(encoding="utf-8")
    path = tmp_path / "newlines.json"
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    expected = run_cli(capsys, *_reading(data_dir, loader, str(data_dir / LOADERS[loader])))
    assert run_cli(capsys, *_reading(data_dir, loader, str(path))) == expected
    # A syntax error is placed as text mode places it: by line, column and character.
    path.write_bytes(text.replace("\n}", ",\n}").replace("\n", newline).encode("utf-8"))
    with open(path, encoding="utf-8") as handle, pytest.raises(json.JSONDecodeError) as error:
        json.load(handle)
    code, out, err = run_cli(capsys, *_reading(data_dir, loader, str(path)))
    assert (code, out, err) == (2, None, f"error: {path}: invalid JSON: {error.value}\n")


# ---------------------------------------------------------------------------
# measure


def test_measure_pass_and_uncertainty(data_dir, capsys):
    code, out, _ = run_cli(
        capsys, "measure", str(data_dir / "model_cnot.json"),
        "--state", str(data_dir / "state_plus.json"),
        "--observable", f"Z={data_dir / 'obs_sigma_z.json'}", "--map", "f",
        "--observable", f"X={data_dir / 'obs_sigma_x.json'}", "--map", "f",
    )
    assert code == 1  # sigma_x is not measured in |+>
    jsonschema.validate(out, schema("measure_output"))
    assert out["observables"]["Z"]["passed"] is True
    assert out["observables"]["X"]["passed"] is False
    assert out["observables"]["X"]["epsilon"] == pytest.approx(np.sqrt(2), abs=1e-9)
    assert out["uncertainty"]["satisfied"] is True
    assert dict(out["distribution"]) == pytest.approx({-1.0: 0.5, 1.0: 0.5})


def test_measure_single_observable_pass(data_dir, capsys):
    code, out, _ = run_cli(
        capsys, "measure", str(data_dir / "model_cnot.json"),
        "--state", str(data_dir / "state_plus.json"),
        "--observable", f"Z={data_dir / 'obs_sigma_z.json'}", "--map", "f",
    )
    assert code == 0
    assert out["uncertainty"] is None


def test_measure_tol_override_relaxes_certificate(data_dir, capsys):
    code, out, _ = run_cli(
        capsys, "measure", str(data_dir / "model_cnot.json"), "--tol", "1.0",
        "--state", str(data_dir / "state_plus.json"),
        "--observable", f"X={data_dir / 'obs_sigma_x.json'}", "--map", "f",
    )
    assert code == 0
    assert out["observables"]["X"]["passed"] is True
    assert out["observables"]["X"]["defect"] == pytest.approx(1 / np.sqrt(2))


def test_measure_error_paths(data_dir, capsys):
    code, _, err = run_cli(
        capsys, "measure", str(data_dir / "model_cnot.json"),
        "--state", str(data_dir / "state_plus.json"),
        "--observable", f"Z={data_dir / 'obs_sigma_z.json'}",
    )
    assert code == 2 and "map" in err

    code, _, err = run_cli(
        capsys, "measure", str(data_dir / "model_cnot.json"),
        "--state", str(data_dir / "state_plus.json"),
        "--observable", f"Z={data_dir / 'obs_sigma_z.json'}", "--map", "nope",
    )
    assert code == 2 and "nope" in err

    code, _, err = run_cli(
        capsys, "measure", str(data_dir / "model_bad_unitary.json"),
        "--state", str(data_dir / "state_plus.json"),
        "--observable", f"Z={data_dir / 'obs_sigma_z.json'}", "--map", "f",
    )
    assert code == 2 and "unitarity" in err


def test_measure_refuses_non_finite_output(data_dir, tmp_path, capsys):
    # rms noise of diag(1, 1e308) overflows, and with a second observable so
    # do its spread and the trade-off: JSON has no Infinity or NaN, so such a
    # call writes nothing on stdout and one error line, with no warning. The
    # line names the first non-finite field of the payload and its value.
    huge = _write_json(tmp_path / "huge.json", _matrix_body(np.diag([1.0, 1e308])))
    model = ["measure", str(data_dir / "model_cnot.json"), "--state", str(data_dir / "state_plus.json")]
    z, x, w = (["--observable", f"{name}={path}", "--map", "f"]
               for name, path in (("Z", huge), ("X", data_dir / "obs_sigma_x.json"), ("W", huge)))
    for observables, field in (
        (z, "observables.Z.epsilon"),
        (z + x, "observables.Z.epsilon"),
        (x + z, "observables.Z.epsilon"),
        (w + z, "observables.W.epsilon"),
    ):
        code, out, err = run_cli(capsys, *model, *observables)
        assert (code, out) == (2, None)
        assert err == f"error: {field} is inf, which is not a JSON number\n"


def test_non_finite_payload_path_names_keys_and_indices():
    assert qreal.cli._non_finite({"a": 1.0, "b": [0.5, [2.0, float("-inf")]], "c": float("nan")}) == (
        "b.1.1", float("-inf"))
    assert qreal.cli._non_finite({"a": [1.0, {"b": True}], "c": None}) is None


def test_context_on_entries_near_float_max_writes_strict_json(data_dir, tmp_path, capsys):
    huge = _write_json(tmp_path / "huge.json", _matrix_body(np.diag([1.0, 1e308])))
    code = main(["context", str(data_dir / "model_cnot.json"), huge, "f",
                 str(data_dir / "obs_sigma_x.json"), "f", "--state", str(data_dir / "state_plus.json")])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")

    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    out = json.loads(captured.out, parse_constant=refuse)
    jsonschema.validate(out, schema("context_output"))
    assert out["both_passed"] is False


def test_state_whose_norm_overflows_exits_two_without_warning(data_dir, tmp_path, capsys):
    path = _write_json(tmp_path / "state.json", {"dim": 2, "vector": [[1e200, 0], [0, 0]]})
    code, out, err = run_cli(capsys, "measure", str(data_dir / "model_cnot.json"), "--state", path)
    assert (code, out) == (2, None)
    assert err == f"error: {path}: state norm inf is not within 1e-6 of 1\n"


@pytest.mark.parametrize("pairs", [
    [[1.0, 1.0], [-1.0, float("nan")]],
    [[1.0, 1.0], [-1.0, float("inf")]],
    [[1.0, 1.0], [-1.0, -1.0], [float("nan"), 0.0]],
    [[1.0, 1.0], [-1.0, -1.0], [float("-inf"), 0.0]],
])
def test_non_finite_label_maps_exit_two(data_dir, tmp_path, capsys, pairs):
    model = json.loads((data_dir / "model_cnot.json").read_text(encoding="utf-8"))
    model["label_maps"] = {"f": pairs}
    path = _write_json(tmp_path / "model.json", model)
    sigma_z = str(data_dir / "obs_sigma_z.json")
    plus = str(data_dir / "state_plus.json")
    for argv in (["measure", path, "--state", plus, "--observable", f"Z={sigma_z}", "--map", "f"],
                 ["context", path, sigma_z, "f", sigma_z, "f", "--state", plus]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out is None
        assert err.startswith("error:") and "not finite" in err


@pytest.mark.parametrize("drift, tol, code", [
    (0.5e-9, (), 0), (2e-9, (), 2), (0.5e-8, ("--tol", "1e-8"), 0), (2e-8, ("--tol", "1e-8"), 2),
])
def test_model_unitarity_drift_gate(data_dir, tmp_path, capsys, drift, tol, code):
    # Stretching one singular value of CNOT to sqrt(1 + drift) gives ||U†U − I||₂ = drift.
    model = json.loads((data_dir / "model_cnot.json").read_text(encoding="utf-8"))
    cnot = np.array([[complex(re, im) for re, im in row] for row in model["unitary"]["matrix"]])
    model["unitary"] = _matrix_body(np.diag([np.sqrt(1.0 + drift), 1.0, 1.0, 1.0]) @ cnot)
    got, out, err = run_cli(
        capsys, "measure", _write_json(tmp_path / "model.json", model),
        "--state", str(data_dir / "state_plus.json"),
        "--observable", f"Z={data_dir / 'obs_sigma_z.json'}", "--map", "f", *tol,
    )
    assert got == code
    if code == 2:
        assert out is None and err.startswith("error:") and f"unitarity by {drift:.3e}" in err
    else:
        # As written, the stretched row adds drift / 2 to the outcome 1.
        assert sum(p for _, p in out["distribution"]) - 1.0 == pytest.approx(drift / 2, rel=1e-6)
        assert out["observables"]["Z"]["passed"] is True


@pytest.mark.parametrize("edit, said", [
    ({"unitary": _matrix_body(np.eye(2))}, "coupling is 2x2, expected 4"),
    # The meter is read before MeasurementModel decides unitarity.
    ({"meter": _matrix_body(np.array([[1.0, 1.0], [0.0, -1.0]]))}, "observable 'M' is not Hermitian within eq_tol"),
], ids=["coupling-size", "meter-first"])
def test_model_errors_name_the_file(data_dir, tmp_path, capsys, edit, said):
    model = json.loads((data_dir / "model_bad_unitary.json").read_text(encoding="utf-8"))
    model.update(edit)
    path = _write_json(tmp_path / "model.json", model)
    code, out, err = run_cli(capsys, "measure", path, "--state", str(data_dir / "state_plus.json"))
    assert (code, out, err) == (2, None, f"error: {path}: {said}\n")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3]), k=st.sampled_from([2, 3]),
       factor=st.sampled_from([0.5, 2.0]))
def test_unitarity_gate_law(seed, n, k, factor):
    """U = W diag(sqrt(1 + delta)) V† has ||U†U − I||₂ = max|delta|: at half
    the eq_tol gate ``qreal measure`` answers (exit 0 or 1), at twice it the
    file is refused with one error line."""
    rng = np.random.default_rng(seed)
    d = n * k
    delta = rng.uniform(-1.0, 1.0, size=d)
    delta[rng.integers(d)] = rng.choice([-1.0, 1.0])
    delta *= factor * DEFAULT_TOL.eq_tol
    u = random_unitary(d, rng) @ np.diag(np.sqrt(1.0 + delta)) @ random_unitary(d, rng).conj().T
    _, xi, meter = random_model_parts(rng, n, k)
    bodies = {
        "model": {"sys_dim": n, "probe_dim": k, "probe_state": _state_body(xi),
                  "unitary": _matrix_body(u), "meter": _matrix_body(meter),
                  "label_maps": {"f": [[m, float(v)] for m, v in zip(np.diag(meter), rng.normal(size=k))]}},
        "a": _matrix_body(random_hermitian(n, rng)),
        "state": _state_body(random_state(n, rng)),
    }
    with tempfile.TemporaryDirectory() as work:
        path = {name: _write_json(pathlib.Path(work) / f"{name}.json", body) for name, body in bodies.items()}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["measure", path["model"], "--state", path["state"],
                         "--observable", f"A={path['a']}", "--map", "f"])
    if factor < 1.0:
        assert code in (0, 1) and err.getvalue() == ""
        assert set(json.loads(out.getvalue())["observables"]) == {"A"}
    else:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
        assert "deviates from unitarity" in err.getvalue()


def _as_written(body: dict) -> bytes:
    """The bytes of a matrix or state body's [re, im] entries as complex128."""
    rows = body["matrix"] if "matrix" in body else [body["vector"]]
    return np.array([[complex(re, im) for re, im in row] for row in rows]).tobytes()


@pytest.mark.parametrize("name", ["model_cnot", "model_headline", "model_uncoupled", "witness"])
def test_load_model_keeps_the_entries_as_written(data_dir, tmp_path, capsys, name):
    path = data_dir / f"{name}.json"
    if name == "witness":
        path = tmp_path / "witness.json"
        run_cli(capsys, "search", str(data_dir / "obs_sigma_x.json"), str(data_dir / "obs_sigma_y.json"),
                "--probe-dim", "2", "--seed", "16", "--restarts", "1", "--out", str(path))
    body = json.loads(path.read_text(encoding="utf-8"))
    model, psi = qreal.cli.load_model(str(path), DEFAULT_TOL)
    assert model.unitary.tobytes() == _as_written(body["unitary"])
    assert model.probe_state.tobytes() == _as_written(body["probe_state"])
    if name in ("model_headline", "witness"):
        assert psi.tobytes() == _as_written(body["system_state"])
    else:
        assert psi is None


@pytest.mark.parametrize("error", [0.5e-9, -0.5e-9, 1e-7, -1e-7])
def test_state_off_unit_norm_beyond_eq_tol_is_rescaled(tmp_path, error):
    vector = (1.0 + error) * np.array([1.0, 1.0j]) / np.sqrt(2.0)
    path = _write_json(tmp_path / "state.json", _state_body(vector))  # repr floats: an exact round trip
    want = vector if abs(error) <= DEFAULT_TOL.eq_tol else vector / frobenius(vector)
    assert qreal.cli.load_state(path, DEFAULT_TOL).tobytes() == want.tobytes()
    # A tolerance that admits the norm keeps the vector as written.
    assert qreal.cli.load_state(path, ToleranceConfig(eq_tol=1e-6)).tobytes() == vector.tobytes()


def test_label_map_repeating_an_eigenvalue_exits_two(data_dir, tmp_path, capsys):
    # Read as a dict, the last pair would win and the certificate fail (exit 1).
    model = json.loads((data_dir / "model_headline.json").read_text(encoding="utf-8"))
    model["label_maps"]["fA"] = [[-1, -1], [1, 1], [1, -1]]
    code, out, err = run_cli(
        capsys, "measure", _write_json(tmp_path / "model.json", model),
        "--state", str(data_dir / "state_plus.json"),
        "--observable", f"X={data_dir / 'obs_sigma_x.json'}", "--map", "fA",
    )
    assert code == 2 and out is None
    assert err.startswith("error:") and err.count("\n") == 1
    assert "label map 'fA' repeats eigenvalue 1.0" in err


# ---------------------------------------------------------------------------
# search


def test_search_writes_recertifiable_witness(data_dir, tmp_path, capsys):
    out_path = tmp_path / "witness.json"
    code, out, _ = run_cli(
        capsys, "search",
        str(data_dir / "obs_sigma_z.json"), str(data_dir / "obs_sigma_z.json"),
        "--probe-dim", "2", "--restarts", "2", "--seed", "0",
        "--out", str(out_path),
    )
    assert code == 0
    jsonschema.validate(out, schema("search_output"))
    assert out["success"] is True and out["defect"] < 1e-8
    assert out["restart_index"] == 0

    with open(out_path, encoding="utf-8") as handle:
        witness = json.load(handle)
    jsonschema.validate(witness, schema("model_file"))
    assert witness["defect"] == out["defect"]

    # The written witness file feeds straight back into `context`.
    code, ctx, _ = run_cli(
        capsys, "context", str(out_path),
        str(data_dir / "obs_sigma_z.json"), "fA",
        str(data_dir / "obs_sigma_z.json"), "fB",
    )
    assert code == 0
    jsonschema.validate(ctx, schema("context_output"))
    assert ctx["both_passed"] is True


def test_search_nonsuccess_exit(data_dir, capsys):
    # diag(1, 2, 3) and obs_qutrit_b have no witness at probe dim 2.
    code, out, _ = run_cli(
        capsys, "search",
        str(data_dir / "obs_diag123.json"), str(data_dir / "obs_qutrit_b.json"),
        "--probe-dim", "2", "--restarts", "1", "--budget", "50",
    )
    assert code == 1
    assert out["success"] is False and out["defect"] > 1e-8


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf"])
def test_search_rejects_success_tol_that_is_not_finite_and_non_negative(data_dir, capsys, value):
    sigma_z = str(data_dir / "obs_sigma_z.json")
    code, out, err = run_cli(capsys, "search", sigma_z, sigma_z, "--probe-dim", "2",
                             "--restarts", "1", f"--success-tol={value}")
    assert code == 2 and out is None
    assert err.startswith("error:") and "--success-tol" in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_search_rejects_a_budget_below_one(data_dir, capsys, value):
    sigma_z = str(data_dir / "obs_sigma_z.json")
    code, out, err = run_cli(capsys, "search", sigma_z, sigma_z, "--probe-dim", "2",
                             "--restarts", "1", f"--budget={value}")
    assert code == 2 and out is None
    assert err.startswith("error:") and "budget" in err


# Pairs with a witness (X/Y, Z/Z, the qutrit pair at probe dim 3, the
# commuting diagonal pair at probe dim 2) and the qutrit pair with none at
# probe dim 2, among them at seeds and restarts that no closed-form branch
# reads and at tolerances on either side of eq_tol; and the four-level pair,
# whose ψ-search reads the seed, at one restart for seeds 0-20.
_XY, _ZZ = ("obs_sigma_x", "obs_sigma_y"), ("obs_sigma_z", "obs_sigma_z")
_QUTRITS, _DIAGONALS = ("obs_diag123", "obs_qutrit_b"), ("obs_diag123", "obs_diag124")
_QUARTS = ("obs_quart_a", "obs_quart_b")
_AGREEMENT_RUNS = [
    (_XY, ("--probe-dim", "2"), ()),
    (_XY, ("--probe-dim", "2"), ("--tol", "1e-11")),
    (_XY, ("--probe-dim", "3", "--seed", "16", "--restarts", "1"), ()),
    (_ZZ, ("--probe-dim", "2"), ()),
    (_DIAGONALS, ("--probe-dim", "2"), ()),
    (_QUTRITS, ("--probe-dim", "3"), ()),
    (_QUTRITS, ("--probe-dim", "2"), ()),
    (_QUTRITS, ("--probe-dim", "2", "--seed", "16", "--restarts", "1"), ("--tol", "1e-8")),
    (_QUTRITS, ("--probe-dim", "2", "--seed", "18", "--restarts", "1"), ("--tol", "5e-9")),
] + [(_QUARTS, ("--probe-dim", "3", "--budget", "100", "--seed", str(seed), "--restarts", "1"), ())
     for seed in range(21)]


@pytest.mark.parametrize("pair,options,tol", _AGREEMENT_RUNS,
                         ids=[" ".join(pair + options + tol) for pair, options, tol in _AGREEMENT_RUNS])
def test_search_succeeds_exactly_when_context_passes_its_witness(data_dir, tmp_path, capsys, pair, options, tol):
    a, b = (str(data_dir / f"{name}.json") for name in pair)
    witness = str(tmp_path / "witness.json")
    code, out, _ = run_cli(capsys, "search", a, b, *options, *tol, "--out", witness)
    assert code == (0 if out["success"] else 1)
    assert out["success"] is not (pair == _QUARTS or (pair == _QUTRITS and options[1] == "2"))
    context_code, report, _ = run_cli(capsys, "context", witness, a, "fA", b, "fB", *tol)
    assert context_code == code
    # The witness is certified as written, so its defect is recomputed bit for bit.
    assert out["defect"] == max(report["certificate_a"]["defect"], report["certificate_b"]["defect"])


def test_search_success_tol_given_explicitly_decides_success(data_dir, capsys):
    # The qutrit pair has no witness at probe dim 2; its stand-in ends at
    # defect 0.41, so --success-tol 0.5 admits it and the default does not.
    a, b = str(data_dir / "obs_diag123.json"), str(data_dir / "obs_qutrit_b.json")
    argv = ("search", a, b, "--probe-dim", "2", "--seed", "16", "--restarts", "1", "--verbose")
    code, out, err = run_cli(capsys, *argv, "--success-tol", "0.5")
    assert (code, out["success"]) == (0, True)
    assert 0.1 < out["defect"] <= 0.5
    # The verdict follows the exit code, not the KD margin.
    assert err.endswith(" verdict=witness\n")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out["success"]) == (1, False)
    assert err.endswith(" verdict=none exists\n")


@pytest.mark.parametrize("given", [
    {}, {"restarts": 3}, {"seed": 5, "budget": 40}, {"restarts": 20, "seed": 0, "budget": 3000},
], ids=["none", "restarts", "seed-budget", "all"])
def test_search_passes_only_the_options_given(data_dir, monkeypatch, given):
    class Stop(Exception):
        pass

    calls = []

    def search(a, b, **options):
        calls.append(options)
        raise Stop

    monkeypatch.setattr(qreal.cli, "search_simultaneous", search)
    x, y = str(data_dir / "obs_sigma_x.json"), str(data_dir / "obs_sigma_y.json")
    with pytest.raises(Stop):
        main(["search", x, y, "--probe-dim", "2", *(f"--{key}={value}" for key, value in given.items())])
    assert calls == [{"probe_dim": 2, "tol": DEFAULT_TOL, **given}]


def test_run_config_is_the_library_default_with_only_what_is_given(data_dir, monkeypatch):
    seen = []
    monkeypatch.setitem(qreal.cli._COMMANDS, "com", lambda args, tol: seen.append(tol) or 0)
    monkeypatch.delenv("QREAL_EIG_TOL", raising=False)
    com = ["com", str(data_dir / "obs_sigma_x.json"), str(data_dir / "obs_sigma_y.json")]
    assert main(com) == 0
    assert seen.pop() == DEFAULT_TOL
    # A changed library default reaches every run that does not override it.
    default = ToleranceConfig(eq_tol=4e-9, eig_cluster_tol=5e-8)
    monkeypatch.setattr(qreal.cli, "DEFAULT_TOL", default)
    assert main(com) == 0
    assert seen.pop() == default
    assert main([*com, "--tol", "2e-9"]) == 0
    assert seen.pop() == ToleranceConfig(eq_tol=2e-9, eig_cluster_tol=5e-8)
    monkeypatch.setenv("QREAL_EIG_TOL", "3e-8")
    assert main(com) == 0
    assert seen.pop() == ToleranceConfig(eq_tol=4e-9, eig_cluster_tol=3e-8)


def test_search_rejects_a_probe_dim_below_two(data_dir, capsys):
    sigma_z = str(data_dir / "obs_sigma_z.json")
    code, out, err = run_cli(capsys, "search", sigma_z, sigma_z, "--probe-dim", "1", "--restarts", "1")
    assert code == 2 and out is None
    assert re.fullmatch(r"error: [^\n]*probe.dim[^\n]*\n", err)


@pytest.mark.parametrize("command", ["eval", "measure"])
def test_repeated_observable_name_exits_two(data_dir, capsys, command):
    x, z = data_dir / "obs_sigma_x.json", data_dir / "obs_sigma_z.json"
    plus = str(data_dir / "state_plus.json")
    # Each name was silently bound to its last file.
    flag, argv = {
        "eval": ("--obs", ["eval", "X in {1}", "--obs", f"X={x}", "--obs", f"X={z}",
                           "--state", plus]),
        "measure": ("--observable", ["measure", str(data_dir / "model_cnot.json"), "--state", plus,
                                     "--observable", f"X={z}", "--map", "f",
                                     "--observable", f"X={x}", "--map", "f"]),
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out is None
    assert err == f"error: {flag} name 'X' is given more than once\n"


def test_search_verbose_progress_on_stderr(data_dir, capsys):
    code, _, err = run_cli(
        capsys, "search",
        str(data_dir / "obs_sigma_z.json"), str(data_dir / "obs_sigma_z.json"),
        "--probe-dim", "2", "--restarts", "3", "--verbose",
    )
    assert code == 0
    # The eigenvector branch runs no ψ-search: one decision line.
    assert re.fullmatch(r"search: branch=eigenvector candidates=0 kd_violation=\S+ "
                        r"margin=2\.000000e-09 verdict=witness\n", err)
    code, _, err = run_cli(
        capsys, "search",
        str(data_dir / "obs_diag123.json"), str(data_dir / "obs_qutrit_b.json"),
        "--probe-dim", "2", "--verbose",
    )
    assert code == 1
    assert re.fullmatch(r"search: branch=exact candidates=9 kd_violation=1\.178511e-01 "
                        r"margin=2\.000000e-09 verdict=none exists\n", err)


# ---------------------------------------------------------------------------
# context


def test_context_headline_embedded_state(data_dir, capsys):
    code, out, _ = run_cli(
        capsys, "context", str(data_dir / "model_headline.json"),
        str(data_dir / "obs_sigma_x.json"), "fA",
        str(data_dir / "obs_sigma_y.json"), "fB",
    )
    assert code == 0
    jsonschema.validate(out, schema("context_output"))
    assert out["both_passed"] is True
    assert out["nowhere_commuting"] is True
    assert out["jointly_determinate"] is False
    assert out["jpd_exists"] is False


def test_context_pretty_rendering(data_dir, capsys):
    code = main([
        "context", str(data_dir / "model_headline.json"),
        str(data_dir / "obs_sigma_x.json"), "fA",
        str(data_dir / "obs_sigma_y.json"), "fB",
        "--pretty",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "certificate A" in captured.out
    assert "nowhere commuting: yes" in captured.out


def test_context_failure_and_error_paths(data_dir, capsys):
    code, out, _ = run_cli(
        capsys, "context", str(data_dir / "model_cnot.json"),
        str(data_dir / "obs_sigma_z.json"), "f",
        str(data_dir / "obs_sigma_x.json"), "f",
        "--state", str(data_dir / "state_zero2.json"),
    )
    assert code == 1
    assert out["certificate_a"]["passed"] is True
    assert out["certificate_b"]["passed"] is False

    # CNOT model embeds no state and none was given.
    code, _, err = run_cli(
        capsys, "context", str(data_dir / "model_cnot.json"),
        str(data_dir / "obs_sigma_z.json"), "f",
        str(data_dir / "obs_sigma_x.json"), "f",
    )
    assert code == 2 and "state" in err

    code, _, err = run_cli(
        capsys, "context", str(data_dir / "model_headline.json"),
        str(data_dir / "obs_sigma_x.json"), "missing",
        str(data_dir / "obs_sigma_y.json"), "fB",
    )
    assert code == 2 and "missing" in err


# ---------------------------------------------------------------------------
# Shared plumbing.


def test_env_var_overrides_clustering(data_dir, capsys, monkeypatch):
    monkeypatch.setenv("QREAL_EIG_TOL", "1.5")
    code, out, _ = run_cli(
        capsys, "eval", "D in {1}",
        "--obs", f"D={data_dir / 'obs_diag123.json'}",
        "--state", str(data_dir / "state_zero3.json"),
    )
    # All three eigenvalues merge into one cluster, so the atom grabs everything.
    assert code == 0 and out["projection_rank"] == 3

    monkeypatch.setenv("QREAL_EIG_TOL", "not-a-number")
    code, _, err = run_cli(
        capsys, "eval", "D in {1}",
        "--obs", f"D={data_dir / 'obs_diag123.json'}",
        "--state", str(data_dir / "state_zero3.json"),
    )
    assert code == 2 and "QREAL_EIG_TOL" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("source", ["--tol", "QREAL_EIG_TOL"])
def test_non_finite_tolerances_exit_two(data_dir, capsys, monkeypatch, source, value):
    flag = [source, value] if source == "--tol" else []
    if not flag:
        monkeypatch.setenv(source, value)
    eval_args = ["eval", "Z in {1}", "--obs", f"Z={data_dir / 'obs_sigma_z.json'}",
                 "--state", str(data_dir / "state_zero2.json")]
    com_args = ["com", str(data_dir / "obs_sigma_x.json"), str(data_dir / "obs_sigma_y.json")]
    for argv in (eval_args, com_args):
        code, out, err = run_cli(capsys, *argv, *flag)
        assert code == 2 and out is None
        assert err.startswith("error:") and "finite" in err


def test_usage_errors_exit_two(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["eval"]) == 2  # missing required arguments
    capsys.readouterr()


def test_fixture_files_validate_against_file_schemas(data_dir):
    for name in ("obs_sigma_x", "obs_sigma_y", "obs_sigma_z", "obs_diag123",
                 "obs_diag124", "obs_nonhermitian"):
        with open(data_dir / f"{name}.json", encoding="utf-8") as handle:
            jsonschema.validate(json.load(handle), schema("matrix_file"))
    for name in ("state_zero2", "state_one2", "state_plus", "state_plus_i", "state_zero3"):
        with open(data_dir / f"{name}.json", encoding="utf-8") as handle:
            jsonschema.validate(json.load(handle), schema("state_file"))
    for name in ("model_cnot", "model_headline", "model_uncoupled"):
        with open(data_dir / f"{name}.json", encoding="utf-8") as handle:
            jsonschema.validate(json.load(handle), schema("model_file"))


@pytest.mark.parametrize("pair, code, payload", [
    (("obs_sigma_x.json", "obs_sigma_y.json"), 0, {"rank": 0, "nowhere_commuting": True}),
    (("obs_sigma_z.json", "obs_sigma_z.json"), 1, {"rank": 2, "nowhere_commuting": False}),
])
def test_module_entry_point_runs_the_command(data_dir, pair, code, payload):
    src = str(pathlib.Path(qreal.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "qreal.cli", "com", *(str(data_dir / name) for name in pair)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == code, done.stderr
    assert json.loads(done.stdout) == payload


def test_reused_parser_answers_as_a_fresh_one(data_dir, capsys):
    model, state = str(data_dir / "model_cnot.json"), str(data_dir / "state_plus.json")
    z, x = f"Z={data_dir / 'obs_sigma_z.json'}", f"X={data_dir / 'obs_sigma_x.json'}"
    context = ["context", str(data_dir / "model_headline.json"),
               str(data_dir / "obs_sigma_x.json"), "fA", str(data_dir / "obs_sigma_y.json"), "fB"]
    calls = [
        ["measure", model, "--state", state, "--observable", z, "--map", "f",
         "--observable", x, "--map", "f"],
        ["measure", model, "--state", state, "--observable", z, "--map", "f"],
        context + ["--pretty"],
        context,
    ]

    def answers(fresh: bool) -> list[tuple[int, str, str]]:
        out = []
        for argv in calls:
            if fresh:
                qreal.cli._parser.cache_clear()
            code = main(argv)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    reused = answers(fresh=False)
    assert qreal.cli._parser() is qreal.cli._parser()
    assert reused == answers(fresh=True)
    assert [code for code, _, _ in reused] == [1, 0, 0, 0]
    assert "certificate A" in reused[2][1] and json.loads(reused[3][1])["both_passed"] is True


@pytest.mark.parametrize("command", ["measure", "context"])
def test_cli_diagonalises_each_matrix_once(tmp_path, capsys, eigh_inputs, command):
    rng = np.random.default_rng(41)
    u, xi, meter = random_model_parts(rng, 2, 2)
    bodies = {
        "model": {"sys_dim": 2, "probe_dim": 2, "probe_state": _state_body(xi),
                  "unitary": _matrix_body(u), "meter": _matrix_body(meter),
                  "label_maps": {"f": [[1.0, 1.0], [2.0, 2.0]]}},
        "a": _matrix_body(random_hermitian(2, rng)),
        "b": _matrix_body(random_hermitian(2, rng)),
        "state": _state_body(random_state(2, rng)),
    }
    path = {}
    for name, body in bodies.items():
        path[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(body))
    argv = {
        "measure": ["measure", path["model"], "--state", path["state"],
                    "--observable", f"A={path['a']}", "--map", "f",
                    "--observable", f"B={path['b']}", "--map", "f"],
        "context": ["context", path["model"], path["a"], "f", path["b"], "f",
                    "--state", path["state"]],
    }[command]
    assert main(argv) in (0, 1)
    assert capsys.readouterr().out.startswith("{")
    # measure and context: the meter, A and B.
    assert len(eigh_inputs) == {"measure": 3, "context": 3}[command]
    assert max(eigh_inputs.values()) == 1
