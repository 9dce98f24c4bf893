import json
import pathlib

import jsonschema
import numpy as np
import pytest

import qreal
from corpus import nowhere_pair
from qreal.cli import _matrix_body, main

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


@pytest.mark.parametrize("drift, code", [(0.5e-8, 0), (2e-8, 2)])
def test_model_unitarity_drift_gate(data_dir, tmp_path, capsys, drift, code):
    # Stretching one singular value of CNOT to sqrt(1 + drift) gives ||U†U − I||₂ = drift.
    model = json.loads((data_dir / "model_cnot.json").read_text(encoding="utf-8"))
    cnot = np.array([[complex(re, im) for re, im in row] for row in model["unitary"]["matrix"]])
    model["unitary"] = _matrix_body(np.diag([np.sqrt(1.0 + drift), 1.0, 1.0, 1.0]) @ cnot)
    got, out, err = run_cli(
        capsys, "measure", _write_json(tmp_path / "model.json", model),
        "--state", str(data_dir / "state_plus.json"),
        "--observable", f"Z={data_dir / 'obs_sigma_z.json'}", "--map", "f",
    )
    assert got == code
    if code == 2:
        assert out is None and err.startswith("error:") and "unitarity by 2.000e-08" in err
    else:
        assert out["observables"]["Z"]["defect"] <= 1e-12


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
    code, out, _ = run_cli(
        capsys, "search",
        str(data_dir / "obs_sigma_x.json"), str(data_dir / "obs_sigma_y.json"),
        "--probe-dim", "2", "--restarts", "1", "--budget", "50",
    )
    assert code == 1
    assert out["success"] is False and out["defect"] > 1e-8


def test_search_verbose_progress_on_stderr(data_dir, capsys):
    code, _, err = run_cli(
        capsys, "search",
        str(data_dir / "obs_sigma_z.json"), str(data_dir / "obs_sigma_z.json"),
        "--probe-dim", "2", "--restarts", "3", "--verbose",
    )
    assert code == 0
    assert "restart 0:" in err


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
@pytest.mark.parametrize("source", ["--tol", "QREAL_EIG_TOL", "QREAL_RANK_TOL"])
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
