"""Command-line interface: formula evaluation, joint-determinateness and
JPD queries, measurement-model reports, witness search, and the contextual
exhibit.

File formats (JSON):
  matrix   {"dim": n, "matrix": [[[re, im], ...] x n] x n}
  state    {"dim": n, "vector": [[re, im], ...] x n}   (norm within 1e-6 of 1)
  model    {"sys_dim": n, "probe_dim": k, "probe_state": <state body>,
            "unitary": <matrix body on n*k>, "meter": <matrix body on k>,
            "label_maps": {"name": [[meter_eigenvalue, output], ...], ...}}
A witness file written by `search` is a model file with three extra keys:
"system_state", "defect", "restart_index"; `context` falls back to its
embedded state when --state is omitted.

Exit codes: 0 = predicate true / search success; 1 = predicate false /
search non-success; 2 = usage or data error.  --tol overrides eq_tol only;
QREAL_EIG_TOL and QREAL_RANK_TOL override the clustering and rank cutoffs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import QrealError
from .measure import (
    MeasurementModel,
    SearchResult,
    context_report,
    measures_in_state,
    output_distribution,
    rms_noise,
    search_simultaneous,
    uncertainty_report,
)
from .numlin import ToleranceConfig
from .qlang import parse
from .qlogic import Environment, _spectral_com, holds_in, jointly_determinate, jpd_exists
from .spectral import Observable


class DataError(QrealError):
    """Malformed or inconsistent input file."""


# ---------------------------------------------------------------------------
# File formats.


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            body = json.load(handle)
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise DataError(f"{path}: expected a JSON object")
    return body


def _complex_entries(rows, path: str, what: str) -> np.ndarray:
    try:
        array = np.asarray([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: {what} entries must be [re, im] pairs") from exc
    if not np.all(np.isfinite(array.view(float))):
        raise DataError(f"{path}: {what} has non-finite entries")
    return array


def _count(body: dict, key: str, path: str) -> int:
    """body[key] as a positive integer; JSON true and false are not integers."""
    value = body[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise DataError(f"{path}: {key!r} must be a positive integer")
    return value


def matrix_from_body(body: dict, path: str) -> np.ndarray:
    if not isinstance(body, dict) or "dim" not in body or "matrix" not in body:
        raise DataError(f"{path}: matrix body needs 'dim' and 'matrix'")
    dim = _count(body, "dim", path)
    rows = body["matrix"]
    if not (isinstance(rows, list) and len(rows) == dim
            and all(isinstance(row, list) and len(row) == dim for row in rows)):
        raise DataError(f"{path}: 'matrix' is not a {dim}x{dim} list of rows")
    return _complex_entries(rows, path, "matrix")


def state_from_body(body: dict, path: str) -> np.ndarray:
    if not isinstance(body, dict) or "dim" not in body or "vector" not in body:
        raise DataError(f"{path}: state body needs 'dim' and 'vector'")
    dim = _count(body, "dim", path)
    entries = body["vector"]
    if not isinstance(entries, list) or len(entries) != dim:
        raise DataError(f"{path}: 'vector' is not a list of {dim} entries")
    vec = _complex_entries([entries], path, "vector")[0]
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-6:
        raise DataError(f"{path}: state norm {norm!r} is not within 1e-6 of 1")
    return vec / norm


def load_observable(path: str, name: str, tol: ToleranceConfig) -> Observable:
    matrix = matrix_from_body(_load_json(path), path)
    try:
        return Observable(matrix, name=name, tol=tol)
    except QrealError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_state(path: str, tol: ToleranceConfig) -> np.ndarray:
    return state_from_body(_load_json(path), path)


def _load_pair(args, tol: ToleranceConfig) -> tuple[Observable, Observable]:
    return load_observable(args.a, "A", tol), load_observable(args.b, "B", tol)


def load_model(path: str, tol: ToleranceConfig) -> tuple[MeasurementModel, np.ndarray | None]:
    body = _load_json(path)
    for key in ("sys_dim", "probe_dim", "probe_state", "unitary", "meter"):
        if key not in body:
            raise DataError(f"{path}: model body needs {key!r}")
    n, k = _count(body, "sys_dim", path), _count(body, "probe_dim", path)
    xi = state_from_body(body["probe_state"], path)
    u = matrix_from_body(body["unitary"], path)
    if u.shape[0] != n * k:
        raise DataError(f"{path}: unitary is {u.shape[0]}x{u.shape[0]}, expected {n * k}")
    # One SVD: max|s² − 1| is ||U†U − I||₂, and the polar factor is the
    # nearest unitary, the load-time analog of state renormalization.
    left, s, right = np.linalg.svd(u)
    drift = float(np.max(np.abs(s ** 2 - 1.0)))
    if drift > 1e-8:
        raise DataError(f"{path}: coupling deviates from unitarity by {drift:.3e}")
    u = left @ right
    meter = matrix_from_body(body["meter"], path)
    maps = body.get("label_maps") or {}
    if not isinstance(maps, dict):
        raise DataError(f"{path}: 'label_maps' must be an object")
    label_maps = {}
    for name, pairs in maps.items():
        try:
            label_maps[name] = {float(eig): float(out) for eig, out in pairs}
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: label map {name!r} must be [eigenvalue, output] pairs") from exc
    try:
        model = MeasurementModel(
            sys_dim=n, probe_dim=k, probe_state=xi, unitary=u,
            meter=Observable(meter, name="M", tol=tol), label_maps=label_maps, tol=tol,
        )
    except QrealError as exc:
        raise DataError(f"{path}: {exc}") from exc
    system_state = None
    if "system_state" in body:
        system_state = state_from_body(body["system_state"], path)
    return model, system_state


def _matrix_body(matrix: np.ndarray) -> dict:
    return {
        "dim": matrix.shape[0],
        "matrix": [[[float(x.real), float(x.imag)] for x in row] for row in matrix],
    }


def _state_body(vector: np.ndarray) -> dict:
    return {
        "dim": vector.shape[0],
        "vector": [[float(x.real), float(x.imag)] for x in vector],
    }


def save_witness(path: str, result: SearchResult) -> None:
    model = result.model
    body = {
        "sys_dim": model.sys_dim,
        "probe_dim": model.probe_dim,
        "probe_state": _state_body(model.probe_state),
        "unitary": _matrix_body(model.unitary),
        "meter": _matrix_body(model.meter.matrix),
        "label_maps": {
            name: [[float(k), float(v)] for k, v in sorted(mapping.items())]
            for name, mapping in model.label_maps.items()
        },
        "system_state": _state_body(np.asarray(result.psi)),
        "defect": result.defect,
        "restart_index": result.restart_index,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(body, handle, indent=2)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Argument plumbing.


def _named_path(text: str) -> tuple[str, str]:
    name, sep, path = text.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError(f"expected name=path, got {text!r}")
    return name, path


def _tolerances(args: argparse.Namespace) -> ToleranceConfig:
    def env_float(var: str, fallback: float) -> float:
        raw = os.environ.get(var)
        if raw is None:
            return fallback
        try:
            return float(raw)
        except ValueError:
            raise DataError(f"{var} must be a number, got {raw!r}") from None

    eq_tol = args.tol if args.tol is not None else 1e-9
    try:
        return ToleranceConfig(
            eq_tol=eq_tol,
            eig_cluster_tol=env_float("QREAL_EIG_TOL", 1e-8),
            rank_tol=env_float("QREAL_RANK_TOL", 1e-10),
        )
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="override eq_tol (default 1e-9)")

    parser = argparse.ArgumentParser(
        prog="qreal",
        description="Quantum-logic toolkit: evaluate formulas, certify "
                    "measurement models, and search for simultaneous-"
                    "measurement witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a formula at a state")
    p.add_argument("formula")
    p.add_argument("--obs", action="append", default=[], type=_named_path,
                   metavar="NAME=PATH", help="bind an observable file")
    p.add_argument("--state", required=True, help="state file")

    for name, needs_state in (("jointdet", True), ("jpd", True), ("com", False)):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("a", help="observable file")
        p.add_argument("b", help="observable file")
        if needs_state:
            p.add_argument("--state", required=True, help="state file")

    p = sub.add_parser("measure", parents=[common],
                       help="report a model's statistics and certificates")
    p.add_argument("model", help="model file")
    p.add_argument("--state", required=True, help="system state file")
    p.add_argument("--observable", action="append", default=[], type=_named_path,
                   metavar="NAME=PATH", help="observable to certify")
    p.add_argument("--map", action="append", default=[], dest="maps",
                   metavar="NAME", help="label map (one per --observable)")

    p = sub.add_parser("search", parents=[common],
                       help="search for a simultaneous-measurement witness")
    p.add_argument("a", help="observable file")
    p.add_argument("b", help="observable file")
    p.add_argument("--probe-dim", type=int, required=True)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=3000,
                   help="objective evaluations per restart")
    p.add_argument("--success-tol", type=float, default=1e-8,
                   help="defect at or below which the search exits 0")
    p.add_argument("--out", default=None, help="write the witness model file here")
    p.add_argument("--verbose", action="store_true",
                   help="print one summary line per restart")

    p = sub.add_parser("context", parents=[common],
                       help="full contextual-measurement exhibit")
    p.add_argument("model", help="model file (witness files embed the state)")
    p.add_argument("a", help="observable file")
    p.add_argument("map_a", help="label map name for the first observable")
    p.add_argument("b", help="observable file")
    p.add_argument("map_b", help="label map name for the second observable")
    p.add_argument("--state", default=None, help="system state file")
    p.add_argument("--pretty", action="store_true",
                   help="human-readable rendering instead of JSON")
    return parser


# ---------------------------------------------------------------------------
# Commands.


def _cmd_eval(args, tol: ToleranceConfig) -> int:
    formula = parse(args.formula)
    env = Environment({
        name: load_observable(path, name, tol) for name, path in args.obs
    })
    psi = load_state(args.state, tol)
    report = holds_in(formula, env, psi, tol=tol)
    _emit({
        "probability": report.probability,
        "holds": report.holds,
        "projection_rank": report.projection.rank,
    })
    return 0 if report.holds else 1


def _cmd_jointdet(args, tol: ToleranceConfig) -> int:
    a, b = _load_pair(args, tol)
    psi = load_state(args.state, tol)
    flag, proj = jointly_determinate([a, b], psi, tol=tol)
    _emit({"determinate": flag, "com_rank": proj.rank})
    return 0 if flag else 1


def _cmd_jpd(args, tol: ToleranceConfig) -> int:
    a, b = _load_pair(args, tol)
    psi = load_state(args.state, tol)
    exists, candidate = jpd_exists(a, b, psi, tol=tol)
    table = [[lam, mu, p] for (lam, mu), p in sorted(candidate.items())]
    _emit({"exists": exists, "candidate": table})
    return 0 if exists else 1


def _cmd_com(args, tol: ToleranceConfig) -> int:
    a, b = _load_pair(args, tol)
    proj = _spectral_com([a, b], tol)
    flag = proj.rank == 0
    _emit({"rank": proj.rank, "nowhere_commuting": flag})
    return 0 if flag else 1


def _cmd_measure(args, tol: ToleranceConfig) -> int:
    model, _ = load_model(args.model, tol)
    psi = load_state(args.state, tol)
    if len(args.observable) != len(args.maps):
        raise DataError("each --observable needs a matching --map")
    distribution = output_distribution(model, psi, tol=tol)
    payload: dict = {
        "distribution": [[m, p] for m, p in sorted(distribution.items())],
        "observables": {},
        "uncertainty": None,
    }
    loaded = []
    all_passed = True
    for (name, path), map_name in zip(args.observable, args.maps):
        obs = load_observable(path, name, tol)
        if map_name not in model.label_maps:
            raise DataError(f"model has no label map named {map_name!r}")
        mapping = model.label_maps[map_name]
        cert = measures_in_state(model, obs, mapping, psi, tol=tol)
        epsilon = rms_noise(model, obs, mapping, psi, tol=tol)
        payload["observables"][name] = {
            "defect": cert.defect, "passed": cert.passed, "epsilon": epsilon,
        }
        loaded.append((obs, mapping))
        all_passed = all_passed and cert.passed
    if len(loaded) == 2:
        report = uncertainty_report(model, loaded[0][0], loaded[0][1], loaded[1][0], psi, tol=tol)
        payload["uncertainty"] = report.to_dict()
    _emit(payload)
    return 0 if all_passed else 1


def _cmd_search(args, tol: ToleranceConfig) -> int:
    a, b = _load_pair(args, tol)
    if args.probe_dim < 2:
        raise DataError("--probe-dim must be at least 2")
    progress = None
    if args.verbose:
        def progress(index: int, defect: float) -> None:
            print(f"restart {index}: defect {defect:.6e}", file=sys.stderr)
    result = search_simultaneous(
        a, b, probe_dim=args.probe_dim, restarts=args.restarts,
        seed=args.seed, budget=args.budget, tol=tol, progress=progress,
    )
    if args.out:
        save_witness(args.out, result)
    success = result.defect <= args.success_tol
    _emit({
        "defect": result.defect,
        "restart_index": result.restart_index,
        "success": success,
        "out": args.out,
    })
    return 0 if success else 1


def _cmd_context(args, tol: ToleranceConfig) -> int:
    model, embedded_state = load_model(args.model, tol)
    a, b = _load_pair(args, tol)
    for name in (args.map_a, args.map_b):
        if name not in model.label_maps:
            raise DataError(f"model has no label map named {name!r}")
    if args.state is not None:
        psi = load_state(args.state, tol)
    elif embedded_state is not None:
        psi = embedded_state
    else:
        raise DataError("no --state given and the model file embeds none")
    report = context_report(model, a, model.label_maps[args.map_a],
                            b, model.label_maps[args.map_b], psi, tol=tol)
    if args.pretty:
        print(report.summary())
    else:
        _emit(report.to_dict())
    return 0 if report.both_passed else 1


_COMMANDS = {
    "eval": _cmd_eval,
    "jointdet": _cmd_jointdet,
    "jpd": _cmd_jpd,
    "com": _cmd_com,
    "measure": _cmd_measure,
    "search": _cmd_search,
    "context": _cmd_context,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        tol = _tolerances(args)
        return _COMMANDS[args.command](args, tol)
    except QrealError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
