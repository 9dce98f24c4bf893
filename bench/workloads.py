"""The benchmark's four workloads: seeded inputs, the ops run on them, and
the check of every answer against ``oracle``.

Each builder returns a list of ``Op``.  One round runs the list in order;
a run repeats whole rounds.  The op mix is fixed: the seed chooses matrices,
value sets and states, never how many ops of each class a round holds, so
every seed does the same amount of work and every reported percentile
falls inside the same class of op (see README.md).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import pathlib
import types
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import qreal
import qreal.cli

import oracle
from oracle import WrongAnswer, close, require

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
SCHEMAS = ROOT / "src" / "qreal" / "schemas"


@dataclass
class Op:
    """One timed call into qreal.

    ``run`` is the timed part.  ``check`` raises ``WrongAnswer`` unless its
    result is right.  ``mutate`` turns a right result into wrong ones, for
    the self-check.  An op with ``expected_error`` set is the named fault:
    raising that error counts as a failed op but not as a wrong answer.
    """

    cls: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    mutate: Callable[[Any], list[tuple[str, Any]]]
    expected_error: type | None = None


def interleave(ops: list[Op]) -> list[Op]:
    """Shuffle a round so each class is spread over the whole round, and its
    percentile samples the run's full span of machine speed.  The order is
    fixed, not seeded: the sequence of allocation sizes, and with it the
    allocator's state at each op, is then the same on every seed (d=8 com
    ops ran at 26 or 40 ms depending on what was freed before them)."""
    return [ops[i] for i in np.random.default_rng(0).permutation(len(ops))]


def memo(fn):
    """Compute a reference answer once, on first use, outside any timing."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


# ---------------------------------------------------------------------------
# Seeded inputs.


def haar(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def random_state(d: int, rng: np.random.Generator) -> np.ndarray:
    return unit(rng.normal(size=d) + 1j * rng.normal(size=d))


def hermitian(u: np.ndarray, values: np.ndarray) -> np.ndarray:
    h = (u * values) @ u.conj().T
    return (h + h.conj().T) / 2.0


def matrix_body(m: np.ndarray) -> dict:
    return {"dim": m.shape[0],
            "matrix": [[[float(x.real), float(x.imag)] for x in row] for row in m]}


def state_body(v: np.ndarray) -> dict:
    return {"dim": v.shape[0], "vector": [[float(x.real), float(x.imag)] for x in v]}


def write_json(path: pathlib.Path, body: dict) -> str:
    path.write_text(json.dumps(body))
    return str(path)


def read_matrix(body: dict) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in body["matrix"]])


def read_state(body: dict) -> np.ndarray:
    v = np.array([complex(re, im) for re, im in body["vector"]])
    return v / np.linalg.norm(v)


def read_model(path: str):
    body = json.loads(pathlib.Path(path).read_text())
    maps = {name: {float(k): float(v) for k, v in pairs}
            for name, pairs in body.get("label_maps", {}).items()}
    state = read_state(body["system_state"]) if "system_state" in body else None
    return (read_matrix(body["unitary"]), read_state(body["probe_state"]),
            read_matrix(body["meter"]), maps, state)


def read_observable(path: str) -> np.ndarray:
    return read_matrix(json.loads(pathlib.Path(path).read_text()))


# ---------------------------------------------------------------------------
# formula-eval: library parse + holds_in.

# Templates fix each class's shape; the seed fills in value sets and matrices.
# X and W have generic spectra, Y and Z degenerate ones.
T3 = ("imp", ("and", "X", "Y"), ("not", "Z"))
T5 = ("iff", ("and", ("or", "X", "Y"), ("not", "Z")), ("imp", "X", "Y"))
TEQ = ("or", ("eq", "X", "W"), ("and", "Y", "Z"))

# (class, dimension, template, ops per round)
FORMULA_MIX = (
    ("d8/T5", 8, T5, 24),
    ("d32/T5", 32, T5, 40),
    ("d96/T5", 96, T5, 30),
    ("d32/eq", 32, TEQ, 6),
)
FORMULA_SMALL = (("d4/T3", 4, T3, 2), ("d4/T5", 4, T5, 2), ("d4/eq", 4, TEQ, 2))

DEGENERATE = np.array([-1.0, 0.0, 1.0, 2.0])


def _fill(template, spectra: dict[str, np.ndarray], rng: np.random.Generator):
    """Replace each atom placeholder by an atom over half its spectrum."""
    if isinstance(template, str):
        distinct = np.unique(spectra[template])
        picks = rng.choice(distinct, size=max(1, len(distinct) // 2), replace=False)
        return ("atom", template, tuple(sorted(float(v) for v in picks)))
    if template[0] == "eq":
        return template
    return (template[0],) + tuple(_fill(t, spectra, rng) for t in template[1:])


def formula_eval(rng: np.random.Generator, work: pathlib.Path, small: bool = False) -> list[Op]:
    ops = []
    for cls, d, template, count in (FORMULA_SMALL if small else FORMULA_MIX):
        for i in range(count):
            commuting = i % 2 == 0
            generic = 0.5 * rng.permutation(d) - d / 4.0
            spectra = {
                "X": generic,
                "W": rng.permutation(generic),
                "Y": rng.choice(DEGENERATE, size=d),
                "Z": rng.choice(DEGENERATE, size=d),
            }
            shared = haar(d, rng)
            env = {name: hermitian(shared if commuting else haar(d, rng), vals)
                   for name, vals in spectra.items()}
            tree = _fill(template, spectra, rng)
            psi = random_state(d, rng)
            if commuting and i % 4 == 0:
                # Plant a state inside the formula's classical truth set.
                truth = oracle.truth_table(tree, spectra)
                if truth.any():
                    psi = unit(shared @ (truth * (rng.normal(size=d) + 1j * rng.normal(size=d))))
            ops.append(_formula_op(cls, tree, env, psi,
                                   (shared, spectra) if commuting else None))
    return interleave(ops)


def _formula_op(cls, tree, env, psi, family) -> Op:
    text = oracle.render(tree)
    has_eq = "[" in text

    def run():
        bound = qreal.Environment({n: qreal.Observable(m, name=n) for n, m in env.items()})
        return qreal.holds_in(qreal.parse(text), bound, psi)

    @memo
    def expected():
        proj = oracle.evaluate(tree, env)
        if family is not None:
            shared, spectra = family
            table = oracle.truth_table(tree, spectra).astype(float)
            classical = (shared * table) @ shared.conj().T
            require(np.linalg.norm(proj - classical, 2) <= 1e-7,
                    f"{text}: reference evaluator disagrees with the truth table")
        return proj

    def check(report):
        proj = expected()
        require(np.linalg.norm(report.projection.matrix - proj, 2) <= 1e-6,
                f"{cls}: projection differs from the reference for {text}")
        require(close(report.probability, oracle.born(proj, psi)),
                f"{cls}: probability {report.probability} for {text}")
        require(report.holds == oracle.contains(proj, psi), f"{cls}: holds flag for {text}")
        if has_eq:
            a = qreal.Observable(env["X"])
            b = qreal.Observable(env["W"])
            want = oracle.contains(oracle.equality_projection(env["X"], env["W"]), psi)
            require(qreal.perfectly_correlated(a, b, psi) == want,
                    f"{cls}: [X = W] disagrees with the vector route perfectly_correlated")

    def mutate(report):
        flipped = types.SimpleNamespace(matrix=np.eye(report.projection.dim) - report.projection.matrix)
        return [
            ("holds flipped", dataclasses.replace(report, holds=not report.holds)),
            ("probability off", dataclasses.replace(report, probability=report.probability + 1e-3)),
            ("projection complemented", dataclasses.replace(report, projection=flipped)),
        ]

    return Op(cls, run, check, mutate)


# ---------------------------------------------------------------------------
# joint-reality: jointly_determinate, nowhere_commuting, jpd_exists.

# (dimension, pairs per kind, functions run on each pair); one round.  With
# the d=16 and d=32 ops below, the round's median falls mid-way through the
# d=4 jd/nc ops and its 90th percentile mid-way through the d=8 jd/nc ops.
JOINT_MIX = (
    (4, 14, ("jd", "nc")),
    (4, 4, ("jpd",)),
    (8, 3, ("jd", "nc", "jpd")),
    (12, 1, ("jd", "jpd")),
)
JOINT_SMALL = ((4, 1, ("jd", "nc", "jpd")),)
KINDS = ("commuting", "block", "generic")


def planted_pair(kind: str, d: int, rng: np.random.Generator, plant_state: bool):
    """(A, B, psi, com rank) with the rank fixed by construction.

    commuting: one eigenbasis, com rank d.  block: one eigenbasis except a
    2x2 block in which the two act as noncommuting qubit observables, com
    rank d-2.  generic: independent Haar eigenbases, com rank 0.  Spectra are
    nondegenerate and spaced by 1.
    """
    a_vals = rng.permutation(d).astype(float)
    b_vals = rng.permutation(d).astype(float)
    if kind == "generic":
        return (hermitian(haar(d, rng), a_vals), hermitian(haar(d, rng), b_vals),
                random_state(d, rng), 0)
    u = haar(d, rng)
    a = np.diag(a_vals).astype(complex)
    b = np.diag(b_vals).astype(complex)
    rank = d
    if kind == "block":
        r1, r2 = haar(2, rng), haar(2, rng)
        a[d - 2:, d - 2:] = hermitian(r1, a_vals[d - 2:])
        b[d - 2:, d - 2:] = hermitian(r2, b_vals[d - 2:])
        rank = d - 2
    psi = random_state(d, rng)
    if kind == "block" and plant_state:
        psi[d - 2:] = 0.0
        psi = unit(psi)
    return (u @ a @ u.conj().T, u @ b @ u.conj().T, u @ psi, rank)


def joint_reality(rng: np.random.Generator, work: pathlib.Path, small: bool = False) -> list[Op]:
    ops = []
    for d, pairs, functions in (JOINT_SMALL if small else JOINT_MIX):
        for kind in KINDS:
            for i in range(pairs):
                a, b, psi, rank = planted_pair(kind, d, rng, plant_state=i % 2 == 0)
                ops.extend(_joint_ops(d, kind, functions, a, b, psi, rank))
    if not small:
        a, b, psi, rank = planted_pair("block", 16, rng, plant_state=True)
        ops.extend(_joint_ops(16, "block", ("jd",), a, b, psi, rank))
        a, b, psi, rank = planted_pair("generic", 32, rng, plant_state=False)
        ops.extend(_joint_ops(32, "generic", ("jd", "nc"), a, b, psi, rank,
                              expected_error=MemoryError))
    return interleave(ops)


def _joint_ops(d, kind, functions, a, b, psi, rank, expected_error=None) -> list[Op]:
    @memo
    def reference():
        basis = oracle.commutator_kernel(a, b)
        require(basis.shape[1] == rank,
                f"d={d} {kind}: kernel dimension {basis.shape[1]}, planted {rank}")
        return oracle.projector(basis)

    def run_jd():
        return qreal.jointly_determinate([qreal.Observable(a), qreal.Observable(b)], psi)

    def check_jd(answer):
        flag, proj = answer
        com = reference()
        require(proj.rank == rank, f"d={d} {kind}: com rank {proj.rank}, planted {rank}")
        require(np.linalg.norm(proj.matrix - com, 2) <= 1e-6, f"d={d} {kind}: com projection")
        require(flag == oracle.contains(com, psi), f"d={d} {kind}: determinate flag {flag}")

    def mutate_jd(answer):
        flag, proj = answer
        wrong_rank = types.SimpleNamespace(matrix=proj.matrix, rank=proj.rank + 1)
        return [("flag flipped", (not flag, proj)), ("rank off by one", (flag, wrong_rank))]

    def run_nc():
        return qreal.nowhere_commuting(qreal.Observable(a), qreal.Observable(b))

    def check_nc(flag):
        reference()
        require(flag == (rank == 0), f"d={d} {kind}: nowhere_commuting {flag}, com rank {rank}")

    def run_jpd():
        return qreal.jpd_exists(qreal.Observable(a), qreal.Observable(b), psi)

    @memo
    def reference_jpd():
        weights = oracle.meet_jpd(a, b, psi)
        return sorted(weights.items()), oracle.jpd_is_genuine(a, b, psi, weights)

    def check_jpd(answer):
        exists, candidate = answer
        weights = list(candidate.values())
        require(min(weights) >= 0.0, f"d={d} {kind}: negative JPD weight")
        require(sum(weights) <= 1.0 + 1e-9, f"d={d} {kind}: JPD weights sum to {sum(weights)}")
        want, genuine = reference_jpd()
        got = sorted(candidate.items())
        require(len(got) == len(want), f"d={d} {kind}: JPD table size")
        for ((lam, mu), w), ((lam2, mu2), w2) in zip(got, want):
            require(close(lam, lam2) and close(mu, mu2) and close(w, w2),
                    f"d={d} {kind}: JPD weight at ({lam}, {mu})")
        planted = rank == d or (rank == d - 2 and oracle.contains(reference(), psi))
        require(exists == genuine == planted, f"d={d} {kind}: JPD exists {exists}")

    def mutate_jpd(answer):
        exists, candidate = answer
        first = next(iter(candidate))
        return [
            ("exists flipped", (not exists, candidate)),
            ("negative weight", (exists, {**candidate, first: -0.1})),
            ("weight moved", (exists, {**candidate, first: candidate[first] + 0.05})),
        ]

    table = {
        "jd": (run_jd, check_jd, mutate_jd),
        "nc": (run_nc, check_nc, lambda flag: [("flag flipped", not flag)]),
        "jpd": (run_jpd, check_jpd, mutate_jpd),
    }
    return [Op(f"d{d}/{fn}", *table[fn], expected_error=expected_error) for fn in functions]


# ---------------------------------------------------------------------------
# CLI ops, shared by certify-cli and witness-search.


def cli_call(argv: list[str]) -> tuple[int, str]:
    """``qreal.cli.main`` in-process, with its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qreal.cli.main(argv)
    return code, out.getvalue()


class Schemas:
    def __init__(self):
        import jsonschema  # only the CLI workloads pay for this import

        self._validators = {
            path.stem: jsonschema.Draft202012Validator(json.loads(path.read_text()))
            for path in SCHEMAS.glob("*.json")
        }

    def output(self, kind: str, answer: tuple[int, str]) -> dict:
        """Parse a CLI result and validate it against ``<kind>_output.json``."""
        code, text = answer
        require(code in (0, 1), f"{kind}: exit code {code}")
        try:
            body = json.loads(text)
        except json.JSONDecodeError:
            raise WrongAnswer(f"{kind}: output is not JSON") from None
        self.validate(f"{kind}_output", body)
        return body

    def validate(self, schema: str, body: dict) -> None:
        errors = list(self._validators[schema].iter_errors(body))
        require(not errors, f"{schema}: {errors[0].message if errors else ''}")


def _edit(answer: tuple[int, str], edit) -> tuple[int, str]:
    body = json.loads(answer[1])
    edit(body)
    return answer[0], json.dumps(body)


def _drop(key: str):
    return lambda body: body.pop(key)


def _flip(*keys: str):
    def edit(body):
        node = body
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = not node[keys[-1]]
    return edit


def _bump(*keys: str):
    def edit(body):
        node = body
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = node[keys[-1]] + 1e-3
    return edit


def measure_op(cls: str, schemas: Schemas, model_path: str, state_path: str,
               observables: list[tuple[str, str, str]], must_pass: tuple[str, ...] = ()) -> Op:
    """``qreal measure`` with (name, observable file, map name) triples; the
    observables named in ``must_pass`` are read by a copy gate and must
    certify whatever the state."""
    argv = ["measure", model_path, "--state", state_path]
    for name, path, map_name in observables:
        argv += ["--observable", f"{name}={path}", "--map", map_name]

    @memo
    def expected():
        u, xi, meter, maps, _ = read_model(model_path)
        psi = read_state(json.loads(pathlib.Path(state_path).read_text()))
        obs = [(name, read_observable(path), maps[m]) for name, path, m in observables]
        certs = {name: (oracle.certificate_defect(u, xi, meter, f, a, psi),
                        oracle.rms_noise(u, xi, meter, f, a, psi)) for name, a, f in obs}
        report = None
        if len(obs) == 2:
            (_, a, f), (_, b, _) = obs
            eps, eta = certs[obs[0][0]][1], oracle.rms_disturbance(u, xi, b, psi)
            sa, sb = oracle.std_dev(a, psi), oracle.std_dev(b, psi)
            report = {"epsilon": eps, "eta": eta, "sigma_a": sa, "sigma_b": sb,
                      "bound": 0.5 * abs(complex(np.vdot(psi, (a @ b - b @ a) @ psi))),
                      "lhs": eps * eta + eps * sb + sa * eta}
        return oracle.meter_distribution(u, xi, meter, psi), certs, report

    def check(answer):
        body = schemas.output("measure", answer)
        distribution, certs, report = expected()
        got = sorted(body["distribution"])
        require(len(got) == len(distribution), f"{cls}: distribution size")
        for (m, p), (m2, p2) in zip(got, sorted(distribution.items())):
            require(close(m, m2) and close(p, p2), f"{cls}: p({m}) = {p}, want {p2}")
        passed_all = True
        for name, (defect, epsilon) in certs.items():
            entry = body["observables"][name]
            passed = defect <= oracle.EQ_TOL
            require(passed or name not in must_pass, f"{cls}: copy gate fails for {name}")
            passed_all = passed_all and passed
            require(close(entry["defect"], defect, 1e-8), f"{cls}: defect of {name}")
            require(close(entry["epsilon"], epsilon, 1e-8), f"{cls}: epsilon of {name}")
            require(entry["passed"] == passed, f"{cls}: certificate of {name}")
        if report is None:
            require(body["uncertainty"] is None, f"{cls}: unexpected uncertainty report")
        else:
            for key, want in report.items():
                require(close(body["uncertainty"][key], want, 1e-8), f"{cls}: uncertainty {key}")
            require(body["uncertainty"]["satisfied"] == (report["lhs"] >= report["bound"] - 1e-9),
                    f"{cls}: uncertainty inequality flag")
        require(answer[0] == (0 if passed_all else 1), f"{cls}: exit code {answer[0]}")

    def mutate(answer):
        first = observables[0][0]
        return [
            ("exit code flipped", (1 - answer[0], answer[1])),
            ("defect off", _edit(answer, _bump("observables", first, "defect"))),
            ("passed flipped", _edit(answer, _flip("observables", first, "passed"))),
            ("key dropped", _edit(answer, _drop("distribution"))),
        ]

    return Op(cls, lambda: cli_call(argv), check, mutate)


def context_op(cls: str, schemas: Schemas, model_path: str, a_path: str, map_a: str,
               b_path: str, map_b: str, state_path: str | None,
               exhibit: bool = False, must_pass: tuple[str, ...] = ()) -> Op:
    """``qreal context``; ``exhibit`` also requires the paper's flags: both
    certificates pass, nowhere commuting, not jointly determinate, no JPD.
    Sides ("a", "b") in ``must_pass`` are read by a copy gate."""
    argv = ["context", model_path, a_path, map_a, b_path, map_b]
    if state_path is not None:
        argv += ["--state", state_path]

    @memo
    def expected():
        u, xi, meter, maps, embedded = read_model(model_path)
        psi = embedded if state_path is None else read_state(
            json.loads(pathlib.Path(state_path).read_text()))
        a, b = read_observable(a_path), read_observable(b_path)
        defect_a = oracle.certificate_defect(u, xi, meter, maps[map_a], a, psi)
        defect_b = oracle.certificate_defect(u, xi, meter, maps[map_b], b, psi)
        com = oracle.projector(oracle.commutator_kernel(a, b))
        equal = oracle.equality_projection(a, b)
        return {
            "defects": (defect_a, defect_b),
            "nowhere_commuting": np.trace(com).real < 0.5,
            "jointly_determinate": oracle.contains(com, psi),
            "determinateness_rank": int(round(np.trace(com).real)),
            "jpd_exists": oracle.jpd_is_genuine(a, b, psi, oracle.meet_jpd(a, b, psi)),
            "system_equality": oracle.contains(equal, psi),
            "system_equality_probability": oracle.born(equal, psi),
        }

    def check(answer):
        body = schemas.output("context", answer)
        want = expected()
        passed = []
        for side, defect in zip(("a", "b"), want["defects"]):
            cert = body[f"certificate_{side}"]
            require(close(cert["defect"], defect, 1e-8), f"{cls}: defect {side}")
            require(cert["passed"] == (defect <= oracle.EQ_TOL), f"{cls}: certificate {side}")
            require(defect <= oracle.EQ_TOL or side not in must_pass,
                    f"{cls}: copy gate fails for side {side}")
            # The lattice route must agree with the vector-defect certificate.
            require(body[f"meter_equality_{side}"] == cert["passed"],
                    f"{cls}: meter equality {side} disagrees with its certificate")
            passed.append(cert["passed"])
        require(body["both_passed"] == all(passed), f"{cls}: both_passed")
        for key in ("nowhere_commuting", "jointly_determinate", "determinateness_rank",
                    "jpd_exists", "system_equality"):
            require(body[key] == want[key], f"{cls}: {key} = {body[key]}")
        require(close(body["system_equality_probability"], want["system_equality_probability"]),
                f"{cls}: system equality probability")
        require(body["lifted_equality"] == body["system_equality"],
                f"{cls}: lifted and system equality differ in a product state")
        if exhibit:
            require(all(passed) and body["nowhere_commuting"]
                    and not body["jointly_determinate"] and not body["jpd_exists"],
                    f"{cls}: the exhibit's flags are not the paper's")
        require(answer[0] == (0 if all(passed) else 1), f"{cls}: exit code {answer[0]}")

    def mutate(answer):
        return [
            ("exit code flipped", (1 - answer[0], answer[1])),
            ("nowhere_commuting flipped", _edit(answer, _flip("nowhere_commuting"))),
            ("jpd_exists flipped", _edit(answer, _flip("jpd_exists"))),
            ("defect off", _edit(answer, _bump("certificate_a", "defect"))),
            ("key dropped", _edit(answer, _drop("both_passed"))),
        ]

    return Op(cls, lambda: cli_call(argv), check, mutate)


# ---------------------------------------------------------------------------
# certify-cli: `qreal measure` and `qreal context` on fixtures and seeded models.

# (class, n=k, op kind, ops per round); fixture classes use tests/data.
CERTIFY_MIX = (
    ("fixture/measure", 0, "measure", 66),
    ("fixture/context", 0, "context", 4),
    ("n2/context", 2, "context", 3),
    ("n4/measure", 4, "measure", 3),
    ("n4/context", 4, "context", 3),
    ("n8/measure", 8, "measure", 6),
    ("n8/context", 8, "context", 15),
)
CERTIFY_SMALL = (("fixture/measure", 0, "measure", 2), ("fixture/context", 0, "context", 4),
                 ("n2/measure", 2, "measure", 4), ("n2/context", 2, "context", 4))


def _fixture_ops(cls: str, kind: str, count: int, schemas: Schemas) -> list[Op]:
    f = {name: str(DATA / f"{name}.json") for name in (
        "model_cnot", "model_headline", "model_uncoupled", "obs_sigma_x", "obs_sigma_y",
        "obs_sigma_z", "state_zero2", "state_one2", "state_plus", "state_plus_i")}
    if kind == "measure":
        variants = [
            (f["model_cnot"], f["state_plus"], [("Z", f["obs_sigma_z"], "f"), ("X", f["obs_sigma_x"], "f")]),
            (f["model_headline"], f["state_plus_i"], [("X", f["obs_sigma_x"], "fA"), ("Y", f["obs_sigma_y"], "fB")]),
        ]
        return [measure_op(cls, schemas, *variants[i % len(variants)]) for i in range(count)]
    variants = [
        (f["model_headline"], f["obs_sigma_x"], "fA", f["obs_sigma_y"], "fB", None, True),
        (f["model_cnot"], f["obs_sigma_z"], "f", f["obs_sigma_x"], "f", f["state_zero2"], False),
        (f["model_cnot"], f["obs_sigma_z"], "f", f["obs_sigma_x"], "f", f["state_plus"], False),
        (f["model_headline"], f["obs_sigma_x"], "fA", f["obs_sigma_y"], "fB", f["state_one2"], False),
    ]
    return [context_op(cls, schemas, *variants[i % len(variants)]) for i in range(count)]


def copy_gate(v: np.ndarray) -> np.ndarray:
    """U = (V⊗1) C (V†⊗1) with C|i, j> = |i, i+j mod n>: copies A's
    eigenbasis index into the probe, so the meter reads A in every state."""
    n = v.shape[0]
    c = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            c[i * n + (i + j) % n, i * n + j] = 1.0
    lift = np.kron(v, np.eye(n))
    return lift @ c @ lift.conj().T


def _seeded_models(n: int, count: int, work: pathlib.Path, rng: np.random.Generator):
    """``count`` (certified sides, model, A, B, state) file sets at n=k.

    Even indices use a copy gate for A, which certifies in every state; odd
    ones a Haar-random coupling, which certifies nothing.  B is a function
    of A (so the copy gate certifies it too) at every fourth index and an
    unrelated observable otherwise.  Every spectrum is nondegenerate, so the
    variants cost about the same and each class stays one class.
    """
    sets = []
    for i in range(count):
        v = haar(n, rng)
        a_vals = rng.permutation(n).astype(float) - n // 2
        b_vals = rng.permutation(n) + 0.5
        u = copy_gate(v) if i % 2 == 0 else haar(n * n, rng)
        b = hermitian(v if i % 4 == 0 else haar(n, rng), b_vals)
        prefix = f"n{n}-{i}"
        meter = np.diag(np.arange(1, n + 1)).astype(complex)
        model = {
            "sys_dim": n, "probe_dim": n,
            "probe_state": state_body(np.eye(n, dtype=complex)[0]),
            "unitary": matrix_body(u),
            "meter": matrix_body(meter),
            "label_maps": {
                "fA": [[float(m + 1), float(a_vals[m])] for m in range(n)],
                "fB": [[float(m + 1), float(b_vals[m])] for m in range(n)],
            },
        }
        certified = ("a", "b") if i % 4 == 0 else ("a",) if i % 2 == 0 else ()
        sets.append((
            certified,
            write_json(work / f"{prefix}-model.json", model),
            write_json(work / f"{prefix}-a.json", matrix_body(hermitian(v, a_vals))),
            write_json(work / f"{prefix}-b.json", matrix_body(b)),
            write_json(work / f"{prefix}-state.json", state_body(random_state(n, rng))),
        ))
    return sets


def certify_cli(rng: np.random.Generator, work: pathlib.Path, small: bool = False) -> list[Op]:
    schemas = Schemas()
    ops = []
    for cls, n, kind, count in (CERTIFY_SMALL if small else CERTIFY_MIX):
        if n == 0:
            ops.extend(_fixture_ops(cls, kind, count, schemas))
            continue
        for certified, model, a, b, state in _seeded_models(n, count, work, rng):
            if kind == "measure":
                ops.append(measure_op(cls, schemas, model, state, [("A", a, "fA"), ("B", b, "fB")],
                                      must_pass=tuple(side.upper() for side in certified)))
            else:
                ops.append(context_op(cls, schemas, model, a, "fA", b, "fB", state,
                                      must_pass=certified))
    return interleave(ops)


# ---------------------------------------------------------------------------
# witness-search: the headline X/Y search, then the exhibit on its witness.

# Per round, after the search: `context` calls on the witness (one at its
# own state, the rest at seeded states) and `measure` calls at seeded states.
# The median falls inside the measure calls and p90 inside the context calls,
# away from both classes' tails.  Together they take about as long as the
# search, which halves how far host drift moves the round's time.
WITNESS_CONTEXTS = 450
WITNESS_MEASURES = 900
SUCCESS_TOL = 1e-8


def search_op(schemas: Schemas, witness: str, x_path: str, y_path: str) -> Op:
    # Search seed 0 and the default 20 restarts: the paper's headline run.
    argv = ["search", x_path, y_path, "--probe-dim", "2", "--out", witness,
            "--success-tol", repr(SUCCESS_TOL)]

    def check(answer):
        body = schemas.output("search", answer)
        require(answer[0] == 0 and body["success"], "search: no witness found")
        require(body["defect"] <= SUCCESS_TOL, f"search: reported defect {body['defect']}")
        written = json.loads(pathlib.Path(body["out"]).read_text())
        schemas.validate("model_file", written)
        u, xi, meter, maps, psi = read_model(body["out"])
        x, y = read_observable(x_path), read_observable(y_path)
        defect = max(oracle.certificate_defect(u, xi, meter, maps["fA"], x, psi),
                     oracle.certificate_defect(u, xi, meter, maps["fB"], y, psi))
        require(defect <= SUCCESS_TOL, f"search: witness file's defect is {defect}")
        require(abs(defect - body["defect"]) <= 1e-9, "search: reported defect disagrees with the file")

    def mutate(answer):
        body = json.loads(pathlib.Path(witness).read_text())
        body["system_state"]["vector"] = [[1.0, 0.0], [0.0, 0.0]]
        corrupt = write_json(pathlib.Path(witness).with_name("witness-corrupt.json"), body)

        def point_at_corrupt(reply):
            reply["out"] = corrupt

        return [
            ("exit code flipped", (1, answer[1])),
            ("defect off", _edit(answer, _bump("defect"))),
            ("witness state replaced", _edit(answer, point_at_corrupt)),
        ]

    return Op("search", lambda: cli_call(argv), check, mutate)


def witness_search(rng: np.random.Generator, work: pathlib.Path, small: bool = False) -> list[Op]:
    schemas = Schemas()
    x_path, y_path = str(DATA / "obs_sigma_x.json"), str(DATA / "obs_sigma_y.json")
    witness = str(work / "witness.json")
    search = search_op(schemas, witness, x_path, y_path)
    if small:
        # The fixture headline model stands in for a found witness.
        body = json.loads((DATA / "model_headline.json").read_text())
        write_json(pathlib.Path(witness), {**body, "defect": 0.0, "restart_index": 0})
        reply = json.dumps({"defect": 0.0, "restart_index": 0, "success": True, "out": witness})
        search = dataclasses.replace(search, run=lambda: (0, reply))
    exhibit = context_op("context", schemas, witness, x_path, "fA", y_path, "fB", None, exhibit=True)
    states = [write_json(work / f"state-{i}.json", state_body(random_state(2, rng)))
              for i in range(2 if small else WITNESS_MEASURES)]
    after = [exhibit]
    after += [context_op("context", schemas, witness, x_path, "fA", y_path, "fB", state)
              for state in states[:2 if small else WITNESS_CONTEXTS - 1]]
    after += [measure_op("measure", schemas, witness, state, [("X", x_path, "fA"), ("Y", y_path, "fB")])
              for state in states]
    return [search] + interleave(after)


BUILDERS = {
    "formula-eval": formula_eval,
    "joint-reality": joint_reality,
    "certify-cli": certify_cli,
    "witness-search": witness_search,
}
