"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run `pytest tests/test_acceptance.py -s` to see the full table, or execute
this file directly.
"""

import json
import time

import numpy as np
import pytest
import scipy.linalg

from corpus import (
    MALFORMED_FORMULAS,
    equality_corpus,
    joint_space_defect,
    kernel,
    lattice_value_identity,
    random_formula,
    random_model_parts,
)
from qreal import (
    KET_PLUS,
    MeasurementModel,
    Observable,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ParseError,
    Projection,
    born_distribution,
    com_pair,
    complement,
    context_report,
    join,
    jointly_determinate,
    jpd_exists,
    measures_in_state,
    meet,
    nowhere_commuting,
    output_distribution,
    parse,
    perfectly_correlated,
    povm,
    rms_noise,
    search_simultaneous,
    uncertainty_report,
    unparse,
    value_identity,
)
from qreal.cli import main
from qreal.numlin import op_norm
from qreal.standard import (
    basis_state,
    random_hermitian,
    random_projection_matrix,
    random_state,
    random_unitary,
)

_CORPUS = None


def shared_corpus():
    """The 1000-instance equality corpus, shared by criteria 3 and 4."""
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = equality_corpus(np.random.default_rng(101), 1000)
    return _CORPUS


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------


def test_criterion_01_lattice_suite():
    rng = np.random.default_rng(1)
    start = time.monotonic()
    worst_law = 0.0
    worst_angle = 0.0
    ok = True
    for dim in (2, 3, 4, 5):
        for _ in range(500):
            p = Projection(random_projection_matrix(dim, int(rng.integers(0, dim + 1)), rng))
            q = Projection(random_projection_matrix(dim, int(rng.integers(0, dim + 1)), rng))

            # De Morgan, both directions.
            worst_law = max(
                worst_law,
                op_norm(complement(meet(p, q)).matrix - join(complement(p), complement(q)).matrix),
                op_norm(complement(join(p, q)).matrix - meet(complement(p), complement(q)).matrix),
            )

            # Orthomodular law on a comparable pair from one flag.
            v = random_unitary(dim, rng)
            r_small = int(rng.integers(0, dim + 1))
            r_big = int(rng.integers(r_small, dim + 1))
            small = Projection.onto(v[:, :r_small]) if r_small else Projection.zero(dim)
            big = Projection.onto(v[:, :r_big]) if r_big else Projection.zero(dim)
            rebuilt = join(small, meet(complement(small), big))
            worst_law = max(worst_law, op_norm(rebuilt.matrix - big.matrix))

            # com_pair range = ker [P, Q].
            commutator = p.matrix @ q.matrix - q.matrix @ p.matrix
            want = kernel(commutator)
            mine = com_pair(p, q).basis()
            if mine.shape[1] != want.shape[1]:
                ok = False
            elif mine.shape[1]:
                worst_angle = max(
                    worst_angle, float(scipy.linalg.subspace_angles(mine, want).max())
                )
    elapsed = time.monotonic() - start
    ok = ok and worst_law <= 1e-9 and worst_angle <= 1e-8 and elapsed < 60.0
    assert report(1, ok, f"lattice laws on 2000 pairs: law residual {worst_law:.2e}, "
                         f"principal angle {worst_angle:.2e}, {elapsed:.1f}s")


def test_criterion_02_nondistributivity_gap():
    p = Projection.rank1(basis_state(2, 0))
    q = Projection.rank1(KET_PLUS)
    r = Projection.rank1(np.array([1.0, -1.0]) / np.sqrt(2))
    left = meet(p, join(q, r))
    right = join(meet(p, q), meet(p, r))
    gap = op_norm(left.matrix - right.matrix)
    ok = abs(gap - 1.0) <= 1e-9
    assert report(2, ok, f"distributivity violation norm {gap:.12f}")


def test_criterion_03_value_identity_theorem():
    disagreements = 0
    for kind, a, b, psi in shared_corpus():
        oa = Observable(a, name="A")
        ob = Observable(b, name="B")
        lattice_route = lattice_value_identity(oa, ob).contains(psi)
        kernel_route = value_identity(oa, ob).contains(psi)
        vector_route = perfectly_correlated(oa, ob, psi)
        disagreements += not lattice_route == kernel_route == vector_route
    ok = disagreements == 0
    assert report(3, ok, f"equality truth by lattice fold, by kernel and by perfect "
                         f"correlation on 1000 instances: {disagreements} disagreements")


def test_criterion_04_nowhere_commuting_forbids_jpd():
    rng = np.random.default_rng(4)
    x = Observable(PAULI_X, name="X")
    y = Observable(PAULI_Y, name="Y")
    ok = nowhere_commuting(x, y)
    for _ in range(200):
        exists, _ = jpd_exists(x, y, random_state(2, rng))
        ok = ok and not exists
    agreement_failures = 0
    for kind, a, b, psi in shared_corpus():
        oa, ob = Observable(a), Observable(b)
        exists, _ = jpd_exists(oa, ob, psi)
        determinate, _ = jointly_determinate([oa, ob], psi)
        agreement_failures += exists != determinate
    ok = ok and agreement_failures == 0
    assert report(4, ok, f"(X, Y) admits no JPD in 200 states; JPD existence matches "
                         f"joint determinateness with {agreement_failures} exceptions")


def test_criterion_05_measurement_numerics(cnot_model):
    rng = np.random.default_rng(5)
    z = Observable(PAULI_Z, name="A")
    x = Observable(PAULI_X, name="A")
    f = cnot_model.label_maps["f"]
    worst_defect = 0.0
    worst_eps = 0.0
    for _ in range(20):
        psi = random_state(2, rng)
        worst_defect = max(worst_defect, measures_in_state(cnot_model, z, f, psi).defect)
        worst_eps = max(worst_eps, rms_noise(cnot_model, z, f, psi))
    eps_x = rms_noise(cnot_model, x, f, KET_PLUS)
    cert_x = measures_in_state(cnot_model, x, f, KET_PLUS)
    completeness = 0.0
    for _ in range(200):
        sys_dim = int(rng.integers(2, 4))
        probe_dim = int(rng.integers(2, 4))
        u, xi, meter = random_model_parts(rng, sys_dim, probe_dim)
        model = MeasurementModel(sys_dim, probe_dim, xi, u, Observable(meter, name="M"))
        total = sum(effect for _, effect in povm(model))
        completeness = max(completeness, op_norm(total - np.eye(sys_dim)))
    ok = (worst_defect <= 1e-9 and worst_eps <= 1e-9
          and abs(eps_x - np.sqrt(2)) <= 1e-9 and not cert_x.passed
          and completeness <= 1e-10)
    assert report(5, ok, f"basis readout certifies Z (defect {worst_defect:.1e}, noise "
                         f"{worst_eps:.1e}); X in |+>: noise {eps_x:.9f}, certificate "
                         f"{'fails' if not cert_x.passed else 'passes'}; POVM completeness "
                         f"{completeness:.1e} over 200 models")


def test_criterion_06_uncertainty_inequality():
    rng = np.random.default_rng(6)
    worst_margin = np.inf
    violations = 0
    for i in range(200):
        sys_dim = int(rng.integers(2, 4))
        probe_dim = int(rng.integers(2, 4))
        u, xi, meter = random_model_parts(rng, sys_dim, probe_dim)
        if i % 2:
            mapping = {float(m): float(m) for m in range(1, probe_dim + 1)}
        else:
            mapping = {float(m): float(rng.integers(-3, 4)) for m in range(1, probe_dim + 1)}
        model = MeasurementModel(sys_dim, probe_dim, xi, u, Observable(meter, name="M"),
                                 label_maps={"f": mapping})
        a = Observable(random_hermitian(sys_dim, rng), name="A")
        b = Observable(random_hermitian(sys_dim, rng), name="B")
        psi = random_state(sys_dim, rng)
        rep = uncertainty_report(model, a, mapping, b, psi)
        margin = rep.lhs - rep.bound
        worst_margin = min(worst_margin, margin)
        violations += margin < -1e-9
    ok = violations == 0
    assert report(6, ok, f"noise-disturbance inequality on 200 random instances: "
                         f"{violations} violations, worst margin {worst_margin:.2e}")


def _exact_readout_model(rng):
    """A model measuring a rotated nondegenerate observable exactly, via a
    controlled shift in the observable's eigenbasis."""
    n = int(rng.integers(2, 4))
    w = random_unitary(n, rng)
    values = np.arange(1.0, n + 1.0) * rng.choice([1.0, 2.0]) + float(rng.integers(-2, 3))
    a = Observable((w * values) @ w.conj().T, name="A")
    shift = np.zeros((n * n, n * n))
    for j in range(n):
        for col in range(n):
            shift[j * n + (col + j) % n, j * n + col] = 1.0
    u = np.kron(w, np.eye(n)) @ shift @ np.kron(w, np.eye(n)).conj().T
    meter = Observable(np.diag(np.arange(1.0, n + 1.0)), name="M")
    mapping = {float(m + 1): float(values[m]) for m in range(n)}
    model = MeasurementModel(n, n, basis_state(n, 0), u, meter, {"f": mapping})
    return model, a, mapping


def test_criterion_07_zero_noise_iff_perfect_correlation():
    rng = np.random.default_rng(7)
    mismatches = 0
    for i in range(300):
        if i % 2:
            model, a, mapping = _exact_readout_model(rng)
        else:
            sys_dim = int(rng.integers(2, 4))
            probe_dim = int(rng.integers(2, 4))
            u, xi, meter = random_model_parts(rng, sys_dim, probe_dim)
            mapping = {float(m): float(m) for m in range(1, probe_dim + 1)}
            model = MeasurementModel(sys_dim, probe_dim, xi, u,
                                     Observable(meter, name="M"), {"f": mapping})
            a = Observable(random_hermitian(sys_dim, rng), name="A")
        psi = random_state(model.sys_dim, rng)
        zero_noise = rms_noise(model, a, mapping, psi) <= 1e-8
        correlated = measures_in_state(model, a, mapping, psi).defect <= 1e-8
        mismatches += zero_noise != correlated
    ok = mismatches == 0
    assert report(7, ok, f"zero rms noise iff perfect correlation on 300 instances: "
                         f"{mismatches} mismatches")


def test_criterion_08_planted_search():
    start = time.monotonic()
    result = search_simultaneous(
        Observable(PAULI_Z, name="A"), Observable(3 * PAULI_Z, name="B"),
        probe_dim=2, restarts=50, seed=0,
    )
    elapsed = time.monotonic() - start
    ok = result.defect < 1e-8 and elapsed < 120.0
    assert report(8, ok, f"planted pair solved: defect {result.defect:.2e} at restart "
                         f"{result.restart_index}, {elapsed:.1f}s")


def test_criterion_09_headline_exhibit(data_dir, capsys):
    code = main([
        "context", str(data_dir / "model_headline.json"),
        str(data_dir / "obs_sigma_x.json"), "fA",
        str(data_dir / "obs_sigma_y.json"), "fB",
    ])
    out = json.loads(capsys.readouterr().out)
    exhibit_ok = (
        code == 0
        and out["certificate_a"]["defect"] <= 1e-8
        and out["certificate_b"]["defect"] <= 1e-8
        and out["nowhere_commuting"] is True
        and out["jointly_determinate"] is False
        and out["jpd_exists"] is False
    )
    # Independent search on the same pair; its defect is reported, not gating.
    x, y = Observable(PAULI_X, name="A"), Observable(PAULI_Y, name="B")
    result = search_simultaneous(x, y, probe_dim=2, restarts=500, seed=0)
    # The winner's defects sit just under eq_tol: its certificates and meter
    # equalities must agree there with the defects recomputed from their
    # definitions on the joint space.
    found = context_report(result.model, x, result.map_a, y, result.map_b, result.psi)
    joint = [joint_space_defect(result.model, obs, fmap, result.psi)
             for obs, fmap in ((x, result.map_a), (y, result.map_b))]
    agree = all((defect <= 1e-9) == cert.passed == equality for defect, cert, equality in zip(
        joint, (found.cert_a, found.cert_b), (found.meter_equality_a, found.meter_equality_b)))
    with capsys.disabled():
        print()
    assert report(9, exhibit_ok and agree,
                  f"witness model certifies X and Y simultaneously (defects "
                  f"{out['certificate_a']['defect']:.1e}/{out['certificate_b']['defect']:.1e}) "
                  f"with no joint reality; fresh search best defect {result.defect:.2e} "
                  f"at restart {result.restart_index}, joint-space defects "
                  f"{joint[0]:.2e}/{joint[1]:.2e} {'agree' if agree else 'DISAGREE'} "
                  f"with its certificates")


def test_criterion_10_probability_reproducibility_gap(uncoupled_model):
    psi = basis_state(2, 0)
    x = Observable(PAULI_X, name="A")
    f = uncoupled_model.label_maps["f"]
    born = born_distribution(x, psi)
    mapped: dict[float, float] = {}
    for outcome, prob in output_distribution(uncoupled_model, psi).items():
        mapped[f[outcome]] = mapped.get(f[outcome], 0.0) + prob
    stats_match = set(mapped) == set(born) and all(
        abs(mapped[v] - born[v]) <= 1e-10 for v in born
    )
    cert = measures_in_state(uncoupled_model, x, f, psi)
    ok = stats_match and not cert.passed
    assert report(10, ok, f"uncoupled meter reproduces Born statistics of X at |0> "
                          f"(max gap {max(abs(mapped[v] - born[v]) for v in born):.1e}) "
                          f"yet the certificate fails (defect {cert.defect:.3f})")


def test_criterion_11_parser_round_trip_and_goldens():
    rng = np.random.default_rng(11)
    mismatches = 0
    for _ in range(1000):
        f = random_formula(rng)
        mismatches += parse(unparse(f)) != f
    golden_failures = 0
    assert len(MALFORMED_FORMULAS) == 20
    for text, offset, expected, found in MALFORMED_FORMULAS:
        try:
            parse(text)
            golden_failures += 1
        except ParseError as err:
            if (err.byte_offset, err.expected, err.found) != (offset, expected, found):
                golden_failures += 1
    ok = mismatches == 0 and golden_failures == 0
    assert report(11, ok, f"1000 AST round-trips, {mismatches} mismatches; 20 malformed "
                          f"goldens, {golden_failures} wrong offsets/messages")


def test_criterion_12_cli_end_to_end(data_dir, tmp_path, capsys):
    obs = {name: str(data_dir / f"obs_{name}.json") for name in
           ("sigma_x", "sigma_y", "sigma_z", "diag123", "diag124")}
    states = {name: str(data_dir / f"state_{name}.json") for name in
              ("zero2", "zero3", "plus", "bad_norm")}
    runs = [
        (0, ["eval", "D in {1}", "--obs", f"D={obs['diag123']}", "--state", states["zero3"]]),
        (1, ["eval", "D in {2}", "--obs", f"D={obs['diag123']}", "--state", states["zero3"]]),
        (2, ["eval", "D in {1}", "--obs", f"D={obs['diag123']}", "--state", states["bad_norm"]]),
        (0, ["jointdet", obs["diag123"], obs["diag124"], "--state", states["zero3"]]),
        (1, ["jointdet", obs["sigma_x"], obs["sigma_y"], "--state", states["plus"]]),
        (0, ["jpd", obs["diag123"], obs["diag124"], "--state", states["zero3"]]),
        (1, ["jpd", obs["sigma_x"], obs["sigma_y"], "--state", states["plus"]]),
        (0, ["com", obs["sigma_x"], obs["sigma_y"]]),
        (1, ["com", obs["diag123"], obs["diag124"]]),
        (0, ["measure", str(data_dir / "model_cnot.json"), "--state", states["zero2"],
             "--observable", f"Z={obs['sigma_z']}", "--map", "f"]),
        (1, ["measure", str(data_dir / "model_cnot.json"), "--state", states["plus"],
             "--observable", f"X={obs['sigma_x']}", "--map", "f"]),
        (2, ["measure", str(data_dir / "model_bad_unitary.json"), "--state", states["zero2"],
             "--observable", f"Z={obs['sigma_z']}", "--map", "f"]),
        (0, ["search", obs["sigma_z"], obs["sigma_z"], "--probe-dim", "2",
             "--restarts", "2", "--out", str(tmp_path / "witness.json")]),
        (1, ["search", obs["sigma_x"], obs["sigma_y"], "--probe-dim", "2",
             "--restarts", "1", "--budget", "50"]),
        (0, ["context", str(data_dir / "model_headline.json"),
             obs["sigma_x"], "fA", obs["sigma_y"], "fB"]),
        (1, ["context", str(data_dir / "model_cnot.json"), obs["sigma_z"], "f",
             obs["sigma_x"], "f", "--state", states["zero2"]]),
        (2, ["context", str(data_dir / "model_cnot.json"), obs["sigma_z"], "f",
             obs["sigma_x"], "f"]),
    ]
    failures = []
    for want, argv in runs:
        got = main(argv)
        capsys.readouterr()
        if got != want:
            failures.append((argv[0], want, got))
    commands = {argv[0] for _, argv in runs}
    codes = {want for want, _ in runs}
    ok = not failures and commands == {"eval", "jointdet", "jpd", "com",
                                       "measure", "search", "context"} and codes == {0, 1, 2}
    assert report(12, ok, f"{len(runs)} golden CLI runs over all 7 commands and all 3 "
                          f"exit codes: {len(failures)} wrong exit codes")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
