"""Indirect measurement models and their verification.

A model couples the system to a probe prepared in ``xi`` through a unitary
``U`` and reads a meter observable ``M`` on the probe afterwards.  The
Heisenberg-picture meter output is ``O = U† (1 ⊗ M) U``; classical label
maps turn meter readings into claimed values of system observables.

The central question answered here is state-dependent: does the apparatus
measure ``A`` precisely in the state ``psi``?  The implemented criterion is
perfect correlation between ``f(O)`` and ``A ⊗ 1`` in ``psi ⊗ xi``,
quantified by a defect (max spectral-action mismatch) and certified when
the defect is within eq_tol.  Reproducing the Born statistics of ``A`` is
necessary but strictly weaker; the test suite exhibits the gap.

Certificates, noise, disturbance and POVMs are computed on lifted vectors
read off eigenvector columns: the rows ``U† (1 ⊗ |v⟩⟨v|) U (psi ⊗ xi)``, one
per meter column ``v`` and labelled by its outcome, and the targets
``v (v† psi) ⊗ xi``, one per column ``v`` of ``A``.  The joint-state
equalities of ``context_report`` are the certificates and the system-side
value identity, so only ``meter_output`` forms a joint-space operator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DimMismatchError, NonFiniteLabelError, NotUnitaryError, UnmappedEigenvalueError
from .numlin import (
    _EPS,
    DEFAULT_TOL,
    ToleranceConfig,
    as_square,
    as_state,
    frobenius,
    kernel_split,
    kron,
    norm_within,
    op_norm,
)
from .qlogic import _cluster_defect, _state_rows, jointly_determinate, value_identity
from .spectral import Observable, _meter_labels, spectral_family


class MeasurementModel:
    """Probe state, coupling U (||U†U − I||₂ <= eq_tol, else the SVD residual is reported), meter, label maps.

    U and xi are private read-only copies.  ``_labels`` keeps the meter
    columns and labels of each label map, keyed by the map's items and the
    tolerance they were validated under; ``_reading`` keeps the last state's
    reading (see :func:`_read`)."""

    __slots__ = ("sys_dim", "probe_dim", "probe_state", "unitary", "meter", "label_maps",
                 "_labels", "_reading")

    def __init__(self, sys_dim: int, probe_dim: int, probe_state, unitary, meter: Observable,
                 label_maps: Mapping[str, Mapping[float, float]] | None = None,
                 tol: ToleranceConfig = DEFAULT_TOL):
        if sys_dim < 1 or probe_dim < 1:
            raise DimMismatchError("system and probe dimensions must be positive")
        xi = as_state(probe_state, probe_dim, tol)
        u = as_square(unitary)
        joint = sys_dim * probe_dim
        if u.shape[0] != joint:
            raise DimMismatchError(f"coupling is {u.shape[0]}x{u.shape[0]}, expected {joint}")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing residual is rejected
            residual = u.conj().T @ u - np.eye(joint)
        if not np.all(np.isfinite(residual)):
            raise NotUnitaryError("coupling deviates from unitarity by nan")
        if not norm_within(residual, tol.eq_tol):
            raise NotUnitaryError(f"coupling deviates from unitarity by {op_norm(residual):.3e}")
        if meter.dim != probe_dim:
            raise DimMismatchError(f"meter dim {meter.dim} != probe_dim {probe_dim}")
        maps, labels = {}, {}
        for name, mapping in (label_maps or {}).items():
            maps[name] = {float(k): float(v) for k, v in mapping.items()}
            try:
                labels[_label_key(maps[name], tol)] = _meter_labels(meter, maps[name], tol)
            except (UnmappedEigenvalueError, NonFiniteLabelError) as exc:
                raise type(exc)(f"{exc} (map {name!r})") from None
        xi, u = xi.copy(), u.copy()
        xi.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "sys_dim", int(sys_dim))
        object.__setattr__(self, "probe_dim", int(probe_dim))
        object.__setattr__(self, "probe_state", xi)
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "meter", meter)
        object.__setattr__(self, "label_maps", maps)
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_reading", None)

    def __setattr__(self, name, value):
        raise AttributeError("MeasurementModel is immutable")

    def joint_state(self, psi) -> np.ndarray:
        """psi ⊗ xi, validating the system dimension."""
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        if psi.shape[0] != self.sys_dim:
            raise DimMismatchError(f"state dim {psi.shape[0]} != system dim {self.sys_dim}")
        return _lift(psi, self.probe_state)


@dataclass(frozen=True)
class CorrelationCertificate:
    """Witness that f(O) and A⊗1 act identically on psi ⊗ xi."""

    defect: float
    passed: bool

    def to_dict(self) -> dict:
        return {"defect": self.defect, "passed": self.passed}


def _outcome_vectors(u: np.ndarray, phi: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Rows U† (1 ⊗ |v⟩⟨v|) U (psi ⊗ xi), one per probe column v of ``columns``,
    from the joint amplitudes phi = U (psi ⊗ xi) as n system rows of length k."""
    # (1 ⊗ |v⟩⟨v|) keeps ⟨v|phi_i⟩ v of each system row phi_i of the joint amplitudes.
    masked = (columns.conj().T @ phi.T)[:, :, None] * columns.T[:, None, :]
    # Rows of U†: conj(conj(w) U) needs no conjugated copy of U.
    return (masked.reshape(columns.shape[1], -1).conj() @ u).conj()


def _lift(rows: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Rows r ⊗ xi, one per system row r."""
    return (rows[..., None] * xi).reshape(*rows.shape[:-1], -1)


def _label_key(label_map: Mapping[float, float], tol: ToleranceConfig):
    return tuple((float(k), float(v)) for k, v in label_map.items()), tol


def _read(model: MeasurementModel, psi, tol: ToleranceConfig):
    """The model's reading of psi: the validated psi, the joint amplitudes
    phi = U(psi ⊗ xi) as n rows, and the outcome row of every meter column
    (:func:`_outcome_vectors`).  The last reading is kept on the model,
    keyed by psi's amplitudes and ``tol``."""
    key = np.asarray(psi, dtype=complex).reshape(-1).tobytes(), tol
    kept = model._reading
    if kept is not None and kept[0] == key:
        return kept[1]
    psi = as_state(psi, model.sys_dim, tol).copy()
    psi.setflags(write=False)
    u, columns = model.unitary, spectral_family(model.meter, tol=tol).vectors
    phi = (u @ model.joint_state(psi)).reshape(model.sys_dim, -1)
    reading = psi, phi, _outcome_vectors(u, phi, columns)
    object.__setattr__(model, "_reading", (key, reading))
    return reading


def _outcome_rows(model: MeasurementModel, a: Observable, label_map: Mapping[float, float],
                  psi, tol: ToleranceConfig):
    """The validated psi, and each meter column's label f(m) and outcome row."""
    if a.dim != model.sys_dim:
        raise DimMismatchError(f"observable dim {a.dim} != system dim {model.sys_dim}")
    psi, _, rows = _read(model, psi, tol)
    labelled = model._labels.get(_label_key(label_map, tol))
    _, labels = labelled if labelled is not None else _meter_labels(model.meter, label_map, tol)
    return psi, labels, rows


def meter_output(model: MeasurementModel, tol: ToleranceConfig = DEFAULT_TOL) -> Observable:
    """Heisenberg-picture meter O = U†(1 ⊗ M)U on the joint space."""
    u = model.unitary
    return Observable(u.conj().T @ kron(np.eye(model.sys_dim), model.meter.matrix) @ u,
                      name="O", tol=tol)


def povm(model: MeasurementModel, tol: ToleranceConfig = DEFAULT_TOL) -> list[tuple[float, np.ndarray]]:
    """System-side effects (outcome, Pi) with Pi = W†(1⊗E_M)W, W = U(1⊗|xi>):
    Pi = Z†Z with Z = (1⊗V_m†)W, V_m the meter's eigenvector columns of m."""
    n, k = model.sys_dim, model.probe_dim
    w = (model.unitary.reshape(n * k, n, k) @ model.probe_state).reshape(n, k, n)
    family = spectral_family(model.meter, tol=tol)
    zs = ((family.vectors[:, sl].conj().T @ w).reshape(-1, n) for sl in family.slices)
    return [(outcome, z.conj().T @ z) for outcome, z in zip(family.eigenvalues, zs)]


def output_distribution(model: MeasurementModel, psi,
                        tol: ToleranceConfig = DEFAULT_TOL) -> dict[float, float]:
    """Meter statistics p(m) = <psi|Pi(m)|psi> = ||(1⊗V_m†)U(psi ⊗ xi)||² in
    the system state psi."""
    _, phi, _ = _read(model, psi, tol)
    family = spectral_family(model.meter, tol=tol)
    weights = np.sum(np.abs(phi @ family.vectors.conj()) ** 2, axis=0)
    return {outcome: float(min(max(weights[sl].sum(), 0.0), 1.0))
            for outcome, sl in zip(family.eigenvalues, family.slices)}


def measures_in_state(model: MeasurementModel, a: Observable, label_map: Mapping[float, float],
                      psi, tol: ToleranceConfig = DEFAULT_TOL) -> CorrelationCertificate:
    """Certify precise measurement of ``a`` in ``psi``: perfect correlation
    between f(O) and a⊗1 on psi ⊗ xi, with the defect the largest
    ||(E^{f(O)}(c) − E^a(c) ⊗ 1)(psi ⊗ xi)|| over the clusters c of spec(a)
    ∪ range(label map), read off the outcome and target rows."""
    psi, labels, rows = _outcome_rows(model, a, label_map, psi, tol)
    family = spectral_family(a, tol=tol)
    targets = _lift(_state_rows(family, psi), model.probe_state)
    # Label values no meter outcome reaches still join clusters.
    defect = _cluster_defect(labels, rows, family.column_values, targets, tol, bridges=label_map.values())
    return CorrelationCertificate(defect=defect, passed=defect <= tol.eq_tol)


def rms_noise(model: MeasurementModel, a: Observable, label_map: Mapping[float, float],
              psi, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Root-mean-square noise: ||(f(O) − a⊗1)(psi ⊗ xi)||."""
    psi, labels, rows = _outcome_rows(model, a, label_map, psi, tol)
    return frobenius(labels @ rows - _lift(a.matrix @ psi, model.probe_state))


def rms_disturbance(model: MeasurementModel, b: Observable, psi,
                    tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Root-mean-square disturbance: ||U†((b⊗1)U(psi ⊗ xi)) − (b psi) ⊗ xi||."""
    if b.dim != model.sys_dim:
        raise DimMismatchError(f"observable dim {b.dim} != system dim {model.sys_dim}")
    psi, phi, _ = _read(model, psi, tol)
    moved = ((b.matrix @ phi).reshape(-1).conj() @ model.unitary).conj()
    return frobenius(moved - _lift(b.matrix @ psi, model.probe_state))


@dataclass(frozen=True)
class UncertaintyReport:
    epsilon: float
    eta: float
    sigma_a: float
    sigma_b: float
    bound: float
    lhs: float
    satisfied: bool

    def to_dict(self) -> dict:
        return dict(vars(self))


def uncertainty_report(model: MeasurementModel, a: Observable, label_map: Mapping[float, float],
                       b: Observable, psi, tol: ToleranceConfig = DEFAULT_TOL) -> UncertaintyReport:
    """Noise-disturbance trade-off check:
    eps*eta + eps*sigma(b) + sigma(a)*eta >= |<psi|[a,b]|psi>| / 2."""
    psi, _, _ = _read(model, psi, tol)
    return _trade_off(model, a, rms_noise(model, a, label_map, psi, tol=tol), b, psi, tol)


def _trade_off(model: MeasurementModel, a: Observable, epsilon: float, b: Observable, psi,
               tol: ToleranceConfig) -> UncertaintyReport:
    """:func:`uncertainty_report` from ε(a), its :func:`rms_noise`, at a state psi already read."""
    eta = rms_disturbance(model, b, psi, tol=tol)
    sigma_a = a.std_dev(psi)
    sigma_b = b.std_dev(psi)
    commutator = a.matrix @ b.matrix - b.matrix @ a.matrix
    bound = 0.5 * abs(complex(np.vdot(psi, commutator @ psi)))
    lhs = epsilon * eta + epsilon * sigma_b + sigma_a * eta
    return UncertaintyReport(
        epsilon=epsilon, eta=eta, sigma_a=sigma_a, sigma_b=sigma_b,
        bound=bound, lhs=lhs, satisfied=lhs >= bound - tol.eq_tol,
    )


@dataclass(frozen=True)
class SimultaneousReport:
    cert_a: CorrelationCertificate
    cert_b: CorrelationCertificate
    both: bool

    def to_dict(self) -> dict:
        out = dict(vars(self))
        return {"certificate_a": out.pop("cert_a").to_dict(), "certificate_b": out.pop("cert_b").to_dict(), **out}


def simultaneously_measures(model: MeasurementModel, a: Observable, map_a: Mapping[float, float],
                            b: Observable, map_b: Mapping[float, float], psi,
                            tol: ToleranceConfig = DEFAULT_TOL) -> SimultaneousReport:
    """One interaction, one meter, two post-processings: certify both."""
    cert_a = measures_in_state(model, a, map_a, psi, tol=tol)
    cert_b = measures_in_state(model, b, map_b, psi, tol=tol)
    return SimultaneousReport(cert_a=cert_a, cert_b=cert_b, both=cert_a.passed and cert_b.passed)


@dataclass(frozen=True)
class ContextReport:
    """Full exhibit around one apparatus measuring two observables.

    The joint-state equalities are read off results the report already
    has.  By Ozawa's theorem (Ann. Phys. 321, 2006) psi ⊗ xi lies in the value-identity
    subspace of f(O) and A ⊗ 1 exactly when every spectral difference
    annihilates it, which is the certificate's test, so the meter equalities
    are the certificates' verdicts.  psi ⊗ xi lies in ran(P ⊗ 1) exactly when
    psi lies in ran P (||xi|| = 1), so the lifted equality is the system
    equality.  The scipy kernel oracle in tests/test_measure.py checks both
    against their joint-space definitions, and acceptance criterion 09 on
    the headline search winner.
    ``nowhere_commuting`` (rank zero) and ``jpd_exists`` (psi in the range,
    by :func:`jpd_exists`) read the commutator projection of ``jointly_determinate``.
    """

    cert_a: CorrelationCertificate
    cert_b: CorrelationCertificate
    both_passed: bool
    nowhere_commuting: bool
    jointly_determinate: bool
    determinateness_rank: int
    jpd_exists: bool
    meter_equality_a: bool
    meter_equality_b: bool
    lifted_equality: bool
    system_equality: bool
    system_equality_probability: float

    def to_dict(self) -> dict:
        out = dict(vars(self))
        return {"certificate_a": out.pop("cert_a").to_dict(), "certificate_b": out.pop("cert_b").to_dict(), **out}

    def summary(self) -> str:
        def yn(flag: bool) -> str:
            return "yes" if flag else "no"

        lines = [
            f"certificate A: defect {self.cert_a.defect:.3e} ({'pass' if self.cert_a.passed else 'FAIL'})",
            f"certificate B: defect {self.cert_b.defect:.3e} ({'pass' if self.cert_b.passed else 'FAIL'})",
            f"both measured simultaneously: {yn(self.both_passed)}",
            f"A, B nowhere commuting: {yn(self.nowhere_commuting)}",
            f"jointly determinate at psi: {yn(self.jointly_determinate)} (rank {self.determinateness_rank})",
            f"joint probability distribution exists: {yn(self.jpd_exists)}",
            f"meter value = A value (joint state): {yn(self.meter_equality_a)}",
            f"meter value = B value (joint state): {yn(self.meter_equality_b)}",
            f"A value = B value (joint state): {yn(self.lifted_equality)}",
            f"A value = B value (system state): {yn(self.system_equality)}"
            f" (probability {self.system_equality_probability:.6f})",
        ]
        return "\n".join(lines)


def context_report(model: MeasurementModel, a: Observable, map_a: Mapping[float, float],
                   b: Observable, map_b: Mapping[float, float], psi,
                   tol: ToleranceConfig = DEFAULT_TOL) -> ContextReport:
    """Assemble the contextual-measurement exhibit for (model, a, b, psi)."""
    psi, _, _ = _read(model, psi, tol)
    pair = simultaneously_measures(model, a, map_a, b, map_b, psi, tol=tol)
    flag, proj = jointly_determinate([a, b], psi, tol=tol)

    system_proj = value_identity(a, b, tol=tol)
    system_eq = system_proj.contains(psi, tol=tol)

    return ContextReport(
        cert_a=pair.cert_a,
        cert_b=pair.cert_b,
        both_passed=pair.both,
        nowhere_commuting=proj.rank == 0,
        jointly_determinate=flag,
        determinateness_rank=proj.rank,
        jpd_exists=flag,
        meter_equality_a=pair.cert_a.passed,
        meter_equality_b=pair.cert_b.passed,
        lifted_equality=system_eq,
        system_equality=system_eq,
        system_equality_probability=system_proj.weight(psi),
    )


# ---------------------------------------------------------------------------
# Witness search, decided on the state side: both certificates within δ put
# the Kirkwood–Dirac array q(c, d) = ⟨psi|E^A(c) E^B(d)|psi⟩ within 2δ + δ² of
# a distribution on at most k entries, and such a distribution gives U in
# closed form (:func:`_witness_model`), so a witness is a state psi.

_MAX_PAIRS = 4096  # (C, D) pairs the search forms below the eigenvector bound


def kd_distribution(a: Observable, b: Observable, psi,
                    tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Kirkwood–Dirac quasi-distribution q(c, d) = ⟨psi|E^A(c) E^B(d)|psi⟩,
    rows by A's eigenvalue clusters and columns by B's, both ascending."""
    if a.dim != b.dim:
        raise DimMismatchError(f"dims differ: {a.dim} vs {b.dim}")
    psi = as_state(psi, a.dim, tol)  # q(c, d) = ⟨E^A(c) psi, E^B(d) psi⟩
    parts_a = _cluster_parts(spectral_family(a, tol=tol), psi)
    return parts_a.conj().T @ _cluster_parts(spectral_family(b, tol=tol), psi)


def _kd_violation(q: np.ndarray, k: int) -> float:
    """How far q is from a distribution on at most k entries: the largest of
    |Im q|, −Re q and the (k+1)-th largest |q|.  A model whose certificates
    both pass at defect δ keeps it within 2δ + δ² (tests/test_search.py)."""
    sizes = np.sort(np.abs(q), axis=None)
    beyond = sizes[-k - 1] if sizes.size > k else 0.0
    return float(max(np.abs(q.imag).max(), -q.real.min(), beyond))


@dataclass(frozen=True)
class RestartTelemetry:
    """One ψ-search restart: its index and the least KD violation it reached."""

    index: int
    violation: float

    def summary(self) -> str:
        return f"restart {self.index}: kd_violation={self.violation:.6e}"


@dataclass(frozen=True)
class SearchResult:
    """The witness and how it was decided: ``branch`` is "eigenvector",
    "exact" (every candidate state fixed by its (C, D) pair) or
    "psi-search"; ``candidates`` counts the pairs whose W is not zero;
    ``violation`` is psi's KD violation, a witness's at most ``margin`` =
    2 eq_tol + eq_tol²; ``defect`` is the model's own."""

    model: MeasurementModel
    psi: np.ndarray
    map_a: dict[float, float]
    map_b: dict[float, float]
    defect: float
    restart_index: int
    telemetry: tuple[RestartTelemetry, ...]
    branch: str
    candidates: int
    violation: float
    margin: float

    def summary(self, success_tol: float) -> str:
        """One line, whose verdict is "witness" exactly when the defect is within ``success_tol``."""
        verdict = ("witness" if self.defect <= success_tol
                   else "none exists" if self.branch == "exact" and self.violation > self.margin
                   else "not found")
        return (f"search: branch={self.branch} candidates={self.candidates} "
                f"kd_violation={self.violation:.6e} margin={self.margin:.6e} verdict={verdict}")


def _cluster_parts(family, psi: np.ndarray) -> np.ndarray:
    """E(c) psi for every cluster c, as columns."""
    return np.add.reduceat(_state_rows(family, psi), [sl.start for sl in family.slices], axis=0).T


def _witness_model(a: Observable, b: Observable, psi: np.ndarray, probe_dim: int, tol: ToleranceConfig):
    """(model, map_a, map_b) for psi, in closed form.  Outcome m reads the
    m-th of the k largest weights p_m = max(Re q, 0) of psi's KD array, in
    (c, d) order; spare outcomes copy the first with no weight.  U is the
    polar factor of Y X† (Procrustes): X holds E^A(c)psi ⊗ xi and E^B(d)psi
    ⊗ xi, xi = e_0, and Y their images Σ √p_m e_0 ⊗ |m⟩ over the outcomes
    labelled c, or d.  When q is that distribution, X and Y have one Gram
    matrix and U X = Y, so both certificates hold."""
    fa, fb = spectral_family(a, tol=tol), spectral_family(b, tol=tol)
    n, k = a.dim, probe_dim
    parts_a, parts_b = _cluster_parts(fa, psi), _cluster_parts(fb, psi)
    q, parts = parts_a.conj().T @ parts_b, np.hstack([parts_a, parts_b])
    # No cell outweighs its row or column, Σ_d q(c, d) = ||E^A(c) psi||²: the
    # bound keeps a rounding-level q off a row that is zero.  A cell within
    # n ε (||E^A(c) psi|| + ||E^B(d) psi||) of zero is zero: its root would
    # give Y a direction of length √q that X lacks, a defect near √ε.
    sizes = np.sum(np.abs(parts) ** 2, axis=0)
    size_a, size_b = sizes[:q.shape[0]], sizes[q.shape[0]:]
    weights = np.minimum(np.maximum(q.real, 0.0), np.minimum.outer(size_a, size_b))
    weights[weights <= n * _EPS * np.add.outer(np.sqrt(size_a), np.sqrt(size_b))] = 0.0
    weights = weights.ravel()
    chosen = np.sort(np.argsort(-weights, kind="stable")[:k])
    cells = np.concatenate([chosen, np.repeat(chosen[:1], k - chosen.size)])
    rows, cols = np.divmod(cells, q.shape[1])
    roots = np.sqrt(weights[cells])
    roots[chosen.size:] = 0.0
    source = np.zeros((n * k, parts.shape[1]), dtype=complex)
    source[::k] = parts
    image = np.zeros_like(source)
    image[np.arange(k), rows] = roots
    image[np.arange(k), q.shape[0] + cols] = roots
    # Any positive column scale leaves the exact solution; scaling columns to
    # unit norm, down to √ε, keeps a light cell's singular value off rounding.
    scale = 1.0 / np.maximum(np.sqrt(sizes), np.sqrt(_EPS))
    left, _, right = np.linalg.svd((image * scale) @ (source * scale).conj().T)
    map_a = {float(m + 1): fa.eigenvalues[c] for m, c in enumerate(rows)}
    map_b = {float(m + 1): fb.eigenvalues[d] for m, d in enumerate(cols)}
    meter = Observable(np.diag(np.arange(1, k + 1)).astype(complex), name="M", tol=tol)
    model = MeasurementModel(sys_dim=n, probe_dim=k, probe_state=np.eye(k)[0], unitary=left @ right,
                             meter=meter, label_maps={"fA": map_a, "fB": map_b}, tol=tol)
    return model, map_a, map_b


def _subsets(clusters):
    """Every nonempty subset of ``clusters``, by size."""
    return [s for r in range(1, len(clusters) + 1) for s in itertools.combinations(clusters, r)]


def _witness(a: Observable, b: Observable, psi: np.ndarray, k: int, tol: ToleranceConfig):
    """(model, map_a, map_b, defect): :func:`_witness_model` and the larger
    of its two certificates' defects."""
    model, map_a, map_b = _witness_model(a, b, psi, k, tol)
    report = simultaneously_measures(model, a, map_a, b, map_b, psi, tol=tol)
    return model, map_a, map_b, max(report.cert_a.defect, report.cert_b.defect)


def _pairs(a: Observable, b: Observable, k: int, margin: float, tol: ToleranceConfig):
    """Walk cluster subsets C of A and D of B, |C|, |D| <= k, each with W =
    ran E^A(C) ∩ ran E^B(D) from one kernel_split; a witness's psi lies in
    the W of its rows and columns.  W grows with C and D, so the top pairs
    |C| = |D| = k come first, and a smaller pair is formed only under a top
    W of dim > 1 (under a line it is that line or zero); forming more than
    4096 pairs is a ValueError.  The walk runs by |C|, C, |D|, D.  Returns
    (psi, candidates, spaces): psi is the first fixed candidate (|C| = 1 or
    |D| = 1, an eigenvector with at most k entries; or dim W = 1) whose
    model certifies, else the one of least violation, or None; ``spaces``
    holds the top W's of dim > 1, for the ψ-search."""
    fa, fb = spectral_family(a, tol=tol), spectral_family(b, tol=tol)
    counts = [len(f.slices) for f in (fa, fb)]
    too_many = ValueError(f"search would form more than {_MAX_PAIRS} (C, D) pairs at probe dim {k}")
    if math.comb(counts[0], k) * math.comb(counts[1], k) > _MAX_PAIRS:
        raise too_many
    blocks = [[f.vectors[:, sl].conj().T for sl in f.slices] for f in (fa, fb)]

    def meet(c_set, d_set):
        others = [block for i, block in enumerate(blocks[0]) if i not in c_set]
        others += [block for j, block in enumerate(blocks[1]) if j not in d_set]
        return kernel_split(np.vstack(others), tol.eq_tol)[0]

    tops = {pair: meet(*pair) for pair in itertools.product(
        *(itertools.combinations(range(count), k) for count in counts))}
    walk = {pair for pair, space in tops.items() if space.shape[1] == 1}
    for (c_top, d_top), space in tops.items():
        if space.shape[1] > 1:
            if (2 ** k - 1) ** 2 > _MAX_PAIRS:
                raise too_many
            walk.update(itertools.product(_subsets(c_top), _subsets(d_top)))
            if len(tops) + len(walk - tops.keys()) > _MAX_PAIRS:
                raise too_many
    best, best_violation, candidates, spaces = None, np.inf, 0, []
    for c_set, d_set in sorted(walk, key=lambda pair: (len(pair[0]), pair[0], len(pair[1]), pair[1])):
        space = tops[c_set, d_set] if (c_set, d_set) in tops else meet(c_set, d_set)
        if not space.shape[1]:
            continue
        candidates += 1
        if min(len(c_set), len(d_set)) == 1 or space.shape[1] == 1:
            psi = space[:, 0]
            violation = _kd_violation(kd_distribution(a, b, psi, tol), k)
            if violation <= margin and _witness(a, b, psi, k, tol)[-1] <= tol.eq_tol:
                return psi, candidates, []
            if violation < best_violation:
                best, best_violation = psi, violation
        elif len(c_set) == len(d_set) == k:
            spaces.append(space)
    return best, candidates, spaces


def _psi_search(a: Observable, b: Observable, space: np.ndarray, k: int,
                rng: np.random.Generator, budget: int, tol: ToleranceConfig):
    """One restart on W's unit sphere: coordinate pattern search over the
    real and imaginary parts of psi's coordinates in ``space``, from a
    normal draw, for the least KD violation, until the step falls to 1e-10
    or ``budget`` evaluations.  Returns (violation, psi)."""
    dim = space.shape[1]

    def point(theta: np.ndarray):
        z = theta[:dim] + 1j * theta[dim:]
        psi = space @ (z / frobenius(z))
        return _kd_violation(kd_distribution(a, b, psi, tol), k), psi

    theta = rng.normal(size=2 * dim)
    best, evals, step = point(theta), 1, 0.5
    while step > 1e-10 and evals < budget:
        for i, sign in itertools.product(range(2 * dim), (1.0, -1.0)):
            if evals == budget:
                break
            trial = theta.copy()
            trial[i] += sign * step
            value, evals = point(trial), evals + 1
            if value[0] < best[0]:
                theta, best = trial, value
                break
        else:
            step *= 0.5
    return best


def search_simultaneous(a: Observable, b: Observable, probe_dim: int, restarts: int = 20,
                        seed: int = 0, budget: int = 3000,
                        tol: ToleranceConfig = DEFAULT_TOL,
                        progress=None) -> SearchResult:
    """Find U, psi and label maps so that one apparatus with a k = probe_dim
    outcome meter diag(1..k), read in the probe basis, measures both a and b
    in psi.  A witness exists exactly when some psi has a KD array that is a
    distribution on at most k entries, so the search decides psi:

    * k >= min(|spec A|, |spec B|): psi is the first eigenvector column of
      A when |spec B| <= k, else of B; its q is one row (column) of at most
      k weights.
    * Otherwise the (C, D) pairs of :func:`_pairs`.  When every pair fixes
      its psi and none is within the margin 2 eq_tol + eq_tol², none exists.
    * Each W of dim > 1 gets a ψ-search: restart i draws from
      default_rng(seed + i) on each W in turn, ``budget`` evaluations each;
      the lowest index within the margin wins, else the least violation,
      fixed candidates first.  ``progress(index, violation)`` is called
      after each restart.

    The defect is the certificates' own, recomputed from the model.
    """
    if a.dim != b.dim:
        raise DimMismatchError(f"dims differ: {a.dim} vs {b.dim}")
    if probe_dim < 2:
        raise ValueError("probe_dim must be at least 2")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    fa, fb = spectral_family(a, tol=tol), spectral_family(b, tol=tol)
    margin = 2 * tol.eq_tol + tol.eq_tol ** 2
    k, index, telemetry = probe_dim, 0, []
    if k >= min(len(fa.eigenvalues), len(fb.eigenvalues)):
        family = fa if len(fb.eigenvalues) <= k else fb
        branch, candidates, psi, spaces = "eigenvector", 0, family.vectors[:, 0].copy(), []
    else:
        psi, candidates, spaces = _pairs(a, b, k, margin, tol)
        branch = "psi-search" if spaces else "exact"
    if psi is None:  # no W of dim 1: psi is a stand-in unless a ψ-search beats it
        psi = fa.vectors[:, 0].copy()
    best = _kd_violation(kd_distribution(a, b, psi, tol), k)
    for restart in range(restarts if spaces else 0):
        rng = np.random.default_rng(seed + restart)
        found = []
        for space in spaces:
            found.append(_psi_search(a, b, space, k, rng, budget, tol))
            if found[-1][0] <= margin:
                break
        violation, state = min(found, key=lambda pair: pair[0])
        telemetry.append(RestartTelemetry(index=restart, violation=violation))
        if progress is not None:
            progress(restart, violation)
        if violation < best:
            best, psi, index = violation, state, restart
        if violation <= margin:
            break
    model, map_a, map_b, defect = _witness(a, b, psi, k, tol)
    return SearchResult(model=model, psi=psi, map_a=map_a, map_b=map_b, defect=defect,
                        restart_index=index, telemetry=tuple(telemetry), branch=branch,
                        candidates=candidates, violation=best, margin=margin)
