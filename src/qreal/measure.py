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

import contextlib
import itertools
import os
import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DimMismatchError, NonFiniteLabelError, NotUnitaryError, UnmappedEigenvalueError
from .numlin import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_square,
    as_state,
    eigh,
    frobenius,
    kron,
    norm_within,
    op_norm,
)
from .qlogic import _cluster_defect, _state_rows, jointly_determinate, value_identity
from .spectral import Observable, _meter_labels, spectral_family, spectral_projection


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
    from the joint amplitudes phi = U (psi ⊗ xi) as n system rows of length k.

    Leading axes of ``u`` (..., d, d) and ``phi`` (..., n, k) stack couplings
    and states; every product keeps the shapes of the one-state case, so each
    stacked result is bit-identical to its own call."""
    # (1 ⊗ |v⟩⟨v|) keeps ⟨v|phi_i⟩ v of each system row phi_i of the joint amplitudes.
    masked = (columns.conj().T @ phi.swapaxes(-1, -2))[..., None] * columns.T[:, None, :]
    # Rows of U†: conj(conj(w) U) needs no conjugated copy of U.
    return (masked.reshape(masked.shape[:-3] + (columns.shape[1], -1)).conj() @ u).conj()


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
    the headline search winner, whose defects sit just under eq_tol.
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
# Witness search: find (U, psi, fA, fB) making one apparatus measure both.


@dataclass(frozen=True)
class RestartTelemetry:
    """What one pattern-search restart did: its defect, the polls it read
    (values, batched ones past the first accepted not counted),
    accepted coordinate moves, state polishes that beat the iterate, the
    step size it stopped at, and its wall time."""

    index: int
    defect: float
    evals: int
    accepted: int
    polish_wins: int
    step: float
    wall_ms: float

    def summary(self) -> str:
        return (f"restart {self.index}: defect {self.defect:.6e} evals={self.evals} "
                f"accepted={self.accepted} polish_wins={self.polish_wins} "
                f"step={self.step:.3e} wall_ms={self.wall_ms:.1f}")


@dataclass(frozen=True)
class SearchResult:
    model: MeasurementModel
    psi: np.ndarray
    map_a: dict[float, float]
    map_b: dict[float, float]
    defect: float
    restart_index: int
    telemetry: tuple[RestartTelemetry, ...]


def _state_from_params(theta: np.ndarray, dim: int) -> np.ndarray:
    vec = theta[:dim] + 1j * theta[dim:]
    norm = frobenius(vec)
    if norm < 1e-12:
        vec[0] += 1.0
        norm = frobenius(vec)
    return vec / norm


class _SearchProblem:
    """Geometry for one search run (observables fixed, meter fixed), built
    once and never changed: the restarts share it and own their iterates.

    Everything that depends only on the dimensions is built here, so a poll
    pays for its own arithmetic alone.  The probe state is e_0, so
    psi ⊗ xi is psi written at every k-th joint position."""

    def __init__(self, a: Observable, b: Observable, probe_dim: int, tol: ToleranceConfig):
        self.n = a.dim
        self.k = probe_dim
        self.joint = self.n * self.k
        # A restart stops at this defect, a decade inside acceptance (eq_tol).
        self.cutoff = tol.eq_tol / 10
        self.vals_a = spectral_family(a, tol=tol).eigenvalues
        self.vals_b = spectral_family(b, tol=tol).eigenvalues
        self.proj_a = np.stack([spectral_projection(a, [lam], tol).matrix for lam in self.vals_a])
        self.proj_b = np.stack([spectral_projection(b, [lam], tol).matrix for lam in self.vals_b])
        self.xi = np.eye(self.k, dtype=complex)[0]
        # The meter diag(1..k) read in the probe basis: outcome m is |m>.
        self.meter_columns = np.eye(self.k, dtype=complex)
        self.u_params = self.joint * self.joint
        self.s_params = 2 * self.n
        # Flat positions of the generator's diagonal and of its strict upper
        # and lower triangles, the upper one in triu_indices (row-major) order.
        rows, cols = np.triu_indices(self.joint, k=1)
        self._diagonal = np.arange(self.joint) * (self.joint + 1)
        self._upper = rows * self.joint + cols
        self._lower = cols * self.joint + rows

    def candidate_maps(self, rng: np.random.Generator):
        """Assignments meter outcome -> eigenvalue index, one (maps, one-hot)
        pair per side; the one-hot rows are complex, as the rows they sum.

        Exhaustive up to 256 assignments a side; beyond that, a seeded sample
        plus all constant assignments (those solve any eigenstate measurement)."""
        def side(count: int):
            if count ** self.k <= 256:
                combos = list(itertools.product(range(count), repeat=self.k))
            else:
                picks = {tuple(int(x) for x in rng.integers(0, count, size=self.k))
                         for _ in range(64)}
                picks.update({(i,) * self.k for i in range(count)})
                combos = sorted(picks)
            maps = np.array(combos, dtype=int)
            return maps, (maps[:, None, :] == np.arange(count)[None, :, None]).astype(complex)

        return side(len(self.vals_a)), side(len(self.vals_b))

    def unitaries(self, generators: np.ndarray) -> np.ndarray:
        """exp(iH) for each row of ``generators``: the Hermitian H with diagonal
        row[:d] and strict upper triangle row[d::2] + i row[d+1::2], row by
        row, d = nk.  One stacked eigh; each U is bit-identical to its own."""
        d = self.joint
        h = np.zeros((len(generators), d * d), dtype=complex)
        h[:, self._diagonal] = generators[:, :d]
        upper = generators[:, d::2] + 1j * generators[:, d + 1::2]
        h[:, self._upper] = upper
        h[:, self._lower] = upper.conj()
        w, v = np.linalg.eigh(h.reshape(-1, d, d))
        return (v * np.exp(1j * w)[:, None, :]) @ v.conj().swapaxes(1, 2)

    def start(self, theta: np.ndarray):
        """A restart's iterate at ``theta``: (theta, U, psi, psi's target rows)."""
        psi = _state_from_params(theta[self.u_params:], self.n)
        return theta, self.unitaries(theta[None, :self.u_params])[0], psi, self.targets(psi)

    def outcome_vectors(self, u: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """Outcome rows of psi (..., n) under u (..., d, d), stacks broadcast."""
        joint = np.zeros(psi.shape[:-1] + (self.joint, 1), dtype=complex)
        joint[..., ::self.k, 0] = psi  # psi ⊗ xi, as xi = e_0
        phi = u @ joint
        return _outcome_vectors(u, phi.reshape(phi.shape[:-2] + (self.n, self.k)), self.meter_columns)

    def targets(self, psi):
        """Each side's target rows (E_i psi) ⊗ xi, one per slot i; psi (..., n)."""
        return [_lift(np.einsum("snm,...m->...sn", p, psi), self.xi) for p in (self.proj_a, self.proj_b)]

    def defects(self, vectors, targets, one_hot) -> np.ndarray:
        """Certificate defect of every assignment in ``one_hot``: the largest
        ||sum_{m in slot i} v_m − targets[i]|| over slots i.  The one-hot
        rows (..., slots, k), outcome rows (..., k, d) and target rows
        (..., slots, d) broadcast, so stacks carry their own map axis."""
        # One full pass; an in-place update of the strided slots measured
        # twice as slow at k = 4.
        residual = one_hot @ vectors - targets
        re, im = residual.real, residual.imag
        # Row dot products through matmul round as np.linalg.norm does.
        squares = (re[..., None, :] @ re[..., None] + im[..., None, :] @ im[..., None])[..., 0, 0]
        return np.sqrt(squares.max(axis=-1))

    def _tables(self, u, psi, targets, side_a, side_b):
        """Each side's defect table at each stacked (u, psi)."""
        vectors = self.outcome_vectors(u, psi)
        return [self.defects(vectors, t, hot) for t, (_, hot) in zip(targets, (side_a, side_b))]

    def polls(self, here, moves, side_a, side_b):
        """Poll theta + delta e_i for every (i, delta) in ``moves``, which run
        in coordinate order, theta being the iterate ``here``'s.  Returns
        (defects, map rows a, map rows b, iterate): at move j each side's
        lowest-index least defect and their max, and ``iterate(j)``, the
        iterate there, bit-identical to ``start``'s, built only when asked
        for, as an accepted move is.  A move changes U or psi, not both, and
        reads the other from ``here``.  Several moves take one stacked pass
        per kind; a single one, a ride poll, skips the stack's set-up."""
        theta, u, psi, targets = here
        if len(moves) == 1:
            (i, delta), = moves
            point = theta.copy()
            point[i] += delta
            if i < self.u_params:
                u = self.unitaries(point[None, :self.u_params])[0]
            else:
                psi = _state_from_params(point[self.u_params:], self.n)
                targets = self.targets(psi)
            table_a, table_b = self._tables(u, psi, targets, side_a, side_b)
            ia, ib = table_a.argmin(), table_b.argmin()
            value = float(max(table_a[ia], table_b[ib]))
            return [value], [side_a[0][ia]], [side_b[0][ib]], lambda j: (point, u, psi, targets)
        index, deltas = zip(*moves)
        candidates = np.repeat(theta[None], len(moves), axis=0)
        candidates[np.arange(len(moves)), index] += deltas
        split = sum(i < self.u_params for i in index)
        tables = []  # each stacked point's axis of maps is a singleton axis of its inputs
        if split:
            us = self.unitaries(candidates[:split, :self.u_params])
            tables.append(self._tables(us[:, None], psi, targets, side_a, side_b))
        if split < len(moves):
            states = np.stack([_state_from_params(row[self.u_params:], self.n) for row in candidates[split:]])
            rows = self.targets(states[:, None])
            tables.append(self._tables(u, states[:, None], rows, side_a, side_b))
        table_a, table_b = (np.concatenate(side) for side in zip(*tables))
        ia, ib = table_a.argmin(axis=1), table_b.argmin(axis=1)

        def iterate(j):
            if j < split:
                return candidates[j], us[j], psi, targets
            return candidates[j], u, states[j - split], [t[j - split, 0] for t in rows]

        return np.maximum(table_a.min(axis=1), table_b.min(axis=1)), side_a[0][ia], side_b[0][ib], iterate

    def polish(self, u: np.ndarray, side_a, side_b):
        """Re-solve for the state: per map pair, the summed squared defect is
        a quadratic form in psi; its minimal eigenvector is the best state.
        The forms are built from the outcome and target rows of the basis
        states; every pair's eigenvector and defect come from one stacked
        pass, and the first least defect wins."""
        basis = np.eye(self.n)
        columns = self.outcome_vectors(u, basis)

        def forms(projections, one_hot) -> np.ndarray:
            # Column j of side slot i: sum_{m in slot i} v_m(e_j) − (E_i e_j) ⊗ xi.
            targets = _lift(np.swapaxes(projections, 1, 2), self.xi)
            w = np.einsum("aim,jmx->aijx", one_hot, columns) - targets
            return np.einsum("aijx,ailx->ajl", w.conj(), w)

        (maps_a, hot_a), (maps_b, hot_b) = side_a, side_b
        if len(maps_a) * len(maps_b) <= 256:
            ia, ib = np.divmod(np.arange(len(maps_a) * len(maps_b)), len(maps_b))
        else:
            ia = ib = np.zeros(1, dtype=int)
            hot_a, hot_b = hot_a[:1], hot_b[:1]
        _, v = eigh(forms(self.proj_a, hot_a)[ia] + forms(self.proj_b, hot_b)[ib])
        psi = v[:, :, 0]
        vectors, (targets_a, targets_b) = self.outcome_vectors(u, psi), self.targets(psi)
        defects = np.maximum(self.defects(vectors, targets_a, hot_a[ia]),
                             self.defects(vectors, targets_b, hot_b[ib]))
        best = int(defects.argmin())
        return float(defects[best]), psi[best], maps_a[ia[best]], maps_b[ib[best]]


# Polls per stacked pass: 8 ran faster than 4, 12 or 16 on the X/Y searches
# at k = 2 and k = 4 (one BLAS thread, 2-core Xeon).  A batch saves numpy's
# per-call dispatch, which stops paying once a candidate's defect tables
# (maps × slots × nk entries, both sides) pass _POLL_ENTRIES: from 5184
# entries up (n = 6, k = 2) batches of 8 ran 1.6-2.6 times as long as one
# poll at a time, and batches of 2 or 4 about as long, so such searches
# poll one point at a time.
_POLL_BATCH = 8
_POLL_ENTRIES = 4096


def _pattern_search(problem: _SearchProblem, rng: np.random.Generator, budget: int, index: int):
    """One restart: coordinate pattern search over the generator and state
    parameters, label maps enumerated exactly at every iterate.  Before each
    shrink-on-fail the closed-form state polish gets a chance to jump ahead,
    so the step cascade is traversed once instead of restarting.  Returns
    (U, psi, map_a, map_b, telemetry); the telemetry carries the defect.

    The restart owns its iterate (theta, U, psi, psi's target rows), and a
    poll reads it.  A sweep polls theta ± step·e_i for i = 0, 1, ... in turn,
    and rides an accepted direction, one poll at a time, until it stops
    paying off.  Until the next accepted poll the polls ahead are fixed, so
    up to _POLL_BATCH of them, to the end of the sweep and within the budget,
    are evaluated in one stacked pass and read in order; the batch is dropped
    at its first accepted poll, and ``evals`` counts the polls read.  Past
    _POLL_ENTRIES defect-table entries per candidate a batch is one poll.
    Every value, and so the whole restart, is bit-identical to polling one
    point at a time."""
    start = time.perf_counter()
    side_a, side_b = problem.candidate_maps(rng)
    here = problem.start(np.concatenate([
        rng.normal(0.0, 0.6, size=problem.u_params),
        rng.normal(0.0, 1.0, size=problem.s_params),
    ]))
    # The start's own value is the poll of a null move: x + (-0.0) is x, bit for bit.
    (best_val,), (best_a,), (best_b,), _ = problem.polls(here, [(problem.u_params, -0.0)], side_a, side_b)
    evals = 1
    accepted = polish_wins = 0
    step = 0.5
    sweep = 2 * (problem.u_params + problem.s_params)  # polls theta + step e_i, then theta - step e_i, per coordinate
    entries = problem.joint * sum(one_hot.shape[0] * one_hot.shape[1] for _, one_hot in (side_a, side_b))
    batch = _POLL_BATCH if entries <= _POLL_ENTRIES else 1
    while step > 1e-10 and evals < budget and best_val > problem.cutoff:
        improved = False
        poll, ride = 0, ()
        while evals < budget and (ride or poll < sweep):
            if ride:
                moves = [ride]
            else:
                moves = [(p // 2, -step if p % 2 else step)
                         for p in range(poll, poll + min(batch, sweep - poll, budget - evals))]
                poll += len(moves)
            ride = ()
            values, maps_a, maps_b, iterate = problem.polls(here, moves, side_a, side_b)
            for j, val in enumerate(values):
                evals += 1
                if val >= best_val - 1e-15:
                    continue
                here, best_val, best_a, best_b = iterate(j), float(val), maps_a[j], maps_b[j]
                accepted += 1
                improved = True
                # Ride the direction while it pays off; an accepted coordinate skips its other sign.
                ride = moves[j]
                poll = 2 * (ride[0] + 1)
                break
        if not improved:
            theta, u, _, _ = here
            polished = problem.polish(u, side_a, side_b)
            if polished[0] < best_val - 1e-15:
                best_val, psi, best_a, best_b = polished
                here = problem.start(np.concatenate([theta[:problem.u_params], psi.real, psi.imag]))
                polish_wins += 1
            else:
                step *= 0.5

    _, u, psi, _ = here
    polished = problem.polish(u, side_a, side_b)
    if polished[0] < best_val:
        best_val, psi, best_a, best_b = polished
        polish_wins += 1
    telemetry = RestartTelemetry(index=index, defect=float(best_val), evals=evals,
                                 accepted=accepted, polish_wins=polish_wins, step=step,
                                 wall_ms=1e3 * (time.perf_counter() - start))
    return u, psi, best_a, best_b, telemetry


def _serve_restarts(run, indices, conn) -> None:
    """A search worker: send ``run(i)`` down ``conn`` for each i in
    ``indices``, in order, or the exception it raised and stop.  Ctrl-C is
    left to the parent, which terminates its workers."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for index in indices:
        try:
            record = run(index)
        except Exception as exc:
            conn.send(exc)
            return
        conn.send(record)


def _restart_records(run, restarts: int):
    """Yield ``run(i)`` for i = 0 .. restarts - 1, in index order.

    Restart 0 runs in this process, so a search it wins forks nothing.  The
    rest go to W = _search_workers(restarts - 1) forked workers, worker w
    taking restarts 1 + w, 1 + w + W, ..., each read back from its own pipe.
    A worker that dies before sending its restart raises ChildProcessError
    here, and closing the generator terminates and joins every worker."""
    yield run(0)
    workers = _search_workers(restarts - 1)
    if workers <= 1:
        yield from map(run, range(1, restarts))
        return
    import multiprocessing

    context = multiprocessing.get_context("fork")
    started = []
    try:
        for w in range(workers):
            receive, send = context.Pipe(duplex=False)
            process = context.Process(target=_serve_restarts, daemon=True,
                                      args=(run, range(1 + w, restarts, workers), send))
            process.start()
            # Closed before the next fork, so the worker holds the only write
            # end and its death reads as EOF.
            send.close()
            started.append((process, receive))
        for index in range(1, restarts):
            process, receive = started[(index - 1) % workers]
            try:
                record = receive.recv()
            except EOFError:
                process.join()
                raise ChildProcessError(f"search worker for restart {index} died "
                                        f"(exit code {process.exitcode})") from None
            if isinstance(record, Exception):
                raise record
            yield record
    finally:
        for process, _ in started:
            process.terminate()
        for process, receive in started:
            process.join()
            receive.close()


def _search_workers(restarts: int) -> int:
    """Processes to run the restarts in: one per usable CPU, at most one per
    restart.  1, meaning this process, where fork is unavailable, where
    another thread runs (fork copies only the calling thread, and a lock
    that thread holds stays held in the child), or where this process is a
    daemon, which may not have children.  Fork, not spawn: a spawned worker
    would import numpy and qreal afresh on every search."""
    import multiprocessing
    import threading

    if ("fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1
            or multiprocessing.current_process().daemon):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(restarts, cpus)


def search_simultaneous(a: Observable, b: Observable, probe_dim: int, restarts: int = 20,
                        seed: int = 0, budget: int = 3000,
                        tol: ToleranceConfig = DEFAULT_TOL,
                        progress=None) -> SearchResult:
    """Search couplings, states and label maps so one apparatus measures both.

    Derivative-free: random restarts of coordinate pattern search over the
    Hermitian generator of U and the state parameters, with label maps
    enumerated exactly per iterate, then a closed-form state polish.  The
    meter is fixed nondegenerate, diag(1..k), read in the probe basis.
    Each restart evaluates the polls ahead of it in stacked batches and
    reads them in the serial order (see :func:`_pattern_search`), so its
    record is the one-poll-at-a-time loop's, bit for bit.  A restart stops
    early once its defect is at most tol.eq_tol / 10.

    Deterministic for a fixed seed: restart i draws from default_rng(seed+i)
    and the winner is the lowest-index restart reaching defect <= tol.eq_tol
    (below the tolerance at which states are equated, more restarts cannot
    change any decision), else the overall minimum with ties to the lowest
    index.  Restart 0 runs in this process; if it does not win, the rest run
    in min(restarts - 1, usable CPUs) forked processes and are read back in
    index order, so the record, the telemetry and the ``progress`` calls are
    bit-identical to running them one after another, which the search does
    in this process when one CPU is usable, fork is unavailable, another
    thread runs or this process is a daemon.  A worker killed from outside
    raises ChildProcessError.
    Exhausting the budget is not an error; the best record found is
    returned regardless.
    ``progress``, when given, is called in this process with
    (restart_index, defect) after each restart, in index order.  The
    result's ``telemetry`` holds one :class:`RestartTelemetry` per restart
    up to the winner, its ``evals`` counting the polls the restart read;
    restarts a worker ran past the winner are discarded.
    """
    if a.dim != b.dim:
        raise DimMismatchError(f"dims differ: {a.dim} vs {b.dim}")
    if probe_dim < 2:
        raise ValueError("probe_dim must be at least 2")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    problem = _SearchProblem(a, b, probe_dim, tol)

    def run(index: int):
        return _pattern_search(problem, np.random.default_rng(seed + index), budget, index)

    best = None
    telemetry = []
    with contextlib.closing(_restart_records(run, restarts)) as records:
        for u, psi, g_a, g_b, record in records:
            telemetry.append(record)
            if progress is not None:
                progress(record.index, record.defect)
            if best is None or record.defect < best[0]:
                best = (record.defect, u, psi, g_a, g_b, record.index)
            if best[0] <= tol.eq_tol:
                break

    _, u, psi, g_a, g_b, index = best
    map_a = {float(m + 1): problem.vals_a[slot] for m, slot in enumerate(g_a)}
    map_b = {float(m + 1): problem.vals_b[slot] for m, slot in enumerate(g_b)}
    meter = Observable(np.diag(np.arange(1, probe_dim + 1)).astype(complex), name="M", tol=tol)
    model = MeasurementModel(
        sys_dim=a.dim, probe_dim=probe_dim, probe_state=problem.xi, unitary=u,
        meter=meter, label_maps={"fA": map_a, "fB": map_b}, tol=tol,
    )
    # The reported defect is the certificates' own, recomputed from the model.
    report = simultaneously_measures(model, a, map_a, b, map_b, psi, tol=tol)
    final = max(report.cert_a.defect, report.cert_b.defect)
    return SearchResult(model=model, psi=psi, map_a=map_a, map_b=map_b,
                        defect=final, restart_index=index, telemetry=tuple(telemetry))
