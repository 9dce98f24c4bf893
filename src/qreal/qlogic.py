"""Truth-value semantics for formulas over a fixed finite-dimensional space.

A formula denotes a projection, built compositionally from the spectral
projections of the observables it mentions.  Truth in a state ``psi`` means
``psi`` lies in the range of that projection; the probability reading is
the Born weight ``<psi|P|psi>``.  Commutator subspaces, joint
determinateness, nowhere-commutation, JPD existence and value identity
[A = B] all read the joint eigenspaces of :func:`lattice.joint_eigenspaces`,
so every intersection here is decided by the principal-angle rule of
:func:`lattice.meet`: sine at most ``eq_tol``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import lattice
from .errors import DimMismatchError, UnboundObservableError
from .lattice import Projection
from .numlin import DEFAULT_TOL, ToleranceConfig, as_state
from .qlang import And, Atom, Com, Equal, Formula, Iff, Not, Or, Sasaki
from .spectral import Observable, cluster_ids, spectral_family, spectral_projection


def _common_dim(observables) -> int:
    """The dimension every observable shares."""
    dims = {obs.dim for obs in observables}
    if len(dims) != 1:
        raise DimMismatchError(f"observables span several dimensions: {sorted(dims)}")
    return dims.pop()


class Environment:
    """Immutable name -> Observable binding with a common dimension."""

    __slots__ = ("_bindings", "dim")

    def __init__(self, bindings: Mapping[str, Observable]):
        if not bindings:
            raise ValueError("environment needs at least one observable")
        self._bindings = dict(bindings)
        self.dim = _common_dim(self._bindings.values())

    def __getitem__(self, obs_id: str) -> Observable:
        try:
            return self._bindings[obs_id]
        except KeyError:
            raise UnboundObservableError(f"no observable bound to {obs_id!r}") from None

    def __contains__(self, obs_id: str) -> bool:
        return obs_id in self._bindings

    def names(self) -> tuple[str, ...]:
        return tuple(self._bindings)


@dataclass(frozen=True)
class TruthReport:
    projection: Projection
    probability: float
    holds: bool


def truth_projection(formula: Formula, env: Environment, *,
                     tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """The projection denoted by ``formula`` under ``env``."""
    if isinstance(formula, Atom):
        return spectral_projection(env[formula.obs_id], formula.values, tol=tol)
    if isinstance(formula, Not):
        return lattice.complement(truth_projection(formula.operand, env, tol=tol))
    if isinstance(formula, And):
        return lattice.meet(truth_projection(formula.left, env, tol=tol),
                            truth_projection(formula.right, env, tol=tol), tol=tol)
    if isinstance(formula, Or):
        return lattice.join(truth_projection(formula.left, env, tol=tol),
                            truth_projection(formula.right, env, tol=tol), tol=tol)
    if isinstance(formula, Sasaki):
        return lattice.sasaki(truth_projection(formula.left, env, tol=tol),
                              truth_projection(formula.right, env, tol=tol), tol=tol)
    if isinstance(formula, Iff):
        return lattice.biconditional(truth_projection(formula.left, env, tol=tol),
                                     truth_projection(formula.right, env, tol=tol), tol=tol)
    if isinstance(formula, Equal):
        return value_identity(env[formula.left_id], env[formula.right_id], tol=tol)
    if isinstance(formula, Com):
        return _spectral_com([env[name] for name in formula.obs_ids], tol)
    raise TypeError(f"not a formula node: {formula!r}")


def _joint_pieces(observables, tol: ToleranceConfig):
    """(eigenvalue tuples, joint eigenspaces keyed by eigenvalue indices)."""
    _common_dim(observables)
    families = [spectral_family(obs, tol) for obs in observables]
    pieces = lattice.joint_eigenspaces([(f.vectors, f.slices) for f in families], tol)
    return [f.eigenvalues for f in families], pieces


def _spectral_com(observables, tol: ToleranceConfig) -> Projection:
    """com of the observables: the span of their joint eigenspaces, the
    largest subspace on which they all behave classically."""
    return lattice._span(_joint_pieces(observables, tol)[1], observables[0].dim)


def holds_in(formula: Formula, env: Environment, psi: np.ndarray, *,
             tol: ToleranceConfig = DEFAULT_TOL) -> TruthReport:
    """Evaluate ``formula`` at the state ``psi``."""
    psi = as_state(psi, env.dim, tol)
    proj = truth_projection(formula, env, tol=tol)
    return TruthReport(projection=proj, probability=proj.weight(psi), holds=proj.contains(psi, tol))


def _cluster_defect(values_a, rows_a, values_b, rows_b, tol: ToleranceConfig, bridges=()) -> float:
    """The largest ||Σ_{λ∈c} a_λ − Σ_{λ∈c} b_λ|| over the single-linkage
    clusters c of both sides' values and ``bridges``, a_λ the rows of
    ``rows_a`` whose value is λ.  A value held by one side only pairs with
    zero on the other, so it counts against identity; a bridge has no row
    and only joins clusters."""
    ids_a, ids_b, _ = cluster_ids([values_a, values_b, list(bridges)], tol.eig_cluster_tol)
    sums = np.zeros((1 + max(ids_a.max(), ids_b.max()), rows_a.shape[1]), dtype=complex)
    np.add.at(sums, ids_a, rows_a)
    np.subtract.at(sums, ids_b, rows_b)
    return float(np.linalg.norm(sums, axis=1).max())


def _state_rows(family, psi: np.ndarray) -> np.ndarray:
    """Rows v_j (v_j† psi), one per eigenvector column v_j: summed over a
    slice they give E(λ) psi."""
    v = family.vectors
    return v.T * (psi.conj() @ v).conj()[:, None]


def value_identity(a: Observable, b: Observable, *,
                   tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """The projection [A = B] expressing "a and b hold identical values".

    By definition the meet of E^A(c) ↔ E^B(c) over the single-linkage
    clusters c of spec(a) ∪ spec(b), which by Ozawa's theorem (Ann. Phys.
    321, 2006) is ∨_c E^A(c) ∧ E^B(c): the joint eigenspaces keyed (c, c)
    of the two families with their slices merged into the clusters, so a
    chain a₁ ~ b ~ a₂ is one value.
    """
    _common_dim((a, b))
    families = [spectral_family(obs, tol) for obs in (a, b)]
    ids = cluster_ids([f.column_values for f in families], tol.eig_cluster_tol)
    clusters = np.arange(2 + max(column_ids[-1] for column_ids in ids))
    # Columns ascend in value, so cluster c is one column slice of each family.
    bounds = [np.searchsorted(column_ids, clusters).tolist() for column_ids in ids]
    frames = [(f.vectors, list(map(slice, b, b[1:]))) for f, b in zip(families, bounds)]
    return lattice._span(lattice.joint_eigenspaces(frames, tol, keep=lambda key: key[0] == key[1]), a.dim)


def perfectly_correlated(a: Observable, b: Observable, psi: np.ndarray, *,
                         tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Direct vector test: every spectral projection acts identically on psi,
    decided by the cluster sums of the rows v_j (v_j† psi) of both families,
    which are E^A(c) psi and E^B(c) psi, without forming [A = B]; the tests
    use it as an oracle for equality truth."""
    psi = as_state(psi, _common_dim((a, b)), tol)
    fam_a, fam_b = (spectral_family(obs, tol=tol) for obs in (a, b))
    return _cluster_defect(fam_a.column_values, _state_rows(fam_a, psi),
                           fam_b.column_values, _state_rows(fam_b, psi), tol) <= tol.eq_tol


def jointly_determinate(observables: list[Observable], psi: np.ndarray, *,
                        tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, Projection]:
    """Whether all listed observables have simultaneous values at psi.

    Returns the flag together with the projection onto the largest subspace
    where the full spectral family behaves classically.
    """
    if len(observables) < 2:
        raise ValueError("joint determinateness needs at least two observables")
    psi = as_state(psi, _common_dim(observables), tol)
    proj = _spectral_com(observables, tol)
    return proj.contains(psi, tol=tol), proj


def nowhere_commuting(a: Observable, b: Observable, *,
                      tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when no state makes a and b jointly determinate."""
    return not _joint_pieces([a, b], tol)[1]


def jpd_exists(a: Observable, b: Observable, psi: np.ndarray, *,
               tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, dict[tuple[float, float], float]]:
    """Joint-eigenspace distribution p(λ, μ) = ||S_λμ† psi||² and whether it
    is a genuine JPD, S_λμ an orthonormal basis of E^A(λ) ∧ E^B(μ).

    It exists exactly when psi lies in the span of the joint eigenspaces,
    the test :func:`jointly_determinate` applies.  The Born marginals then
    follow: each row deficit ||(E^A(λ) − Σ_μ S_λμ S_λμ†) psi||² is
    nonnegative, and A's row deficits (likewise B's) sum to 1 − Σ p(λ, μ).
    """
    psi = as_state(psi, _common_dim((a, b)), tol)
    (values_a, values_b), pieces = _joint_pieces([a, b], tol)
    candidate = {(lam, mu): 0.0 for lam in values_a for mu in values_b}
    for (i, j), cols in pieces.items():
        candidate[(values_a[i], values_b[j])] = float(np.linalg.norm(cols.conj().T @ psi) ** 2)
    return lattice._span(pieces, a.dim).contains(psi, tol=tol), candidate
