"""Truth-value semantics for formulas over a fixed finite-dimensional space.

A formula denotes a projection, built compositionally from the spectral
projections of the observables it mentions.  Truth in a state ``psi`` means
``psi`` lies in the range of that projection; the probability reading is
the Born weight ``<psi|P|psi>``.  Joint determinateness, nowhere-commutation
and JPD existence all read the joint eigenspaces E^A(λ) ∧ E^B(μ) of
:func:`lattice.joint_eigenspaces`, one ``rank_tol`` cutoff for all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import lattice
from .errors import DimMismatchError, UnboundObservableError
from .lattice import Projection
from .numlin import DEFAULT_TOL, ToleranceConfig, _eigenspace, as_state
from .qlang import And, Atom, Com, Equal, Formula, Iff, Not, Or, Sasaki
from .spectral import Observable, cluster_indices, spectral_family, spectral_projection


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
    image = proj.apply(psi)
    probability = float(np.clip(np.real(np.vdot(psi, image)), 0.0, 1.0))
    holds = bool(np.linalg.norm(image - psi) <= tol.eq_tol)
    return TruthReport(projection=proj, probability=probability, holds=holds)


def _spectral_differences(fam_a, fam_b, tol: ToleranceConfig) -> list[np.ndarray]:
    """Σ_{λ∈c} a_λ − Σ_{λ∈c} b_λ for each single-linkage cluster c of the two
    families' values.  A family is a sequence of (value, ndarray) pairs of
    one shape: spectral projections, or the outcome and target rows of the
    measurement layer.

    A value held by only one family pairs with zero on the other side, so it
    counts against identity.
    """
    values = sorted([lam for lam, _ in fam_a] + [lam for lam, _ in fam_b])
    diffs = []
    for block in cluster_indices(values, tol.eig_cluster_tol):
        cluster = values[block]
        diffs.append(sum(x for lam, x in fam_a if lam in cluster)
                     - sum(x for lam, x in fam_b if lam in cluster))
    return diffs


def _value_differences(a: Observable, b: Observable, tol: ToleranceConfig) -> list[np.ndarray]:
    """E^A(c) − E^B(c) for each cluster c of spec(a) ∪ spec(b)."""
    _common_dim((a, b))
    fam_a, fam_b = ([(lam, p.matrix) for lam, p in spectral_family(obs, tol=tol)] for obs in (a, b))
    return _spectral_differences(fam_a, fam_b, tol)


def value_identity(a: Observable, b: Observable, *,
                   tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """The projection expressing "a and b hold identical values".

    By definition the meet of E^A(λ) ↔ E^B(λ) over the merged spectrum.
    By Ozawa's theorem (Ann. Phys. 321, 2006) its range is the set of
    states on which every E^A(λ) − E^B(λ) vanishes, read off here as the
    near-kernel of the Gram matrix Σ_λ (E^A(λ) − E^B(λ))²: eigenvalues
    within eig_cluster_tol of 0, the rule :func:`lattice.meet` applies to
    (I − P) + (I − Q).
    """
    diffs = _value_differences(a, b, tol)
    return Projection._spanned(_eigenspace(sum(d @ d for d in diffs), hi=tol.eig_cluster_tol))


def perfectly_correlated(a: Observable, b: Observable, psi: np.ndarray, *,
                         tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Direct vector test: every spectral projection acts identically on psi.

    Decided vector by vector, without forming the value-identity subspace;
    the tests use it as an oracle for equality truth.
    """
    psi = as_state(psi, _common_dim((a, b)), tol)
    return all(np.linalg.norm(d @ psi) <= tol.eq_tol for d in _value_differences(a, b, tol))


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
    return _spectral_com([a, b], tol).rank == 0


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
