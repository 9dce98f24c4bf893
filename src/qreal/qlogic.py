"""Truth-value semantics for formulas over a fixed finite-dimensional space.

A formula denotes a projection, built compositionally from the spectral
projections of the observables it mentions.  Truth in a state ``psi`` means
``psi`` lies in the range of that projection; the probability reading is
the Born weight ``<psi|P|psi>``.  Equality of observables, joint
determinateness and joint-probability-distribution existence are all
state-dependent notions defined through the same lattice operations.
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
from .spectral import (
    Observable,
    born_distribution,
    cluster_indices,
    spectral_family,
    spectral_projection,
)


class Environment:
    """Immutable name -> Observable binding with a common dimension."""

    __slots__ = ("_bindings", "dim")

    def __init__(self, bindings: Mapping[str, Observable]):
        if not bindings:
            raise ValueError("environment needs at least one observable")
        items = dict(bindings)
        dims = {obs.dim for obs in items.values()}
        if len(dims) != 1:
            raise DimMismatchError(f"observables span several dimensions: {sorted(dims)}")
        self._bindings = items
        self.dim = dims.pop()

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


def _spectral_com(observables, tol: ToleranceConfig) -> Projection:
    """com of the observables' spectral projections taken together: the
    largest subspace on which they all behave classically."""
    projections = [p for obs in observables for p in spectral_family(obs, tol=tol).projections]
    return lattice.com_family(projections, tol=tol)


def holds_in(formula: Formula, env: Environment, psi: np.ndarray, *,
             tol: ToleranceConfig = DEFAULT_TOL) -> TruthReport:
    """Evaluate ``formula`` at the state ``psi``."""
    psi = as_state(psi, tol=tol)
    if psi.shape[0] != env.dim:
        raise DimMismatchError(f"state dim {psi.shape[0]} != environment dim {env.dim}")
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


def _matrices(family) -> list[tuple[float, np.ndarray]]:
    """(value, matrix) pairs of a family of (value, Projection) pairs."""
    return [(lam, p.matrix) for lam, p in family]


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
    if a.dim != b.dim:
        raise DimMismatchError(f"dims differ: {a.dim} vs {b.dim}")
    diffs = _spectral_differences(_matrices(spectral_family(a, tol=tol)),
                                  _matrices(spectral_family(b, tol=tol)), tol)
    return Projection._spanned(_eigenspace(sum(d @ d for d in diffs), hi=tol.eig_cluster_tol))


def perfectly_correlated(a: Observable, b: Observable, psi: np.ndarray, *,
                         tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Direct vector test: every spectral projection acts identically on psi.

    Decided vector by vector, without forming the value-identity subspace;
    the tests use it as an oracle for equality truth.
    """
    if a.dim != b.dim:
        raise DimMismatchError(f"dims differ: {a.dim} vs {b.dim}")
    psi = as_state(psi, tol=tol)
    if psi.shape[0] != a.dim:
        raise DimMismatchError(f"state dim {psi.shape[0]} != observable dim {a.dim}")
    diffs = _spectral_differences(_matrices(spectral_family(a, tol=tol)),
                                  _matrices(spectral_family(b, tol=tol)), tol)
    return all(np.linalg.norm(diff @ psi) <= tol.eq_tol for diff in diffs)


def jointly_determinate(observables: list[Observable], psi: np.ndarray, *,
                        tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, Projection]:
    """Whether all listed observables have simultaneous values at psi.

    Returns the flag together with the projection onto the largest subspace
    where the full spectral family behaves classically.
    """
    if len(observables) < 2:
        raise ValueError("joint determinateness needs at least two observables")
    dims = {obs.dim for obs in observables}
    if len(dims) != 1:
        raise DimMismatchError(f"observables span several dimensions: {sorted(dims)}")
    psi = as_state(psi, tol=tol)
    if psi.shape[0] != dims.pop():
        raise DimMismatchError("state dim differs from observable dim")
    proj = _spectral_com(observables, tol)
    return proj.contains(psi, tol=tol), proj


def nowhere_commuting(a: Observable, b: Observable, *,
                      tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when no state makes a and b jointly determinate."""
    if a.dim != b.dim:
        raise DimMismatchError(f"dims differ: {a.dim} vs {b.dim}")
    return _spectral_com([a, b], tol).rank == 0


def jpd_exists(a: Observable, b: Observable, psi: np.ndarray, *,
               tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, dict[tuple[float, float], float]]:
    """Meet-based joint-distribution candidate and whether it is a genuine JPD.

    The candidate weights are Born weights of pairwise meets; existence
    requires normalization and both marginals to reproduce the single-
    observable Born distributions.
    """
    if a.dim != b.dim:
        raise DimMismatchError(f"dims differ: {a.dim} vs {b.dim}")
    psi = as_state(psi, tol=tol)
    if psi.shape[0] != a.dim:
        raise DimMismatchError(f"state dim {psi.shape[0]} != observable dim {a.dim}")
    fam_a = spectral_family(a, tol=tol)
    fam_b = spectral_family(b, tol=tol)
    candidate: dict[tuple[float, float], float] = {}
    for lam, proj_a in fam_a.entries:
        for mu, proj_b in fam_b.entries:
            both = lattice.meet(proj_a, proj_b, tol=tol)
            weight = float(np.clip(np.real(np.vdot(psi, both.apply(psi))), 0.0, 1.0))
            candidate[(lam, mu)] = weight
    total = sum(candidate.values())
    born_a = born_distribution(a, psi, tol=tol)
    born_b = born_distribution(b, psi, tol=tol)
    marginals_ok = all(
        abs(sum(candidate[(lam, mu)] for mu in fam_b.eigenvalues) - born_a[lam]) <= tol.eq_tol
        for lam in fam_a.eigenvalues
    ) and all(
        abs(sum(candidate[(lam, mu)] for lam in fam_a.eigenvalues) - born_b[mu]) <= tol.eq_tol
        for mu in fam_b.eigenvalues
    )
    exists = abs(total - 1.0) <= tol.eq_tol and marginals_ok
    return exists, candidate
