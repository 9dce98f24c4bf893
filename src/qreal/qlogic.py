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

from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import lattice
from .errors import DimMismatchError, UnboundObservableError
from .lattice import Projection
from .numlin import DEFAULT_TOL, ToleranceConfig, as_state
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
    return TruthReport(projection=proj, probability=proj.weight(psi), holds=proj.contains(psi, tol))


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
    values = sorted(families[0].eigenvalues + families[1].eigenvalues)
    tops = [values[block.stop - 1] for block in cluster_indices(values, tol.eig_cluster_tol)]
    frames = [(f.vectors, _cluster_slices(f, tops)) for f in families]
    return lattice._span(lattice.joint_eigenspaces(frames, tol, keep=lambda key: key[0] == key[1]), a.dim)


def _cluster_slices(family, tops) -> list[slice]:
    """One column slice of ``family.vectors`` per cluster, empty where the
    family has no value in it; cluster k holds the values in (tops[k-1], tops[k]]."""
    ids = [bisect_left(tops, value) for value in family.eigenvalues]
    first = [bisect_left(ids, k) for k in range(len(tops) + 1)]
    starts = [sl.start for sl in family.slices] + [family.dim]
    return [slice(starts[i], starts[j]) for i, j in zip(first, first[1:])]


def perfectly_correlated(a: Observable, b: Observable, psi: np.ndarray, *,
                         tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Direct vector test: every spectral projection acts identically on psi,
    decided on the vectors E^A(c) psi and E^B(c) psi without forming
    [A = B]; the tests use it as an oracle for equality truth."""
    psi = as_state(psi, _common_dim((a, b)), tol)
    fam_a, fam_b = ([(lam, p.apply(psi)) for lam, p in spectral_family(obs, tol=tol)] for obs in (a, b))
    return all(np.linalg.norm(d) <= tol.eq_tol for d in _spectral_differences(fam_a, fam_b, tol))


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
