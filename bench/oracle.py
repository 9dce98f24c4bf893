"""Reference computations the benchmark checks qreal's answers against.

Everything here is written from the definitions with numpy and scipy and
imports nothing from qreal, so a fault in qreal cannot vouch for itself.
Degenerate eigenvalues are merged at ``CLUSTER``, the clustering gap qreal
documents as its default; the benchmark's inputs keep distinct eigenvalues
at least 0.25 apart, so no answer depends on where that gap sits.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

CLUSTER = 1e-8
EQ_TOL = 1e-9
RCOND = 1e-9


class WrongAnswer(Exception):
    """An answer that disagrees with its reference computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def close(got: float, want: float, tol: float = 1e-7) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def projector(columns: np.ndarray) -> np.ndarray:
    return columns @ columns.conj().T


def spectrum(h: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """(value, eigenprojector) pairs, ascending, clustered at ``CLUSTER``."""
    w, v = sla.eigh(h)
    out = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > CLUSTER:
            out.append((float(np.mean(w[start:i])), projector(v[:, start:i])))
            start = i
    return out


def merged_values(values) -> list[list[float]]:
    """Single-linkage clusters of a list of numbers at ``CLUSTER``."""
    clusters: list[list[float]] = []
    for x in sorted(values):
        if clusters and x - clusters[-1][-1] <= CLUSTER:
            clusters[-1].append(x)
        else:
            clusters.append([x])
    return clusters


def in_cluster(value: float, cluster) -> bool:
    return any(abs(value - c) <= CLUSTER for c in cluster)


def eigenprojector(h: np.ndarray, values) -> np.ndarray:
    total = np.zeros(h.shape, dtype=complex)
    for lam, proj in spectrum(h):
        if in_cluster(lam, values):
            total += proj
    return total


def _rank(s: np.ndarray) -> int:
    """Numerical rank: singular values above RCOND times the largest, with
    the scale floored at 1.  The floor matters: scipy's ``orth`` and
    ``null_space`` cut relative to the largest value only, so a stack that
    is zero up to rounding (the meet of I with I) reads as full rank."""
    return int(np.sum(s > RCOND * max(float(s[0]) if s.size else 0.0, 1.0)))


def kernel(stack: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis from an economic SVD.

    The economic form keeps memory at rows x cols even for the tall stacks
    of commutators the joint-reality workload builds at d=32.
    """
    _, s, vh = sla.svd(stack, full_matrices=False)
    return vh[_rank(s):].conj().T


def span(columns: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space."""
    u, s, _ = sla.svd(columns, full_matrices=False)
    return u[:, :_rank(s)]


def contains(proj: np.ndarray, psi: np.ndarray) -> bool:
    return float(np.linalg.norm(proj @ psi - psi)) <= EQ_TOL


def born(proj: np.ndarray, psi: np.ndarray) -> float:
    return float(np.clip(np.real(np.vdot(psi, proj @ psi)), 0.0, 1.0))


# ---------------------------------------------------------------------------
# Lattice operations, from the subspace definitions.


def meet(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """ran P ∩ ran Q = ker(I - P) ∩ ker(I - Q)."""
    eye = np.eye(p.shape[0])
    return projector(kernel(np.vstack([eye - p, eye - q])))


def join(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """span(ran P ∪ ran Q)."""
    return projector(span(np.hstack([p, q])))


def complement(p: np.ndarray) -> np.ndarray:
    return np.eye(p.shape[0]) - p


def sasaki(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return join(complement(p), meet(p, q))


def iff(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return meet(sasaki(p, q), sasaki(q, p))


def pair_differences(a: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """E^A(c) - E^B(c) over the clusters c of spec(A) ∪ spec(B)."""
    spec_a, spec_b = spectrum(a), spectrum(b)
    values = [lam for lam, _ in spec_a] + [lam for lam, _ in spec_b]
    diffs = []
    for cluster in merged_values(values):
        ea = sum((p for lam, p in spec_a if in_cluster(lam, cluster)), np.zeros(a.shape, complex))
        eb = sum((p for lam, p in spec_b if in_cluster(lam, cluster)), np.zeros(a.shape, complex))
        diffs.append(ea - eb)
    return diffs


def equality_projection(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """States in which A and B are perfectly correlated (Ozawa, Ann. Phys.
    321, 2006): the common kernel of every E^A(c) - E^B(c)."""
    return projector(kernel(np.vstack(pair_differences(a, b))))


# ---------------------------------------------------------------------------
# Formula trees.  A tree is a tuple: ("atom", name, values), ("not", x),
# ("and"|"or"|"imp"|"iff", left, right) or ("eq", name, name).


def render(tree) -> str:
    """Formula text in qreal's grammar, fully parenthesized."""
    kind = tree[0]
    if kind == "atom":
        return f"{tree[1]} in {{{', '.join(repr(float(v)) for v in tree[2])}}}"
    if kind == "eq":
        return f"[{tree[1]} = {tree[2]}]"
    if kind == "not":
        return f"~({render(tree[1])})"
    symbol = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}[kind]
    return f"({render(tree[1])}) {symbol} ({render(tree[2])})"


def evaluate(tree, env: dict[str, np.ndarray]) -> np.ndarray:
    """The projection a formula denotes, from the subspace definitions."""
    kind = tree[0]
    if kind == "atom":
        return eigenprojector(env[tree[1]], tree[2])
    if kind == "eq":
        return equality_projection(env[tree[1]], env[tree[2]])
    if kind == "not":
        return complement(evaluate(tree[1], env))
    left, right = evaluate(tree[1], env), evaluate(tree[2], env)
    return {"and": meet, "or": join, "imp": sasaki, "iff": iff}[kind](left, right)


def truth_table(tree, values: dict[str, np.ndarray]) -> np.ndarray:
    """Classical truth value per basis vector of a commuting family, given
    each observable's eigenvalue on each common eigenvector."""
    kind = tree[0]
    if kind == "atom":
        return np.isin(values[tree[1]], tree[2])
    if kind == "eq":
        return values[tree[1]] == values[tree[2]]
    if kind == "not":
        return ~truth_table(tree[1], values)
    p, q = truth_table(tree[1], values), truth_table(tree[2], values)
    if kind == "and":
        return p & q
    if kind == "or":
        return p | q
    if kind == "imp":
        return ~p | q
    return p == q


# ---------------------------------------------------------------------------
# Joint reality.


def commutator_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel basis of every pairwise commutator of the spectral projections
    of A and B, stacked."""
    projs = [p for _, p in spectrum(a)] + [p for _, p in spectrum(b)]
    stack = np.vstack([projs[i] @ projs[j] - projs[j] @ projs[i]
                       for i in range(len(projs)) for j in range(i + 1, len(projs))])
    return kernel(stack)


def meet_jpd(a: np.ndarray, b: np.ndarray, psi: np.ndarray) -> dict[tuple[float, float], float]:
    """Born weights of the meets E^A(λ) ∧ E^B(μ)."""
    return {(lam, mu): born(meet(p, q), psi)
            for lam, p in spectrum(a) for mu, q in spectrum(b)}


def jpd_is_genuine(a: np.ndarray, b: np.ndarray, psi: np.ndarray,
                   weights: dict[tuple[float, float], float]) -> bool:
    """Normalized, with both marginals equal to the Born distributions."""
    if abs(sum(weights.values()) - 1.0) > EQ_TOL:
        return False
    for lam, p in spectrum(a):
        if abs(sum(w for (l2, _), w in weights.items() if l2 == lam) - born(p, psi)) > EQ_TOL:
            return False
    for mu, q in spectrum(b):
        if abs(sum(w for (_, m2), w in weights.items() if m2 == mu) - born(q, psi)) > EQ_TOL:
            return False
    return True


# ---------------------------------------------------------------------------
# Measurement models.  A model is (U, xi, M, maps) with the system first.


def lift_meter(u: np.ndarray, n: int, meter_part: np.ndarray) -> np.ndarray:
    """U† (1 ⊗ X) U for an operator X on the probe."""
    return u.conj().T @ np.kron(np.eye(n), meter_part) @ u


def mapped_meter(meter: np.ndarray, label_map: dict[float, float]) -> list[tuple[float, np.ndarray]]:
    """(f(m), E^M(m)) for every meter outcome m."""
    out = []
    for m, proj in spectrum(meter):
        keys = [k for k in label_map if abs(k - m) <= CLUSTER]
        require(bool(keys), f"label map undefined on meter outcome {m}")
        out.append((label_map[keys[0]], proj))
    return out


def certificate_defect(u, xi, meter, label_map, a, psi) -> float:
    """max over value clusters c of ||E^{f(O)}(c)(ψ⊗ξ) − (E^A(c)ψ)⊗ξ||."""
    n = a.shape[0]
    joint = np.kron(psi, xi)
    outcomes = mapped_meter(meter, label_map)
    spec_a = spectrum(a)
    targets = [lam for lam, _ in spec_a] + list(label_map.values())
    defect = 0.0
    for cluster in merged_values(targets):
        left = np.zeros(joint.shape, dtype=complex)
        for value, proj in outcomes:
            if in_cluster(value, cluster):
                left += lift_meter(u, n, proj) @ joint
        right = np.zeros(joint.shape, dtype=complex)
        for lam, proj in spec_a:
            if in_cluster(lam, cluster):
                right += np.kron(proj @ psi, xi)
        defect = max(defect, float(np.linalg.norm(left - right)))
    return defect


def meter_distribution(u, xi, meter, psi) -> dict[float, float]:
    n = psi.shape[0]
    evolved = u @ np.kron(psi, xi)
    return {m: float(np.linalg.norm(np.kron(np.eye(n), proj) @ evolved) ** 2)
            for m, proj in spectrum(meter)}


def rms_noise(u, xi, meter, label_map, a, psi) -> float:
    n = a.shape[0]
    f_meter = sum(value * proj for value, proj in mapped_meter(meter, label_map))
    gap = lift_meter(u, n, f_meter) - np.kron(a, np.eye(xi.shape[0]))
    return float(np.linalg.norm(gap @ np.kron(psi, xi)))


def rms_disturbance(u, xi, b, psi) -> float:
    lifted = np.kron(b, np.eye(xi.shape[0]))
    moved = u.conj().T @ lifted @ u
    return float(np.linalg.norm((moved - lifted) @ np.kron(psi, xi)))


def std_dev(a: np.ndarray, psi: np.ndarray) -> float:
    mean = float(np.real(np.vdot(psi, a @ psi)))
    second = float(np.real(np.vdot(psi, a @ (a @ psi))))
    return float(np.sqrt(max(second - mean * mean, 0.0)))
