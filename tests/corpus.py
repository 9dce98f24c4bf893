"""Random instance builders shared between the unit and acceptance tests.

Each builder returns plain matrices/vectors so tests can wrap them in
Observable themselves (and so oracles can work on raw arrays).
"""

import numpy as np
import scipy.linalg

from qreal import (
    DEFAULT_TOL,
    Projection,
    biconditional,
    meet,
    random_state,
    random_unitary,
    spectral_family,
    spectral_projection,
)
from qreal.errors import EmptyFamilyError
from qreal.numlin import null_basis


def reference_cluster_indices(values, gap: float) -> list[slice]:
    """Single-linkage clusters of an ascending sequence: split where the gap
    exceeds ``gap``.  The first, scalar-loop version of
    ``qreal.spectral.cluster_indices``, kept as its reference."""
    slices = []
    start = 0
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > gap:
            slices.append(slice(start, i))
            start = i
    if len(values):
        slices.append(slice(start, len(values)))
    return slices


def kernel(matrix: np.ndarray, rcond: float = 1e-10) -> np.ndarray:
    """Orthonormal kernel basis by scipy, with the cutoff floored at scale 1.

    scipy alone cuts relative to the largest singular value, so a matrix
    that is zero up to rounding (the commutator of a commuting pair) would
    read as full rank.
    """
    scale = np.linalg.norm(matrix, 2)
    if scale == 0.0:
        return np.eye(matrix.shape[1], dtype=complex)
    return scipy.linalg.null_space(matrix, rcond=rcond * max(scale, 1.0) / scale)


def lattice_value_identity(a, b) -> Projection:
    """[A = B] by its definition, the meet of E^A(c) ↔ E^B(c) over the
    clusters c of spec(A) ∪ spec(B): the lattice-route reference for
    value_identity."""
    values = sorted(spectral_family(a).eigenvalues + spectral_family(b).eigenvalues)
    result = Projection.identity(a.dim)
    for block in reference_cluster_indices(values, 1e-8):
        cluster = values[block]
        result = meet(result, biconditional(spectral_projection(a, cluster),
                                            spectral_projection(b, cluster)))
    return result


def commuting_pair(rng: np.random.Generator, dim: int):
    """A and B diagonal in one random basis; values may repeat."""
    v = random_unitary(dim, rng)
    a_vals = rng.integers(-3, 4, size=dim).astype(float)
    b_vals = rng.integers(-3, 4, size=dim).astype(float)
    a = (v * a_vals) @ v.conj().T
    b = (v * b_vals) @ v.conj().T
    return a, b


def nowhere_pair(rng: np.random.Generator, dim: int = 2):
    """Independently rotated nondegenerate spectra; generically the
    commutator projection is zero."""
    v = random_unitary(dim, rng)
    w = random_unitary(dim, rng)
    a_vals = np.arange(1, dim + 1) + rng.normal(0.0, 0.2, size=dim)
    b_vals = np.arange(1, dim + 1) + rng.normal(0.0, 0.2, size=dim)
    a = (v * a_vals) @ v.conj().T
    b = (w * b_vals) @ w.conj().T
    return a, b


def block_pair(rng: np.random.Generator):
    """C^4 = C^2 + C^2: incompatible on the first block, commuting
    (diagonal) on the second, so the pair is partially commuting."""
    a1, b1 = nowhere_pair(rng, 2)
    a = np.zeros((4, 4), dtype=complex)
    b = np.zeros((4, 4), dtype=complex)
    a[:2, :2] = a1
    b[:2, :2] = b1
    a[2, 2], a[3, 3] = rng.integers(4, 7), rng.integers(4, 7)
    b[2, 2], b[3, 3] = rng.integers(4, 7), rng.integers(4, 7)
    return a, b


def shared_vector_pair(rng: np.random.Generator, dim: int):
    """A and B agree on one eigenvector with one eigenvalue and are
    unrelated elsewhere; at that eigenvector they are perfectly correlated."""
    v = random_unitary(dim, rng)
    shared = v[:, 0]
    rest_a = v[:, 1:]
    rest_b = v[:, 1:] @ random_unitary(dim - 1, rng)
    lam = 1.0
    a_vals = np.concatenate([[lam], np.arange(2, dim + 1) + rng.normal(0, 0.1, dim - 1)])
    b_vals = np.concatenate([[lam], np.arange(2, dim + 1) + rng.normal(0, 0.1, dim - 1)])
    cols_a = np.concatenate([shared[:, None], rest_a], axis=1)
    cols_b = np.concatenate([shared[:, None], rest_b], axis=1)
    a = (cols_a * a_vals) @ cols_a.conj().T
    b = (cols_b * b_vals) @ cols_b.conj().T
    return a, b, shared


def equality_corpus(rng: np.random.Generator, count: int):
    """(kind, a, b, psi) instances spanning commuting, block-diagonal and
    nowhere-commuting pairs, with every fifth instance engineered so the
    equality actually holds at psi."""
    out = []
    for i in range(count):
        mode = i % 5
        if mode == 0:
            dim = int(rng.integers(2, 5))
            a, b = commuting_pair(rng, dim)
            psi = random_state(dim, rng)
            kind = "commuting"
        elif mode == 1:
            a, b = block_pair(rng)
            psi = random_state(4, rng)
            kind = "block"
        elif mode == 2:
            dim = int(rng.integers(2, 4))
            a, b = nowhere_pair(rng, dim)
            psi = random_state(dim, rng)
            kind = "nowhere"
        elif mode == 3:
            dim = int(rng.integers(2, 5))
            a, _ = commuting_pair(rng, dim)
            b = a.copy()
            psi = random_state(dim, rng)
            kind = "identical"
        else:
            dim = int(rng.integers(2, 5))
            a, b, psi = shared_vector_pair(rng, dim)
            kind = "shared"
        out.append((kind, a, b, psi))
    return out


def stacked_com_family(projections, tol=DEFAULT_TOL) -> Projection:
    """com of a family by its definition: the common kernel of every
    pairwise commutator, shrunk to its largest invariant subspace by a
    fixed point (restrict to vectors whose images under every member stay
    inside).  The reference for :func:`qreal.com_family`."""
    ps = list(projections)
    if not ps:
        raise EmptyFamilyError("com_family requires at least one projection")
    dim = ps[0].dim
    mats = [p.matrix for p in ps]
    commutators = [mats[i] @ mats[j] - mats[j] @ mats[i]
                   for i in range(len(mats)) for j in range(i + 1, len(mats))]
    basis = null_basis(np.vstack(commutators), tol) if commutators else np.eye(dim, dtype=complex)
    while basis.shape[1] > 0:
        outside = np.eye(dim, dtype=complex) - basis @ basis.conj().T
        coeffs = null_basis(np.vstack([outside @ m @ basis for m in mats]), tol)
        if coeffs.shape[1] == basis.shape[1]:
            break
        basis = basis @ coeffs
    return Projection._spanned(basis)


PLANTED_KINDS = ("commuting", "block", "generic", "degenerate")


def planted_pair(kind: str, dim: int, rng: np.random.Generator):
    """(A, B, com rank) with the rank fixed by construction.

    commuting: one eigenbasis, nondegenerate spectra, rank dim.  block: one
    eigenbasis except a 2x2 block where the two act as noncommuting qubit
    observables, rank dim - 2.  generic: independent eigenbases, rank 0.
    degenerate: a block pair whose spectra repeat values across the
    commuting part and into the block, rank dim - 2.
    """
    u = random_unitary(dim, rng)
    a_vals = rng.permutation(dim).astype(float)
    b_vals = rng.permutation(dim).astype(float)
    if kind == "degenerate":
        a_vals = rng.integers(0, 3, size=dim).astype(float)
        b_vals = rng.integers(0, 3, size=dim).astype(float)
        a_vals[-1], b_vals[-1] = a_vals[-2] + 1.0, b_vals[-2] + 1.0
    if kind == "generic":
        w = random_unitary(dim, rng)
        return (u * a_vals) @ u.conj().T, (w * b_vals) @ w.conj().T, 0
    a = np.diag(a_vals).astype(complex)
    b = np.diag(b_vals).astype(complex)
    if kind == "commuting":
        return u @ a @ u.conj().T, u @ b @ u.conj().T, dim
    r1, r2 = random_unitary(2, rng), random_unitary(2, rng)
    a[-2:, -2:] = (r1 * a_vals[-2:]) @ r1.conj().T
    b[-2:, -2:] = (r2 * b_vals[-2:]) @ r2.conj().T
    a, b = u @ a @ u.conj().T, u @ b @ u.conj().T
    return (a + a.conj().T) / 2, (b + b.conj().T) / 2, dim - 2


def random_model_parts(rng: np.random.Generator, sys_dim: int, probe_dim: int):
    """Unitary, probe state and a nondegenerate meter matrix."""
    u = random_unitary(sys_dim * probe_dim, rng)
    xi = random_state(probe_dim, rng)
    meter = np.diag(np.arange(1.0, probe_dim + 1.0))
    return u, xi, meter


# (input, byte offset, expected, found) for every way a formula can go wrong.
MALFORMED_FORMULAS = [
    ("", 0, "a formula", "end of input"),
    ("A in", 4, "{", "end of input"),
    ("A in {", 6, "a number", "end of input"),
    ("A in {}", 6, "a number", "}"),
    ("A in {1,", 8, "a number", "end of input"),
    ("A in {1", 7, "}", "end of input"),
    ("A in 1", 5, "{", "1"),
    ("(A in {1}", 9, ")", "end of input"),
    ("A in {1} &", 10, "a formula", "end of input"),
    ("& A in {1}", 0, "a formula", "&"),
    ("[A = ]", 5, "an identifier", "]"),
    ("[A B]", 3, "=", "B"),
    ("[A = B", 6, "]", "end of input"),
    ("com(A)", 5, ",", ")"),
    ("com A, B)", 4, "(", "A"),
    ("com(A, 2)", 7, "an identifier", "2"),
    ("A in {1} B in {2}", 9, "end of input", "B"),
    ("A in {1} -> ", 12, "a formula", "end of input"),
    ("$", 0, "a token", "'$'"),
    ("A in {1e999}", 6, "a finite number", "1e999"),
]


_FORMULA_NAMES = ("A", "B", "C", "D", "E2", "x_1", "Spin")


def random_formula(rng: np.random.Generator, depth: int = 4):
    """A random well-formed AST over a small identifier pool."""
    from qreal import And, Atom, Com, Equal, Iff, Not, Or, Sasaki

    def leaf():
        kind = rng.integers(0, 3)
        if kind == 0:
            count = int(rng.integers(1, 4))
            values = [float(x) for x in rng.choice(
                [-2.5, -1.0, 0.0, 0.5, 1.0, 2.0, 3.25, 1e3, -7e-3], size=count)]
            return Atom(str(rng.choice(_FORMULA_NAMES)), tuple(values))
        if kind == 1:
            left, right = rng.choice(_FORMULA_NAMES, size=2)
            return Equal(str(left), str(right))
        count = int(rng.integers(2, 4))
        return Com(tuple(str(x) for x in rng.choice(_FORMULA_NAMES, size=count)))

    def build(level: int):
        if level <= 0 or rng.random() < 0.3:
            return leaf()
        kind = rng.integers(0, 5)
        if kind == 0:
            return Not(build(level - 1))
        node = {1: And, 2: Or, 3: Sasaki, 4: Iff}[int(kind)]
        return node(build(level - 1), build(level - 1))

    return build(depth)


# ---------------------------------------------------------------------------
# Joint-space oracle for the measurement layer: every operator is formed on
# the n·k-dimensional joint space with np.kron, as the definitions read.

CLUSTER_GAP = 1e-8


def clusters(values) -> list[list[float]]:
    out: list[list[float]] = []
    for x in sorted(values):
        if out and x - out[-1][-1] <= CLUSTER_GAP:
            out[-1].append(x)
        else:
            out.append([x])
    return out


def eigenprojectors(h: np.ndarray) -> list[tuple[float, np.ndarray]]:
    w, v = np.linalg.eigh(h)
    out = []
    for cluster in clusters(w):
        cols = v[:, np.isin(w, cluster)]
        out.append((float(np.mean(cluster)), cols @ cols.conj().T))
    return out


def in_cluster(value: float, cluster) -> bool:
    return any(abs(value - c) <= CLUSTER_GAP for c in cluster)


def cluster_sums(family, cluster, dim) -> np.ndarray:
    return sum((p for value, p in family if in_cluster(value, cluster)), np.zeros((dim, dim), complex))


def mapped_lift(model, label_map):
    """(f(m), U†(1 ⊗ E^M(m))U) for every meter outcome m."""
    u, n = model.unitary, model.sys_dim
    out = []
    for m, proj in eigenprojectors(model.meter.matrix):
        key = min(label_map, key=lambda k: abs(k - m))
        out.append((label_map[key], u.conj().T @ np.kron(np.eye(n), proj) @ u))
    return out


def tensor_eye(family, k):
    return [(value, np.kron(p, np.eye(k))) for value, p in family]


def joint_space_defect(model, a, label_map, psi) -> float:
    """max over the clusters c of spec(A) ∪ range(label map) of
    ||(E^{f(O)}(c) − E^A(c) ⊗ 1)(psi ⊗ xi)||: the certificate's defect."""
    n, k = model.sys_dim, model.probe_dim
    joint = np.kron(psi, model.probe_state)
    outputs = mapped_lift(model, label_map)
    fam_a = tensor_eye(eigenprojectors(a.matrix), k)
    values = [lam for lam, _ in fam_a] + list(label_map.values())
    return max(float(np.linalg.norm((cluster_sums(outputs, c, n * k) - cluster_sums(fam_a, c, n * k)) @ joint))
               for c in clusters(values))


# ---------------------------------------------------------------------------
# The cluster-sum rule as first written: a Python scan over the sorted values
# of both families, fed with d×d spectral projections.  The certificate,
# perfect correlation and [A = B] must give the verdicts it gives.


def reference_spectral_differences(fam_a, fam_b, tol=DEFAULT_TOL) -> list[np.ndarray]:
    """Σ_{λ∈c} a_λ − Σ_{λ∈c} b_λ for each single-linkage cluster c of the two
    families' values.  A family is a sequence of (value, ndarray) pairs of
    one shape.  A value held by only one family pairs with zero on the other
    side, so it counts against identity.
    """
    values = sorted([lam for lam, _ in fam_a] + [lam for lam, _ in fam_b])
    diffs = []
    for block in reference_cluster_indices(values, tol.eig_cluster_tol):
        cluster = values[block]
        diffs.append(sum(x for lam, x in fam_a if lam in cluster)
                     - sum(x for lam, x in fam_b if lam in cluster))
    return diffs


def reference_certificate_defect(model, a, label_map, psi, tol=DEFAULT_TOL) -> float:
    """The certificate defect from one outcome row U†(1 ⊗ E^M(m))U(psi ⊗ xi)
    per meter eigenvalue m, labelled by the first key within
    eig_cluster_tol, and one target (E^A(λ) psi) ⊗ xi per eigenvalue of A;
    label values no outcome reaches join with a zero row."""
    u, xi = model.unitary, model.probe_state
    phi = (u @ np.kron(psi, xi)).reshape(model.sys_dim, -1)
    outputs = []
    for m, proj in spectral_family(model.meter, tol):
        key = next(k for k in label_map if abs(m - k) <= tol.eig_cluster_tol)
        outputs.append((float(label_map[key]), ((phi @ proj.matrix.T).reshape(-1).conj() @ u).conj()))
    outputs += [(float(v), np.zeros(u.shape[0], complex)) for v in label_map.values()]
    targets = [(lam, np.kron(p.matrix @ psi, xi)) for lam, p in spectral_family(a, tol)]
    return max(float(np.linalg.norm(d)) for d in reference_spectral_differences(outputs, targets, tol))


def reference_perfectly_correlated(a, b, psi, tol=DEFAULT_TOL) -> bool:
    """Every cluster's E^A(c) psi equals its E^B(c) psi within eq_tol."""
    fam_a, fam_b = ([(lam, p.matrix @ psi) for lam, p in spectral_family(obs, tol)] for obs in (a, b))
    return all(np.linalg.norm(d) <= tol.eq_tol for d in reference_spectral_differences(fam_a, fam_b, tol))


# ---------------------------------------------------------------------------
# The witness search's per-evaluation kernels as first written, kept as the
# reference its set-up-free kernels must reproduce bit for bit: psi ⊗ xi by
# np.kron, target rows by broadcasting against xi, a float one-hot, and the
# generator's index arrays built on every call.


def reference_unitary(theta: np.ndarray, dim: int) -> np.ndarray:
    """exp(iH) for the Hermitian H of the dim² generator parameters, with
    triu_indices and diag_indices built per call."""
    h = np.zeros((dim, dim), dtype=complex)
    h[np.diag_indices(dim)] = theta[:dim]
    rows, cols = np.triu_indices(dim, k=1)
    upper = theta[dim::2] + 1j * theta[dim + 1::2]
    h[rows, cols] = upper
    h[cols, rows] = upper.conj()
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def reference_state(theta: np.ndarray, dim: int) -> np.ndarray:
    vec = theta[:dim] + 1j * theta[dim:]
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        vec = vec.copy()
        vec[0] += 1.0
        norm = np.linalg.norm(vec)
    return vec / norm


def reference_outcome_rows(problem, u: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Rows U†(1 ⊗ E_m)U(psi ⊗ xi) with psi ⊗ xi from np.kron and the meter's
    projections E_m = |m><m| as k×k matrices."""
    effects = np.array([np.diag(row) for row in np.eye(problem.k)])
    phi = (u @ np.kron(psi, problem.xi)).reshape(problem.n, -1)
    masked = (phi @ np.swapaxes(effects, 1, 2)).reshape(len(effects), -1)
    return (masked.conj() @ u).conj()


def reference_target_rows(projections: np.ndarray, psi: np.ndarray, xi: np.ndarray) -> np.ndarray:
    shrunk = np.einsum("snm,m->sn", projections, psi)
    return (shrunk[:, :, None] * xi).reshape(shrunk.shape[0], -1)


def reference_one_hot(maps: np.ndarray, count: int) -> np.ndarray:
    return (maps[:, None, :] == np.arange(count)[None, :, None]).astype(float)


def reference_defects(problem, vectors, psi, projections, maps) -> np.ndarray:
    """Certificate defect of every assignment in ``maps``."""
    one_hot = reference_one_hot(maps, len(projections))
    residual = one_hot @ vectors - reference_target_rows(projections, psi, problem.xi)
    re, im = residual.real, residual.imag
    squares = (re[..., None, :] @ re[..., None] + im[..., None, :] @ im[..., None])[..., 0, 0]
    return np.sqrt(squares.max(axis=1))


def reference_objective(problem, theta: np.ndarray, maps_a: np.ndarray, maps_b: np.ndarray):
    """(defect, map_a, map_b) at ``theta``, each side's lowest-index least defect."""
    u = reference_unitary(theta[:problem.u_params], problem.joint)
    psi = reference_state(theta[problem.u_params:], problem.n)
    vectors = reference_outcome_rows(problem, u, psi)
    table_a = reference_defects(problem, vectors, psi, problem.proj_a, maps_a)
    table_b = reference_defects(problem, vectors, psi, problem.proj_b, maps_b)
    ia, ib = int(np.argmin(table_a)), int(np.argmin(table_b))
    return float(max(table_a[ia], table_b[ib])), maps_a[ia], maps_b[ib]


def reference_polish(problem, u: np.ndarray, maps_a: np.ndarray, maps_b: np.ndarray):
    """The closed-form state polish: per map pair, the least eigenvector of
    the summed squared-defect forms built from the basis states' rows."""
    basis = np.eye(problem.n)
    columns = np.stack([reference_outcome_rows(problem, u, e) for e in basis])
    proj_a, proj_b = problem.proj_a, problem.proj_b
    if len(maps_a) * len(maps_b) <= 256:
        pairs = [(ia, ib) for ia in range(len(maps_a)) for ib in range(len(maps_b))]
    else:
        pairs = [(0, 0)]
        maps_a, maps_b = maps_a[:1], maps_b[:1]

    def forms(projections, maps) -> np.ndarray:
        targets = np.stack([reference_target_rows(projections, e, problem.xi) for e in basis], axis=1)
        w = np.einsum("aim,jmx->aijx", reference_one_hot(maps, len(projections)), columns) - targets
        return np.einsum("aijx,ailx->ajl", w.conj(), w)

    forms_a, forms_b = forms(proj_a, maps_a), forms(proj_b, maps_b)
    best = None
    for ia, ib in pairs:
        half = 0.5 * (forms_a[ia] + forms_b[ib])
        _, v = np.linalg.eigh(half + half.conj().T)
        psi = v[:, 0]
        vectors = reference_outcome_rows(problem, u, psi)
        defect = float(max(reference_defects(problem, vectors, psi, proj_a, maps_a[ia:ia + 1])[0],
                           reference_defects(problem, vectors, psi, proj_b, maps_b[ib:ib + 1])[0]))
        if best is None or defect < best[0]:
            best = (defect, psi, maps_a[ia], maps_b[ib])
    return best
