"""Random instance builders shared between the unit and acceptance tests.

Each builder returns plain matrices/vectors so tests can wrap them in
Observable themselves (and so oracles can work on raw arrays).
"""

import numpy as np
import scipy.linalg

from qreal import (
    Projection,
    biconditional,
    meet,
    random_state,
    random_unitary,
    spectral_family,
    spectral_projection,
)
from qreal.spectral import cluster_indices


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
    for block in cluster_indices(values, 1e-8):
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
