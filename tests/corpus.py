"""Random instance builders shared between the unit and acceptance tests.

Each builder returns plain matrices/vectors so tests can wrap them in
Observable themselves (and so oracles can work on raw arrays).
"""

import math
import re
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from qreal import (
    DEFAULT_TOL,
    Projection,
    complement,
    join,
    meet,
    random_state,
    random_unitary,
    spectral_family,
    spectral_projection,
)
from qreal.errors import EmptyFamilyError, ParseError
from qreal.numlin import kernel_split, null_basis
from qreal.qlang import And, Atom, Com, Equal, Formula, Iff, Not, Or, Sasaki, format_number


def reference_is_hermitian(matrix, tol=DEFAULT_TOL) -> bool:
    """The SVD-only Hermiticity rule: ||(m − m†)/2||₂ <= eq_tol/2 · max(1,
    ||m||₂), on halves, and a ValueError when ||m||₂ overflows."""
    m = np.asarray(matrix, dtype=complex)
    scale = np.linalg.norm(m, 2)
    if not np.isfinite(scale):
        raise ValueError("matrix operator norm is not finite")
    half = 0.5 * m
    return bool(np.linalg.norm(half - half.conj().T, 2) <= 0.5 * tol.eq_tol * max(1.0, scale))


def reference_unitarity_residual(u: np.ndarray) -> float:
    """The SVD-only unitarity residual ||U†U − I||₂, compared with eq_tol."""
    return float(np.linalg.norm(u.conj().T @ u - np.eye(len(u)), 2))


def reference_leq(p: Projection, q: Projection, tol=DEFAULT_TOL) -> bool:
    """The SVD-only inclusion rule: ||Q.kernel† P.range||₂ <= eq_tol."""
    return bool(np.linalg.norm(q.kernel.conj().T @ p.range, 2) <= tol.eq_tol)


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


def reference_sasaki(p: Projection, q: Projection) -> Projection:
    """The Sasaki hook as its definition composes it, P⊥ ∨ (P ∧ Q)."""
    return join(complement(p), meet(p, q))


def reference_biconditional(p: Projection, q: Projection) -> Projection:
    """P ↔ Q as its definition composes it, the meet of the two hooks."""
    return meet(reference_sasaki(p, q), reference_sasaki(q, p))


def lattice_value_identity(a, b) -> Projection:
    """[A = B] by its definition, the meet of E^A(c) ↔ E^B(c) over the
    clusters c of spec(A) ∪ spec(B): the lattice-route reference for
    value_identity."""
    values = sorted(spectral_family(a).eigenvalues + spectral_family(b).eigenvalues)
    result = Projection.identity(a.dim)
    for block in reference_cluster_indices(values, 1e-8):
        cluster = values[block]
        result = meet(result, reference_biconditional(spectral_projection(a, cluster),
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


def reference_joint_eigenspaces(frames, tol=DEFAULT_TOL, keep=None) -> dict[tuple[int, ...], np.ndarray]:
    """``lattice.joint_eigenspaces`` as it was when it ran the SVD of every
    member of weight at least ½, kept verbatim as the bit-identity
    reference for its exact weight bound."""
    (v0, slices0), *rest = frames
    pieces = {(i,): v0[:, sl] for i, sl in enumerate(slices0) if sl.stop > sl.start}
    for v, slices in rest:
        split = {}
        for key, piece in pieces.items():
            overlap = v.conj().T @ piece
            # Running sums of the row weights: member i has weight[stop] - weight[start].
            weight = [0.0, *np.cumsum(np.sum(np.abs(overlap) ** 2, axis=1)).tolist()]
            for i, sl in enumerate(slices):
                if weight[sl.stop] - weight[sl.start] < 0.5 or (keep and not keep(key + (i,))):
                    continue
                cols = piece @ kernel_split(np.delete(overlap, sl, axis=0), tol.eq_tol)[0]
                if cols.shape[1]:
                    split[key + (i,)] = cols
        pieces = split
    return pieces


def reference_span(pieces, dim: int, tol=DEFAULT_TOL) -> Projection:
    """``lattice._span`` of (key, columns) pieces as it was when
    ``Projection._spanned`` split every kernel off by one SVD, kept as the
    reference for its full-span shortcut; ``tol`` is unused."""
    return Projection._spanned(np.hstack([np.zeros((dim, 0), complex), *(cols for _, cols in pieces)]))


def reference_cluster_means(w: np.ndarray, slices) -> list[float]:
    """``spectral_family``'s cluster means as they were, one numpy sum per
    cluster, kept verbatim as the reference for its one-value means."""
    return [float(v) for v in (w[sl].sum() / (sl.stop - sl.start) for sl in slices)]


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
# Spectral projections read one eigenvalue at a time.


def eigenspaces(obs, tol=DEFAULT_TOL) -> list[tuple[float, Projection]]:
    """(λ, E^A(λ)) for every distinct eigenvalue λ, each projection from
    spectral_projection(obs, [λ])."""
    return [(lam, spectral_projection(obs, [lam], tol)) for lam in spectral_family(obs, tol).eigenvalues]


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
    for m, proj in eigenspaces(model.meter, tol):
        key = next(k for k in label_map if abs(m - k) <= tol.eig_cluster_tol)
        outputs.append((float(label_map[key]), ((phi @ proj.matrix.T).reshape(-1).conj() @ u).conj()))
    outputs += [(float(v), np.zeros(u.shape[0], complex)) for v in label_map.values()]
    targets = [(lam, np.kron(p.matrix @ psi, xi)) for lam, p in eigenspaces(a, tol)]
    return max(float(np.linalg.norm(d)) for d in reference_spectral_differences(outputs, targets, tol))


def reference_perfectly_correlated(a, b, psi, tol=DEFAULT_TOL) -> bool:
    """Every cluster's E^A(c) psi equals its E^B(c) psi within eq_tol."""
    fam_a, fam_b = ([(lam, p.matrix @ psi) for lam, p in eigenspaces(obs, tol)] for obs in (a, b))
    return all(np.linalg.norm(d) <= tol.eq_tol for d in reference_spectral_differences(fam_a, fam_b, tol))


# ---------------------------------------------------------------------------
# Reference formula scanner, parser and printer: one parse method per
# precedence level and a printer with its own precedence table, kept as the
# oracle for the table-driven ``qreal.qlang``.

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_KEYWORDS = {"in", "com"}


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "number", "end", or the literal symbol
    text: str
    pos: int  # character offset into the source


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("<->", i):
            tokens.append(_Token("<->", "<->", i))
            i += 3
            continue
        if text.startswith("->", i):
            tokens.append(_Token("->", "->", i))
            i += 2
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("number", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            word = m.group()
            tokens.append(_Token(word if word in _KEYWORDS else "ident", word, i))
            i = m.end()
            continue
        if ch in "(){}[],=~&|":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(_byte_offset(text, i), "a token", repr(ch))
    tokens.append(_Token("end", "end of input", n))
    return tokens


def _byte_offset(text: str, char_pos: int) -> int:
    return len(text[:char_pos].encode("utf-8"))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def fail(self, expected: str):
        tok = self.peek()
        found = "end of input" if tok.kind == "end" else tok.text
        raise ParseError(_byte_offset(self.text, tok.pos), expected, found)

    def expect(self, kind: str, expected: str) -> _Token:
        if self.peek().kind != kind:
            self.fail(expected)
        return self.advance()

    def parse_formula(self) -> Formula:
        node = self.parse_iff()
        if self.peek().kind != "end":
            self.fail("end of input")
        return node

    def parse_iff(self) -> Formula:
        node = self.parse_impl()
        while self.peek().kind == "<->":
            self.advance()
            node = Iff(node, self.parse_impl())
        return node

    def parse_impl(self) -> Formula:
        node = self.parse_or()
        if self.peek().kind == "->":
            self.advance()
            return Sasaki(node, self.parse_impl())
        return node

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while self.peek().kind == "|":
            self.advance()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Formula:
        node = self.parse_unary()
        while self.peek().kind == "&":
            self.advance()
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Formula:
        if self.peek().kind == "~":
            self.advance()
            return Not(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Formula:
        kind = self.peek().kind
        if kind == "(":
            self.advance()
            node = self.parse_iff()
            self.expect(")", ")")
            return node
        if kind == "[":
            return self.parse_equal()
        if kind == "com":
            return self.parse_com()
        if kind == "ident":
            return self.parse_atom()
        self.fail("a formula")

    def parse_atom(self) -> Formula:
        name = self.expect("ident", "an identifier").text
        self.expect("in", "in")
        self.expect("{", "{")
        values = [self.parse_number()]
        while self.peek().kind == ",":
            self.advance()
            values.append(self.parse_number())
        self.expect("}", "}")
        return Atom(name, tuple(values))

    def parse_number(self) -> float:
        tok = self.expect("number", "a number")
        value = float(tok.text)
        if not math.isfinite(value):
            raise ParseError(_byte_offset(self.text, tok.pos), "a finite number", tok.text)
        return value

    def parse_equal(self) -> Formula:
        self.expect("[", "[")
        left = self.expect("ident", "an identifier").text
        self.expect("=", "=")
        right = self.expect("ident", "an identifier").text
        self.expect("]", "]")
        return Equal(left, right)

    def parse_com(self) -> Formula:
        self.expect("com", "com")
        self.expect("(", "(")
        names = [self.expect("ident", "an identifier").text]
        self.expect(",", ",")
        names.append(self.expect("ident", "an identifier").text)
        while self.peek().kind == ",":
            self.advance()
            names.append(self.expect("ident", "an identifier").text)
        self.expect(")", ")")
        return Com(tuple(names))


_PREC = {Iff: 1, Sasaki: 2, Or: 3, And: 4, Not: 5}


def _render(node: Formula, min_prec: int) -> str:
    if isinstance(node, Atom):
        return f"{node.obs_id} in {{{', '.join(format_number(v) for v in node.values)}}}"
    if isinstance(node, Equal):
        return f"[{node.left_id} = {node.right_id}]"
    if isinstance(node, Com):
        return f"com({', '.join(node.obs_ids)})"
    if isinstance(node, Not):
        return _wrap(f"~{_render(node.operand, 5)}", 5, min_prec)
    prec = _PREC[type(node)]
    symbol = {Iff: "<->", Sasaki: "->", Or: "|", And: "&"}[type(node)]
    if isinstance(node, Sasaki):  # right-associative
        text = f"{_render(node.left, prec + 1)} {symbol} {_render(node.right, prec)}"
    else:  # left-associative chains
        text = f"{_render(node.left, prec)} {symbol} {_render(node.right, prec + 1)}"
    return _wrap(text, prec, min_prec)


def _wrap(text: str, prec: int, min_prec: int) -> str:
    return f"({text})" if prec < min_prec else text


def reference_parse(text: str) -> Formula:
    return _Parser(text).parse_formula()


def reference_unparse(formula: Formula) -> str:
    return _render(formula, 0)
