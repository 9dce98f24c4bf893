import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import reference_is_hermitian, reference_leq, reference_unitarity_residual
from qreal import (
    DEFAULT_TOL,
    MeasurementModel,
    Observable,
    Projection,
    ToleranceConfig,
    kron,
    probe_compress,
    spectral_family,
)
from qreal.errors import (
    DimMismatchError,
    NotHermitianError,
    NotSquareError,
    NotUnitaryError,
)
from qreal.numlin import (
    _hermitian_part,
    as_operator,
    as_square,
    as_state,
    eigh,
    frobenius,
    is_hermitian,
    norm_within,
    null_basis,
    op_norm,
    range_basis,
)
from qreal.standard import random_hermitian, random_unitary


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(eq_tol=0.0)
    assert ToleranceConfig(eq_tol=1e-300).eq_tol == 1e-300
    assert [f.name for f in dataclasses.fields(ToleranceConfig)] == ["eq_tol", "eig_cluster_tol"]
    assert DEFAULT_TOL.eq_tol == 1e-9
    assert DEFAULT_TOL.eig_cluster_tol == 1e-8


@pytest.mark.parametrize("field", ["eq_tol", "eig_cluster_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_tolerance_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match="finite"):
        ToleranceConfig(**{field: value})


@pytest.mark.parametrize("scale", [1e-12, 1e-7, 1e-3, 1.0, 1e6])
def test_eigh_accepts_exactly_what_is_hermitian_accepts(scale):
    # The defect is 1e-3 * scale: under eq_tol * max(1, ||m||) for small
    # scales only.  Observable applies that one rule; eigh checks nothing
    # and factors the Hermitian part of whatever it is given.
    m = scale * np.array([[0.0, 1.0], [1.001, 0.0]])
    w, v = eigh(m)
    assert np.allclose(w, [-scale * 1.0005, scale * 1.0005], rtol=1e-9, atol=1e-15)
    if is_hermitian(m):
        assert np.array_equal(spectral_family(Observable(m)).vectors, v)
    else:
        with pytest.raises(NotHermitianError):
            Observable(m)
    assert is_hermitian(m) == (scale < 1e-6)


def test_observable_accepted_under_a_loose_tolerance_factors_under_the_default():
    # Defect 1e-7: rejected at the default eq_tol, accepted at 1e-6, and then
    # factored under DEFAULT_TOL without a second check.
    m = np.array([[0.0, 1.0], [1.0 + 1e-7, 0.0]])
    with pytest.raises(NotHermitianError):
        Observable(m)
    obs = Observable(m, tol=ToleranceConfig(eq_tol=1e-6))
    family = spectral_family(obs, DEFAULT_TOL)
    w, v = np.linalg.eigh(_hermitian_part(m))
    assert family.eigenvalues == tuple(w) and np.array_equal(family.vectors, v)


def test_as_operator_rejects_non_matrices():
    with pytest.raises(NotSquareError):
        as_operator([1.0, 2.0])
    with pytest.raises(ValueError):
        as_operator([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(NotSquareError):
        as_square(np.zeros((2, 3)))


def test_as_state_norm_check():
    v = as_state([1.0, 0.0], 2)
    assert v.dtype == complex
    with pytest.raises(ValueError):
        as_state([1.0, 1.0], 2)
    with pytest.raises(ValueError):
        as_state([np.inf, 0.0], 2)
    # The norm prints as a plain float, and one that overflows as inf, with no warning.
    with pytest.raises(ValueError, match=r"^state norm 0\.5 is not within 1e-09 of 1$"):
        as_state([0.5, 0.0], 2)
    with pytest.raises(ValueError, match=r"^state norm inf is not"):
        as_state([1e200, 0.0], 2)
    with pytest.raises(DimMismatchError):
        as_state([1.0, 0.0], 3)


def test_op_norm_matches_largest_singular_value():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert op_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0])
    assert op_norm(np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_is_hermitian():
    assert is_hermitian(np.array([[1.0, 2j], [-2j, 0.0]]))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_is_hermitian_near_float_max():
    # The defect of an anti-Hermitian matrix near the float maximum is
    # formed without overflow, and rejected.
    with pytest.raises(NotHermitianError):
        Observable(np.array([[0.0, 1e308], [-1e308, 0.0]]))
    # An operator norm that overflows would give an infinite eigenvalue.
    with pytest.raises(ValueError, match="operator norm is not finite"):
        Observable(np.array([[1.5e308, 1.5e308], [0.0, 1.5e308]]))
    assert is_hermitian(np.diag([1e308, -1e308]))


# ---------------------------------------------------------------------------
# The Frobenius-first norm gate gives the SVD rule's verdict, raising where it raises.


def _verdict(rule, *args):
    try:
        return rule(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _skew(dim: int, rank_one: bool, rng) -> np.ndarray:
    """i K for a Hermitian K of operator norm 1, of rank 1 (where the
    Frobenius and operator norms agree) or of full rank."""
    if rank_one:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        k = np.outer(v, v.conj()) / np.vdot(v, v).real
    else:
        k = random_hermitian(dim, rng)
        k /= np.linalg.norm(k, 2)
    return 1j * k


# Ratios from 0.5 to 2, and exactly 1: a rank-1 skew part alone (norm 0)
# then sits within ulps of the threshold, where its rounded Frobenius and
# operator norms fall on either side of it about one time in seven.
RATIOS = st.just(1.0) | st.floats(0.5, 2.0)


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), rank_one=st.booleans(),
       ratio=RATIOS, norm=st.sampled_from([0.0, 1e-3, 1.0, 1e6]))
def test_hermitian_gate_gives_the_svd_verdict(dim, seed, rank_one, ratio, norm):
    # ||(m − m†)/2||₂ = ||D||₂ at ratio times the threshold eq_tol/2 · max(1, ||m||₂).
    rng = np.random.default_rng(seed)
    h = random_hermitian(dim, rng)
    h *= norm / np.linalg.norm(h, 2)
    m = h + ratio * 0.5 * DEFAULT_TOL.eq_tol * max(1.0, norm) * _skew(dim, rank_one, rng)
    assert is_hermitian(m) == reference_is_hermitian(m)


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), rank_one=st.booleans(),
       ratio=st.just(0.0) | RATIOS, entry=st.sampled_from([1e154, 1e308]), factor=st.floats(0.25, 1.75))
def test_hermitian_gate_gives_the_svd_verdict_near_float_max(dim, seed, rank_one, ratio, entry, factor):
    # Above about 1e154 the Frobenius sum of m overflows, and near 1e308 so
    # does ||m||₂ for most m: the gate must fall back, and raise where the
    # rule raises, also for an exactly Hermitian m (ratio 0).
    rng = np.random.default_rng(seed)
    h = random_hermitian(dim, rng)
    top = factor * entry
    h = h / np.abs(h).max() * top
    m = h + ratio * 0.5 * DEFAULT_TOL.eq_tol * top * _skew(dim, rank_one, rng)
    assert _verdict(is_hermitian, m) == _verdict(reference_is_hermitian, m)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       rank_one=st.booleans(), ratio=RATIOS)
def test_unitarity_gate_gives_the_svd_verdict_and_residual(n, k, seed, rank_one, ratio):
    # U = V diag(sqrt(1 + r s)) W with max |s| = 1 has ||U†U − I||₂ = r, at
    # ratio times eq_tol; one nonzero s makes the residual rank 1.
    rng = np.random.default_rng(seed)
    d = n * k
    s = np.zeros(d) if rank_one else rng.uniform(-1.0, 1.0, size=d)
    s[rng.integers(d)] = rng.choice([-1.0, 1.0])
    u = random_unitary(d, rng) @ np.diag(np.sqrt(1.0 + ratio * DEFAULT_TOL.eq_tol * s)) @ random_unitary(d, rng)
    residual = reference_unitarity_residual(u)
    meter = Observable(np.diag(np.arange(1.0, k + 1.0)), name="M")
    try:
        MeasurementModel(sys_dim=n, probe_dim=k, probe_state=np.eye(k)[0], unitary=u, meter=meter)
    except NotUnitaryError as exc:
        assert residual > DEFAULT_TOL.eq_tol
        assert str(exc) == f"coupling deviates from unitarity by {residual:.3e}"
    else:
        assert residual <= DEFAULT_TOL.eq_tol


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), rank_one=st.booleans(), ratio=RATIOS)
def test_inclusion_gate_gives_the_svd_verdict(dim, seed, rank_one, ratio):
    # ran P tilted out of ran Q by principal-angle sines ratio · eq_tol · t,
    # max t = 1; a rank-1 P has one sine, so the Frobenius and operator norms agree.
    rng = np.random.default_rng(seed)
    v = random_unitary(dim, rng)
    rank = 1 if rank_one else dim // 2
    sines = ratio * DEFAULT_TOL.eq_tol * np.append(rng.uniform(0.0, 1.0, size=rank - 1), 1.0)
    q = Projection.onto(v[:, :rank])
    p = Projection.onto(v[:, :rank] * np.sqrt(1.0 - sines ** 2) + v[:, rank:2 * rank] * sines)
    assert p.leq(q) == reference_leq(p, q)


def test_exactly_hermitian_and_unitary_inputs_take_no_svd(monkeypatch):
    # np.linalg.norm(x, 2) calls numpy.linalg._linalg.svd, not np.linalg.svd.
    calls = []
    svd = np.linalg._linalg.svd
    for module in (np.linalg._linalg, np.linalg):
        monkeypatch.setattr(module, "svd", lambda *args, **kwargs: calls.append(args) or svd(*args, **kwargs))
    rng = np.random.default_rng(23)
    Observable(random_hermitian(96, rng))
    MeasurementModel(sys_dim=8, probe_dim=8, probe_state=np.eye(8)[0], unitary=random_unitary(64, rng),
                     meter=Observable(np.diag(np.arange(1.0, 9.0)), name="M"))
    assert calls == []
    # The counter sees the SVD rule where the gate falls back.
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]])) and calls


def test_eigh_contract():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 5):
        m = random_hermitian(dim, rng)
        w, v = eigh(m)
        assert np.all(np.diff(w) >= 0)
        assert np.allclose(v @ v.conj().T, np.eye(dim), atol=1e-12)
        assert np.allclose((v * w) @ v.conj().T, m, atol=1e-12)
    # The rejection lives where a matrix becomes an observable.
    with pytest.raises(NotHermitianError):
        Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmetrization_survives_entries_near_float_max():
    huge = np.diag([1.0, 1e308])
    w, _ = eigh(huge)
    assert list(w) == [1.0, 1e308]
    # Halving before adding is exact, so ordinary inputs keep their bits.
    m = np.random.default_rng(4).normal(size=(5, 5)) + 1j
    assert np.array_equal(_hermitian_part(m), (m + m.conj().T) / 2.0)


def test_range_and_null_basis_against_svd_rank():
    rng = np.random.default_rng(13)
    for _ in range(25):
        dim, rank = 5, int(rng.integers(0, 6))
        cols = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        m = cols @ (rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim)))
        expected_rank = np.linalg.matrix_rank(m)
        rb = range_basis(m)
        nb = null_basis(m)
        assert rb.shape == (dim, expected_rank)
        assert nb.shape == (dim, dim - expected_rank)
        assert np.allclose(rb.conj().T @ rb, np.eye(expected_rank), atol=1e-12)
        assert np.linalg.norm(m @ nb) < 1e-10
        if expected_rank:
            # Columns of m lie in the span of the computed range basis.
            assert np.linalg.norm(m - rb @ (rb.conj().T @ m)) < 1e-10
    # Tall stacks of planted rank, as com_family builds them: the kernel is
    # read off a QR-reduced factor and must match the rank of the stack.
    for _ in range(25):
        dim, rank, blocks = 6, int(rng.integers(0, 7)), int(rng.integers(2, 30))
        rows = rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim))
        m = np.vstack([
            (rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))) @ rows
            for _ in range(blocks)
        ])
        nb = null_basis(m)
        assert nb.shape == (dim, dim - rank)
        assert np.allclose(nb.conj().T @ nb, np.eye(dim - rank), atol=1e-12)
        assert np.linalg.norm(m @ nb) < 1e-10 * max(1.0, np.linalg.norm(m, 2))


@pytest.mark.parametrize("factor, rank", [(0.5, 1), (2.0, 2)])
def test_numerical_rank_cuts_at_eq_tol(factor, rank):
    m = np.diag([1.0, factor * DEFAULT_TOL.eq_tol])
    assert range_basis(m).shape == (2, rank)
    assert null_basis(m).shape == (2, 2 - rank)
    assert Projection.onto(m).rank == rank


def test_range_basis_of_zero_matrix_is_empty():
    assert range_basis(np.zeros((3, 3))).shape == (3, 0)
    assert null_basis(np.zeros((3, 3))).shape == (3, 3)


def test_kron_is_system_major():
    got = kron(np.diag([1.0, 2.0]), np.eye(3))
    assert np.allclose(got, np.diag([1, 1, 1, 2, 2, 2]))


def test_probe_compress_matches_explicit_contraction():
    rng = np.random.default_rng(23)
    n, k = 3, 2
    x = rng.normal(size=(n * k, n * k)) + 1j * rng.normal(size=(n * k, n * k))
    xi = rng.normal(size=k) + 1j * rng.normal(size=k)
    xi = xi / np.linalg.norm(xi)
    got = probe_compress(x, xi)
    want = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for a in range(k):
                for b in range(k):
                    want[i, j] += np.conj(xi[a]) * x[i * k + a, j * k + b] * xi[b]
    assert np.allclose(got, want, atol=1e-12)


def test_probe_compress_requires_factorizable_dim():
    with pytest.raises(DimMismatchError):
        probe_compress(np.eye(5), np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# The dispatch-free helpers give numpy's own answers, bit for bit.


def _views(m: np.ndarray) -> list[np.ndarray]:
    """m and non-contiguous views of it: transposed, strided, reversed, possibly empty."""
    return [m, m.T, m[::2], m[:, ::-1], m.T[1:, ::2]]


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 5), cols=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), real=st.booleans(),
       top=st.sampled_from([1e-300, 1.0, 1e150, 1e200, 1.7e308]))
def test_frobenius_is_np_linalg_norm_bit_for_bit(rows, cols, seed, real, top):
    # Past about 1e154 the sum of squares overflows: both give inf, through the same dot.
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, cols)) + (0 if real else 1j * rng.normal(size=(rows, cols)))
    m = m / np.abs(m).max() * top
    for view in _views(m):
        with np.errstate(over="ignore"):
            want, got = np.linalg.norm(view), frobenius(view)
        assert type(got) is float
        assert np.float64(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("x, scale, verdict", [
    (np.array([[1e200]]), None, False),
    (np.array([[1e200j, 0.0], [0.0, 1.0]]), None, False),
    (0.5 * np.eye(1), np.array([[1e200]]), True),
    (0.5 * np.eye(2), np.full((2, 2), 1e300 + 1e300j), True),
    (0.5 * np.eye(2), np.diag([1.5e308, 1.5e308]) + np.diag([1.5e308], 1), "ValueError: matrix operator norm is not finite"),
], ids=["x one entry", "x complex", "scale one entry", "scale complex", "scale norm overflows"])
def test_norm_gate_overflows_to_inf_inside_without_a_warning(x, scale, verdict):
    # The Frobenius sums of x or of scale overflow to inf inside the gate,
    # silently (RuntimeWarnings fail the suite); the SVD rule then decides.
    with pytest.warns(RuntimeWarning, match="overflow"):
        frobenius(x if scale is None else scale)
    assert _verdict(norm_within, x, 1.0, scale) == verdict


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 4), cols=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       bad=st.sampled_from([None, np.inf, -np.inf, np.nan]), imag=st.booleans(), where=st.integers(0, 15))
def test_fused_finiteness_check_is_the_two_part_check_on_views(rows, cols, seed, bad, imag, where):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    if bad is not None:
        (m.imag if imag else m.real).flat[where % m.size] = bad
    for view in _views(m):
        finite = bool(np.all(np.isfinite(view.real)) and np.all(np.isfinite(view.imag)))
        assert bool(np.isfinite(view).all()) == finite
        for check in (as_operator, lambda v: as_state(v.reshape(-1), v.size)):
            try:
                check(view)
                said = ""
            except ValueError as exc:
                said = str(exc)
            assert ("must be finite" in said) == (not finite)
