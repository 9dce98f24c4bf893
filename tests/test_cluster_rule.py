"""One cluster-sum rule for the certificate, perfect correlation and [A = B].

Values are clustered by single linkage at ``eig_cluster_tol`` over the union
of the spectra involved.  The cases here sit on the cutoff: values exactly
``eig_cluster_tol`` apart and the next float above, a chain a₁ ~ label ~ a₂,
and label values that no meter outcome reaches.  Each verdict must be the
one the first, scan-based version of the rule gives (``corpus``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    lattice_value_identity,
    reference_certificate_defect,
    reference_cluster_indices,
    reference_perfectly_correlated,
)
from qreal import (
    DEFAULT_TOL,
    Environment,
    Observable,
    holds_in,
    measures_in_state,
    parse,
    perfectly_correlated,
    spectral_family,
)
from qreal.spectral import cluster_ids, cluster_indices
from qreal.standard import random_state

CUT = DEFAULT_TOL.eig_cluster_tol
ABOVE = float(np.nextafter(CUT, np.inf))


def _last_within_cut(base: float) -> float:
    """The largest float x with x − base <= CUT: its next float is past the cutoff."""
    x = base + CUT
    while x - base > CUT:
        x = float(np.nextafter(x, -np.inf))
    while float(np.nextafter(x, np.inf)) - base <= CUT:
        x = float(np.nextafter(x, np.inf))
    return x


NEAR_ONE = _last_within_cut(1.0)
PAST_ONE = float(np.nextafter(NEAR_ONE, np.inf))
ALWAYS, NEVER, SOME = {True}, {False}, {True, False}


def _diagonal(values, name):
    obs = Observable(np.diag(values).astype(complex), name=name)
    # eigh returns a diagonal matrix's entries exactly, so the cases below
    # really sit where they say.
    assert set(spectral_family(obs).column_values.tolist()) == set(values)
    return obs


def _states(dim):
    rng = np.random.default_rng(dim)
    basis = list(np.eye(dim, dtype=complex))
    return basis + [np.ones(dim, dtype=complex) / np.sqrt(dim)] + [random_state(dim, rng) for _ in range(3)]


# (A's eigenvalues, label map of the CNOT model, the verdicts over the
# states).  The CNOT model sends system |0> to meter outcome +1 and |1> to
# −1, so f(O) reads diag(f(+1), f(−1)).  5.0 is no meter eigenvalue, so its
# label value is reached by no outcome.
CERTIFICATE_CASES = [
    ("label exactly at the cutoff", [0.0, 1.0], {1.0: CUT, -1.0: 1.0}, ALWAYS),
    ("label one float above", [0.0, 1.0], {1.0: ABOVE, -1.0: 1.0}, SOME),
    ("near one, within the cutoff", [1.0, 2.0], {1.0: NEAR_ONE, -1.0: 2.0}, ALWAYS),
    ("near one, one float past", [1.0, 2.0], {1.0: PAST_ONE, -1.0: 2.0}, SOME),
    ("chain a1 ~ label ~ a2", [0.0, 1.5e-8], {1.0: 0.75e-8, -1.0: 0.75e-8}, ALWAYS),
    ("labels swapped, no chain", [0.0, 1.5e-8], {1.0: 1.5e-8, -1.0: 0.0}, NEVER),
    ("unreached label bridges a1 ~ a2", [0.0, 1.5e-8], {1.0: 0.0, -1.0: 0.0, 5.0: 0.75e-8}, ALWAYS),
    ("unreached label at the cutoff of both", [0.0, 2 * CUT], {1.0: 0.0, -1.0: 0.0, 5.0: CUT}, ALWAYS),
    ("unreached label one float past", [0.0, 2 * CUT], {1.0: 0.0, -1.0: 0.0, 5.0: ABOVE}, SOME),
    ("unreached label alone", [0.0, 1.0], {1.0: 0.0, -1.0: 1.0, 5.0: 7.0}, ALWAYS),
]


@pytest.mark.parametrize("name, values, label_map, verdicts", CERTIFICATE_CASES,
                         ids=[case[0] for case in CERTIFICATE_CASES])
def test_certificate_verdicts_match_the_reference_on_the_cutoff(cnot_model, name, values, label_map,
                                                                verdicts):
    a = _diagonal(values, "A")
    seen = set()
    for psi in _states(2):
        cert = measures_in_state(cnot_model, a, label_map, psi)
        want = reference_certificate_defect(cnot_model, a, label_map, psi)
        assert cert.defect == pytest.approx(want, abs=1e-14)
        assert cert.passed == (want <= DEFAULT_TOL.eq_tol)
        seen.add(cert.passed)
    assert seen == verdicts


# (A's eigenvalues, B's eigenvalues, the verdicts over the states).
CORRELATION_CASES = [
    ("exactly at the cutoff", [0.0, 1.0], [CUT, 1.0], ALWAYS),
    ("one float above", [0.0, 1.0], [ABOVE, 1.0], SOME),
    ("near one, within the cutoff", [1.0, 2.0], [NEAR_ONE, 2.0], ALWAYS),
    ("near one, one float past", [1.0, 2.0], [PAST_ONE, 2.0], SOME),
    ("chain a1 ~ b ~ a2", [0.0, 1.5e-8, 1.0], [0.75e-8, 0.75e-8, 1.0], ALWAYS),
    ("chain b1 ~ a ~ b2", [0.75e-8, 1.0, 0.75e-8], [0.0, 1.0, 1.5e-8], ALWAYS),
    ("chain one float too long", [0.0, 2 * ABOVE, 1.0], [ABOVE, ABOVE, 1.0], SOME),
    ("a value held by one side only", [0.0, 1.0, 2.0], [0.0, 1.0, 3.0], SOME),
]


@pytest.mark.parametrize("name, values_a, values_b, verdicts", CORRELATION_CASES,
                         ids=[case[0] for case in CORRELATION_CASES])
def test_correlation_and_value_identity_match_the_reference_on_the_cutoff(name, values_a, values_b, verdicts):
    a, b = _diagonal(values_a, "A"), _diagonal(values_b, "B")
    env = Environment({"A": a, "B": b})
    lattice = lattice_value_identity(a, b)
    seen = set()
    for psi in _states(len(values_a)):
        want = reference_perfectly_correlated(a, b, psi)
        assert perfectly_correlated(a, b, psi) == want
        assert holds_in(parse("[A = B]"), env, psi).holds == want
        assert lattice.contains(psi) == want
        seen.add(want)
    assert seen == verdicts


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(-40, 40), st.sampled_from([0.0, 1.0, -1.0])),
                         min_size=1, max_size=8), min_size=1, max_size=3),
       st.sampled_from([CUT, 0.5, 1e-3]))
def test_cluster_ids_reproduce_cluster_indices(spectra, gap):
    # Values on a grid of half the gap, some nudged one float up or down,
    # so neighbours sit exactly at, just under and just over the gap.
    spectra = [[float(np.nextafter(i * gap / 2, nudge * np.inf)) if nudge else i * gap / 2
                for i, nudge in spectrum] for spectrum in spectra]
    union = sorted(v for spectrum in spectra for v in spectrum)
    blocks = reference_cluster_indices(union, gap)
    assert cluster_indices(np.array(union), gap) == blocks
    slice_of = {}
    for index, block in enumerate(blocks):
        for value in union[block]:
            slice_of.setdefault(value, index)
    ids = cluster_ids(spectra, gap)
    assert len(ids) == len(spectra)
    for spectrum, got in zip(spectra, ids):
        assert got.tolist() == [slice_of[v] for v in spectrum]
    # On one ascending spectrum the ids number its cluster_indices slices.
    (alone,) = cluster_ids([union], gap)
    assert alone.tolist() == [i for i, block in enumerate(blocks) for _ in range(block.stop - block.start)]


def test_a_gap_that_overflows_splits_without_a_warning():
    # The suite turns RuntimeWarnings into errors, so an overflow warning fails here.
    assert cluster_indices(np.array([-1e308, 1e308, 1e308]), CUT) == [slice(0, 1), slice(1, 3)]
    (ids,) = cluster_ids([[-1e308, 1e308, 1e308]], CUT)
    assert ids.tolist() == [0, 1, 1]
    assert spectral_family(Observable(np.diag([-1e308, 1e308]))).eigenvalues == (-1e308, 1e308)
