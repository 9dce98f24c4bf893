# Witnesses like the one in demo 05 need not be guessed.  One apparatus
# with a k-outcome meter measures A and B in psi exactly when psi's
# Kirkwood-Dirac array q(c, d) = <psi|E^A(c) E^B(d)|psi> is a probability
# distribution on at most k entries, so the search looks for psi alone and
# builds the coupling in closed form.

import numpy as np

from qreal import DEFAULT_TOL, PAULI_X, PAULI_Y, Observable, kd_distribution, search_simultaneous, simultaneously_measures

# The headline pair: X and Y commute nowhere.  With a two-outcome meter an
# eigenvector of X is a witness: its q has one row, (1/2, 1/2).
a = Observable(PAULI_X, name="A")
b = Observable(PAULI_Y, name="B")

result = search_simultaneous(a, b, probe_dim=2)

print(result.summary(DEFAULT_TOL.eq_tol))
print("state:", np.round(result.psi, 4))
print("KD array (real part):", np.round(kd_distribution(a, b, result.psi).real, 4).tolist())
print("pointer read as A:", result.map_a)
print("pointer read as B:", result.map_b)

# The returned record is a complete apparatus: re-certify it end to end.
report = simultaneously_measures(result.model, a, result.map_a,
                                 b, result.map_b, result.psi)
print("recertified:", report.both,
      " defects", f"{report.cert_a.defect:.2e}", f"{report.cert_b.defect:.2e}")

# Below the bound the answer can be no.  For diag(1, 2, 3) and this
# qutrit partner at k = 2 each of the 9 candidate states is fixed by the
# eigenspaces it must lie in, and none has a KD distribution: no witness
# exists, which the search states instead of failing to find one.
qutrit = Observable(np.array([[0, 1, 1j], [1, 1, 1], [-1j, 1, 2]]), name="B")
verdict = search_simultaneous(Observable(np.diag([1.0, 2.0, 3.0]), name="A"), qutrit, probe_dim=2)
print(verdict.summary(DEFAULT_TOL.eq_tol))
