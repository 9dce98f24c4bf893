# Witnesses like the one in demo 05 need not be guessed: a derivative
# free search over couplings, states, and pointer relabelings finds them.

import numpy as np

from qreal import Observable, PAULI_Z, search_simultaneous

# A solvable warm-up: two commuting observables that are functions of
# each other, so exact witnesses abound.  The search returns the first
# one it reaches from random starts; here that turns out to be a pointer
# reading that is constant on an eigenstate, which certifies exactly.
a = Observable(PAULI_Z, name="A")
b = Observable(3 * PAULI_Z, name="B")

result = search_simultaneous(a, b, probe_dim=2, restarts=20, seed=0)

print("best defect:", f"{result.defect:.2e}", " found at restart", result.restart_index)
print("state:", np.round(result.psi, 4))
print("pointer read as A:", result.map_a)
print("pointer read as B:", result.map_b)

# The returned record is a complete apparatus: re-certify it end to end.
from qreal import simultaneously_measures

report = simultaneously_measures(result.model, a, result.map_a,
                                 b, result.map_b, result.psi)
print("recertified:", report.both,
      " defects", f"{report.cert_a.defect:.2e}", f"{report.cert_b.defect:.2e}")

# For a nowhere commuting pair the same call hunts for the contextual
# witness; with the default budget it lands below certification
# tolerance at restart 8, after nine restarts of about 0.2 s each: restart
# 0 in this process, the rest in parallel on every usable core (about 1.6 s
# on two cores, 2 s or more on one, so it is commented out here):
#
#   from qreal import PAULI_X, PAULI_Y
#   result = search_simultaneous(Observable(PAULI_X, name="A"),
#                                Observable(PAULI_Y, name="B"),
#                                probe_dim=2, restarts=20, seed=0)
#   print(result.defect, result.restart_index)
