"""Coefficient modules over a point set: l1 vectors, the zero-sum subspace,
and scalars with empty support.

A value is a row of a face table (see facetables) or of CSR arrays, never
an object of its own. Entries below PRUNE_TOL are dropped wherever a value
is made, so supports stay honest; at desk scale (supports well under 10^3
points) pruning moves any norm by < 1e-12. An l1_0 value whose entries,
added in ascending point order, miss 0 by more than ZERO_SUM_TOL raises.
"""

from __future__ import annotations

L1 = "l1"
L1_ZERO = "l1_0"
SCALAR = "scalar"
MODULES = (L1, L1_ZERO, SCALAR)

PRUNE_TOL = 1e-15
ZERO_SUM_TOL = 1e-12
