"""Coefficient modules over a point set: l1 vectors, the zero-sum subspace,
and scalars with empty support.

Vectors are finitely supported {point: value} dicts. Entries below PRUNE_TOL
are dropped at construction so supports stay honest; at desk scale (supports
well under 10^3 points) pruning moves any norm by < 1e-12. Entries are kept
in ascending point order, so every sum over them (norms, pi_sum, the l1_0
check) adds in that one order whatever order they were built in.
"""

from __future__ import annotations

L1 = "l1"
L1_ZERO = "l1_0"
SCALAR = "scalar"
MODULES = (L1, L1_ZERO, SCALAR)

PRUNE_TOL = 1e-15
ZERO_SUM_TOL = 1e-12


class SupportedVector:
    """One value of a coefficient module.

    module == SCALAR keeps the number in `scalar` and has empty support by
    definition; the other two keep sparse entries, sorted by point.
    Instances are treated as immutable.
    """

    __slots__ = ("module", "entries", "scalar")

    def __init__(self, module: str, entries: dict | None = None,
                 scalar: float = 0.0):
        if module not in MODULES:
            raise ValueError(f"unknown module tag {module!r}")
        self.module = module
        if module == SCALAR:
            self.entries = {}
            self.scalar = float(scalar)
            return
        self.scalar = 0.0
        if entries:
            pruned = {k: v for k, v in sorted(entries.items())
                      if v >= PRUNE_TOL or -v >= PRUNE_TOL}
        else:
            pruned = {}
        self.entries = pruned
        if module == L1_ZERO and pruned:
            total = 0.0
            for v in pruned.values():
                total += v
            if abs(total) > ZERO_SUM_TOL:
                raise ValueError(
                    f"l1_0 entries must sum to 0, got {total!r}")

    # -- queries -----------------------------------------------------------

    @property
    def norm(self) -> float:
        if self.module == SCALAR:
            return abs(self.scalar)
        total = 0.0
        for v in self.entries.values():
            total += v if v >= 0 else -v
        return total

    @property
    def support(self) -> frozenset:
        return frozenset(self.entries)

    def is_zero(self) -> bool:
        if self.module == SCALAR:
            return self.scalar == 0.0
        return not self.entries

    def get(self, point: int) -> float:
        return self.entries.get(point, 0.0)

    def __repr__(self) -> str:
        if self.module == SCALAR:
            return f"SupportedVector(scalar, {self.scalar!r})"
        body = ", ".join(f"{k}: {v:.4g}" for k, v in self.entries.items())
        return f"SupportedVector({self.module}, {{{body}}})"


def zero(module: str = L1) -> SupportedVector:
    return SupportedVector(module)


def dirac(point: int, module: str = L1, weight: float = 1.0) -> SupportedVector:
    return SupportedVector(module, {point: weight})


def dirac_diff(a: int, b: int, module: str = L1_ZERO) -> SupportedVector:
    """delta_a - delta_b; the zero vector when a == b."""
    if a == b:
        return SupportedVector(module)
    return SupportedVector(module, {a: 1.0, b: -1.0})


def pi_sum(v: SupportedVector) -> float:
    """Sum of entries: the summation map out of l1 / l1_0."""
    if v.module == SCALAR:
        raise TypeError("pi_sum is defined on l1-type vectors, not scalars")
    total = 0.0
    for w in v.entries.values():
        total += w
    return total


def include_in_l1(v: SupportedVector) -> SupportedVector:
    """Inclusion of the zero-sum subspace: identity on the data."""
    if v.module != L1_ZERO:
        raise ValueError("include_in_l1 expects an l1_0 vector")
    out = SupportedVector(L1)
    out.entries = dict(v.entries)
    return out


def lift_scalar(lam: float, point: int) -> SupportedVector:
    """Section of pi_sum: lam * delta_point, norm |lam|, support {point}."""
    return SupportedVector(L1, {point: float(lam)})


def entry_gap(u: SupportedVector, v: SupportedVector | None = None) -> float:
    """Largest per-entry difference |u[k] - v[k]| (v=None means zero)."""
    if v is not None and u.module != v.module:
        raise ValueError(f"module mismatch: {u.module} vs {v.module}")
    if u.module == SCALAR:
        other = v.scalar if v is not None else 0.0
        return abs(u.scalar - other)
    worst = 0.0
    ve = v.entries if v is not None else {}
    for k, a in u.entries.items():
        diff = a - ve.get(k, 0.0)
        if diff < 0:
            diff = -diff
        if diff > worst:
            worst = diff
    for k, b in ve.items():
        if k not in u.entries:
            d = b if b >= 0 else -b
            if d > worst:
                worst = d
    return worst


# -- pair vectors and the pair boundary --------------------------------------

class PairVector:
    """Finitely supported vector on ordered point pairs."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict | None = None):
        if entries:
            self.entries = {k: v for k, v in entries.items()
                            if v >= PRUNE_TOL or -v >= PRUNE_TOL}
        else:
            self.entries = {}

    @property
    def norm(self) -> float:
        total = 0.0
        for v in self.entries.values():
            total += v if v >= 0 else -v
        return total

    @property
    def support(self) -> frozenset:
        return frozenset(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __repr__(self) -> str:
        return f"PairVector({len(self.entries)} pairs, norm={self.norm:.4g})"


def boundary_pairs(h: PairVector) -> SupportedVector:
    """(dH)(w) = sum_z H(z,w) - H(w,z); lands in l1_0 with ||dH|| <= 2||H||."""
    ent: dict = {}
    for (z0, z1), w in h.entries.items():
        ent[z1] = ent.get(z1, 0.0) + w
        ent[z0] = ent.get(z0, 0.0) - w
    return SupportedVector(L1_ZERO, ent)


def lift_boundary(h: SupportedVector, base: int) -> PairVector:
    """Section of boundary_pairs concentrated on {base} x supp(h).

    H(base, z) = h(z) for z != base; then dH = h exactly, ||H|| <= ||h||,
    and supp H is contained in {base} x supp(h).
    """
    if h.module == SCALAR:
        raise ValueError("lift_boundary expects an l1_0 vector")
    drift = pi_sum(h)
    if abs(drift) > ZERO_SUM_TOL:
        raise ValueError(
            f"lift_boundary needs pi_sum(h) = 0, got {drift!r}")
    return PairVector({(base, z): w for z, w in h.entries.items()
                       if z != base})
