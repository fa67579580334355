"""Reiter-style averaging: probability families on balls, their variation
profiles, convolution against cochains, averaged splittings, homotopy
defects, and the pair-field transfer identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import (L1, L1_ZERO, SCALAR, SupportedVector,
                           boundary_pairs, dirac, entry_gap, pi_sum)
from .cochains import (DEFAULT_AUDIT_BUDGET, DEFAULT_SAMPLE_SIZE, EXACT_TOL,
                       NORM_BOUND_TOL, AuditRecord, AuditReport, Cochain,
                       _sup_scan, audit_equal, audit_points, cochain_sub,
                       diff_D, split_s)
from .space import REAL_METRIC_SLACK, FiniteMetricSpace

PROB_SUM_TOL = 1e-12
UNIT_SUM_TOL = 1e-9


class ReiterFamily:
    """One probability (or near-probability) vector per point.

    is_prob certifies: entries nonnegative, entry sum within 1e-12 of 1,
    support of f(x) inside the closed S-ball of x. Violations raise at
    construction, so downstream bounds may rely on the flag.
    """

    def __init__(self, space: FiniteMetricSpace, s: float, vectors,
                 is_prob: bool = True, name: str = "", validate: bool = True):
        if len(vectors) != space.n:
            raise ValueError("need exactly one vector per point")
        self.space = space
        self.s = float(s)
        self.vectors = list(vectors)
        self.is_prob = bool(is_prob)
        self.name = name
        if validate:
            self.validate()

    def validate(self) -> None:
        for x, v in enumerate(self.vectors):
            if v.module == SCALAR:
                raise ValueError("family vectors must be l1-type")
            for w, weight in v.entries.items():
                if not self.space.within(x, w, self.s):
                    raise ValueError(
                        f"support of f({self.space.label(x)}) escapes its "
                        f"{self.s}-ball at {self.space.label(w)}")
                if self.is_prob and weight < 0:
                    raise ValueError(
                        f"negative mass {weight!r} in f({self.space.label(x)})")
            if self.is_prob and abs(pi_sum(v) - 1.0) > PROB_SUM_TOL:
                raise ValueError(
                    f"f({self.space.label(x)}) sums to {pi_sum(v)!r}, not 1")

    @property
    def sup_norm(self) -> float:
        return max(v.norm for v in self.vectors)

    def as_cochain(self) -> Cochain:
        vectors = self.vectors
        return Cochain(self.space, 0, -1, L1,
                       lambda xs, ys: vectors[xs[0]],
                       support_witness=lambda r: self.s,
                       name=self.name or "family")

    def __repr__(self) -> str:
        return (f"ReiterFamily(s={self.s}, n={self.space.n}, "
                f"is_prob={self.is_prob})")


def dirac_family(space: FiniteMetricSpace) -> ReiterFamily:
    return ReiterFamily(space, 0.0, [dirac(x) for x in range(space.n)],
                        name="dirac")


def ball_average(space: FiniteMetricSpace, s: float) -> ReiterFamily:
    """Uniform probability on the closed s-ball of each point."""
    vectors = []
    for ball in space.balls_list(s):
        w = 1.0 / len(ball)
        vectors.append(SupportedVector(L1, {j: w for j in ball}))
    return ReiterFamily(space, s, vectors, name=f"ball[{s}]")


def lazy_walk_family(space: FiniteMetricSpace, steps: int,
                     laziness: float = 0.5) -> ReiterFamily:
    """Row distributions of a lazy random walk after `steps` steps.

    Needs unit-distance graph structure (adjacency = distance 1); support
    after t steps sits inside the t-ball, so S = steps.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not 0.0 < laziness < 1.0:
        raise ValueError("laziness must sit strictly between 0 and 1")
    adj = (space.dist == 1).astype(float) if space.integer_metric else (
        (space.dist > 0) & (space.dist <= 1.0 + REAL_METRIC_SLACK)).astype(float)
    deg = adj.sum(axis=1)
    if np.any(deg == 0) and space.n > 1:
        raise ValueError("lazy walk needs every point to have a unit neighbor")
    walk = laziness * np.eye(space.n)
    if space.n > 1:
        walk = walk + (1.0 - laziness) * adj / np.maximum(deg, 1.0)[:, None]
    else:
        walk = np.eye(1)
    mat = np.linalg.matrix_power(walk, steps)
    vectors = [SupportedVector(L1, {int(j): float(mat[x, j])
                                    for j in np.flatnonzero(mat[x] > 0)})
               for x in range(space.n)]
    return ReiterFamily(space, steps, vectors, name=f"walk[{steps}]")


# -- variation profiles -------------------------------------------------------

@dataclass
class ProfileRow:
    s: float
    r: float
    nu: float
    x0: int
    x1: int
    exact: bool = True

    def to_json(self) -> dict:
        return {"S": self.s, "R": self.r, "nu": self.nu,
                "x0": self.x0, "x1": self.x1, "exact": self.exact}


@dataclass
class ProfileTable:
    rows: list

    def get(self, s: float, r: float) -> ProfileRow:
        for row in self.rows:
            if row.s == s and row.r == r:
                return row
        raise KeyError((s, r))

    def to_csv(self) -> str:
        lines = ["S,R,nu,x0,x1,exact"]
        for row in self.rows:
            lines.append(f"{row.s!r},{row.r!r},{row.nu!r},{row.x0},{row.x1},"
                         f"{'true' if row.exact else 'false'}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> list:
        return [row.to_json() for row in self.rows]


def pairs_within(space: FiniteMetricSpace, r: float):
    """Unordered point pairs (i < j) with d(i, j) <= r."""
    out = []
    balls = space.balls_list(r)
    for i in range(space.n):
        for j in balls[i]:
            if j > i:
                out.append((i, j))
    return out


def _max_pair_variation(vectors, pairs):
    entries_list = [v.entries for v in vectors]
    best = -1.0
    best_pair = None
    for i, j in pairs:
        ue, ve = entries_list[i], entries_list[j]
        total = 0.0
        for k, a in ue.items():
            b = ve.get(k)
            diff = a - b if b is not None else a
            total += diff if diff >= 0 else -diff
        for k, b in ve.items():
            if k not in ue:
                total += b if b >= 0 else -b
        if total > best:
            best = total
            best_pair = (i, j)
    return best, best_pair


def variation_profile(space: FiniteMetricSpace, schedule, r_list,
                      family=ball_average) -> ProfileTable:
    """nu(S, R) = max over pairs within R of ||f_S(x1) - f_S(x0)||_1.

    Exact O(n^2) pair enumeration; the witness pair is the lexicographically
    first maximizer. Single points never vary (nu uses x0 != x1 pairs; none
    exist for n = 1, giving nu = 0).
    """
    rows = []
    for s in schedule:
        fam = family(space, s)
        for r in r_list:
            pairs = pairs_within(space, r)
            if pairs:
                nu, pair = _max_pair_variation(fam.vectors, pairs)
            else:
                nu, pair = 0.0, (0, 0)
            rows.append(ProfileRow(float(s), float(r), float(nu),
                                   pair[0], pair[1]))
    return ProfileTable(rows)


# -- normalization -------------------------------------------------------------

def repair_unit_sum(phi: Cochain) -> Cochain:
    """phi(x) + (1 - pi(phi(x))) delta_x: restores unit sums exactly
    without moving supports outside {x} union supp(phi(x))."""
    if phi.p != 0 or phi.q != -1 or phi.module == SCALAR:
        raise ValueError("repair_unit_sum expects an l1 family cochain")

    def rule(xs, ys):
        v = phi(xs, ys)
        gap = 1.0 - pi_sum(v)
        if gap == 0.0:
            return v
        ent = dict(v.entries)
        x = xs[0]
        ent[x] = ent.get(x, 0.0) + gap
        return SupportedVector(v.module, ent)

    return Cochain(phi.space, 0, -1, phi.module, rule,
                   support_witness=phi.support_witness,
                   name=f"repair({phi.name})" if phi.name else "")


def normalize_to_prob(phi: Cochain, tol: float = UNIT_SUM_TOL) -> ReiterFamily:
    """f(x) = |phi(x)| / ||phi(x)|| for a unit-sum family cochain.

    Since pi(phi(x)) = 1 forces ||phi(x)|| >= 1, the rescaling factor never
    exceeds 1; supports are unchanged and the variation at most doubles:
    ||f(x1) - f(x0)|| <= 2 ||phi(x1) - phi(x0)||.
    """
    if phi.p != 0 or phi.q != -1 or phi.module != L1:
        raise ValueError("normalize_to_prob expects an l1 family cochain")
    space = phi.space
    vectors = []
    s_measured = 0.0
    for x in range(space.n):
        v = phi((x,), ())
        total = pi_sum(v)
        if abs(total - 1.0) > tol:
            raise ValueError(
                f"pi_sum(phi({space.label(x)})) = {total!r}, expected 1 "
                f"within {tol}")
        norm = v.norm
        vectors.append(SupportedVector(
            L1, {k: (w if w >= 0 else -w) / norm for k, w in v.entries.items()}))
        for w in v.entries:
            dxw = space.d(x, w)
            if dxw > s_measured:
                s_measured = dxw
    return ReiterFamily(space, s_measured, vectors,
                        name=f"normalized({phi.name})" if phi.name else "normalized")


# -- convolution ---------------------------------------------------------------

def convolve(f: Cochain, theta: Cochain) -> Cochain:
    """(f * theta)(x, y) = sum_z f(x)(z) theta(z, y).

    f must be an l1-type cochain on the augmentation row (q = -1); theta a
    column cochain (p = 0) with values in any module, which is the module of
    the result. Satisfies D(f*phi) = (Df)*phi, the graded commutation
    d(f*phi) = (-1)**f.p f*(d phi) (on the nose for the p = 0 averaging
    uses; the sign is forced by d's p-dependent signs), and
    ||f*theta||_R <= ||f||_R ||theta||.
    """
    if f.space is not theta.space:
        raise ValueError("convolution operands must share their space")
    if f.q != -1 or f.module not in (L1, L1_ZERO):
        raise ValueError("convolve needs an l1-type row cochain (q = -1) "
                         f"on the left, got q={f.q}, module={f.module}")
    if theta.p != 0:
        raise ValueError("convolve needs a column cochain (p = 0) on the right")
    module = theta.module
    fcall = f.__call__
    tcall = theta.__call__

    def rule(xs, ys):
        ent: dict = {}
        sca = 0.0
        for z, w in fcall(xs, ()).entries.items():
            v = tcall((z,), ys)
            sca += w * v.scalar
            for k, u in v.entries.items():
                ent[k] = ent.get(k, 0.0) + w * u
        return SupportedVector(module, ent, sca)

    wit = None
    if f.support_witness is not None and theta.support_witness is not None:
        fw, tw = f.support_witness, theta.support_witness
        wit = lambda r: fw(r) + tw(fw(r) + r)
    name = ""
    if f.name and theta.name:
        name = f"({f.name}*{theta.name})"
    return Cochain(f.space, f.p, theta.q, module, rule, support_witness=wit,
                   name=name)


def averaged_split(fam: ReiterFamily, phi: Cochain) -> Cochain:
    """s_f phi = f * (s phi): the averaged splitting E^{0,q} -> E^{0,q-1}.

    Satisfies (d s_f + s_f d) phi = f * phi, so the homotopy defect of f
    controls how far s_f is from splitting the identity.
    """
    if phi.q < 0:
        raise ValueError("averaged split needs q >= 0 (nothing below row -1)")
    if phi.p != 0:
        raise ValueError("averaged split acts on column cochains (p = 0)")
    return convolve(fam.as_cochain(), split_s(phi))


@dataclass
class DefectReport(AuditRecord):
    """Audited ||f*phi - phi|| against ||f|| ||D phi||_S with S = f.s.

    telescope_gap is the worst per-entry violation of the exact rewriting
    (f*phi - phi)(x,y) = sum_z f(x)(z) (D phi)((x,z), y), evaluated on the
    same audited points; the bound uses the coupled sup of ||D phi|| so a
    sampled audit stays sound.
    """
    s: float
    defect_norm: float
    bound: float
    family_norm: float
    dphi_sup: float
    telescope_gap: float
    tol: float = NORM_BOUND_TOL

    @property
    def ok(self) -> bool:
        return self.defect_norm <= self.bound + self.tol

    def to_json(self) -> dict:
        return {"check": "homotopy_defect", "S": self.s,
                "value": self.defect_norm, "bound": self.bound,
                "family_norm": self.family_norm, "dphi_sup": self.dphi_sup,
                "telescope_gap": self.telescope_gap, "ok": self.ok,
                **self._domain_json()}


def homotopy_defect(fam: ReiterFamily, phi: Cochain,
                    budget: int = DEFAULT_AUDIT_BUDGET,
                    sample_size: int = DEFAULT_SAMPLE_SIZE,
                    seed: int = 0):
    """Defect cochain f*phi - phi plus its audited bound report."""
    if not fam.is_prob:
        raise ValueError("homotopy defect needs a probability family")
    if phi.p != 0:
        raise ValueError("homotopy defect acts on column cochains (p = 0)")
    fam_cochain = fam.as_cochain()
    defect = cochain_sub(convolve(fam_cochain, phi), phi)
    dphi = diff_D(phi)
    points, exact = audit_points(fam.space, 1, phi.q + 1, 0.0, budget=budget,
                                 sample_size=sample_size, seed=seed)
    dphi_sup = 0.0
    telescope_gap = 0.0

    def defect_norm(xs, ys):
        # also folds this point into dphi_sup and telescope_gap
        nonlocal dphi_sup, telescope_gap
        dval = defect(xs, ys)
        ent: dict = {}
        sca = 0.0
        for z, w in fam.vectors[xs[0]].entries.items():
            term = dphi((xs[0], z), ys)
            dphi_sup = max(dphi_sup, term.norm)
            sca += w * term.scalar
            for k, u in term.entries.items():
                ent[k] = ent.get(k, 0.0) + w * u
        acc = SupportedVector(phi.module, ent, sca)
        telescope_gap = max(telescope_gap, entry_gap(dval, acc))
        return dval.norm

    worst, witness = _sup_scan(points, defect_norm)
    fnorm = fam.sup_norm
    report = DefectReport(fam.s, worst, fnorm * dphi_sup, fnorm, dphi_sup,
                          telescope_gap, exact=exact, witness=witness,
                          samples=None if exact else len(points))
    if not report.ok:
        raise AssertionError(f"homotopy defect bound violated: {report}")
    return defect, report


# -- convolution norm bound ------------------------------------------------------

@dataclass
class ConvBoundReport(AuditRecord):
    """Audited ||f*theta||_R <= ||f||_R ||theta|| with coupled theta points."""
    r: float
    lhs: float
    f_sup: float
    theta_sup: float
    tol: float = NORM_BOUND_TOL

    @property
    def ok(self) -> bool:
        return self.lhs <= self.f_sup * self.theta_sup + self.tol

    def to_json(self) -> dict:
        return {"check": "norm_bound_conv", "R": self.r, "value": self.lhs,
                "bound": self.f_sup * self.theta_sup, "f_sup": self.f_sup,
                "theta_sup": self.theta_sup, "ok": self.ok,
                **self._domain_json()}


def conv_norm_audit(f: Cochain, theta: Cochain, r: float,
                    budget: int = DEFAULT_AUDIT_BUDGET,
                    sample_size: int = DEFAULT_SAMPLE_SIZE,
                    seed: int = 0) -> ConvBoundReport:
    conv = convolve(f, theta)
    points, exact = audit_points(f.space, f.p + 1, theta.q + 1, r,
                                 budget=budget, sample_size=sample_size,
                                 seed=seed)
    f_sup = 0.0
    theta_sup = 0.0

    def conv_norm(xs, ys):
        # also folds this point into f_sup and theta_sup
        nonlocal f_sup, theta_sup
        val = conv(xs, ys).norm
        fv = f(xs, ())
        f_sup = max(f_sup, fv.norm)
        for z in fv.entries:
            theta_sup = max(theta_sup, theta((z,), ys).norm)
        return val

    lhs, witness = _sup_scan(points, conv_norm)
    return ConvBoundReport(float(r), lhs, f_sup, theta_sup, exact=exact,
                           witness=witness,
                           samples=None if exact else len(points))


# -- pair fields and the transfer identity ----------------------------------------

@dataclass
class PairingReport:
    """(boundary F) * theta = T_F(D theta), audited, plus the T_F bound."""
    identity: AuditReport
    lhs_sup: float
    f_sup: float
    zeta_sup: float
    r_ball: float
    r_pair: float
    bound_ok: bool

    @property
    def ok(self) -> bool:
        return self.identity.ok and self.bound_ok

    def to_json(self) -> dict:
        return {"check": "pairing", "identity": self.identity.to_json(),
                "value": self.lhs_sup, "bound": self.f_sup * self.zeta_sup,
                "f_sup": self.f_sup, "zeta_sup": self.zeta_sup,
                "r_ball": self.r_ball, "r_pair": self.r_pair,
                "ok": self.ok}


def transfer_cochain(field, zeta: Cochain) -> Cochain:
    """(T_F zeta)(x, y) = sum over pairs F(x)(z0,z1) zeta((z0,z1), y)."""
    if zeta.p != 1:
        raise ValueError("transfer consumes (1,q)-cochains")
    module = zeta.module
    zcall = zeta.__call__

    def rule(xs, ys):
        ent: dict = {}
        sca = 0.0
        for pair, w in field[xs[0]].entries.items():
            v = zcall(pair, ys)
            sca += w * v.scalar
            for k, u in v.entries.items():
                ent[k] = ent.get(k, 0.0) + w * u
        return SupportedVector(module, ent, sca)

    return Cochain(zeta.space, 0, zeta.q, module, rule, name="T_F")


def tf_identity(field, theta: Cochain, radius: float | None = None,
                budget: int = DEFAULT_AUDIT_BUDGET,
                sample_size: int = DEFAULT_SAMPLE_SIZE,
                seed: int = 0) -> PairingReport:
    """Audit (boundary F) * theta = T_F(D theta) for a ball-bounded pair field.

    field is one PairVector per point. The supports' ball radius is measured
    (or checked against `radius` when given; escaping supports raise with a
    witness); the T_F norm bound is audited at the measured pairwise radius
    of the supports, which is what the triangle inequality actually uses.
    """
    space = theta.space
    if len(field) != space.n:
        raise ValueError("need exactly one pair vector per point")
    if theta.p != 0:
        raise ValueError("tf_identity needs a column cochain (p = 0)")
    slack = 0.0 if space.integer_metric else REAL_METRIC_SLACK
    r_ball = 0.0
    r_pair = 0.0
    for x in range(space.n):
        for (z0, z1) in field[x].entries:
            reach = max(space.d(x, z0), space.d(x, z1))
            if radius is not None and reach > radius + slack:
                raise ValueError(
                    f"support of F({space.label(x)}) escapes the "
                    f"{radius}-ball at pair ({space.label(z0)}, "
                    f"{space.label(z1)})")
            r_ball = max(r_ball, reach)
            r_pair = max(r_pair, space.d(z0, z1))
    boundary = Cochain(space, 0, -1, L1_ZERO,
                       lambda xs, ys: boundary_pairs(field[xs[0]]),
                       support_witness=lambda r: r_ball, name="dF",
                       memoize=True)
    lhs = convolve(boundary, theta)
    zeta = diff_D(theta)
    rhs = transfer_cochain(field, zeta)
    identity = audit_equal("pairing", lhs, rhs, 0.0, budget=budget,
                           sample_size=sample_size, seed=seed, tol=EXACT_TOL)
    points, _ = audit_points(space, 1, theta.q + 1, 0.0, budget=budget,
                             sample_size=sample_size, seed=seed)
    lhs_sup, _ = _sup_scan(points, lambda xs, ys: rhs(xs, ys).norm)
    zeta_sup, _ = _sup_scan(((pair, ys) for xs, ys in points
                             for pair in field[xs[0]].entries),
                            lambda zs, ys: zeta(zs, ys).norm)
    f_sup = max((pv.norm for pv in field), default=0.0)
    bound_ok = lhs_sup <= f_sup * zeta_sup + NORM_BOUND_TOL
    return PairingReport(identity, lhs_sup, f_sup, zeta_sup, r_ball, r_pair,
                         bound_ok)
