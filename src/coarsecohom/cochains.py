"""Bidegree-(p,q) cochains with controlled supports: differentials, the
splitting, R-seminorms, and budgeted law audits.

A cochain assigns a coefficient value to a pair (x, y) where x is a
(p+1)-tuple and y a (q+1)-tuple of points; q = -1 (empty y) is first class.
Sign conventions, chosen so every identity below is exact for all p, q:

  D removes x-coordinates with alternating signs starting at +1;
  d removes y-coordinates with signs (-1)**(i+p), which on the row q = -1
    degenerates to the y-constant extension times (-1)**p (this exact sign
    is what makes Dd + dD = 0 and s(d phi) = phi hold at every p);
  s moves x_0 to the front of the y-tuple with sign (-1)**p.

Each of these, and every sum, difference and scaling, is one linear
combination (_combination): a list of terms, each an operand read at a
column map of the face with a sign or factor (_columns), kept on the
result as its `terms`. The convolution and the transfer of averaging are
combinations too, of one term that reads its operand at a run of faces per
face.

Seminorms constrain x to the radius-R tuple domain and leave y unrestricted;
audits enumerate exactly within a budget and fall back to seeded uniform
samples, reporting which one happened. Every audit, here and in averaging,
is one scan of its domain by _audit; a bound's right-hand side is a _Sup,
the `seen` of the result's fill. The audits evaluate cochains as
face tables (see facetables), chunk by chunk over their points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import L1_ZERO, MODULES
from .facetables import (dirac_diff_table, evaluate, gaps, linear, norms,
                         sup_of, sup_scan)
from .space import (FiniteMetricSpace, _exact_domain, _sample_points,
                    derive_seed)

IDENTITY_TOL = 1e-10
EXACT_TOL = 1e-12
NORM_BOUND_TOL = 1e-10
DEFAULT_AUDIT_BUDGET = 20_000
DEFAULT_SAMPLE_SIZE = 10_000
_INT64_MAX = int(np.iinfo(np.int64).max)


class Cochain:
    """A cochain given by its fill, plus metadata.

    fill maps an int array of faces (one row of p+1 then q+1 point indices
    per (xs, ys)) to the facetables.Table of the values there: column k of
    a row is the value's entry at point k, in ascending point order. A
    linear combination of other cochains (see _combination) keeps its
    terms; a leaf has terms None.
    """

    __slots__ = ("space", "p", "q", "module", "fill", "name", "terms")

    def __init__(self, space: FiniteMetricSpace, p: int, q: int, module: str,
                 fill, name: str = "", terms: list | None = None):
        if p < 0 or q < -1:
            raise ValueError("bidegree must satisfy p >= 0, q >= -1")
        if module not in MODULES:
            raise ValueError(f"unknown module tag {module!r}")
        self.space = space
        self.p = p
        self.q = q
        self.module = module
        self.fill = fill
        self.name = name
        self.terms = terms

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Cochain(p={self.p}, q={self.q}, {self.module}{tag})"


# -- linear combinations -------------------------------------------------------

def _combination(p: int, q: int, terms: list, name: str) -> Cochain:
    """The (p, q)-cochain that adds, in term order, what its terms read.

    A term (c, on) reads its operand c at faces made from the result's
    faces, each with a coefficient: for an int array of faces,
    on(faces, read) gives the rest of the term facetables.linear takes,
    (c's faces, coef) or, for a ragged term, (c's faces, coefs, lengths).
    c's face splits after c's own p+1 x-coordinates. A term whose faces
    depend on another cochain's values (a convolution's f) reads that
    cochain's table as read(cochain, faces): facetables.evaluate in the
    fill, which is one linear call, and whatever a caller that walks the
    terms passes. The operands share one space and module."""
    space, module = terms[0][0].space, terms[0][0].module

    def fill(faces, seen=None):
        return linear(module, space.n,
                      [(c, *on(faces, evaluate)) for c, on in terms], seen)

    return Cochain(space, p, q, module, fill, name=name, terms=terms)


def _columns(c: Cochain, columns: list, coef: float) -> tuple:
    """The term that reads c at face[columns] with a fixed coef, as D, d,
    s, sums and scalings do: they only delete, repeat or move positions."""
    return c, lambda faces, read: (faces[:, columns], coef)


def _every(a: Cochain) -> list:
    """All positions of a's faces, in order."""
    return list(range(a.p + a.q + 2))


def _sum(op: str, a: Cochain, b: Cochain, sign: float) -> Cochain:
    """a + sign * b."""
    if a.space is not b.space or (a.p, a.q) != (b.p, b.q) or a.module != b.module:
        raise ValueError(f"{op} needs matching space, bidegree, module")
    mark = "+" if sign > 0 else "-"
    return _combination(a.p, a.q, [_columns(a, _every(a), 1.0),
                                   _columns(b, _every(b), sign)],
                        f"({a.name}{mark}{b.name})" if a.name and b.name
                        else "")


def cochain_add(a: Cochain, b: Cochain) -> Cochain:
    return _sum("cochain_add", a, b, 1.0)


def cochain_sub(a: Cochain, b: Cochain) -> Cochain:
    return _sum("cochain_sub", a, b, -1.0)


def cochain_scale(a: Cochain, factor: float) -> Cochain:
    return _combination(a.p, a.q, [_columns(a, _every(a), factor)],
                        f"{factor}*{a.name}" if a.name else "")


# -- differentials and splitting ----------------------------------------------

def _sign(i: int) -> float:
    return -1.0 if i % 2 else 1.0


def diff_D(phi: Cochain) -> Cochain:
    """Left differential E^{p,q} -> E^{p+1,q}: x-coordinate i dropped with
    sign (-1)**i.

    ||D phi||_R <= (p+2) ||phi||_R.
    """
    width = phi.p + phi.q + 3
    return _combination(phi.p + 1, phi.q,
                        [_columns(phi, [j for j in range(width) if j != i],
                                  _sign(i))
                         for i in range(phi.p + 2)],
                        f"D({phi.name})" if phi.name else "")


def diff_d(phi: Cochain) -> Cochain:
    """Right differential E^{p,q} -> E^{p,q+1}: y-coordinate i dropped with
    sign (-1)**(i+p)."""
    xlen, width = phi.p + 1, phi.p + phi.q + 3
    return _combination(phi.p, phi.q + 1,
                        [_columns(phi, [j for j in range(width)
                                        if j != xlen + i], _sign(i + phi.p))
                         for i in range(phi.q + 2)],
                        f"d({phi.name})" if phi.name else "")


def split_s(phi: Cochain) -> Cochain:
    """Splitting E^{p,q} -> E^{p,q-1}: reuse x_0 as the leading
    y-coordinate, with sign (-1)**p.

    Then ds + sd = id for q >= 0 and s(d phi) = phi on the row q = -1;
    ||s phi||_R <= ||phi||_R. Refuses q = -1 (nothing below the row).
    """
    if phi.q < 0:
        raise ValueError("cannot split below the augmentation row (q = -1)")
    xlen = phi.p + 1
    lifted = [*range(xlen), 0, *range(xlen, xlen + phi.q)]
    return _combination(phi.p, phi.q - 1,
                        [_columns(phi, lifted, _sign(phi.p))],
                        f"s({phi.name})" if phi.name else "")


# -- audit domains ------------------------------------------------------------

class AuditPoints(tuple):
    """The pair (points, exact) that audit_points returns.

    points is a read-only int64 array of faces, one row xs + ys per point,
    in lexicographic order. A sampled domain also records `requested`, the
    points asked for, and `attempts`, the sampler's proposals; both are None
    on an exact domain.
    """

    def __new__(cls, points: np.ndarray, exact: bool, requested=None,
                attempts=None):
        points.flags.writeable = False
        pair = super().__new__(cls, (points, exact))
        pair.requested = requested
        pair.attempts = attempts
        return pair

    def record(self) -> dict:
        """The Check domain fields of an audit over these points."""
        points, exact = self
        return {"exact": exact,
                "samples": None if exact else len(points),
                "requested": self.requested, "attempts": self.attempts}


def audit_points(space: FiniteMetricSpace, xlen: int, ylen: int, r: float,
                 budget: int = DEFAULT_AUDIT_BUDGET,
                 sample_size: int = DEFAULT_SAMPLE_SIZE,
                 seed: int = 0) -> AuditPoints:
    """(x, y) evaluation points: x in the radius-r domain, y unrestricted.

    Returns the AuditPoints pair (points, exact), one object per domain.
    The x-domain X is the exact join of space._exact_domain. Exhaustive
    while the joint count N = |X| * n**ylen fits the budget,
    otherwise a seeded sample of k = min(sample_size, budget) distinct
    points: when the x-domain X itself fits the budget, k distinct indices
    into the joint domain drawn at once (never fewer than k), else the
    rejection sampler of space._sample_points. Exhaustive domains are
    shared by all seeds.
    """
    cache = space._tuple_cache
    key = ("audit", xlen, ylen, float(r), budget)
    got = cache.get(key) or cache.sampled(key + (sample_size,), seed)
    if got is not None:
        return got
    n = space.n
    xdom = _exact_domain(space, xlen - 1, r, budget)
    total = None if xdom is None else len(xdom) * n ** ylen
    if total is not None and total <= budget:
        xs = np.repeat(xdom, n ** ylen, axis=0)
        ys = np.indices((n,) * ylen).reshape(ylen, n ** ylen).T
        got = cache[key] = AuditPoints(
            np.concatenate((xs, np.tile(ys, (len(xdom), 1))), axis=1), True)
        return got
    want = min(sample_size, budget)
    rng = np.random.default_rng(
        derive_seed(seed, "audit-points", xlen, ylen, float(r)))
    if total is not None and total <= _INT64_MAX:
        points = _decode(xdom, n, ylen, np.sort(
            rng.choice(total, size=want, replace=False, shuffle=False)))
        attempts = want
    else:
        points, attempts = _sample_points(space, xlen - 1, r, ylen, want, rng)
    return cache.keep_sampled(key + (sample_size,), seed,
                              AuditPoints(points, False, want, attempts))


def _decode(xfaces: np.ndarray, n: int, ylen: int,
            index: np.ndarray) -> np.ndarray:
    """The faces at the given indices of the joint domain X x n**ylen in
    lexicographic order: x row index // n**ylen, then the y digits of the
    rest in base n, most significant first."""
    xlen = xfaces.shape[1]
    rows, rest = np.divmod(index, n ** ylen)
    faces = np.empty((len(index), xlen + ylen), dtype=np.int64)
    faces[:, :xlen] = xfaces[rows]
    for j in range(xlen + ylen - 1, xlen - 1, -1):
        rest, faces[:, j] = np.divmod(rest, n)
    return faces


def _witness_json(witness):
    if witness is None:
        return None
    xs, ys = witness
    return [list(xs), list(ys)]


@dataclass(kw_only=True)
class Check:
    """One verdict of a law audit, as every report prints it.

    check names the law, and ok is the verdict: None for a bare measurement
    such as a seminorm, which then prints no "ok". values holds the numbers
    the verdict was read from, each under its report key ("value", "bound",
    "max_violation", ...), in print order; a nested Check prints as its
    JSON. The domain fields belong to an audit only, and a check whose exact
    is None prints none of them: exact says the domain was enumerated in
    full, so the check is a proof on it; otherwise it is a lower bound,
    samples counts the points obtained, requested the points the sampler
    was asked for and attempts its proposals (all three None when exact).
    witness is the point attaining the reported sup, or None. instance
    numbers the random instance a suite drew the check from.
    """
    check: str
    ok: bool | None = None
    values: dict = field(default_factory=dict)
    exact: bool | None = None
    witness: tuple | None = None
    samples: int | None = None
    requested: int | None = None
    attempts: int | None = None
    instance: int | None = None

    def __getitem__(self, key: str):
        return self.values[key]

    def to_json(self) -> dict:
        out = {"check": self.check}
        out.update((key, val.to_json() if isinstance(val, Check) else val)
                   for key, val in self.values.items())
        if self.ok is not None:
            out["ok"] = self.ok
        if self.exact is not None:
            out.update(exact=self.exact, witness=_witness_json(self.witness),
                       samples=self.samples, requested=self.requested,
                       attempts=self.attempts)
        if self.instance is not None:
            out["instance"] = self.instance
        return out


def identity_check(check: str, p: int, q: int, r: float, worst: float,
                   tol: float, **record) -> Check:
    """The verdict of an identity audit whose worst per-entry gap was
    worst: it holds within tol; record is the audit's domain."""
    return Check(check=check, ok=worst <= tol,
                 values={"p": p, "q": q, "R": float(r), "max_violation": worst,
                         "tol": tol}, **record)


def bound_check(check: str, value: float, bound: float, more: dict,
                holds: bool = True, **record) -> Check:
    """The verdict of a norm bound: value <= bound + NORM_BOUND_TOL, and
    holds, the bound's other conditions; more's numbers print after
    "value" and "bound", and record is the audit's domain, if any."""
    return Check(check=check, ok=holds and value <= bound + NORM_BOUND_TOL,
                 values={"value": value, "bound": bound, **more}, **record)


# -- the audit loop ------------------------------------------------------------

class _Sup:
    """A running sup from 0.0 in `value`: add folds an array of values, and
    a call folds the norms of a table's values, so a _Sup is the `seen` of
    a combination's fill."""

    def __init__(self):
        self.value = 0.0

    def add(self, values: np.ndarray) -> None:
        self.value = sup_of(values, self.value)

    def __call__(self, tab) -> None:
        self.add(norms(tab))


def _audit(space: FiniteMetricSpace, xlen: int, ylen: int, r: float,
           module: str, measure, budget: int, sample_size: int, seed: int):
    """(sup, record): the largest measure(faces) over the radius-r audit
    domain of (xlen, ylen) faces, whose values lie in module, and the
    Check domain fields of the scan, its witness included."""
    dom = audit_points(space, xlen, ylen, r, budget=budget,
                       sample_size=sample_size, seed=seed)
    best, witness = sup_scan(dom[0], xlen, module, space.n, measure)
    return best, dom.record() | {"witness": witness}


# -- seminorms -----------------------------------------------------------------

def seminorm(phi: Cochain, r: float, budget: int = DEFAULT_AUDIT_BUDGET,
             sample_size: int = DEFAULT_SAMPLE_SIZE, seed: int = 0) -> Check:
    """R-seminorm of phi over its audit domain, as the bare measurement
    "value" (a lower bound if sampled)."""
    best, record = _audit(phi.space, phi.p + 1, phi.q + 1, r, phi.module,
                          lambda faces: norms(evaluate(phi, faces)), budget,
                          sample_size, seed)
    return Check(check="seminorm", values={"R": float(r), "value": best},
                 **record)


# -- identity audits ------------------------------------------------------------

def audit_equal(check: str, lhs: Cochain, rhs: Cochain | None, r: float,
                budget: int = DEFAULT_AUDIT_BUDGET,
                sample_size: int = DEFAULT_SAMPLE_SIZE, seed: int = 0,
                tol: float = IDENTITY_TOL) -> Check:
    """Pointwise comparison of two cochains (rhs None = zero) over the
    budgeted audit domain of lhs; records the worst per-entry gap."""
    if rhs is not None and (lhs.p, lhs.q, lhs.module) != (rhs.p, rhs.q, rhs.module):
        raise ValueError("audit_equal needs matching bidegree and module")
    worst, record = _audit(lhs.space, lhs.p + 1, lhs.q + 1, r, lhs.module,
                           lambda faces: gaps(
                               evaluate(lhs, faces),
                               None if rhs is None else evaluate(rhs, faces)),
                           budget, sample_size, seed)
    return identity_check(check, lhs.p, lhs.q, r, worst, tol, **record)


def audit_zero(check: str, lhs: Cochain, r: float, **kw) -> Check:
    return audit_equal(check, lhs, None, r, **kw)


# -- operator norm bounds ---------------------------------------------------------

def _audit_bound(check: str, result: Cochain, factor: float, r: float,
                 budget: int, sample_size: int, seed: int) -> Check:
    """Audited ||result||_R <= factor * ||base|| with coupled base points.

    result is D, d or s of a base cochain; at each audited point the
    triangle inequality needs the base at the faces result sums over,
    which are exactly the base values result's table is made from. So the
    sup of ||base|| is taken over exactly those points, and a sampled audit
    can never produce a spurious violation."""
    rhs = _Sup()
    lhs, record = _audit(result.space, result.p + 1, result.q + 1, r,
                         result.module,
                         lambda faces: norms(result.fill(faces, rhs)),
                         budget, sample_size, seed)
    return bound_check(check, lhs, factor * rhs.value,
                       {"R": float(r), "factor": factor}, **record)


def diff_D_norm_audit(phi: Cochain, r: float, budget: int = DEFAULT_AUDIT_BUDGET,
                      sample_size: int = DEFAULT_SAMPLE_SIZE,
                      seed: int = 0) -> Check:
    """||D phi||_R <= (p+2) ||phi||_R."""
    return _audit_bound("norm_bound_D", diff_D(phi), float(phi.p + 2), r,
                        budget, sample_size, seed)


def diff_d_norm_audit(phi: Cochain, r: float, budget: int = DEFAULT_AUDIT_BUDGET,
                      sample_size: int = DEFAULT_SAMPLE_SIZE,
                      seed: int = 0) -> Check:
    """||d phi||_R <= (q+2) ||phi||_R."""
    return _audit_bound("norm_bound_d", diff_d(phi), float(phi.q + 2), r,
                        budget, sample_size, seed)


def split_s_norm_audit(phi: Cochain, r: float, budget: int = DEFAULT_AUDIT_BUDGET,
                       sample_size: int = DEFAULT_SAMPLE_SIZE,
                       seed: int = 0) -> Check:
    """||s phi||_R <= ||phi||_R (the splitting never grows norms)."""
    return _audit_bound("norm_bound_s", split_s(phi), 1.0, r, budget,
                        sample_size, seed)


# -- Johnson cocycles --------------------------------------------------------------

def johnson_cocycles(space: FiniteMetricSpace):
    """The three basic zero-sum cochains on a space with >= 2 points.

    j01(x,(y0,y1)) = delta_y1 - delta_y0   (D-flat and d-flat),
    j10((x0,x1),(y)) = delta_x1 - delta_x0,
    hom(x,(y)) = delta_y - delta_x   with  D hom = -j10  and  d hom = j01.

    johnson_relations audits the two identities and the flatness of j01.
    """
    if space.n < 2:
        raise ValueError("Johnson cocycles need at least two points")
    n = space.n
    # faces are (x, y0, y1), (x0, x1, y) and (x, y) respectively
    j01 = Cochain(space, 0, 1, L1_ZERO,
                  lambda f: dirac_diff_table(n, f[:, 2], f[:, 1]), name="j01")
    # j10 and hom subtract the first coordinate from the second
    second_minus_first = lambda f: dirac_diff_table(n, f[:, 1], f[:, 0])
    j10 = Cochain(space, 1, 0, L1_ZERO, second_minus_first, name="j10")
    hom = Cochain(space, 0, 0, L1_ZERO, second_minus_first, name="hom")
    return j01, j10, hom


def johnson_relations(j01: Cochain, j10: Cochain, hom: Cochain, r: float,
                      **kw) -> list[Check]:
    """Audits of D j01 = 0, d j01 = 0, D hom = -j10 and d hom = j01 at
    radius r; kw goes to every audit."""
    return [
        audit_zero("D(j01)=0", diff_D(j01), r, **kw),
        audit_zero("d(j01)=0", diff_d(j01), r, **kw),
        audit_equal("D(hom)=-j10", diff_D(hom), cochain_scale(j10, -1.0), r,
                    **kw),
        audit_equal("d(hom)=j01", diff_d(hom), j01, r, **kw),
    ]
