"""Reiter-style averaging: probability families on balls, their variation
profiles, convolution against cochains, homotopy defects, and the
pair-field transfer identity.

Families and pair fields are CSR rows, one row per point. The convolution,
the transfer and the defect's telescope are each one ragged term of
cochains._combination, which reads its entries off CSR rows or an f table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import L1, L1_ZERO, PRUNE_TOL, ZERO_SUM_TOL
from .cochains import (DEFAULT_AUDIT_BUDGET, DEFAULT_SAMPLE_SIZE, EXACT_TOL,
                       Check, Cochain, _audit, _combination, _Sup,
                       bound_check, cochain_sub, diff_D, identity_check)
from .facetables import (csr_add, csr_expand, csr_row_sums, distinct,
                         evaluate, gaps, norms, row_entries, rows_fill,
                         sup_of)
from .space import FiniteMetricSpace, mask_rows

PROB_SUM_TOL = 1e-12
UNIT_SUM_TOL = 1e-9


class ReiterFamily:
    """One probability (or near-probability) vector per point, as CSR rows.

    f(x) has support `cols[indptr[x]:indptr[x + 1]]`, strictly ascending,
    and masses in the same slice of `weights`; every mass is finite.

    is_prob certifies: entries nonnegative, entry sum within 1e-12 of 1,
    support of f(x) inside the closed S-ball of x. Violations raise at
    construction, so downstream bounds may rely on the flag.
    """

    def __init__(self, space: FiniteMetricSpace, s: float, indptr, cols,
                 weights, is_prob: bool = True, name: str = ""):
        self.space = space
        self.s = float(s)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=float)
        self.is_prob = bool(is_prob)
        self.name = name
        self.validate()

    def validate(self) -> None:
        """Raise the first violation: the row bounds, then points in order,
        each point's entries in order (a column out of range or not above
        the one before, a non-finite mass, an escape, a negative mass),
        then its sum. Every check fails on NaN."""
        space, indptr, cols, weights = (self.space, self.indptr, self.cols,
                                        self.weights)
        n = space.n
        if indptr.shape != (n + 1,):
            raise ValueError(f"need exactly one row per point: indptr has "
                             f"{len(indptr)} entries for {n} points")
        spans = ~(indptr[:-1] <= indptr[1:])
        spans[0] |= indptr[0] != 0
        spans[-1] |= indptr[-1] != len(cols)
        if spans.any():
            x = int(np.argmax(spans))
            raise ValueError(
                f"CSR rows must rise from 0 to {len(cols)}: "
                f"f({space.label(x)}) spans [{indptr[x]}, {indptr[x + 1]})")
        rows = np.repeat(np.arange(n), np.diff(indptr))
        outside = ~((cols >= 0) & (cols < n))
        misplaced = outside.copy()
        misplaced[1:] |= ~(cols[1:] > cols[:-1]) & (rows[1:] == rows[:-1])
        infinite = ~(np.abs(weights) <= np.finfo(float).max)
        escapes = ~(space.dist[rows, np.where(outside, rows, cols)]
                    <= space.radius_bound(self.s))
        negative = ~(weights >= 0) if self.is_prob else np.zeros_like(escapes)
        bad_entry = misplaced | infinite | escapes | negative
        bad = np.zeros(n, dtype=bool)
        bad[rows[bad_entry]] = True
        if self.is_prob:
            sums = csr_row_sums(indptr, weights)
            bad |= ~(np.abs(sums - 1.0) <= PROB_SUM_TOL)
        if not bad.any():
            return
        x = int(np.argmax(bad))
        at = f"f({space.label(x)})"
        for k in range(indptr[x], indptr[x + 1]):
            col, w = int(cols[k]), float(weights[k])
            if misplaced[k]:
                raise ValueError(f"columns of {at} must rise strictly within "
                                 f"0..{n - 1}, got {col}")
            if infinite[k]:
                raise ValueError(f"non-finite mass {w!r} in {at}")
            if escapes[k]:
                raise ValueError(f"support of {at} escapes its {self.s}-ball "
                                 f"at {space.label(col)}")
            if negative[k]:
                raise ValueError(f"negative mass {w!r} in {at}")
        raise ValueError(f"{at} sums to {float(sums[x])!r}, not 1")

    @property
    def sup_norm(self) -> float:
        """The largest ||f(x)||, each added left to right."""
        return csr_row_sums(self.indptr, np.abs(self.weights)).max().item()

    def as_cochain(self) -> Cochain:
        """f as a (0, -1)-cochain."""
        return Cochain(self.space, 0, -1, L1,
                       rows_fill(L1, self.space.n, self.indptr, self.cols,
                                 self.weights), name=self.name or "family")

    def __repr__(self) -> str:
        return (f"ReiterFamily(s={self.s}, n={self.space.n}, "
                f"is_prob={self.is_prob})")


def dirac_family(space: FiniteMetricSpace) -> ReiterFamily:
    n = space.n
    return ReiterFamily(space, 0.0, np.arange(n + 1), np.arange(n),
                        np.ones(n), name="dirac")


def ball_average(space: FiniteMetricSpace, s: float) -> ReiterFamily:
    """Uniform probability on the closed s-ball of each point."""
    indptr, cols = mask_rows(space.near(s))
    sizes = np.diff(indptr)
    return ReiterFamily(space, s, indptr, cols, np.repeat(1.0 / sizes, sizes),
                        name=f"ball[{s}]")


# The walk keeps its rows sparse when the widest S-ball holds at most
# n / _SPARSE_WALK_SHARE points; wider rows go through dense matrix_power.
# The two kernels broke even at a widest ball of about n/5.5 on torus48
# and rr512 (the sparse one still won at n/2.9 on rr2048; CHANGES.md), so
# n/8 keeps a margin.
_SPARSE_WALK_SHARE = 8
# Terms of P^(t-1)[x, k] * P[k, j] the sparse walk multiplies and sums at
# once; a block of rows is cut at about this many, whatever the row widths.
_WALK_CHUNK_TERMS = 1 << 13


def _walk_step_rows(space: FiniteMetricSpace, laziness: float):
    """One step of the lazy walk as CSR rows (indptr, cols, weights): stay
    with probability `laziness`, else move to a uniform unit neighbour. Row
    k holds `laziness` at k and fl((1 - laziness) / deg k) at each unit
    neighbour, in ascending column order; a single point stays with
    probability 1."""
    n = space.n
    if n == 1:
        return np.array([0, 1]), np.array([0]), np.array([1.0])
    # the unit ball of k is k itself and its unit neighbours
    indptr, cols = mask_rows(space.near(1.0))
    deg = np.diff(indptr) - 1
    if np.any(deg == 0):
        raise ValueError("lazy walk needs every point to have a unit neighbor")
    rows = np.repeat(np.arange(n), deg + 1)
    return indptr, cols, np.where(cols == rows, laziness,
                                  (1.0 - laziness) / deg[rows])


def _walk_matrix(space: FiniteMetricSpace, laziness: float) -> np.ndarray:
    """The dense n x n matrix of _walk_step_rows."""
    indptr, cols, weights = _walk_step_rows(space, laziness)
    mat = np.zeros((space.n, space.n))
    mat[np.repeat(np.arange(space.n), np.diff(indptr)), cols] = weights
    return mat


def _walk_rows_sparse(space: FiniteMetricSpace, steps: int,
                      laziness: float):
    """CSR rows (indptr, cols, weights) of P^steps, kept to the entries >=
    PRUNE_TOL, with P = _walk_step_rows.

    Starting from the identity, each step sets row x to the sum over k of
    row[x, k] * P[k, .]. Entries are tracked as codes x * n + j; every term
    of (x, j) is added left to right in ascending k, from the first term,
    because bincount adds its weights in input order and the terms are laid
    out by (x, k, j).
    """
    n = space.n
    p_ptr, p_cols, p_weights = _walk_step_rows(space, laziness)
    p_lengths = np.diff(p_ptr)
    codes = np.arange(n) * (n + 1)
    weights = np.ones(n)
    for _ in range(steps):
        # rows [a, b) at a time, each block with about _WALK_CHUNK_TERMS terms
        entry_at = np.searchsorted(codes, np.arange(n + 1) * n)
        terms_before = np.zeros(len(codes) + 1, dtype=np.int64)
        np.cumsum(p_lengths[codes % n], out=terms_before[1:])
        row_terms_at = terms_before[entry_at]
        parts = []
        a = 0
        while a < n:
            b = max(a + 1, int(np.searchsorted(
                row_terms_at, row_terms_at[a] + _WALK_CHUNK_TERMS,
                side="right")) - 1)
            lo, hi = entry_at[a], entry_at[b]
            a = b
            _, owner, src = csr_expand(p_ptr, codes[lo:hi] % n)
            terms = weights[lo:hi][owner] * p_weights[src]
            block, at = np.unique(codes[lo:hi][owner] // n * n + p_cols[src],
                                  return_inverse=True)
            parts.append((block, np.bincount(at, weights=terms)))
        codes = np.concatenate([block for block, _ in parts])
        weights = np.concatenate([sums for _, sums in parts])
    # the positive entries a family keeps (values prune below PRUNE_TOL)
    keep = weights >= PRUNE_TOL
    codes = codes[keep]
    return (np.searchsorted(codes, np.arange(n + 1) * n), codes % n,
            weights[keep])


def lazy_walk_family(space: FiniteMetricSpace, steps: int,
                     laziness: float = 0.5) -> ReiterFamily:
    """Row distributions of a lazy random walk after `steps` steps.

    Needs unit-distance graph structure (adjacency = distance 1); support
    after t steps sits inside the t-ball, so S = steps.

    Two kernels compute P^steps. When the widest S-ball (`near(S)`) holds
    at most n / _SPARSE_WALK_SHARE points, the rows stay sparse on that
    pattern (_walk_rows_sparse): each entry is summed over k in ascending
    order, so its bits do not depend on BLAS. Otherwise the rows saturate
    and dense np.linalg.matrix_power, whose summation order is BLAS's, is
    faster. Either way entries below PRUNE_TOL are dropped.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not 0.0 < laziness < 1.0:
        raise ValueError("laziness must sit strictly between 0 and 1")
    widest = int(np.count_nonzero(space.near(steps), axis=1).max())
    if widest * _SPARSE_WALK_SHARE <= space.n:
        indptr, cols, weights = _walk_rows_sparse(space, steps, laziness)
    else:
        mat = np.linalg.matrix_power(_walk_matrix(space, laziness), steps)
        keep = mat >= PRUNE_TOL
        indptr, cols = mask_rows(keep)
        weights = mat[keep]
    return ReiterFamily(space, steps, indptr, cols, weights,
                        name=f"walk[{steps}]")


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


def _pair_index(space: FiniteMetricSpace, r: float):
    """Arrays (i, j) of the pairs i < j with d(i, j) <= r, in
    lexicographic order."""
    i, j = np.divmod(np.flatnonzero(space.near(r)), space.n)
    upper = j > i
    return i[upper], j[upper]


# Bytes of the pair scan's largest temporary, its (pairs x 2 width) term
# array. Small chunks keep the temporaries in cache and below malloc's
# default mmap threshold (128 KiB), so they are reused, not mapped afresh.
_SCAN_CHUNK_BYTES = 1 << 16


def _padded_rows(n: int, indptr, cols, weights):
    """The CSR rows (one per point: columns ascending, their values in
    the same slice of `weights`) as arrays the pair scan can gather from by
    point.

    cols (n, width): row x's columns, padded with n, a column no row holds.
    weights (n, width + 1): row x's values, padded with 0.0; column `width`
    is 0.0 in every row. offsets (n, n + 1): the slot of column k in row x,
    or `width` where row x lacks k (always in column n). Its dtype is the
    smallest unsigned one that holds `width`: uint8 for rows under 256
    entries, the size of a compact `dist`.
    """
    lengths = np.diff(indptr)
    width = max(int(lengths.max()), 1)
    rows = np.repeat(np.arange(n), lengths)
    slot = np.arange(len(rows)) - indptr[rows]
    padded_cols = np.full((n, width), n, dtype=np.int64)
    padded_cols[rows, slot] = cols
    padded_weights = np.zeros((n, width + 1))
    padded_weights[rows, slot] = weights
    offsets = np.full((n, n + 1), width, dtype=np.min_scalar_type(width))
    offsets[rows, cols] = slot
    return padded_cols, padded_weights, offsets


def _pair_variations(cols, weights, offsets, pi, pj) -> np.ndarray:
    """||f(pj[k]) - f(pi[k])||_1 for each k from _padded_rows arrays,
    summed term by term in the order of a dict loop: |a - b| (b = 0.0 where
    row pj lacks the column) over row pi's entries, then |b| over row pj's
    entries that row pi lacks. Padding adds 0.0 terms and the cumulative
    sum adds left to right, so every total is that loop's float."""
    width = cols.shape[1]
    a, bj = weights[pi, :width], weights[pj, :width]
    at = np.take(offsets, pj[:, None] * offsets.shape[1] + cols[pi])
    b = np.take(weights, pj[:, None] * weights.shape[1] + at)
    only_j = np.take(offsets, pi[:, None] * offsets.shape[1] + cols[pj]) == width
    terms = np.empty((len(pi), 2 * width))
    np.abs(a - b, out=terms[:, :width])
    np.abs(np.where(only_j, bj, 0.0), out=terms[:, width:])
    return np.cumsum(terms, axis=1)[:, -1]


def _max_pair_variation(padded, pi, pj):
    """Largest pair variation over the pairs (pi[k], pj[k]) of the rows
    whose _padded_rows are `padded`, and the first pair that attains it,
    scanned in chunks of about _SCAN_CHUNK_BYTES per array; (0.0, (0, 0))
    when there is no pair."""
    if not len(pi):
        return 0.0, (0, 0)
    cols, weights, offsets = padded
    step = max(1, _SCAN_CHUNK_BYTES // (16 * cols.shape[1]))
    best, best_at = -1.0, 0
    for lo in range(0, len(pi), step):
        total = _pair_variations(cols, weights, offsets, pi[lo:lo + step],
                                 pj[lo:lo + step])
        k = int(np.argmax(total))
        if total[k] > best:
            best, best_at = float(total[k]), lo + k
    return best, (int(pi[best_at]), int(pj[best_at]))


def pair_scan(fam: ReiterFamily, r_list, pairs: dict) -> list:
    """(nu, pair) of the family's CSR rows for each R in r_list, as
    _max_pair_variation gives them; pairs caches each R's _pair_index, so
    that the families on one space share them."""
    padded = _padded_rows(fam.space.n, fam.indptr, fam.cols, fam.weights)
    out = []
    for r in r_list:
        if r not in pairs:
            pairs[r] = _pair_index(fam.space, r)
        out.append(_max_pair_variation(padded, *pairs[r]))
    return out


def _one_row_variation(space, hops, s: float, r_list) -> list:
    """(nu, pair) of the ball average at scale s for each R in r_list, on
    a space with a group law, from the distances `hops` to the identity e.

    The law is left-invariant, so the pair (x, y) varies as (e, x^-1 y)
    does, and nu is the largest variation nu_t of the pairs (e, t) with
    0 < d(e, t) <= R. With B = B_s(e), the ball of t is t * B. Every ball
    row holds the single value w = 1.0 / |B|, so the dense scan adds only
    0.0 or w for a pair, left to right, and its total is w added
    k = 2 |B - t * B| times in sequence (a set difference). That sum is
    read here from one cumulative sum of w, never formed as k * w, so nu is
    the dense scan's float bit for bit. Every value is attained by a pair
    from point 0 = e, so the dense scan's first maximising pair is
    (e, least maximising t), and the t are read in ascending order.
    """
    law = space.group
    inside = hops <= space.radius_bound(s)
    ball = np.flatnonzero(inside)
    # sums[k] is w added k times, from sums[0] = 0.0
    sums = np.zeros(2 * len(ball) + 1)
    np.cumsum(np.full(2 * len(ball), 1.0 / len(ball)), out=sums[1:])
    step = max(1, _SCAN_CHUNK_BYTES // (8 * len(ball)))
    out = []
    for r in r_list:
        moves = np.flatnonzero((hops > 0) & (hops <= space.radius_bound(r)))
        if not len(moves):
            out.append((0.0, (0, 0)))
            continue
        shared = np.concatenate([
            np.count_nonzero(inside[law.translate(moves[lo:lo + step, None],
                                                  ball)], axis=1)
            for lo in range(0, len(moves), step)])
        nu = sums[2 * (len(ball) - shared)]
        k = int(np.argmax(nu))
        out.append((float(nu[k]), (law.identity, int(moves[k]))))
    return out


def variation_profile(space: FiniteMetricSpace, schedule, r_list,
                      family=ball_average) -> ProfileTable:
    """nu(S, R) = max over pairs within R of ||f_S(x1) - f_S(x0)||_1.

    The witness pair is the lexicographically first maximizer. Single
    points never vary (nu uses x0 != x1 pairs; none exist for n = 1, giving
    nu = 0). Which path runs depends on the space and the family, and both
    give the same floats and witnesses:
    - the ball average on a space with a group law (`space.group`: the
      cycle and torus families) reads one row from the identity
      (_one_row_variation), in O(n * degree) time and O(n) memory;
    - every other family or space takes the exact O(n^2) scan of all pairs
      within R.
    """
    rows = []
    if space.group is not None and family is ball_average:
        hops = space.hops_from_identity()
        for s in schedule:
            for r, (nu, pair) in zip(r_list, _one_row_variation(
                    space, hops, s, r_list)):
                rows.append(ProfileRow(float(s), float(r), nu, *pair))
        return ProfileTable(rows)
    pairs: dict = {}
    for s in schedule:
        for r, (nu, pair) in zip(r_list, pair_scan(family(space, s), r_list,
                                                   pairs)):
            rows.append(ProfileRow(float(s), float(r), nu, *pair))
    return ProfileTable(rows)


# -- normalization -------------------------------------------------------------

def family_rows(phi: Cochain):
    """CSR rows (indptr, cols, weights) of the values phi((x,), ()) of an
    l1-type (0, -1)-cochain, one row per point x, entries ascending."""
    n = phi.space.n
    points = np.arange(n)
    lengths, _, cols, weights = row_entries(evaluate(phi, points[:, None]),
                                            points)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr, cols, weights


def normalize_to_prob(phi: Cochain, tol: float = UNIT_SUM_TOL) -> ReiterFamily:
    """f(x) = |phi(x)| / ||phi(x)|| for a unit-sum family cochain.

    Since pi(phi(x)) = 1 forces ||phi(x)|| >= 1, the rescaling factor never
    exceeds 1; supports are unchanged (but for masses that fall below
    PRUNE_TOL) and the variation at most doubles:
    ||f(x1) - f(x0)|| <= 2 ||phi(x1) - phi(x0)||. S is the farthest entry
    of phi from its point.
    """
    if phi.p != 0 or phi.q != -1 or phi.module != L1:
        raise ValueError("normalize_to_prob expects an l1 family cochain")
    space = phi.space
    indptr, cols, weights = family_rows(phi)
    totals = csr_row_sums(indptr, weights)
    off = np.abs(totals - 1.0) > tol
    if off.any():
        x = int(np.argmax(off))
        raise ValueError(
            f"pi_sum(phi({space.label(x)})) = {totals[x].item()!r}, expected "
            f"1 within {tol}")
    owner = np.repeat(np.arange(space.n), np.diff(indptr))
    masses = np.abs(weights)
    masses /= csr_row_sums(indptr, masses)[owner]
    keep = masses >= PRUNE_TOL
    return ReiterFamily(space, sup_of(space.dist[owner, cols]),
                        np.searchsorted(owner[keep], np.arange(space.n + 1)),
                        cols[keep], masses[keep],
                        name=f"normalized({phi.name})" if phi.name
                        else "normalized")


# -- convolution ---------------------------------------------------------------

def convolve(f: Cochain, theta: Cochain) -> Cochain:
    """(f * theta)(x, y) = sum_z f(x)(z) theta(z, y).

    f must be an l1-type cochain on the augmentation row (q = -1); theta a
    column cochain (p = 0) with values in any module, which is the module of
    the result. Satisfies D(f*phi) = (Df)*phi, the graded commutation
    d(f*phi) = (-1)**f.p f*(d phi) (on the nose for the p = 0 averaging
    uses; the sign is forced by d's p-dependent signs), and
    ||f*theta||_R <= ||f||_R ||theta||.

    One ragged term reads theta at ((z,), ys) over the entries of f(xs), in
    ascending z: on a face array, f is evaluated once per distinct xs.
    """
    if f.space is not theta.space:
        raise ValueError("convolution operands must share their space")
    if f.q != -1 or f.module not in (L1, L1_ZERO):
        raise ValueError("convolve needs an l1-type row cochain (q = -1) "
                         f"on the left, got q={f.q}, module={f.module}")
    if theta.p != 0:
        raise ValueError("convolve needs a column cochain (p = 0) on the right")
    xlen = f.p + 1

    def on(faces, read):
        first, inverse = distinct(faces[:, :xlen], f.space.n)
        lengths, owner, z, w = row_entries(read(f, faces[first, :xlen]),
                                           inverse)
        return (np.concatenate((z[:, None], faces[owner, xlen:]), axis=1), w,
                lengths)

    name = ""
    if f.name and theta.name:
        name = f"({f.name}*{theta.name})"
    return _combination(f.p, theta.q, [(theta, on)], name)


def homotopy_defect(fam: ReiterFamily, phi: Cochain,
                    budget: int = DEFAULT_AUDIT_BUDGET,
                    sample_size: int = DEFAULT_SAMPLE_SIZE,
                    seed: int = 0) -> tuple[Cochain, Check]:
    """Defect cochain f*phi - phi plus its audited bound check.

    The check bounds ||f*phi - phi|| ("value") by ||f|| ||D phi||_S with
    S = f.s ("bound"), using the coupled sup of ||D phi|| so a sampled
    audit stays sound. telescope_gap is the worst per-entry violation of the
    exact rewriting (f*phi - phi)(x,y) = sum_z f(x)(z) (D phi)((x,z), y),
    which is T_F(D phi) for the pair field F(x) = sum_z f(x)(z) (x, z),
    evaluated on the same audited points. ok says the bound holds and
    telescope_gap <= EXACT_TOL; a failing check is returned, not raised.
    """
    if not fam.is_prob:
        raise ValueError("homotopy defect needs a probability family")
    if phi.p != 0:
        raise ValueError("homotopy defect acts on column cochains (p = 0)")
    defect = cochain_sub(convolve(fam.as_cochain(), phi), phi)
    # T_F(D phi) for the pairs (x, z) of f's entries
    rows = np.repeat(np.arange(fam.space.n), np.diff(fam.indptr))
    telescope = transfer_cochain(
        (fam.indptr, np.stack((rows, fam.cols), axis=1), fam.weights),
        diff_D(phi))
    dphi_sup, telescope_gap = _Sup(), _Sup()

    def defect_norms(faces):
        # also folds these points into dphi_sup and telescope_gap
        dval = evaluate(defect, faces)
        telescope_gap.add(gaps(dval, telescope.fill(faces, dphi_sup)))
        return norms(dval)

    worst, record = _audit(fam.space, 1, phi.q + 1, 0.0, phi.module,
                           defect_norms, budget, sample_size, seed)
    fnorm = fam.sup_norm
    return defect, bound_check(
        "homotopy_defect", worst, fnorm * dphi_sup.value,
        {"S": fam.s, "family_norm": fnorm, "dphi_sup": dphi_sup.value,
         "telescope_gap": telescope_gap.value},
        telescope_gap.value <= EXACT_TOL, **record)


# -- convolution norm bound ------------------------------------------------------

def conv_norm_audit(f: Cochain, theta: Cochain, r: float,
                    budget: int = DEFAULT_AUDIT_BUDGET,
                    sample_size: int = DEFAULT_SAMPLE_SIZE,
                    seed: int = 0) -> Check:
    """Audited ||f*theta||_R <= ||f||_R ||theta|| with coupled theta points:
    the sups fold the f and theta tables the convolution is made from."""
    f_sup, theta_sup = _Sup(), _Sup()

    def f_fill(faces):
        # f's fill, folding each f table the convolution reads
        tab = evaluate(f, faces)
        f_sup(tab)
        return tab

    conv = convolve(Cochain(f.space, f.p, f.q, f.module, f_fill), theta)
    lhs, record = _audit(f.space, f.p + 1, theta.q + 1, r, conv.module,
                         lambda faces: norms(conv.fill(faces, theta_sup)),
                         budget, sample_size, seed)
    return bound_check("norm_bound_conv", lhs, f_sup.value * theta_sup.value,
                       {"R": float(r), "f_sup": f_sup.value,
                        "theta_sup": theta_sup.value}, **record)


# -- pair fields and the transfer identity ----------------------------------------
#
# A pair field F is one row per point of weighted ordered pairs, as CSR rows
# (indptr, pairs, weights) with pairs an (entries, 2) int array; a row keeps
# its pairs in the order they were made.

def pair_boundary(n: int, field):
    """CSR rows (indptr, cols, weights) of the boundary (dH)(w) = sum_z
    H(z, w) - H(w, z) of each row H of a pair field over n points: an l1_0
    value with ||dH|| <= 2||H||. Each pair (z0, z1) of weight h adds h at
    z1, then -h at z0, in the row's order."""
    indptr, pairs, weights = field
    rows = np.repeat(np.arange(len(indptr) - 1), 2 * np.diff(indptr))
    return csr_add(L1_ZERO, len(indptr) - 1, rows, pairs[:, ::-1].ravel(),
                   np.stack((weights, -weights), axis=1).ravel(), n)


def lift_boundary(cols, weights, base: int):
    """Section of pair_boundary at one zero-sum vector h, given as a CSR
    row (cols, weights): the pairs (base, z) of weight h(z) for z != base,
    in h's order, as (pairs, weights). Then dH = h, ||H|| <= ||h|| and
    supp H lies in {base} x supp(h)."""
    drift = csr_row_sums(np.array([0, len(weights)]), weights)[0].item()
    if abs(drift) > ZERO_SUM_TOL:
        raise ValueError(f"lift_boundary needs pi_sum(h) = 0, got {drift!r}")
    keep = cols != base
    return (np.stack((np.full(int(keep.sum()), base), cols[keep]), axis=1),
            weights[keep])


def transfer_cochain(field, zeta: Cochain) -> Cochain:
    """(T_F zeta)(x, y) = sum over pairs F(x)(z0,z1) zeta((z0,z1), y): one
    ragged term reads zeta at (pair, ys) over the row of F(xs[0])."""
    if zeta.p != 1:
        raise ValueError("transfer consumes (1,q)-cochains")
    indptr, pairs, weights = field

    def on(faces, read):
        lengths, owner, src = csr_expand(indptr, faces[:, 0])
        return (np.concatenate((pairs[src], faces[owner, 1:]), axis=1),
                weights[src], lengths)

    return _combination(0, zeta.q, [(zeta, on)], "T_F")


def tf_identity(field, theta: Cochain, radius: float | None = None,
                budget: int = DEFAULT_AUDIT_BUDGET,
                sample_size: int = DEFAULT_SAMPLE_SIZE,
                seed: int = 0) -> Check:
    """Audit (boundary F) * theta = T_F(D theta) for a ball-bounded pair field.

    field is a pair field with one row per point. The supports' ball radius
    is measured (or checked against `radius` when given; escaping supports
    raise with a witness); the T_F norm bound is audited at the measured
    pairwise radius of the supports, which is what the triangle inequality
    actually uses. The "pairing" check bounds sup ||T_F(D theta)||
    ("value") by ||F|| sup ||D theta|| ("bound") and nests the identity's
    audit under "identity"; ok needs both.
    """
    space = theta.space
    indptr, pairs, weights = field
    if len(indptr) != space.n + 1:
        raise ValueError("need exactly one pair row per point")
    if theta.p != 0:
        raise ValueError("tf_identity needs a column cochain (p = 0)")
    rows = np.repeat(np.arange(space.n), np.diff(indptr))
    dist = space.dist
    reach = np.maximum(dist[rows, pairs[:, 0]], dist[rows, pairs[:, 1]])
    if radius is not None:
        out = np.flatnonzero(reach > space.radius_bound(radius))
        if len(out):
            x, (z0, z1) = rows[out[0]].item(), pairs[out[0]].tolist()
            raise ValueError(
                f"support of F({space.label(x)}) escapes the "
                f"{radius}-ball at pair ({space.label(z0)}, "
                f"{space.label(z1)})")
    boundary = Cochain(space, 0, -1, L1_ZERO,
                       rows_fill(L1_ZERO, space.n,
                                 *pair_boundary(space.n, field)), name="dF")
    lhs = convolve(boundary, theta)
    zeta = diff_D(theta)
    rhs = transfer_cochain(field, zeta)
    zeta_sup, lhs_sup = _Sup(), _Sup()

    def identity_gaps(faces):
        # the audit_equal of lhs and rhs, folding ||rhs|| and every
        # ||zeta(pair, ys)|| that rhs weighs into lhs_sup and zeta_sup
        right = rhs.fill(faces, zeta_sup)
        lhs_sup(right)
        return gaps(evaluate(lhs, faces), right)

    worst, record = _audit(space, 1, theta.q + 1, 0.0, theta.module,
                           identity_gaps, budget, sample_size, seed)
    identity = identity_check("pairing", lhs.p, lhs.q, 0.0, worst, EXACT_TOL,
                              **record)
    f_sup = sup_of(csr_row_sums(indptr, np.abs(weights)))
    return bound_check("pairing", lhs_sup.value, f_sup * zeta_sup.value,
                       {"identity": identity, "f_sup": f_sup,
                        "zeta_sup": zeta_sup.value, "r_ball": sup_of(reach),
                        "r_pair": sup_of(dist[pairs[:, 0], pairs[:, 1]])},
                       identity.ok)
