"""Reiter-style averaging: probability families on balls, their variation
profiles, convolution against cochains, homotopy defects, and the
pair-field transfer identity.

Families and pair fields are CSR rows, one row per point. The convolution,
the transfer and the defect's telescope are each one ragged term of
cochains._combination, which reads its entries off CSR rows or an f table.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial

import numpy as np

from .coefficients import L1, L1_ZERO, PRUNE_TOL, ZERO_SUM_TOL
from .cochains import (DEFAULT_AUDIT_BUDGET, DEFAULT_SAMPLE_SIZE, EXACT_TOL,
                       Check, Cochain, _audit, _combination, _Sup,
                       bound_check, cochain_sub, diff_D, identity_check)
from .facetables import (csr_add, csr_expand, csr_row_sums, distinct,
                         evaluate, gaps, norms, row_entries, rows_fill,
                         sup_of)
from .space import FiniteMetricSpace

PROB_SUM_TOL = 1e-12
UNIT_SUM_TOL = 1e-9


def _prob_sum_tol(lengths) -> np.ndarray:
    """How far a probability row of each length may sum from 1: its
    rounding, 4 eps per entry added left to right, plus PRUNE_TOL per
    entry for the masses a walk row drops, and never below PROB_SUM_TOL.
    A uniform ball row of 36,376 entries misses 1 by -1.008e-12; rows under
    about 500 entries keep PROB_SUM_TOL."""
    lengths = np.asarray(lengths, dtype=float)
    return np.maximum(PROB_SUM_TOL,
                      lengths * (4 * np.finfo(float).eps + PRUNE_TOL))


class ReiterFamily:
    """One probability (or near-probability) vector per point, as CSR rows.

    f(x) has support `cols[indptr[x]:indptr[x + 1]]`, strictly ascending,
    and masses in the same slice of `weights`; every mass is finite.

    is_prob certifies: entries nonnegative, support of f(x) inside the
    closed S-ball of x, and entry sums, added left to right, within
    _prob_sum_tol of the row's length from 1. A family built by
    ReiterFamily is checked at construction (validate), so downstream
    bounds may rely on the flag. The ball averages and lazy walks are not
    checked (_from_balls): their rows are the space's own ball rows
    (rows_within), and their masses are nonnegative, so they hold no
    escape by construction. Their sums are 1 up to the rounding the
    tolerance allows: a ball row adds 1/|B| to itself |B| times (it
    misses 1 by -1.008e-12 at |B| = 36,376, past a flat 1e-12), and a walk
    row drops the masses below PRUNE_TOL.
    """

    def __init__(self, space: FiniteMetricSpace, s: float, indptr, cols,
                 weights, is_prob: bool = True, name: str = ""):
        self._set(space, s, indptr, cols, weights, is_prob, name)
        self.validate()

    @classmethod
    def _from_balls(cls, space: FiniteMetricSpace, s: float, indptr, cols,
                    weights, name: str) -> "ReiterFamily":
        """A probability family on the space's own s-ball rows, not
        validated: its rows are members of the s-balls in ascending order,
        with nonnegative weights that sum to 1 up to rounding (a ball's
        uniform mass, or a walk's), so validate would read the distances
        only to find nothing."""
        fam = cls.__new__(cls)
        fam._set(space, s, indptr, cols, weights, True, name)
        return fam

    def _set(self, space, s, indptr, cols, weights, is_prob, name) -> None:
        self.space = space
        self.s = float(s)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=float)
        self.is_prob = bool(is_prob)
        self.name = name

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
            bad |= ~(np.abs(sums - 1.0) <= _prob_sum_tol(np.diff(indptr)))
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


def _ball_scale(s: float) -> float:
    """s, a ball radius, once it is >= 0."""
    if not s >= 0:
        raise ValueError(f"ball_average needs a scale s >= 0, got {s!r}")
    return s


def ball_average(space: FiniteMetricSpace, s: float) -> ReiterFamily:
    """Uniform probability on the closed s-ball of each point, s >= 0:
    the rows of space.rows_within(s), so the family is not validated."""
    indptr, cols = space.rows_within(_ball_scale(s))[:2]
    sizes = np.diff(indptr)
    return ReiterFamily._from_balls(space, s, indptr, cols,
                                    np.repeat(1.0 / sizes, sizes),
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
    """One step of the lazy walk on the space as CSR rows (indptr, cols,
    weights): stay with probability `laziness`, else move to a uniform
    unit neighbour. Row k holds `laziness` at k and fl((1 - laziness) /
    deg k) at each unit neighbour, in ascending column order; a single
    point stays with probability 1."""
    n = space.n
    if n == 1:
        return np.array([0, 1]), np.array([0]), np.array([1.0])
    # the unit ball of k is k itself and its unit neighbours
    indptr, cols = space.rows_within(1.0)[:2]
    deg = np.diff(indptr) - 1
    if np.any(deg == 0):
        raise ValueError("lazy walk needs every point to have a unit neighbor")
    rows = np.repeat(np.arange(n), deg + 1)
    return indptr, cols, np.where(cols == rows, laziness,
                                  (1.0 - laziness) / deg[rows])


def _walk_matrix(space: FiniteMetricSpace, laziness: float) -> np.ndarray:
    """The dense n x n matrix of _walk_step_rows."""
    n = space.n
    indptr, cols, weights = _walk_step_rows(space, laziness)
    mat = np.zeros((n, n))
    mat[np.repeat(np.arange(n), np.diff(indptr)), cols] = weights
    return mat


class _WalkPowers:
    """P^t of the lazy walk for t = 0, 1, 2, ..., with P the CSR rows
    `step` of _walk_step_rows, as unpruned entries: codes x * n + j in
    ascending order and their weights. Asking for a larger t carries on
    from the power in hand; a smaller one starts again from the identity.

    Each step sets row x to the sum over k of row[x, k] * P[k, .]; every
    term of (x, j) is added left to right in ascending k, from the first
    term, because bincount adds its weights in input order and the terms
    are laid out by (x, k, j). So a power's bits do not depend on the
    powers it was carried through.
    """

    def __init__(self, n: int, step):
        self.n, self.step = n, step
        self._restart()

    def _restart(self) -> None:
        self.t = 0
        self.codes = np.arange(self.n) * (self.n + 1)
        self.weights = np.ones(self.n)

    def _advance(self) -> None:
        n, codes, weights = self.n, self.codes, self.weights
        p_ptr, p_cols, p_weights = self.step
        # rows [a, b) at a time, each block with about _WALK_CHUNK_TERMS terms
        entry_at = np.searchsorted(codes, np.arange(n + 1) * n)
        terms_before = np.zeros(len(codes) + 1, dtype=np.int64)
        np.cumsum(np.diff(p_ptr)[codes % n], out=terms_before[1:])
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
        self.codes = np.concatenate([block for block, _ in parts])
        self.weights = np.concatenate([sums for _, sums in parts])
        self.t += 1

    def rows(self, steps: int):
        """CSR rows (indptr, cols, weights) of P^steps, kept to the entries
        >= PRUNE_TOL."""
        if steps < self.t:
            self._restart()
        while self.t < steps:
            self._advance()
        # the positive entries a family keeps (values prune below PRUNE_TOL)
        keep = self.weights >= PRUNE_TOL
        codes = self.codes[keep]
        return (np.searchsorted(codes, np.arange(self.n + 1) * self.n),
                codes % self.n, self.weights[keep])


# space -> (laziness, _WalkPowers) of the latest sparse walk on it, so that
# walks of increasing steps each take only the steps since the last; an
# entry goes with its space.
_WALKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def lazy_walk_family(space: FiniteMetricSpace, steps: int,
                     laziness: float = 0.5) -> ReiterFamily:
    """Row distributions of a lazy random walk after `steps` steps.

    Needs unit-distance graph structure (adjacency = distance 1); support
    after t steps sits inside the t-ball, so S = steps.

    Two kernels compute P^steps. When the widest S-ball holds at most
    n / _SPARSE_WALK_SHARE points, the rows stay sparse on that pattern
    (_WalkPowers): each entry is summed over k in ascending order, so its
    bits do not depend on BLAS. Otherwise the rows saturate and dense
    np.linalg.matrix_power, whose summation order is BLAS's, is faster.
    Either way entries below PRUNE_TOL are dropped.

    The unit rows and the S-ball sizes are the space's rows_within, so the
    family is not validated. The sparse powers of the latest laziness are
    kept for the space (_WALKS) and carried from one call to the next.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not float(steps).is_integer():
        raise ValueError(f"steps must be a whole number, got {steps!r}")
    if not 0.0 < laziness < 1.0:
        raise ValueError("laziness must sit strictly between 0 and 1")
    steps = int(steps)
    widest = int(np.diff(space.rows_within(steps)[0]).max())
    if widest * _SPARSE_WALK_SHARE <= space.n:
        kept = _WALKS.get(space)
        if kept is None or kept[0] != laziness:
            kept = _WALKS[space] = laziness, _WalkPowers(
                space.n, _walk_step_rows(space, laziness))
        indptr, cols, weights = kept[1].rows(steps)
    else:
        mat = np.linalg.matrix_power(_walk_matrix(space, laziness), steps)
        rows, cols = np.nonzero(mat >= PRUNE_TOL)
        indptr = np.searchsorted(rows, np.arange(space.n + 1))
        weights = mat[rows, cols]
    return ReiterFamily._from_balls(space, steps, indptr, cols, weights,
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


# Bytes of the pair scan's largest temporaries: the float scan's (pairs x
# 2 width) term array, the shared counts' (pairs x width) cell indices.
# Small chunks keep the temporaries in cache and below malloc's default
# mmap threshold (128 KiB), so they are reused, not mapped afresh.
_SCAN_CHUNK_BYTES = 1 << 16
# Bytes of a _SlotTable: it holds the cells of as many rows as fit (at
# least one), so its memory follows this budget, not n^2.
_SLOT_BLOCK_BYTES = 1 << 20


class _SlotTable:
    """The slot of column k in row x, plus one, or 0 where row x lacks k,
    for a block of consecutive rows x = first, first + 1, ... of one
    family at a time: a flat array of `rows` rows of n + 1 cells, read at
    (x - first) * (n + 1) + k. Column n, the padding column of
    _padded_rows, is 0.

    A profile keeps one table for all its families: `fill` writes the
    cells of a block of a family's padded rows and `clear` sets exactly
    those back to 0, so no block pays a fill of the whole table. The dtype
    is the smallest unsigned one that holds the widest row yet (uint8 for
    rows under 256 entries); a wider row replaces it with a zero table,
    and the table holds as many rows as fit in _SLOT_BLOCK_BYTES.
    """

    def __init__(self, n: int):
        self.n = n
        self.cells = None
        self._block = None

    def rows(self, width: int) -> int:
        """Make the table hold the slots of padded rows `width` slots wide
        and return how many rows one block holds."""
        n = self.n
        dtype = np.min_scalar_type(width)
        if self.cells is None or dtype.itemsize > self.cells.itemsize:
            self.cells = None
            rows = max(1, _SLOT_BLOCK_BYTES // ((n + 1) * dtype.itemsize))
            self.cells = np.zeros(min(rows, n) * (n + 1), dtype=dtype)
        return len(self.cells) // (n + 1)

    def _write(self, values) -> None:
        # the cells of the block's padded rows, a few rows at a time
        cols, stride = self._block, self.n + 1
        step = max(1, _SCAN_CHUNK_BYTES // (8 * cols.shape[1]))
        for lo in range(0, len(cols), step):
            hi = min(lo + step, len(cols))
            self.cells[np.arange(lo * stride, hi * stride, stride)[:, None]
                       + cols[lo:hi]] = values

    def fill(self, cols) -> np.ndarray:
        """Write the cells of the block of padded rows `cols` of
        _padded_rows, at most `rows` of them, the first at cell 0."""
        n = self.n
        self._block = cols
        # every slot of a row names its column; the padding slots all name
        # column n, which is then set back to 0
        self._write(np.arange(1, cols.shape[1] + 1, dtype=self.cells.dtype))
        self.cells[n:len(cols) * (n + 1):n + 1] = 0
        return self.cells

    def clear(self) -> None:
        """Set the cells of the last `fill` back to 0."""
        self._write(0)
        self._block = None


def _padded_rows(n: int, indptr, cols, weights=None):
    """The CSR rows (one per point: columns ascending, their values in
    the same slice of `weights`) as arrays the pair scan can gather from by
    point.

    cols (n, width): row x's columns, padded with n, a column no row holds,
    in the smallest unsigned dtype that holds n. weights (n, width + 1),
    None when no weights are given: column 0 is 0.0 in every row, and row
    x's values sit in columns 1 to its length, padded with 0.0; so a
    _SlotTable cell, 0 where the row lacks the column, is the column of
    the row's value.
    """
    lengths = np.diff(indptr)
    width = max(int(lengths.max()), 1)
    # the slots that hold an entry, in CSR order when read row by row
    filled = np.arange(width) < lengths[:, None]
    padded_cols = np.full((n, width), n, dtype=np.min_scalar_type(n))
    padded_cols[filled] = cols
    if weights is None:
        return padded_cols, None
    padded_weights = np.zeros((n, width + 1))
    padded_weights[:, 1:][filled] = weights
    return padded_cols, padded_weights


def _pair_variations(cols, weights, cells, first, pi, pj) -> np.ndarray:
    """||f(pj[k]) - f(pi[k])||_1 for each k from _padded_rows arrays and
    the _SlotTable cells of a block of rows from `first` that holds every
    row pi[k], summed term by term in the order of a dict loop: |a - b|
    (b = 0.0 where row pj lacks the column) over row pi's entries, then |b|
    over row pj's entries that row pi lacks. Padding adds 0.0 terms and the
    cumulative sum adds left to right, so every total is that loop's
    float."""
    n, width = cols.shape
    bj = weights[pj, 1:]
    # the slot + 1 in row pi of each of row pj's columns, 0 where row pi
    # lacks it
    at = np.take(cells, (pi - first)[:, None] * (n + 1) + cols[pj])
    # row pj's value in each slot of row pi, 0.0 where row pj lacks its
    # column: one scatter, whose column 0 takes the columns row pi lacks
    b = np.zeros((len(pi), width + 1))
    b.reshape(-1)[np.arange(0, b.size, width + 1)[:, None] + at] = bj
    terms = np.empty((len(pi), 2 * width))
    np.abs(weights[pi, 1:] - b[:, 1:], out=terms[:, :width])
    np.abs(np.where(at == 0, bj, 0.0), out=terms[:, width:])
    return np.cumsum(terms, axis=1)[:, -1]


def _pair_totals(cols, weights, cells, first, pi, pj) -> np.ndarray:
    """The pair variation of every pair (pi[k], pj[k]) by the float scan
    of _pair_variations, with cells the block of rows from `first`,
    computed in chunks of about _SCAN_CHUNK_BYTES per array."""
    step = max(1, _SCAN_CHUNK_BYTES // (16 * cols.shape[1]))
    total = np.empty(len(pi))
    for lo in range(0, len(pi), step):
        total[lo:lo + step] = _pair_variations(
            cols, weights, cells, first, pi[lo:lo + step], pj[lo:lo + step])
    return total


def _shared_counts(cols, cells, first, pi, pj) -> np.ndarray:
    """The columns rows pi[k] and pj[k] share, for _padded_rows columns
    and the _SlotTable cells of a block of rows from `first` that holds
    every row pi[k]: one take and one test per slot of row pj, in chunks
    of about _SCAN_CHUNK_BYTES of cell indices."""
    n, width = cols.shape
    step = max(1, _SCAN_CHUNK_BYTES // (8 * width))
    shared = np.empty(len(pi), dtype=np.int64)
    for lo in range(0, len(pi), step):
        shared[lo:lo + step] = np.count_nonzero(np.take(
            cells, (pi[lo:lo + step, None] - first) * (n + 1)
            + cols[pj[lo:lo + step]]), axis=1)
    return shared


def _by_blocks(cols, pi, pj, slots: _SlotTable, scan, dtype) -> np.ndarray:
    """scan(cells, first, pi, pj) of every pair (pi[k], pj[k]) of the rows
    whose _padded_rows columns are `cols`, with the pairs in any order:
    the rows pi go through `slots` a block at a time, from row `first`.
    Once pi ascends, the pairs of a block are a slice; the block's cells
    are written, read by the scan of its pairs and cleared, and a block
    with no pair is skipped. Each result is put back at its own pair."""
    if (np.diff(pi) < 0).any():
        order = np.argsort(pi, kind="stable")
        out = np.empty(len(pi), dtype)
        out[order] = _by_blocks(cols, pi[order], pj[order], slots, scan, dtype)
        return out
    n = len(cols)
    rows = slots.rows(cols.shape[1])
    firsts = np.arange(0, n + rows, rows)
    at = np.searchsorted(pi, firsts).tolist()
    out = np.empty(len(pi), dtype)
    for k, first in enumerate(firsts[:-1].tolist()):
        lo, hi = at[k:k + 2]
        if lo < hi:
            cells = slots.fill(cols[first:first + rows])
            out[lo:hi] = scan(cells, first, pi[lo:hi], pj[lo:hi])
            slots.clear()
    return out


def _scan_totals(fam: ReiterFamily, pi, pj, slots: _SlotTable) -> np.ndarray:
    """The pair variation of every pair (pi[k], pj[k]) of the family's
    rows, in any order, the float of the dict loop (_pair_totals)."""
    cols, weights = _padded_rows(fam.space.n, fam.indptr, fam.cols,
                                 fam.weights)
    return _by_blocks(cols, pi, pj, slots,
                      partial(_pair_totals, cols, weights), float)


def _ball_nu(larger, shared) -> np.ndarray:
    """The variation ||1_A / a - 1_B / b||_1 of the uniform rows of balls
    A and B with a = |A| <= b = |B| (`larger`) and c = |A & B| (`shared`):
    (a - c) / a + (b - c) / b + c (1 / a - 1 / b) = 2 (1 - c / b). As
    2.0 * ((b - c) / b) it is the correctly rounded float of that
    rational: b - c and b are whole numbers, exact as floats, the division
    rounds once, and doubling is exact."""
    return 2.0 * ((larger - shared) / larger)


def _ball_variations(space: FiniteMetricSpace, s: float, pi, pj,
                     slots: _SlotTable) -> np.ndarray:
    """The variation of the ball average at scale s over every pair
    (pi[k], pj[k]), pi ascending, from the shared columns of the two ball
    rows (_shared_counts), by _ball_nu."""
    indptr, cols = space.rows_within(_ball_scale(s))[:2]
    sizes = np.diff(indptr)
    cols = _padded_rows(space.n, indptr, cols)[0]
    shared = _by_blocks(cols, pi, pj, slots, partial(_shared_counts, cols),
                        np.int64)
    return _ball_nu(np.maximum(sizes[pi], sizes[pj]), shared)


def _sups(space: FiniteMetricSpace, r_list, values, pi, pj, pd) -> list:
    """(nu, pair) for each R in r_list: the largest of the `values` (all
    >= 0) of the pairs (pi[k], pj[k]) with pd[k] = d(pi[k], pj[k]) within
    R and the first pair that attains it, (0.0, (0, 0)) when there is no
    pair."""
    out = []
    for r in r_list:
        inside = pd <= space.radius_bound(r)
        if not inside.any():
            out.append((0.0, (0, 0)))
            continue
        # variations are >= 0, so -1.0 never wins; argmax takes the first
        k = int(np.argmax(np.where(inside, values, -1.0)))
        out.append((float(values[k]), (int(pi[k]), int(pj[k]))))
    return out


def _ball_pairs(space: FiniteMetricSpace, r: float):
    """Arrays (i, j, d(i, j)) of the pairs i < j within r, in
    lexicographic order, off space.rows_within(r)."""
    indptr, cols, dists = space.rows_within(r)
    rows = np.repeat(np.arange(space.n), np.diff(indptr))
    upper = np.flatnonzero(cols > rows)
    return rows[upper], cols[upper].astype(np.int64), dists[upper]


def pair_scan(fam: ReiterFamily, r_list, pairs=None) -> list:
    """(nu, pair) of the family's CSR rows for each R in r_list: the
    largest pair variation over the pairs within R and the first pair that
    attains it, (0.0, (0, 0)) when there is no pair. `pairs` are arrays
    (i, j, d(i, j)) of the pairs within a radius >= every R, in any order
    (those of _ball_pairs when None), so that each pair's variation is
    computed once and each R reads its own; "first" is in their order.

    Every family, a ball average too, takes the float scan: each pair's
    variation is the float of a dict loop over its entries. The ball
    profiles of variation_profile are read exactly instead (_ball_nu)."""
    if pairs is None:
        pairs = _ball_pairs(fam.space, max(r_list, default=0.0))
    pi, pj, pd = pairs
    return _sups(fam.space, r_list, _scan_totals(
        fam, pi, pj, _SlotTable(fam.space.n)), pi, pj, pd)


def _one_row_variation(space, hops, s: float, r_list) -> list:
    """(nu, pair) of the ball average at scale s for each R in r_list, on
    a space with a group law, from the distances `hops` to the identity e.

    The law is left-invariant, so the pair (x, y) varies as (e, x^-1 y)
    does, and nu is the largest variation of the pairs (e, t) with
    0 < d(e, t) <= R. With B = B_s(e), the ball of t is t * B, of the
    same size, so the variation is _ball_nu of b = |B| and the c points of
    t * B inside B: the exact rational's float, as the general scan reads
    it. Every value is attained by a pair from point 0 = e, so the first
    maximising pair of the general scan is (e, least maximising t), and
    the t are read in ascending order.
    """
    law = space.group
    inside = hops <= space.radius_bound(_ball_scale(s))
    ball = np.flatnonzero(inside)
    moves = np.flatnonzero((hops > 0) & (
        hops <= space.radius_bound(max(r_list, default=0.0))))
    step = max(1, _SCAN_CHUNK_BYTES // (8 * len(ball)))
    shared = np.empty(len(moves), dtype=np.int64)
    for lo in range(0, len(moves), step):
        shared[lo:lo + step] = np.count_nonzero(
            inside[law.translate(moves[lo:lo + step, None], ball)], axis=1)
    return _sups(space, r_list, _ball_nu(len(ball), shared),
                 np.full(len(moves), law.identity), moves, hops[moves])


def variation_profile(space: FiniteMetricSpace, schedule, r_list,
                      family=ball_average) -> ProfileTable:
    """nu(S, R) = max over pairs within R of ||f_S(x1) - f_S(x0)||_1.

    The witness pair is the lexicographically first maximizer. Single
    points never vary (nu uses x0 != x1 pairs; none exist for n = 1, giving
    nu = 0). Which path runs depends on the space and the family:
    - the ball average on a space with a group law (`space.group`: the
      cycle and torus families) reads one row from the identity
      (_one_row_variation), in O(n * degree) time and O(n) memory;
    - the ball average on any other space counts the columns that the
      two balls of every pair within R share (_ball_variations);
    - every other family takes pair_scan's float scan of every pair
      within R, each pair's variation the float of a dict loop.
    A ball pair's variation is 2 ((b - c) / b), with b the larger ball's
    size and c the points the two balls share (_ball_nu): the correctly
    rounded float of that rational, whatever the point labels. Two
    different rationals of denominators <= n differ by at least 1 / n^2,
    so for n < 2^26 their floats differ too, and the first maximiser of
    the floats is the first exact maximiser.
    The last two read the distances once, as the space's rows_within of
    the widest radius, max(schedule, R list), which the space keeps: the
    pairs within the largest R are a filter of them, and so are the ball
    rows and the rows of lazy_walk_family. Each S's pair variations are
    computed once over those pairs, each R reading its sup and first
    witness off them (_sups); a family other than the ball average is
    family(space, S), which lives only through its scan. The scans of a
    profile share one _SlotTable of about _SLOT_BLOCK_BYTES, which each
    writes and clears a block of rows at a time (_by_blocks). A graph
    space's rows come from its packed ball growth (space._ball_rows),
    which reads no n x n matrix but still holds a few packed arrays of
    n^2 / 8 bytes while the balls grow.
    """
    if space.group is not None and family is ball_average:
        hops = space.hops_from_identity()

        def scan(s):
            return _one_row_variation(space, hops, s, r_list)
    else:
        r_max = max(r_list, default=0.0)
        # every smaller radius read below is a filter of these rows
        space.rows_within(max([r_max, *schedule]))
        pi, pj, pd = _ball_pairs(space, r_max)
        slots = _SlotTable(space.n)

        def scan(s):
            values = (_ball_variations(space, s, pi, pj, slots)
                      if family is ball_average else
                      _scan_totals(family(space, s), pi, pj, slots))
            return _sups(space, r_list, values, pi, pj, pd)
    return ProfileTable([ProfileRow(float(s), float(r), nu, *pair)
                         for s in schedule
                         for r, (nu, pair) in zip(r_list, scan(s))])


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
