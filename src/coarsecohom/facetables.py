"""Face tables: the values of a cochain on a whole array of faces at once.

A face is one (xs, ys) argument of a cochain, stored as a row of point
indices: the p+1 x-coordinates, then the q+1 y-coordinates. A `Table` holds
one value per face in `vals` (faces x width): width n for l1/l1_0, where
column k is the entry at point k (0.0 where absent), and width 1 for
scalars, so the module is a column count rather than a branch. A row lists
its entries in ascending point order, and every sum over a value (a norm,
the zero-sum check) adds them in that order. Norms are only read as sups:
the rows that can reach the sup are added along the row from left to
right, and the other rows are only bounded (see norms). Families, pair
fields and single vectors are CSR rows (indptr, items, weights) instead;
csr_add builds them from entries added one at a time.

A derived cochain (D, d, s, sums, scalings, convolutions, transfers) makes
its table with one engine, `linear`, from its operands' tables on the
distinct faces it needs, listed in code (lexicographic) order: a signed
gather added term by term in face order. A term reads one operand face per
face, or, ragged, a run of them per face. After every operator the l1
entries below PRUNE_TOL are dropped and every l1_0 value passes the
zero-sum check; scalars are never pruned. One value of a cochain is its
table (`Cochain.fill`) on a one-row face array.

The layout is private to this module: other modules build tables with its
constructors and operators and read them through norms, gaps, row_entries
and sup_scan, never through `vals` or a width.
"""

from __future__ import annotations

import bisect
import math
import weakref

import numpy as np

from .coefficients import L1_ZERO, PRUNE_TOL, SCALAR, ZERO_SUM_TOL

# Bytes of the largest operand value table one step gathers from. Work is
# split over the faces to stay near it, which bounds memory.
_TABLE_CHUNK_BYTES = 1 << 18

# Arrays of at least this many bytes are table buffers, served from the
# free list (see table_buffer), which holds at most _POOL_BYTES.
_POOLED_MIN_BYTES = _TABLE_CHUNK_BYTES // 4
_POOL_BYTES = 8 * _TABLE_CHUNK_BYTES


# -- table buffers: a bounded free list ---------------------------------------------
#
# A table above malloc's mmap threshold is mapped afresh and faulted in page
# by page each time it is made, and an audit makes thousands of them. So
# table-sized float arrays come from a free list of the buffers of tables
# that died (the object cache of Bonwick, "The Slab Allocator", USENIX
# Summer 1994). A table is a view of np.frombuffer(memoryview(buf)): numpy
# stops collapsing a view's base at that array, since its own base is not
# an array, so every slice and reshape of the table keeps it alive, and
# its finalizer puts buf back only when the last of them dies.

class _FreeList:
    """Buffers (1-D float64 arrays) of dead tables, smallest first, holding
    at most _POOL_BYTES; misses counts the requests none of them served."""

    def __init__(self):
        self.buffers: list = []
        self.nbytes = 0
        self.misses = 0

    def take(self, count: int, zero: bool) -> np.ndarray:
        """A 1-D array of count floats over the smallest free buffer that
        holds them, or over a new one; its buffer comes back when it dies."""
        k = bisect.bisect_left(self.buffers, count, key=len)
        fresh = k == len(self.buffers)
        if fresh:
            self.misses += 1
            buf = np.zeros(count) if zero else np.empty(count)
        else:
            buf = self.buffers.pop(k)
            self.nbytes -= buf.nbytes
        flat = np.frombuffer(memoryview(buf), count=count)
        if zero and not fresh:
            flat.fill(0.0)
        weakref.finalize(flat, self.give, buf).atexit = False
        return flat

    def give(self, buf: np.ndarray) -> None:
        """Keep a dead table's buffer, then drop the smallest buffers kept
        until they fit in _POOL_BYTES."""
        bisect.insort(self.buffers, buf, key=len)
        self.nbytes += buf.nbytes
        while self.nbytes > _POOL_BYTES:
            self.nbytes -= self.buffers.pop(0).nbytes


_free = _FreeList()


def table_buffer(shape, zero: bool = False) -> np.ndarray:
    """A float64 array of the given shape, all 0.0 if zero, else with any
    contents. Table-sized ones come from the free list."""
    count = math.prod(shape)
    if 8 * count < _POOLED_MIN_BYTES:
        return np.zeros(shape) if zero else np.empty(shape)
    return _free.take(count, zero).reshape(shape)


class Table:
    """Values of one cochain of the given module on a list of faces (see
    the module docstring)."""

    __slots__ = ("module", "vals")

    def __init__(self, module: str, vals: np.ndarray):
        self.module = module
        self.vals = vals


def width_of(module: str, n: int) -> int:
    return 1 if module == SCALAR else n


def empty(module: str, n: int, m: int) -> Table:
    """m values with no entries (scalars 0.0)."""
    return Table(module, np.zeros((m, width_of(module, n))))


def distinct(faces: np.ndarray, n: int):
    """(first, inverse) for an array of faces over n points: a row of each
    distinct face, the faces in code (lexicographic) order, and for each
    face the index of its distinct face in that list."""
    m, k = faces.shape
    if m == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if float(n) ** k < 2.0 ** 62:
        codes = faces[:, 0].copy()
        for j in range(1, k):
            codes *= n
            codes += faces[:, j]
    else:
        codes = np.unique(faces, axis=0, return_inverse=True)[1].ravel()
    order = np.argsort(codes)
    ordered = codes[order]
    new = np.empty(m, dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    inverse = np.empty(m, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def evaluate(cochain, faces: np.ndarray) -> Table:
    """The table of `cochain` on `faces`."""
    return cochain.fill(faces)


def csr_expand(indptr: np.ndarray, rows: np.ndarray):
    """The CSR rows rows[0], rows[1], ... laid end to end: (lengths, owner,
    src) give each row's length, and for each entry the i of its row
    rows[i] and its index in the CSR arrays."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    owner = np.repeat(np.arange(len(rows)), lengths)
    pos = np.arange(len(owner)) - np.repeat(np.cumsum(lengths) - lengths,
                                            lengths)
    return lengths, owner, starts[owner] + pos


def csr_table(module: str, n: int, indptr, cols, weights, rows) -> Table:
    """Table whose i-th value is CSR row rows[i]."""
    _, at, src = csr_expand(indptr, rows)
    vals = table_buffer((len(rows), n), zero=True)
    vals[at, cols[src]] = weights[src]
    return Table(module, vals)


def rows_fill(module: str, n: int, indptr, cols, weights):
    """Fill of a cochain whose value at (xs, ys) is CSR row xs[0]."""
    return lambda faces: csr_table(module, n, indptr, cols, weights,
                                   faces[:, 0])


def csr_add(module: str, m: int, rows, keys, values, width: int,
            ascending: bool = True):
    """CSR rows (indptr, keys, sums) of m values made by adding each
    values[k] at key keys[k] (0 <= key < width) of value rows[k], one after
    another in the order given, as acc[key] = acc.get(key, 0.0) + value
    adds them. A row lists its keys in ascending order, or in the order
    they first appear; sums below PRUNE_TOL are dropped, and l1_0 rows must
    sum to 0 in that order."""
    codes = (np.asarray(rows, dtype=np.int64) * width
             + np.asarray(keys, dtype=np.int64))
    codes, first, inverse = np.unique(codes, return_index=True,
                                      return_inverse=True)
    sums = np.zeros(len(codes))
    np.add.at(sums, inverse, values)
    keep = np.flatnonzero((sums >= PRUNE_TOL) | (sums <= -PRUNE_TOL))
    if not ascending:
        keep = keep[np.lexsort((first[keep], codes[keep] // width))]
    owner, keys = np.divmod(codes[keep], width)
    indptr = np.searchsorted(owner, np.arange(m + 1))
    if module == L1_ZERO:
        _check_sums(csr_row_sums(indptr, sums[keep]))
    return indptr, keys, sums[keep]


def csr_row_sums(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum of each CSR row, added left to right like a Python loop over the
    row."""
    lengths = np.diff(indptr)
    total = np.zeros(len(lengths))
    for c in range(int(lengths.max(initial=0))):
        live = np.flatnonzero(lengths > c)
        total[live] += values[indptr[live] + c]
    return total


def scatter(module: str, n: int, m: int, rows, cols, values) -> Table:
    """The finished table of m values made by adding each values[k] to
    entry cols[k] of value rows[k], one term after another in the order
    given (cols are 0 for scalars); rows and cols broadcast to the shape
    of the values array."""
    width = width_of(module, n)
    cells = np.add(rows * width, cols,
                   out=np.empty(values.shape, dtype=np.int64))
    vals = table_buffer((m, width), zero=True)
    # np.add.at adds sequentially, so each cell adds its terms in order
    np.add.at(vals.reshape(-1), cells.ravel(), values.ravel())
    return finish(module, vals)


def dirac_diff_table(n: int, a: np.ndarray, b: np.ndarray) -> Table:
    """delta_a - delta_b per face (no entries where a == b)."""
    live = np.flatnonzero(a != b)
    vals = table_buffer((len(a), n), zero=True)
    vals[live, a[live]] = 1.0
    vals[live, b[live]] = -1.0
    return Table(L1_ZERO, vals)


# -- finishing a value: prune, zero-sum check ------------------------------------

def finish(module: str, vals: np.ndarray,
           scratch: np.ndarray | None = None) -> Table:
    """The table of freshly summed values, as every value is kept: l1
    entries below PRUNE_TOL dropped, l1_0 sums checked. scratch, if given,
    is a spare array of vals' shape for the check to use."""
    if module == SCALAR:
        vals += 0.0             # -0.0 becomes 0.0, as in a sum from 0.0
        return Table(module, vals)
    # drop every entry that is not |v| >= PRUNE_TOL, NaN too, without a
    # table of |v|
    keep = vals >= PRUNE_TOL
    keep |= vals <= -PRUNE_TOL
    np.putmask(vals, np.logical_not(keep, out=keep), 0.0)
    if module == L1_ZERO:
        if scratch is None:
            scratch = table_buffer(vals.shape)
        _check_zero_sums(vals, np.abs(vals, out=scratch))
    return Table(module, vals)


def _check_zero_sums(vals: np.ndarray, mag: np.ndarray) -> None:
    """Raise the zero-sum error for the first value whose entries, added
    in ascending point order, are not zero within ZERO_SUM_TOL.

    Any order of adding differs from that one by less than
    _order_slack * sum |v| (mag holds |v|), so only the rows that sums in
    any order leave in doubt are added in order."""
    ones = np.ones(vals.shape[1])
    doubt = np.abs(vals @ ones)
    doubt += _order_slack(vals.shape[1]) * (mag @ ones)
    rows = np.flatnonzero(doubt > ZERO_SUM_TOL)
    if not len(rows):
        return
    _check_sums(row_sums(vals[rows]))


def _check_sums(sums: np.ndarray) -> None:
    """Raise for the first of the sums of l1_0 values that is not zero
    within ZERO_SUM_TOL."""
    bad = np.abs(sums) > ZERO_SUM_TOL
    if bad.any():
        total = sums[int(np.argmax(bad))].item()
        raise ValueError(f"l1_0 entries must sum to 0, got {total!r}")


def _order_slack(width: int) -> float:
    """How far, relative to sum |v|, two sums of the same `width` terms v
    added in different orders can differ, with room to spare: each is
    within about (width - 1) * eps / 2 of the exact sum (Higham, SIAM J.
    Sci. Comput. 14, 1993), so they differ by about (width - 1) * eps at
    most."""
    return 4.0 * width * np.finfo(float).eps


def row_sums(terms: np.ndarray) -> np.ndarray:
    """Each row added from left to right, like a loop over its entries in
    ascending point order: the absent entries in between add 0.0, which is
    exact. The running sums overwrite terms."""
    return np.cumsum(terms, axis=1, out=terms)[:, -1]


def norms(tab: Table) -> np.ndarray:
    """||value|| per face, for taking a sup: |scalar|, or an l1 norm.

    The rows that can reach the largest norm are added in ascending point
    order, so the sup and the first row that attains it are exact. The
    other rows are summed in any order and are below that sup by more than
    any order of adding can move them."""
    if tab.module == SCALAR:
        return np.abs(tab.vals[:, 0])
    width = tab.vals.shape[1]
    mag = np.abs(tab.vals, out=table_buffer(tab.vals.shape))
    fast = mag @ np.ones(width)
    top = fast.max(initial=0.0)
    if not 0.0 < top < np.inf:          # none, all zero, or inf or NaN
        # a copy, so that the table of running sums can go back to the pool
        return row_sums(mag).copy()
    near = np.flatnonzero(fast >= top - _order_slack(width) * top)
    fast[near] = row_sums(mag[near])
    return fast


def gaps(lhs: Table, rhs: Table | None = None) -> np.ndarray:
    """entry_gap per face: the largest |lhs[k] - rhs[k]| (rhs None = 0)."""
    diff = table_buffer(lhs.vals.shape)
    if rhs is None:
        np.abs(lhs.vals, out=diff)
    else:
        np.subtract(lhs.vals, rhs.vals, out=diff)
        np.abs(diff, out=diff)
    return diff.max(axis=1, initial=0.0)


# -- sums of operand rows ----------------------------------------------------------

def combine(module: str, vals: np.ndarray, slots: list) -> None:
    """Fill vals with values each a sum of operand rows added slot by slot,
    and finish it in place.

    A slot (tab, rows, coef) adds coef * tab row rows[i] to face i; coef is
    a float or one float per face. Each entry adds its slots in slot
    order. The first slot is written straight into vals: coef * x is
    0.0 + coef * x but for the sign of a zero, and finish turns every zero
    into 0.0."""
    part = table_buffer(vals.shape)
    for k, (tab, rows, coef) in enumerate(slots):
        if not k:
            _gather(tab, rows, coef, vals)
        elif not isinstance(coef, np.ndarray) and coef == -1.0:
            _gather(tab, rows, 1.0, part)
            vals -= part                    # a - b is a + (-1.0 * b)
        else:
            _gather(tab, rows, coef, part)
            vals += part
    finish(module, vals, part)


def _gather(tab: Table, rows: np.ndarray, coef, out: np.ndarray) -> None:
    """out[i] = coef * tab row rows[i], coef a float or one per face."""
    # mode="clip" writes straight into the buffer ("raise" would copy);
    # every row index is in range
    np.take(tab.vals, rows, axis=0, out=out, mode="clip")
    if isinstance(coef, np.ndarray):
        out *= coef[:, None]
    elif coef != 1.0:
        out *= coef


def _step(m: int, rows: int, width: int) -> int:
    """Faces per piece, when m faces need `rows` distinct operand rows of
    the given width, so that each piece's operand table (taken to shrink
    with the piece) stays within _TABLE_CHUNK_BYTES."""
    size = 8 * width * rows
    if size <= _TABLE_CHUNK_BYTES:
        return m
    return max(1, m * _TABLE_CHUNK_BYTES // size)


def linear(module: str, n: int, terms: list, seen=None) -> Table:
    """sum_j coef_j * c_j(faces_j) per face, in term order.

    A term (cochain, faces, coef) reads one operand face per output face,
    coef a float. A ragged term (cochain, faces, coefs, lengths) gives
    output face i the next lengths[i] faces and coefs, added in order; a
    face with fewer of them than another in its piece adds 0.0 times a row
    the piece already uses. Terms that share a cochain evaluate it once on
    their distinct faces. A single term with coef 1.0 is its cochain's
    table on faces, as it is. seen, if given, is called with each table of
    operand values."""
    if len(terms) == 1 and len(terms[0]) == 3 and terms[0][2] == 1.0:
        tab = evaluate(terms[0][0], terms[0][1])
        if seen is not None:
            seen(tab)
        return tab
    m = len(terms[0][3] if len(terms[0]) == 4 else terms[0][1])
    if not m:
        return empty(module, n, 0)
    groups: dict = {}
    for j, term in enumerate(terms):
        groups.setdefault(id(term[0]), (term[0], [], []))[
            1 if len(term) == 3 else 2].append(j)

    whole = []
    for c, fixed, ragged in groups.values():
        js = fixed + ragged
        stacked = (terms[js[0]][1] if len(js) == 1
                   else np.concatenate([terms[j][1] for j in js]))
        first, inverse = distinct(stacked, n)
        # each ragged term's part of the inverse, and where each output
        # face's operand faces start in it
        block, rest = inverse[:len(fixed) * m], inverse[len(fixed) * m:]
        spans = []
        for j in ragged:
            starts = np.concatenate(([0], np.cumsum(terms[j][3])))
            spans.append((j, rest[:starts[-1]], starts))
            rest = rest[starts[-1]:]
        whole.append((c, fixed, stacked[first], block.reshape(len(fixed), m),
                      spans))
    width = width_of(module, n)
    step = _step(m, max(len(g[2]) for g in whole), width)
    vals = None
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        slots = [[] for _ in terms]
        for c, fixed, faces, block, spans in whole:
            parts = [block[:, lo:hi]] + [rows[starts[lo]:starts[hi]]
                                         for _, rows, starts in spans]
            if not any(map(len, parts)):
                continue                    # no term of c reads this piece
            used, local = _piece(len(faces), parts, step == m)
            tab = evaluate(c, faces if used is None else faces[used])
            if seen is not None:
                seen(tab)
            for i, j in enumerate(fixed):
                slots[j].append((tab, local[0][i], terms[j][2]))
            for (j, _, starts), rows in zip(spans, local[1:]):
                # slot k holds each face's k-th operand face, or row 0
                lengths = terms[j][3][lo:hi]
                live = np.arange(lengths.max()) < lengths[:, None]
                index = np.zeros(live.shape, dtype=np.int64)
                index[live] = rows
                coefs = np.zeros(live.shape)
                coefs[live] = terms[j][2][starts[lo]:starts[hi]]
                slots[j] = [(tab, index[:, k], coefs[:, k])
                            for k in range(live.shape[1])]
        if vals is None:
            # made once the first operands exist, so that evaluating them
            # does not run with this table held; every row gets written
            vals = table_buffer((m, width))
        if any(slots):
            combine(module, vals[lo:hi], [s for term in slots for s in term])
        else:
            vals[lo:hi] = 0.0               # values with no terms
    return Table(module, vals)


def _piece(count: int, parts: list, whole: bool):
    """(used, local) for a piece of faces that needs the rows in parts (a
    list of index arrays) of a table of `count` distinct faces: the mask of
    the rows it uses (None when it is the whole) and the parts' rows
    renumbered within them."""
    if whole:
        return None, parts
    used = np.zeros(count, dtype=bool)
    for rows in parts:
        used[rows] = True
    local = np.cumsum(used) - 1
    return used, [local[rows] for rows in parts]


def row_entries(tab: Table, rows: np.ndarray):
    """The entries of the values tab[rows] (an l1-type table) in ascending
    point order, laid end to end: (lengths, owner, cols, weights), with
    lengths and owner as in csr_expand."""
    present = tab.vals != 0.0
    indptr = np.zeros(len(tab.vals) + 1, dtype=np.int64)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    lengths, owner, src = csr_expand(indptr, rows)
    cols = np.nonzero(present)[1][src]
    return lengths, owner, cols, tab.vals[rows[owner], cols]


# -- audits: sup scans over chunks of points ---------------------------------------

def sup_scan(faces: np.ndarray, xlen: int, module: str, n: int, measure):
    """Largest measure over the points of an int array of faces (xs, then
    ys), starting from 0.0, and the first point attaining it as a pair of
    int tuples (xs, ys) (None if none exceeds 0.0).

    measure(faces) gives one value per face; points are measured in chunks
    of about _TABLE_CHUNK_BYTES of a table of values of the module over n
    points, and a later chunk wins only if it is strictly greater."""
    best, at = 0.0, None
    step = max(1, _step(len(faces), len(faces), width_of(module, n)))
    for lo in range(0, len(faces), step):
        vals = measure(faces[lo:lo + step])
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, at = vals[k].item(), lo + k
    if at is None:
        return best, None
    row = faces[at].tolist()
    return best, (tuple(row[:xlen]), tuple(row[xlen:]))


def sup_of(values: np.ndarray, best: float = 0.0) -> float:
    """max(best, *values) as a Python number, keeping best on ties."""
    if len(values):
        top = values.max()
        if top > best:
            return top.item()
    return best
