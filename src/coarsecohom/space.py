"""Finite metric spaces: the metric, and the graph families built on it.

Everything downstream (seminorms, support audits, variation profiles) is a
supremum over tuples whose coordinates sit pairwise within some radius R.
This module owns the spaces themselves, the one rule for "within R"
(`FiniteMetricSpace.radius_bound`, `near` for the whole mask, and
`rows_within` for its CSR ball rows, the one owner of them: a space keeps
the rows of the widest radius it has read and filters every smaller one)
and the graph families used as test beds. A graph space (`GraphSpace`)
keeps its edges and reads its widest rows from balls grown to the radius,
building its n x n matrix only when something reads `dist`. It keeps no
audit state: the tuple domains an audit scans, and their cache, belong to
cochains.audit_points.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from itertools import chain, combinations, product

import numpy as np

from .facetables import csr_expand

REAL_METRIC_SLACK = 1e-12
TRIANGLE_SCAN_LIMIT = 256
# Bytes a chunked step touches at once: a block of unpacked distance bits,
# or one tile of the symmetry check.
_CHUNK_BYTES = 1 << 15
# Bytes of packed ball rows _read_balls reads out at once, so that its
# temporaries follow this block, not the n^2 / 8 bytes of every ball.
_READ_BYTES = 1 << 18
# The 8 bits of each byte value, most significant first (np.unpackbits order)
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)

_FREE_GEN_NAMES = "abcdefghijklmnopqrstuvwxyz"


def derive_seed(*parts) -> int:
    """Stable 64-bit sub-seed from a master seed plus context tags."""
    blob = repr(parts).encode()
    return int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(), "big")


class FiniteMetricSpace:
    """Points 0..n-1 with a symmetric distance matrix.

    Graph families carry exact integer hop distances and radius comparisons
    are exact; real-valued metrics get a 1e-12 slack when compared against a
    radius (`radius_bound`). Integer distances are stored in the smallest
    unsigned dtype that holds their maximum, so arithmetic on `dist` must
    widen it first (`wide_dist`). Instances are treated as immutable after
    construction. A space given as a matrix builds and validates it here;
    a graph's hop metric is a GraphSpace, which builds it on first read.
    """

    # The group law of a space whose metric is left-invariant (see
    # CayleyGraphSpace); None on every other space.
    group = None

    def __init__(self, dist, labels=None, integer_metric=None, meta=None):
        dist = np.asarray(dist)
        if integer_metric is None:
            integer_metric = np.issubdtype(dist.dtype, np.integer)
        self.dist = _compact(dist) if integer_metric else dist.astype(float)
        self._setup(int(dist.shape[0]), integer_metric, labels, meta)
        self.validate()

    def _setup(self, n, integer_metric, labels, meta) -> None:
        """Everything but the distance matrix."""
        self.integer_metric = bool(integer_metric)
        self.n = n
        self.labels = list(labels) if labels is not None else None
        self.meta = dict(meta) if meta else {"kind": "custom", "params": {}, "seed": 0}
        self._dist_rows: list | None = None
        # the diameter once known (a graph space learns it from its balls)
        self._diameter = None
        # (radius, rows) of the widest rows_within read so far
        self._balls = None

    # -- invariants ---------------------------------------------------------

    def validate(self) -> None:
        """Reject a matrix that is not a metric; each error names the first
        offending entry in row-major order, and its value."""
        d = self.dist
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        if self.n < 1:
            raise ValueError("space needs at least one point")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length does not match point count")
        # finiteness first: a NaN is unequal to itself, so the symmetry
        # check would misreport it
        if not self.integer_metric and not np.all(np.isfinite(d)):
            i, j = _first(~np.isfinite(d))
            raise ValueError(f"distances must be finite: d({i},{j}) = "
                             f"{d[i, j]}")
        if not _is_symmetric(d):
            i, j = _first(d != d.T)
            raise ValueError(f"distance matrix must be symmetric: d({i},{j}) "
                             f"= {d[i, j]} but d({j},{i}) = {d[j, i]}")
        diagonal = np.diagonal(d)
        if np.any(diagonal != 0):
            i = int(np.flatnonzero(diagonal)[0])
            raise ValueError(f"diagonal distances must be zero: d({i},{i}) = "
                             f"{d[i, i]}")
        off = _off_diagonal(d)
        if off.size and off.min() <= 0:
            i, j = _first((d <= 0) & ~np.eye(self.n, dtype=bool))
            raise ValueError(f"off-diagonal distances must be positive: "
                             f"d({i},{j}) = {d[i, j]}")
        if self.n <= TRIANGLE_SCAN_LIMIT:
            # full triple scan, vectorized one intermediate point at a time
            d = self.wide_dist()
            through = np.empty_like(d)
            bad = np.empty(d.shape, dtype=bool)
            for k in range(self.n):
                np.add(d[:, k, None], d[None, k, :], out=through)
                if not self.integer_metric:
                    through += REAL_METRIC_SLACK
                if np.greater(d, through, out=bad).any():
                    i, j = np.argwhere(bad)[0]
                    raise ValueError(
                        f"triangle inequality fails: d({i},{j}) > "
                        f"d({i},{k}) + d({k},{j})")

    def wide_dist(self) -> np.ndarray:
        """`dist` in a dtype arithmetic cannot wrap: int64 or float."""
        return self.dist.astype(np.int64) if self.integer_metric else self.dist

    # -- basic queries ------------------------------------------------------

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)

    def d(self, i: int, j: int) -> float:
        if self._dist_rows is None:
            self._dist_rows = self.dist.tolist()
        return self._dist_rows[i][j]

    def radius_bound(self, r: float) -> float:
        """Largest distance that counts as within r: r itself on an
        integer metric, r + REAL_METRIC_SLACK on a real one."""
        return r if self.integer_metric else r + REAL_METRIC_SLACK

    def near(self, r: float) -> np.ndarray:
        """The n x n mask of the point pairs within r of each other."""
        return self.dist <= self.radius_bound(r)

    def rows_within(self, r: float):
        """The CSR rows of `near(r)`, one row per point: indptr, each row's
        columns in ascending order, in the smallest unsigned dtype that
        holds a point, and the distance of each entry. A negative or NaN r
        has no rows.

        The space keeps the rows of the widest radius it has read,
        read-only (copy them before writing), and returns that same tuple
        for every radius with the same rows: on an integer metric, the
        same floor(r), capped at the diameter once known. A smaller
        radius's rows are a filter of them, columns still ascending; a
        wider one reads its rows afresh (_read_rows), and they become the
        widest."""
        if not r >= 0:
            return (np.zeros(self.n + 1, dtype=np.int64),
                    np.zeros(0, dtype=np.min_scalar_type(self.n - 1)),
                    np.zeros(0))
        radius = self._rows_radius(r)
        if self._balls is None or radius > self._balls[0]:
            indptr, cols, dists = self._read_rows(radius)
            rows = indptr, cols.astype(np.min_scalar_type(self.n - 1)), dists
            for part in rows:
                part.flags.writeable = False
            # the read may have found the diameter
            radius = self._rows_radius(radius)
            self._balls = radius, rows
        widest, rows = self._balls
        if radius == widest:
            return rows
        indptr, cols, dists = rows
        # the kept entries by index: a row starts at the count of those
        # before it, and indexed gathers are far faster than masked ones
        keep = np.flatnonzero(dists <= self.radius_bound(radius))
        return np.searchsorted(keep, indptr), cols[keep], dists[keep]

    def _rows_radius(self, r: float):
        """The least radius whose rows are those within r >= 0: r capped
        at the diameter once known, rounded down on an integer metric."""
        if self._diameter is not None:
            r = min(r, self._diameter)
        return math.floor(r) if self.integer_metric and r < math.inf else r

    def _read_rows(self, r: float):
        """The rows of rows_within(r), off `dist`: columns as int64, and
        each entry's distance in the dtype of `dist`."""
        flat = np.flatnonzero(self.near(r))
        return (np.searchsorted(flat, np.arange(self.n + 1) * self.n),
                flat % self.n, np.take(self.dist, flat))

    def within(self, i: int, j: int, r: float) -> bool:
        return self.d(i, j) <= self.radius_bound(r)

    def diameter(self) -> float:
        return float(self.dist.max())

    def min_positive_distance(self) -> float:
        if self.n < 2:
            raise ValueError("no positive distances on a single point")
        return float(_off_diagonal(self.dist).min())

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "version": 1,
            "kind": self.meta.get("kind", "custom"),
            "params": self.meta.get("params", {}),
            "seed": self.meta.get("seed", 0),
            "n": self.n,
        }
        if self.labels is not None:
            out["labels"] = list(self.labels)
        if "edges" in self.meta:
            out["edges"] = [list(e) for e in self.meta["edges"]]
        else:
            out["dist"] = self.dist.tolist()
        for extra in ("retries",):
            if extra in self.meta:
                out[extra] = self.meta[extra]
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @classmethod
    def from_json(cls, payload: dict) -> "FiniteMetricSpace":
        """The space a to_json payload describes. A payload that is not an
        object, lacks an integer `n`, has neither `dist` nor `edges`, lists
        an edge that is not two integers, or has a `dist` of other than n
        rows raises ValueError naming the key or entry."""
        if not isinstance(payload, dict):
            raise ValueError("space JSON must be an object, got "
                             f"{type(payload).__name__}")
        n = payload.get("n")
        if not _is_int(n):
            raise ValueError(f"space JSON needs an integer 'n', got {n!r}")
        labels = payload.get("labels")
        meta = {
            "kind": payload.get("kind", "custom"),
            "params": payload.get("params", {}),
            "seed": payload.get("seed", 0),
        }
        if "retries" in payload:
            meta["retries"] = payload["retries"]
        if "edges" in payload:
            edges = payload["edges"]
            if not isinstance(edges, list):
                raise ValueError("space JSON 'edges' must be a list")
            for k, e in enumerate(edges):
                if not (isinstance(e, (list, tuple)) and len(e) == 2
                        and all(map(_is_int, e))):
                    raise ValueError(f"space JSON 'edges' entry {k} is not "
                                     f"two integers: {e!r}")
            edges = [tuple(e) for e in edges]
            meta["edges"] = sorted(edges)
            return build_graph_metric(edges, n, labels=labels, meta=meta)
        if "dist" not in payload:
            raise ValueError("space JSON needs 'dist' or 'edges'")
        dist = np.asarray(payload["dist"])
        if dist.shape[:1] != (n,):
            rows = len(dist) if dist.ndim else 0
            raise ValueError(f"space JSON 'dist' has {rows} rows, but n is "
                             f"{n}")
        return cls(dist, labels=labels, meta=meta)

    def __repr__(self) -> str:
        kind = self.meta.get("kind", "custom")
        return f"FiniteMetricSpace(n={self.n}, kind={kind!r})"


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _compact(dist: np.ndarray) -> np.ndarray:
    """Integer distances in the smallest unsigned dtype that holds their
    maximum, the matrix itself when it already has that dtype. A matrix
    with a negative entry stays int64, so that validate still sees the
    entry and rejects it."""
    if dist.dtype.kind not in "iu":
        dist = dist.astype(np.int64)
    if dist.size and dist.min() >= 0:
        return dist.astype(np.min_scalar_type(dist.max()), copy=False)
    return dist.astype(np.int64, copy=False)


def _first(bad: np.ndarray) -> tuple:
    """(i, j) of the first True entry of a 2-d mask in row-major order."""
    i, j = np.argwhere(bad)[0]
    return int(i), int(j)


def _is_symmetric(d: np.ndarray) -> bool:
    """Whether d equals d.T, compared one pair of square tiles of about
    _CHUNK_BYTES at a time (d[I, J] against d[J, I].T), which reads far
    less scattered memory than comparing d with its whole transpose."""
    n = len(d)
    side = max(1, math.isqrt(_CHUNK_BYTES // d.itemsize))
    for a in range(0, n, side):
        for b in range(a, n, side):
            if not np.array_equal(d[a:a + side, b:b + side],
                                  d[b:b + side, a:a + side].T):
                return False
    return True


def _off_diagonal(d: np.ndarray) -> np.ndarray:
    """The n*n - n off-diagonal entries of a square matrix as an (n-1, n)
    array, a view when d is C-contiguous: in the flattened matrix exactly n
    entries lie between two consecutive diagonal entries."""
    n = d.shape[0]
    return d.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]


def scaled_metric(space: FiniteMetricSpace, factor: float) -> FiniteMetricSpace:
    """Same point set with every distance multiplied by factor > 0."""
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    dist = space.wide_dist() * factor
    integer = space.integer_metric and float(factor).is_integer()
    meta = {"kind": "scaled", "params": {"factor": factor,
                                         "base": space.meta.get("kind")},
            "seed": space.meta.get("seed", 0)}
    return FiniteMetricSpace(dist if integer else dist.astype(float),
                             labels=space.labels, integer_metric=integer,
                             meta=meta)


# -- graph construction -----------------------------------------------------

def build_graph_metric(edges, n: int, labels=None, meta=None) -> "GraphSpace":
    """Hop metric of an undirected graph, as a GraphSpace.

    Raises on vertex indices out of range, self-loops, no points, a
    disconnected graph (the error names two mutually unreachable vertices)
    or labels that do not match n. The range and self-loop checks name the
    first offending edge in the given order, a range error before a
    self-loop on the same edge. A repeated edge, in either orientation,
    counts once; meta["edges"] defaults to the edges as sorted (min, max)
    pairs.
    """
    keys = _distinct_edge_keys(edges, n)
    if n < 1:
        raise ValueError("space needs at least one point")
    meta = dict(meta) if meta else {"kind": "graph", "params": {"n": n}, "seed": 0}
    if "edges" not in meta:
        meta["edges"] = _key_pairs(keys, n)
    ends = np.stack((keys // n, keys % n), axis=1)
    # vertex 0 reaches every vertex of a connected graph; in any other, the
    # least vertex it misses is the first unreachable pair in row-major order
    unreached = np.flatnonzero(_hop_row(n, ends, 0) < 0)
    if len(unreached):
        raise ValueError(f"graph is disconnected: vertex {unreached[0]} is "
                         "unreachable from vertex 0")
    if labels is not None and len(labels) != n:
        raise ValueError("labels length does not match point count")
    return GraphSpace(ends, n, labels=labels, meta=meta)


def _distinct_edge_keys(edges, n: int) -> np.ndarray:
    """The keys min * n + max of the distinct edges, sorted. Raises on the
    first offending edge in the given order: a range error before a
    self-loop on the same edge."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    ends = np.asarray(edges)
    ends = ends.reshape(-1, 2) if ends.size else np.zeros((0, 2), np.int64)
    u, v = ends.T
    outside = ~((0 <= u) & (u < n) & (0 <= v) & (v < n))
    bad = outside | (u == v)
    if bad.any():
        k = int(np.argmax(bad))
        a, b = edges[k]
        if outside[k]:
            raise ValueError(f"edge ({a},{b}) out of range for n={n}")
        raise ValueError(f"self-loop at vertex {a} is not allowed")
    # a sort and a neighbour compare: np.unique hashes, and is far slower
    keys = _edge_keys(ends, n)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _edge_keys(ends: np.ndarray, n: int) -> np.ndarray:
    """The keys min * n + max of an (m, 2) array of in-range edges, sorted,
    repeats kept."""
    u, v = ends.astype(np.int64, copy=False).T
    keys = np.minimum(u, v) * n + np.maximum(u, v)
    keys.sort()
    return keys


def _key_pairs(keys: np.ndarray, n: int) -> list:
    """The edges of sorted keys as (min, max) tuples of Python ints."""
    return list(zip((keys // n).tolist(), (keys % n).tolist()))


def _adjacency(n: int, edges: np.ndarray):
    """CSR adjacency (starts, nbrs) of the graph on 0..n-1 with the given
    (m, 2) edge array, in which the order of the two ends of an edge does
    not matter; nbrs is int32. The arcs u -> v are sorted as the keys
    u * n + v, in the smallest unsigned dtype that holds them, which sorts
    faster than an argsort of the heads."""
    u, v = edges.astype(np.min_scalar_type(max(n * n - 1, 0))).T
    keys = np.concatenate([u * n + v, v * n + u])
    keys.sort()
    starts = np.searchsorted(keys, np.arange(n + 1) * n)
    return starts, (keys % n).astype(np.int32)


def _grow_balls(n: int, edges: np.ndarray):
    """Every closed ball of the graph on 0..n-1 with the given (m, 2) edge
    array, n >= 1, grown at once: yields (level, reached, added) for L = 0,
    1, ... up to the diameter, the last time when every ball is the whole
    graph.

    Row u of `reached` is the closed ball B_L(u) as packed bits, 64-bit
    words in np.packbits bit order, starting from B_0(u) = {u}; the bits
    past n are set throughout. `added` holds the bits of the pairs at
    distance exactly L (None at L = 0). Both are overwritten on the next
    step, so a caller reads them before asking for it.

    One level sets B_{L+1}(u) to the union of B_L(u) and of B_L(v) over the
    neighbours v of u, read from a CSR adjacency. With J the least degree,
    the first J neighbours of every row are OR-ed in one slot at a time,
    each slot a whole-array take; a row with more neighbours ORs its extra
    ones through a reduceat over blocks of at most n gathered rows, so a
    dense graph's memory stays that of a few copies of `reached`. A level
    that adds nothing while a bit is still clear means the graph is
    disconnected, and raises.
    """
    starts, nbrs = _adjacency(n, edges)
    degree = np.diff(starts)
    slots = int(degree.min())
    # slot j of every row, j < J
    slot_nbrs = nbrs[starts[:-1] + np.arange(slots)[:, None]]
    # the neighbours past the first J of each longer row, laid end to end:
    # row rows[i] owns extra[seg[i]:ends[i]]
    rows = np.flatnonzero(degree > slots)
    counts = degree[rows] - slots
    ends = np.cumsum(counts)
    seg = ends - counts
    extra = nbrs[np.repeat(starts[rows] + slots - seg, counts)
                 + np.arange(ends[-1] if len(ends) else 0)]
    # blocks rows[a:b] whose extra neighbours, at most n, fit in `buf`: the
    # neighbours, their reduceat offsets and the rows
    blocks = []
    a = 0
    while a < len(rows):
        b = int(np.searchsorted(ends, seg[a] + n, side="right"))
        block = rows[a:b]
        if block[-1] - block[0] == b - a - 1:
            # consecutive rows, as on a path: a slice reads and writes them
            # in place, where a fancy index would gather and scatter them
            block = slice(block[0], block[-1] + 1)
        blocks.append((extra[seg[a]:ends[b - 1]], seg[a:b] - seg[a], block))
        a = b

    # rows are 64-bit words, so each OR handles 64 vertices at once
    width = (n + 63) // 64
    ids = np.arange(n, dtype=np.int32)
    reached = np.zeros((n, width), dtype=np.uint64)
    packed = reached.view(np.uint8)
    packed[ids, ids >> 3] = 0x80 >> (ids & 7)  # packbits order
    # the padding bits past n count as reached from the start, so every
    # word of `reached` is all ones exactly when each ball is the whole graph
    packed |= _padding(n, width).view(np.uint8)
    full = np.iinfo(np.uint64).max
    grown = np.empty_like(reached)
    buf = np.empty_like(reached)
    level = 0
    yield level, reached, None
    while reached.min() != full:
        level += 1
        # every take below passes mode="clip" (its indices are always in
        # range) because the default mode copies `out` through a temporary
        np.copyto(grown, reached)
        for nbr in slot_nbrs:
            grown |= np.take(reached, nbr, axis=0, out=buf, mode="clip")
        for nbr, firsts, block in blocks:
            got = np.bitwise_or.reduceat(
                np.take(reached, nbr, axis=0, out=buf[:len(nbr)], mode="clip"),
                firsts, axis=0)
            got |= grown[block]
            grown[block] = got
        # growth only sets bits, so nothing changed iff grown ^ reached is 0
        np.bitwise_xor(grown, reached, out=buf)
        if not np.count_nonzero(buf):
            np.invert(reached, out=buf)
            src = int(np.flatnonzero(buf.any(axis=1))[0])
            far = int(np.flatnonzero(np.unpackbits(
                buf[src].view(np.uint8), count=n))[0])
            raise ValueError(
                f"graph is disconnected: vertex {far} is unreachable "
                f"from vertex {src}")
        reached, grown = grown, reached
        yield level, reached, buf


def _padding(n: int, width: int) -> np.ndarray:
    """The bits past n of a packed row of `width` 64-bit words."""
    return np.packbits(np.arange(64 * width) >= n).view(np.uint64)


def _add_level(planes: list, level: int, added: np.ndarray) -> None:
    """OR the pairs at distance `level` into packed bit-plane k for every
    set bit k of `level`. Each pair is added at one level only, so the
    planes hold every distance in binary, without carries."""
    for k in range(level.bit_length()):
        if level >> k & 1:
            if k < len(planes):
                planes[k] |= added
            else:
                # plane k is first set at level 2^k
                planes.append(added.copy())


def _hop_distances(n: int, edges: np.ndarray) -> np.ndarray:
    """All-pairs hop distances of the graph on 0..n-1 with the given
    (m, 2) edge array: every ball grown to the diameter (_grow_balls), each
    level's bits OR-ed into the bit-planes of its distance, and the planes
    then unpacked into `dist`, in the smallest unsigned dtype that holds
    the diameter. Raises on a disconnected graph."""
    if n == 0:
        return np.zeros((0, 0), dtype=np.uint8)
    planes: list = []
    for level, reached, added in _grow_balls(n, edges):
        if added is not None:
            _add_level(planes, level, added)
    del reached, added
    width = (n + 63) // 64
    # a block of rows at a time, each plane k is unpacked through a table of
    # the 8 bits of every byte value, shifted by k, and OR-ed into `bits`,
    # which then goes into `dist` in one copy
    dist = np.empty((n, n), dtype=np.min_scalar_type(level))
    tables = [np.left_shift(_BYTE_BITS, k, dtype=dist.dtype)
              for k in range(len(planes))]
    unpack_rows = max(1, _CHUNK_BYTES // (64 * width))
    bits = np.empty((unpack_rows, 8 * width, 8), dtype=dist.dtype)
    plane_bits = np.empty_like(bits)
    for a in range(0, n, unpack_rows):
        b = min(a + unpack_rows, n)
        got = bits[:b - a]
        got.fill(0)
        for plane, table in zip(planes, tables):
            got |= np.take(table, plane[a:b].view(np.uint8), axis=0,
                           out=plane_bits[:b - a], mode="clip")
        dist[a:b] = got.reshape(b - a, -1)[:, :n]
    return dist


def _ball_rows(n: int, edges: np.ndarray, levels: int):
    """The closed balls of radius `levels` >= 0 of the connected graph on
    0..n-1 with the given (m, 2) edge array, as the CSR rows of
    FiniteMetricSpace.rows_within: indptr, each row's columns ascending
    (int64) and each entry's hop distance, in the smallest unsigned dtype
    that holds `levels`. Also returns the diameter when the balls filled
    the graph within `levels`, else None.

    The balls grow for at most `levels` levels (_grow_balls), each level's
    bits OR-ed into the bit-planes of its distance, and _read_balls reads
    the rows out of them.
    """
    planes: list = []
    for level, reached, added in _grow_balls(n, edges):
        if added is not None:
            _add_level(planes, level, added)
        if level == levels:
            break
    # `added` is the growth's scratch array: free it before the read-out
    del added
    # the padding bits are set, so full balls are words of all ones
    diameter = level if reached.min() == np.iinfo(np.uint64).max else None
    reached &= ~_padding(n, reached.shape[1])
    return _read_balls(reached, planes, np.min_scalar_type(levels)), diameter


def _read_balls(reached: np.ndarray, planes: list, dtype):
    """The CSR rows (indptr, cols, dists) of the packed balls `reached`,
    padding bits clear, with each entry's distance, in `dtype`, off the
    same bit of every plane of _add_level: indptr and cols int64, cols
    ascending in each row.

    The rows are read a block of about _READ_BYTES of packed rows at a
    time: the set bits of the block's nonzero bytes through the table of
    every byte value's bits, and the planes at those bits. So the
    temporaries follow the block and the entries, not the n^2 / 8 bytes of
    the balls.
    """
    n, row_bytes = len(reached), reached.shape[1] * 8
    block = max(1, _READ_BYTES // row_bytes)
    starts, cols, dists = [], [], []
    entries = 0
    for a in range(0, n, block):
        b = min(a + block, n)
        flat = reached[a:b].view(np.uint8).reshape(-1)
        # numpy finds the nonzeros of a bool array far faster than of uint8
        at = np.flatnonzero(flat != 0)
        # entry e is bit bit[e] (most significant first) of byte byte[e];
        # bytes ascend, and bits ascend within a byte, so entries are
        # row-major
        hits = np.flatnonzero(np.take(_BYTE_BITS.view(bool), flat[at],
                                      axis=0))
        byte, bit = at[hits >> 3], hits & 7
        del at, hits
        shift = (7 - bit).astype(np.uint8)
        got = np.zeros(len(byte), dtype=dtype)
        for k, plane in enumerate(planes):
            on = plane[a:b].view(np.uint8).reshape(-1)[byte] >> shift & 1
            got |= on.astype(dtype, copy=False) << k
        starts.append(entries + np.searchsorted(
            byte, np.arange(b - a) * row_bytes))
        cols.append(byte % row_bytes * 8 + bit)
        dists.append(got)
        entries += len(byte)
    starts.append(np.array([entries]))
    return np.concatenate(starts), np.concatenate(cols), np.concatenate(dists)


def _hop_row(n: int, edges: np.ndarray, source: int) -> np.ndarray:
    """Hop distances from `source` in the graph on 0..n-1 with the given
    (m, 2) edge array, -1 where it does not reach: a BFS one frontier at a
    time over a CSR adjacency, in O(n + m) time and memory."""
    starts, nbrs = _adjacency(n, edges)
    row = np.full(n, -1, dtype=np.int64)
    row[source] = 0
    frontier = np.array([source])
    level = 0
    while len(frontier):
        level += 1
        _, _, src = csr_expand(starts, frontier)
        frontier = np.unique(nbrs[src])
        frontier = frontier[row[frontier] < 0]
        row[frontier] = level
    return row


class TorusLaw:
    """The group (Z/size)^dim on point indices.

    A point's index is its coordinate tuple read in mixed radix, last axis
    fastest: the itertools.product order in which _torus_edges numbers the
    vertices. So the identity (0, ..., 0) is index 0, and a cycle is the
    case dim = 1.
    """

    identity = 0

    def __init__(self, size: int, dim: int):
        self.shape = (size,) * dim

    def translate(self, t, g) -> np.ndarray:
        """The indices of t * g, coordinatewise sums mod size, for index
        arrays t and g that broadcast together."""
        return np.ravel_multi_index(
            tuple(a + b for a, b in zip(np.unravel_index(t, self.shape),
                                        np.unravel_index(g, self.shape))),
            self.shape, mode="wrap")


class GraphSpace(FiniteMetricSpace):
    """The hop metric of a connected graph on 0..n-1, kept as its edges.

    The n x n `dist` is built from the edges, and validated, when something
    first reads it; n, labels, meta, to_json, content_hash, diameter,
    min_positive_distance and rows_within never do. The widest rows of
    rows_within come from every ball grown for floor(r) levels
    (_ball_rows), so a profile reads no matrix.
    The constructor trusts its edges: build_graph_metric checks the edges
    that come from outside, and generate_family's are connected by
    construction.
    """

    def __init__(self, edges, n: int, labels=None, meta=None):
        self._setup(n, True, labels, meta)
        self._edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self._dist = None

    @property
    def dist(self) -> np.ndarray:
        if self._dist is None:
            self._dist = _hop_distances(self.n, self._edges)
            self.validate()
        return self._dist

    def _read_rows(self, r: float):
        # no distance exceeds n - 1; the balls tell the diameter once they
        # fill the graph
        rows, diameter = _ball_rows(self.n, self._edges,
                                    int(min(r, self.n - 1)))
        if diameter is not None:
            self._diameter = diameter
        return rows

    def diameter(self) -> float:
        # the levels it takes every ball to fill the graph
        if self._diameter is None:
            for level, _, _ in _grow_balls(self.n, self._edges):
                pass
            self._diameter = level
        return float(self._diameter)

    def min_positive_distance(self) -> float:
        # the two points of an edge are at distance 1
        if len(self._edges):
            return 1.0
        return super().min_positive_distance()


class CayleyGraphSpace(GraphSpace):
    """The hop metric of a Cayley graph: the points are the elements of a
    group whose law is `group`, and each edge joins g to g * a for a
    generator a.

    The metric is left-invariant, d(t * x, t * y) = d(x, y), so the
    distances from the identity (`hops_from_identity`, one BFS) determine
    all the others, the diameter among them. Everything else is a
    GraphSpace's.
    """

    def __init__(self, edges, n: int, law, labels=None, meta=None):
        super().__init__(edges, n, labels=labels, meta=meta)
        self.group = law

    def hops_from_identity(self) -> np.ndarray:
        """d(e, .) for the identity e, as an int64 row."""
        return _hop_row(self.n, self._edges, self.group.identity)

    def diameter(self) -> float:
        # every point is as far from the others as the identity is
        return float(self.hops_from_identity().max())


def load_edge_list(text: str, n: int | None = None) -> FiniteMetricSpace:
    """Parse 'u v' per line (0-based); n defaults to max index + 1."""
    edges = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if not edges:
        raise ValueError("edge list is empty")
    if n is None:
        n = max(max(e) for e in edges) + 1
    return build_graph_metric(edges, n)


def _cycle_edges(m: int):
    if m < 3:
        raise ValueError("cycle needs size >= 3")
    return [(i, (i + 1) % m) for i in range(m)], m, None


def _path_edges(m: int):
    if m < 1:
        raise ValueError("path needs size >= 1")
    return [(i, i + 1) for i in range(m - 1)], m, None


def _complete_edges(m: int):
    if m < 1:
        raise ValueError("complete graph needs n >= 1")
    return list(combinations(range(m), 2)), m, None


def _torus_edges(dim: int, size: int):
    if dim < 1:
        raise ValueError("torus needs dim >= 1")
    if size < 3:
        raise ValueError("torus needs size >= 3 per axis")
    verts = list(product(range(size), repeat=dim))
    index = {v: i for i, v in enumerate(verts)}
    edges = []
    for v in verts:
        for axis in range(dim):
            w = list(v)
            w[axis] = (w[axis] + 1) % size
            edges.append((index[v], index[tuple(w)]))
    labels = ["(" + ",".join(map(str, v)) + ")" for v in verts]
    return edges, len(verts), labels


def _free_ball_edges(rank: int, radius: int):
    """Ball of given radius in the Cayley graph of the free group.

    Words are tuples of nonzero ints, letter i+1 for generator i and its
    negative for the inverse; geodesics between ball elements stay in the
    ball, so the induced hop metric is the word metric.
    """
    if rank < 1 or rank > len(_FREE_GEN_NAMES):
        raise ValueError("free_ball rank out of range")
    if radius < 0:
        raise ValueError("free_ball radius must be >= 0")
    letters = [i + 1 for i in range(rank)] + [-(i + 1) for i in range(rank)]
    words = [()]
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for a in letters:
                if w and w[-1] == -a:
                    continue
                nxt.append(w + (a,))
        words.extend(nxt)
        frontier = nxt
    index = {w: i for i, w in enumerate(words)}
    edges = []
    for w in words:
        for a in letters:
            u = w[:-1] if (w and w[-1] == -a) else w + (a,)
            j = index.get(u)
            if j is not None and index[w] < j:
                edges.append((index[w], j))

    def name(w):
        if not w:
            return "e"
        return "".join(_FREE_GEN_NAMES[a - 1] if a > 0
                       else _FREE_GEN_NAMES[-a - 1].upper() for a in w)

    return edges, len(words), [name(w) for w in words]


def _random_regular_edges(n: int, k: int, seed: int, max_attempts: int = 10_000):
    """Seeded pairing model, rejecting multigraphs and disconnected draws."""
    if n < 1 or k < 1 or k >= n:
        raise ValueError("random_regular needs 1 <= k < n")
    if (n * k) % 2 != 0:
        raise ValueError(f"random_regular infeasible: n*k = {n * k} is odd")
    rng = random.Random(derive_seed(seed, "random_regular", n, k))
    stubs = [v for v in range(n) for _ in range(k)]
    for attempt in range(max_attempts):
        rng.shuffle(stubs)
        pairs = np.sort(np.array(stubs).reshape(-1, 2), axis=1)
        # each pair (u, v), u <= v, as u * n + v, so sorted keys are sorted
        # pairs; a self-loop or a repeated pair makes a multigraph
        keys = np.sort(pairs[:, 0] * n + pairs[:, 1])
        if (pairs[:, 0] == pairs[:, 1]).any() or (keys[1:] == keys[:-1]).any():
            continue
        edges = np.stack([keys // n, keys % n], axis=1)
        if (_hop_row(n, edges, 0) >= 0).all():
            return list(map(tuple, edges.tolist())), n, None, attempt
    raise ValueError(f"random_regular gave up after {max_attempts} attempts")


# Each family kind's parameters, in order: name -> default, None where the
# parameter is required. The command line reads its --family choices and
# flags from here.
FAMILY_PARAMS = {
    "cycle": {"size": None},
    "path": {"size": None},
    "complete": {"n": None},
    "torus": {"size": None, "dim": 2},
    "free_ball": {"rank": None, "radius": None},
    "random_regular": {"n": None, "k": None},
}


def generate_family(kind: str, params: dict, seed: int = 0) -> FiniteMetricSpace:
    """Deterministic test-family constructor.

    kind is a key of FAMILY_PARAMS and params gives its parameters: every
    required one, and no other; a missing or unknown one raises ValueError.
    meta["params"] holds them resolved, defaults filled in, so a space has
    one hash however its defaults were given. Identical (kind, params, seed)
    always serializes byte-for-byte equal.
    Every family is a GraphSpace, connected by construction, so its edges
    are not checked again. The cycle and torus families are Cayley graphs
    of (Z/size)^dim and carry that group law (CayleyGraphSpace).
    """
    kind = kind.lower()
    if kind not in FAMILY_PARAMS:
        raise ValueError(f"unknown family kind {kind!r}")
    names = FAMILY_PARAMS[kind]
    for key in params:
        if key not in names:
            raise ValueError(f"family {kind} takes no parameter {key!r}")
    for key, default in names.items():
        if default is None and key not in params:
            raise ValueError(f"family {kind} needs parameter {key!r}")
    arg = {key: int(params.get(key, default))
           for key, default in names.items()}
    extra: dict = {}
    law = None
    if kind == "cycle":
        edges, n, labels = _cycle_edges(arg["size"])
        law = TorusLaw(n, 1)
    elif kind == "path":
        edges, n, labels = _path_edges(arg["size"])
    elif kind == "complete":
        edges, n, labels = _complete_edges(arg["n"])
    elif kind == "torus":
        edges, n, labels = _torus_edges(arg["dim"], arg["size"])
        law = TorusLaw(arg["size"], arg["dim"])
    elif kind == "free_ball":
        edges, n, labels = _free_ball_edges(arg["rank"], arg["radius"])
    else:
        edges, n, labels, retries = _random_regular_edges(
            arg["n"], arg["k"], seed)
        extra["retries"] = retries
    # the edges as sorted (min, max) pairs, repeats kept
    keys = _edge_keys(np.fromiter(chain.from_iterable(edges), dtype=np.int64,
                                  count=2 * len(edges)).reshape(-1, 2), n)
    ends = np.stack((keys // n, keys % n), axis=1)
    meta = {"kind": kind, "params": arg, "seed": seed,
            "edges": _key_pairs(keys, n), **extra}
    if law is not None:
        return CayleyGraphSpace(ends, n, law, labels=labels, meta=meta)
    return GraphSpace(ends, n, labels=labels, meta=meta)

