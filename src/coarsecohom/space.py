"""Finite metric spaces: the metric, and the graph families built on it.

Everything downstream (seminorms, support audits, variation profiles) is a
supremum over tuples whose coordinates sit pairwise within some radius R.
This module owns the spaces themselves, the one rule for "within R"
(`FiniteMetricSpace.radius_bound`, and `near` for whole rows, which
`mask_rows` turns into CSR ball rows) and the graph families used as test
beds. It keeps no audit state: the tuple domains an audit scans, and their
cache, belong to cochains.audit_points.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations, product

import numpy as np

from .facetables import csr_expand

REAL_METRIC_SLACK = 1e-12
TRIANGLE_SCAN_LIMIT = 256
# Bytes of neighbour ball rows gathered at once while the balls of a graph
# grow, so that the gather stays this small whatever the degree.
_GATHER_CHUNK_BYTES = 1 << 21
# Bytes of unpacked distance bits added to `dist` at once.
_UNPACK_CHUNK_BYTES = 1 << 15
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
    construction.
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

    # -- invariants ---------------------------------------------------------

    def validate(self) -> None:
        d = self.dist
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        if self.n < 1:
            raise ValueError("space needs at least one point")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length does not match point count")
        if not np.array_equal(d, d.T):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diagonal(d) != 0):
            raise ValueError("diagonal distances must be zero")
        off = _off_diagonal(d)
        if off.size and off.min() <= 0:
            raise ValueError("off-diagonal distances must be positive")
        if not self.integer_metric and not np.all(np.isfinite(d)):
            raise ValueError("distances must be finite")
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
    maximum. A matrix with a negative entry stays int64, so that validate
    still sees the entry and rejects it."""
    if dist.dtype.kind not in "iu":
        dist = dist.astype(np.int64)
    if dist.size and dist.min() >= 0:
        return dist.astype(np.min_scalar_type(dist.max()))
    return dist.astype(np.int64)


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

def build_graph_metric(edges, n: int, labels=None, meta=None) -> FiniteMetricSpace:
    """Hop metric of an undirected graph; see _hop_distances.

    Raises on vertex indices out of range, self-loops, or a disconnected
    graph (the error names two mutually unreachable vertices).
    """
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        seen.add((u, v) if u < v else (v, u))
    meta = dict(meta) if meta else {"kind": "graph", "params": {"n": n}, "seed": 0}
    if "edges" not in meta:
        meta["edges"] = sorted(seen)
    pairs = np.array(list(seen), dtype=np.int64).reshape(-1, 2)
    del seen  # before the distance step, which needs room of its own
    dist = _hop_distances(n, pairs)
    return FiniteMetricSpace(dist, labels=labels, integer_metric=True, meta=meta)


def _closed_adjacency(n: int, edges: np.ndarray):
    """CSR adjacency (starts, nbrs) of the graph on 0..n-1 with the given
    (m, 2) edge array, in which every vertex is also its own neighbour, so
    that no row is empty; nbrs is int32."""
    ids = np.arange(n, dtype=np.int32)
    heads = np.concatenate([edges[:, 0], edges[:, 1], ids]).astype(np.int32)
    tails = np.concatenate([edges[:, 1], edges[:, 0], ids]).astype(np.int32)
    nbrs = tails[np.argsort(heads, kind="stable")]
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=starts[1:])
    return starts, nbrs


def _hop_distances(n: int, edges: np.ndarray) -> np.ndarray:
    """All-pairs hop distances of the graph on 0..n-1 with the given
    (m, 2) edge array, every ball grown at once.

    Row u of `reached` is the closed ball B_L(u) as packed bits, starting
    from B_0(u) = {u}. One level sets B_{L+1}(u) to the union of B_L(v) over
    the closed neighbourhood of u, read from a CSR adjacency in which every
    vertex is its own neighbour (so no reduceat segment is empty). The bits
    a level adds are the pairs at distance L + 1; each pair is added once,
    so OR-ing them into packed bit-plane k for every set bit k of L + 1
    writes d(u, w) in binary without carries. The planes are unpacked once
    at the end, into the smallest unsigned dtype that holds n - 1. A level
    that adds nothing while a bit is still clear means the graph is
    disconnected.
    """
    dist = np.zeros((n, n), dtype=np.min_scalar_type(max(n - 1, 0)))
    if n == 0:
        return dist
    starts, nbrs = _closed_adjacency(n, edges)
    ids = np.arange(n, dtype=np.int32)
    # vertex blocks [a, b) whose gathered neighbour rows fit the chunk;
    # rows are 64-bit words, so each OR handles 64 vertices at once
    width = (n + 63) // 64
    rows = max(1, _GATHER_CHUNK_BYTES // (8 * width))
    bounds = [0]
    while bounds[-1] < n:
        a = bounds[-1]
        b = int(np.searchsorted(starts, starts[a] + rows, side="right")) - 1
        bounds.append(max(a + 1, b))
    blocks = list(zip(bounds, bounds[1:]))

    reached = np.zeros((n, width), dtype=np.uint64)
    packed = reached.view(np.uint8)
    packed[ids, ids >> 3] = 0x80 >> (ids & 7)  # packbits order
    # the padding bits past n count as reached from the start, so a row of
    # `missing` words is zero exactly when its ball is the whole graph
    packed |= np.packbits(np.arange(64 * width) >= n)
    grown = np.empty_like(reached)
    missing = np.empty_like(reached)
    gather = np.empty((max(int(starts[b] - starts[a]) for a, b in blocks),
                       width), dtype=np.uint64)
    planes: list = []
    level = 0
    while True:
        np.invert(reached, out=missing)
        if not missing.any():
            break
        level += 1
        # every take below passes mode="clip" (its indices are always in
        # range) because the default mode copies `out` through a temporary
        for a, b in blocks:
            lo, hi = starts[a], starts[b]
            np.take(reached, nbrs[lo:hi], axis=0, out=gather[:hi - lo],
                    mode="clip")
            np.bitwise_or.reduceat(gather[:hi - lo], starts[a:b] - lo,
                                   axis=0, out=grown[a:b])
        # growth only sets bits, so nothing changed iff grown ^ reached is 0
        np.bitwise_xor(grown, reached, out=missing)
        if not missing.any():
            np.invert(reached, out=missing)
            src = int(np.flatnonzero(missing.any(axis=1))[0])
            far = int(np.flatnonzero(np.unpackbits(
                missing[src].view(np.uint8), count=n))[0])
            raise ValueError(
                f"graph is disconnected: vertex {far} is unreachable "
                f"from vertex {src}")
        for k in range(level.bit_length()):
            if level >> k & 1:
                if k == len(planes):
                    planes.append(np.zeros_like(reached))
                planes[k] |= missing
        reached, grown = grown, reached
    # each plane is unpacked a block of rows at a time into one bit buffer
    # and shifted into place in dist's dtype (a uint8 shift would lose
    # plane 8 and up)
    unpack_rows = max(1, _UNPACK_CHUNK_BYTES // (64 * width))
    bits = np.empty((unpack_rows, 8 * width, 8), dtype=np.uint8)
    for k, plane in enumerate(planes):
        for a in range(0, n, unpack_rows):
            b = min(a + unpack_rows, n)
            np.take(_BYTE_BITS, plane[a:b].view(np.uint8), axis=0,
                    out=bits[:b - a], mode="clip")
            got = bits[:b - a].reshape(b - a, -1)[:, :n]
            dist[a:b] |= np.left_shift(got, k, dtype=dist.dtype)
    return dist


def _hop_row(n: int, edges: np.ndarray, source: int) -> np.ndarray:
    """Hop distances from `source` in the graph on 0..n-1 with the given
    (m, 2) edge array, -1 where it does not reach: a BFS one frontier at a
    time over a CSR adjacency, in O(n + m) time and memory."""
    starts, nbrs = _closed_adjacency(n, edges)
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


class CayleyGraphSpace(FiniteMetricSpace):
    """The hop metric of a Cayley graph: the points are the elements of a
    group whose law is `group`, and each edge joins g to g * a for a
    generator a.

    The metric is left-invariant, d(t * x, t * y) = d(x, y), so the
    distances from the identity (`hops_from_identity`, one BFS) determine
    all the others. The n x n `dist` is built from the edges, and
    validated, when something first reads it; n, labels, meta, to_json,
    content_hash and diameter never do. Only generate_family builds these
    spaces, from edges it generates itself, so there is no input to reject
    up front.
    """

    def __init__(self, edges, n: int, law, labels=None, meta=None):
        self._setup(n, True, labels, meta)
        self.group = law
        self._edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
        self._dist = None

    @property
    def dist(self) -> np.ndarray:
        if self._dist is None:
            self._dist = _compact(_hop_distances(self.n, self._edges))
            self.validate()
        return self._dist

    def hops_from_identity(self) -> np.ndarray:
        """d(e, .) for the identity e, as an int64 row."""
        return _hop_row(self.n, self._edges, self.group.identity)

    def diameter(self) -> float:
        # every point is as far from the others as the identity is
        return float(self.hops_from_identity().max())

    def min_positive_distance(self) -> float:
        # a Cayley graph here has at least one edge, whose two points are at
        # distance 1
        return 1.0


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
    return [(i, j) for i, j in combinations(range(m), 2)], m, None


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
        seen = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            key = (u, v) if u < v else (v, u)
            if u == v or key in seen:
                ok = False
                break
            seen.add(key)
        if not ok:
            continue
        if (_hop_row(n, np.array(list(seen)), 0) >= 0).all():
            return sorted(seen), n, None, attempt
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
    The cycle and torus families are Cayley graphs of (Z/size)^dim and
    carry that group law (CayleyGraphSpace); the others are eager
    FiniteMetricSpaces.
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
    meta = {"kind": kind, "params": arg, "seed": seed,
            "edges": sorted((min(e), max(e)) for e in edges), **extra}
    if law is not None:
        return CayleyGraphSpace(meta["edges"], n, law, labels=labels,
                                meta=meta)
    return build_graph_metric(edges, n, labels=labels, meta=meta)


# -- ball rows --------------------------------------------------------------

def mask_rows(mask: np.ndarray):
    """indptr and column arrays of the True entries of a square mask, row
    by row in ascending column order: the CSR form of a ball mask."""
    n = len(mask)
    flat = np.flatnonzero(mask)
    return np.searchsorted(flat, np.arange(n + 1) * n), flat % n
