import hashlib
import json
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import coarsecohom as cc
from coarsecohom.cochains import _join
from coarsecohom.space import (FAMILY_PARAMS, TRIANGLE_SCAN_LIMIT,
                               _add_level, _ball_rows, _compact,
                               _complete_edges, _cycle_edges,
                               _free_ball_edges, _grow_balls, _hop_distances,
                               _hop_row, _padding, _path_edges,
                               _random_regular_edges, _read_balls,
                               _torus_edges)
from helpers import (bfs_graph_dist, brute_tuples, cycle_dist, spaces,
                     torus_dist)


def test_cycle_metric_matches_closed_form():
    sp = cc.generate_family("cycle", {"size": 16})
    for i in range(16):
        for j in range(16):
            assert sp.d(i, j) == cycle_dist(16, i, j)
    assert sp.diameter() == 8
    assert sp.min_positive_distance() == 1


def test_torus_metric_matches_closed_form():
    sp = cc.generate_family("torus", {"dim": 2, "size": 8})
    assert sp.n == 64
    for a in range(64):
        for b in range(64):
            assert sp.d(a, b) == torus_dist(8, 2, a, b)
    # labels follow the (i,j) grid with the last axis fastest
    assert sp.label(0) == "(0,0)"
    assert sp.label(9) == "(1,1)"


def _coordinates(space):
    """Each point's coordinates, read from its label on a torus and from
    its index on a cycle."""
    if space.labels is None:
        return np.arange(space.n)[:, None]
    return np.array([[int(c) for c in label.strip("()").split(",")]
                     for label in space.labels])


@pytest.mark.parametrize("kind,params", [
    ("cycle", {"size": 7}), ("torus", {"dim": 2, "size": 5}),
    ("torus", {"dim": 3, "size": 3})])
def test_cycle_and_torus_laws_are_symmetries_of_their_metrics(kind, params):
    sp = cc.generate_family(kind, params)
    law, size, ids = sp.group, params["size"], np.arange(sp.n)
    coords = _coordinates(sp)
    assert law.identity == 0 and not coords[0].any()
    # t * g adds coordinates mod size, in the labels' own numbering
    table = law.translate(ids[:, None], ids[None, :])
    index = {tuple(c): i for i, c in enumerate(coords.tolist())}
    for t in range(sp.n):
        sums = (coords[t] + coords) % size
        assert table[t].tolist() == [index[tuple(c)] for c in sums.tolist()]
    # left translation preserves the hop metric, which is what lets one row
    # from the identity stand for every pair
    dist = sp.dist
    for t in range(sp.n):
        assert np.array_equal(dist[np.ix_(table[t], table[t])], dist)
    assert np.array_equal(sp.hops_from_identity(), dist[0])


def test_group_space_builds_its_distance_matrix_on_first_read(monkeypatch):
    sp = cc.generate_family("torus", {"dim": 2, "size": 5})
    want = cc.build_graph_metric(sp.meta["edges"], sp.n).dist
    assert sp.n == 25 and sp.label(6) == "(1,1)"
    sp.to_json()
    sp.content_hash()
    assert sp.min_positive_distance() == 1.0
    assert sp._dist is None
    checked = []
    validate = cc.FiniteMetricSpace.validate
    monkeypatch.setattr(cc.FiniteMetricSpace, "validate",
                        lambda self: checked.append(self) or validate(self))
    first = sp.dist
    assert checked == [sp]
    assert first.dtype == want.dtype and np.array_equal(first, want)
    assert sp.dist is first and checked == [sp]
    # every other graph space is as lazy, with no group law; a space given
    # as a matrix is eager
    for other in (cc.generate_family("path", {"size": 4}),
                  cc.generate_family("complete", {"n": 4}),
                  cc.generate_family("free_ball", {"rank": 1, "radius": 1}),
                  cc.generate_family("random_regular", {"n": 8, "k": 3}),
                  cc.build_graph_metric([(0, 1), (1, 2)], 3),
                  cc.load_edge_list("0 1\n1 2\n")):
        assert other.group is None and other._dist is None
        other.diameter(), other.rows_within(1.0), other.content_hash()
        assert other.min_positive_distance() == 1.0
        assert other._dist is None and checked[-1] is not other
        want = _hop_distances(other.n, np.array(other.meta["edges"]))
        assert np.array_equal(other.dist, want) and checked[-1] is other
    dense = cc.FiniteMetricSpace(np.array([[0, 1], [1, 0]]))
    assert "dist" in vars(dense) and checked[-1] is dense


def test_path_and_complete():
    path = cc.generate_family("path", {"size": 12})
    assert path.n == 12 and path.d(0, 11) == 11
    comp = cc.generate_family("complete", {"n": 5})
    assert comp.diameter() == 1


def test_free_ball_counts():
    # 1 + 2r(2r-1)^(k-1) words per sphere for rank r
    assert cc.generate_family("free_ball", {"rank": 2, "radius": 2}).n == 17
    assert cc.generate_family("free_ball", {"rank": 2, "radius": 1}).n == 5
    assert cc.generate_family("free_ball", {"rank": 1, "radius": 3}).n == 7
    assert cc.generate_family("free_ball", {"rank": 2, "radius": 0}).n == 1


def test_free_ball_word_metric():
    sp = cc.generate_family("free_ball", {"rank": 2, "radius": 2})
    idx = {sp.label(i): i for i in range(sp.n)}
    e = idx["e"]
    for label, i in idx.items():
        want = 0 if label == "e" else len(label)
        assert sp.d(e, i) == want
    # geodesics inside the ball: d(ab, aB) = |B^-1 A^-1 a B| = |BB| = 2
    assert sp.d(idx["ab"], idx["aB"]) == 2
    assert sp.d(idx["a"], idx["A"]) == 2
    assert sp.d(idx["ab"], idx["a"]) == 1


def test_disconnected_graph_names_both_vertices():
    with pytest.raises(ValueError, match="vertex 2 is unreachable from vertex 0"):
        cc.build_graph_metric([(0, 1), (2, 3)], 4)


@st.composite
def edge_lists(draw):
    """(n, edges): random graphs with isolated vertices, random connected
    graphs, complete graphs and paths, each with repeated edges in either
    orientation and in shuffled order; "bad" lists carry one self-loop or
    out-of-range edge."""
    n = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(
        ["random", "connected", "complete", "path", "bad"]))
    if shape == "complete":
        edges = list(combinations(range(n), 2))
    elif shape == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    else:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = [e for e in draw(st.lists(pair, max_size=2 * n))
                 if e[0] != e[1]]
        if shape == "connected":
            edges += [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if edges:
        edges += [(v, u) for u, v in
                  draw(st.lists(st.sampled_from(edges), max_size=5))]
    edges = list(draw(st.permutations(edges)))
    if shape == "bad":
        v = draw(st.integers(0, n - 1))
        bad = draw(st.sampled_from([(v, v), (v, n + v)]))
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, edges


def _outcome(build, edges, n):
    try:
        return build(edges, n)
    except ValueError as err:
        return str(err)


@settings(deadline=None, max_examples=200)
@given(edge_lists())
def test_graph_metric_matches_reference_bfs(case):
    n, edges = case
    want = _outcome(bfs_graph_dist, edges, n)
    got = _outcome(lambda e, m: cc.build_graph_metric(e, m).dist, edges, n)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dtype.kind == "u"
        assert np.array_equal(got, want)


@st.composite
def graph_spaces(draw):
    """Graph spaces of every family kind, and the connected graphs of
    edge_lists."""
    kind = draw(st.sampled_from(["edges", *FAMILY_PARAMS]))
    if kind == "edges":
        n, edges = draw(edge_lists())
        space = _outcome(cc.build_graph_metric, edges, n)
        assume(not isinstance(space, str))
        return space
    params = {
        "cycle": lambda: {"size": draw(st.integers(3, 12))},
        "path": lambda: {"size": draw(st.integers(1, 12))},
        "complete": lambda: {"n": draw(st.integers(1, 8))},
        "torus": lambda: draw(st.sampled_from(
            [{"size": m, "dim": 1} for m in (3, 7)]
            + [{"size": m, "dim": 2} for m in (3, 4, 6)]
            + [{"size": 3, "dim": 3}])),
        "free_ball": lambda: {"rank": draw(st.integers(1, 2)),
                              "radius": draw(st.integers(0, 3))},
        "random_regular": lambda: draw(st.sampled_from(
            [{"n": 4, "k": 3}, {"n": 10, "k": 3}, {"n": 24, "k": 3},
             {"n": 9, "k": 2}, {"n": 12, "k": 4}])),
    }[kind]()
    return cc.generate_family(kind, params, seed=draw(st.integers(0, 3)))


def _near_rows(space, r):
    """The rows within r read off the space's whole near(r) mask."""
    flat = np.flatnonzero(space.near(r))
    return (np.searchsorted(flat, np.arange(space.n + 1) * space.n),
            flat % space.n, space.dist.reshape(-1)[flat])


def _same_rows(got, want):
    return all(np.array_equal(a, b) for a, b in zip(got, want))


@settings(deadline=None, max_examples=150)
@given(graph_spaces(), st.randoms(use_true_random=False),
       st.sampled_from([8, 24, 1 << 18]))
def test_graph_rows_within_are_the_dense_rows(space, rng, read_bytes):
    # radii asked in any order, NaN and -1 among them, on a graph space
    # before and after its matrix is built, on a fresh twin, and on the
    # same metric given as a matrix and scaled to a real metric: every
    # answer is the rows of the near mask, and only a radius >= 0 is kept;
    # the balls are read out one packed row, a few, or all at a time
    twin = cc.FiniteMetricSpace.from_json(space.to_json())
    radii = [0.0, 0.5, 1.0, 2.5, -1.0, float("nan")]
    radii += [float(r) for r in range(2, int(space.diameter()) + 2)]
    rng.shuffle(radii)
    with mock.patch("coarsecohom.space._READ_BYTES", read_bytes):
        before = [space.rows_within(r) for r in radii]
    assert space._dist is None
    matrix = cc.FiniteMetricSpace(space.dist)
    real = cc.scaled_metric(matrix, 0.5)
    order = list(range(len(radii)))
    rng.shuffle(order)
    for k in order:
        r = radii[k]
        want = _near_rows(matrix, r)
        with mock.patch("coarsecohom.space._READ_BYTES", read_bytes):
            read = [twin.rows_within(r), space.rows_within(r)]
        for got in (before[k], *read, matrix.rows_within(r)):
            assert _same_rows(got, want)
        assert _same_rows(real.rows_within(r / 2), _near_rows(real, r / 2))
    for sp in (space, twin, matrix, real):
        assert sp._balls[0] >= 0
    assert twin.diameter() == space.diameter() == float(space.dist.max())


@pytest.mark.parametrize("kind,params,radius", [
    ("random_regular", {"n": 30, "k": 3}, 2),
    ("random_regular", {"n": 300, "k": 3}, 4),
    ("torus", {"dim": 2, "size": 12}, 5),
    ("path", {"size": 300}, 299),
], ids=["rr30", "rr300", "torus12", "path300"])
@pytest.mark.parametrize("read_bytes", [8, 100])
def test_balls_read_out_by_blocks_are_the_dense_rows(kind, params, radius,
                                                     read_bytes):
    # graphs of 30 to 300 points read out a few packed rows at a time,
    # the last block short: the rows and their dtypes are the near mask's
    space = cc.generate_family(kind, params, seed=5)
    with mock.patch("coarsecohom.space._READ_BYTES", read_bytes):
        got = space.rows_within(float(radius))
    matrix = cc.FiniteMetricSpace(space.dist)
    assert _same_rows(got, _near_rows(matrix, radius))
    assert [part.dtype for part in got] == [
        part.dtype for part in matrix.rows_within(radius)]


def test_ball_read_out_memory_follows_the_block():
    # the 2-balls of rr8192 read out of their packed rows a block at a
    # time: the read-out's temporaries follow the entries, far below the
    # n^2 / 8 bytes (8 MiB) that one mask over every packed row takes
    n = 8192
    edges = cc.generate_family("random_regular", {"n": n, "k": 3},
                               seed=1)._edges
    planes: list = []
    for level, reached, added in _grow_balls(n, edges):
        if added is not None:
            _add_level(planes, level, added)
        if level == 2:
            break
    reached &= ~_padding(n, reached.shape[1])
    tracemalloc.start()
    try:
        rows = _read_balls(reached, planes, np.uint8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * sum(part.nbytes for part in rows) + 2 ** 20
    # each 2-ball holds its centre, its 3 neighbours and at most 6 more
    indptr, cols, dists = rows
    assert np.count_nonzero(dists == 0) == n
    assert np.count_nonzero(dists == 1) == 3 * n
    assert np.diff(indptr).max() <= 10 and indptr[-1] == len(cols)
    assert [part.dtype for part in rows] == [np.int64, np.int64, np.uint8]


def test_graph_rows_within_are_shared_and_read_only():
    # the space keeps the rows of the widest radius it has read: one
    # growth per new widest radius, the same tuple for every radius with
    # the same level count, a filter of them for a smaller one, and no
    # rows kept for a negative or NaN radius
    sp = cc.generate_family("random_regular", {"n": 64, "k": 3}, seed=2)
    path = cc.generate_family("path", {"size": 10})
    with mock.patch("coarsecohom.space._ball_rows",
                    wraps=_ball_rows) as grown:
        for r in (float("nan"), -1.0):
            assert all(len(part) == 0 for part in sp.rows_within(r)[1:])
        assert sp._balls is None and grown.call_count == 0
        first = sp.rows_within(2.0)
        assert sp.rows_within(2.5) is first and grown.call_count == 1
        unit = sp.rows_within(1.0)
        assert len(unit[1]) == 64 * 4 and grown.call_count == 1
        whole = sp.rows_within(1e9)
        assert sp.rows_within(float("inf")) is whole
        assert sp.rows_within(sp.diameter() + 0.5) is whole
        assert grown.call_count == 2
        again = sp.rows_within(2.5)
        assert again is not first and _same_rows(again, first)
        assert sp.rows_within(float("nan"))[0][-1] == 0
        assert grown.call_count == 2 and sp._balls[1] is whole
        # a path's balls fill it at n - 1 levels, its diameter
        full = path.rows_within(1e9)
        assert path.rows_within(float("inf")) is full
        assert path.rows_within(9.5) is full and grown.call_count == 3
    assert len(whole[1]) == 64 * 64 and whole[1].dtype == np.uint8
    for part in (*first, *whole):
        with pytest.raises(ValueError, match="read-only"):
            part[0] = 1


@pytest.mark.parametrize("kind,params,seed,digest", [
    ("cycle", {"size": 9}, 0,
     "e7aeb3819df86f33d5499d626495b90c2dcae3c97f268093ab1c35673496945c"),
    ("path", {"size": 7}, 0,
     "de0f693fcee6a41f5f1e2cef45ae9b7d30fea3eca63d1aa31f8322f0448ebab1"),
    ("complete", {"n": 6}, 0,
     "eff4174ff7b28a927d5cba3f6beed633d25630be6f2a824e834c4bcb67fd833c"),
    ("torus", {"size": 4, "dim": 2}, 0,
     "c70c7bb24009c37c91ba9a8ddebce58d2418ff018dcfc08efede4fe915dc3012"),
    ("free_ball", {"rank": 2, "radius": 2}, 0,
     "a50083e0f77d9d784dce2ddc6734a7c7dade0b1e327962279f2daa80f24df9ce"),
    ("random_regular", {"n": 20, "k": 3}, 5,
     "ef869b54b18016ae8adf3765ef4e35ab3801bc214d95685b83b4fa7211aab43d"),
])
def test_family_serialisation_is_stable(kind, params, seed, digest):
    # digests written by the per-source queue BFS build
    sp = cc.generate_family(kind, params, seed)
    assert hashlib.sha256(sp.canonical_json().encode()).hexdigest() == digest
    assert sp.content_hash() == digest


def test_path256_compact_dist_validates_without_wraparound():
    sp = cc.generate_family("path", {"size": 256})
    assert sp.n <= TRIANGLE_SCAN_LIMIT
    assert sp.dist.dtype == np.uint8 and sp.diameter() == 255
    # uint8 sums such as d(1,0) + d(0,255) = 256 would wrap to 0
    sp.validate()
    assert sp.d(1, 255) == 254


def test_path300_distances_fill_the_high_bit_planes():
    # d(0, 299) = 299 sets bit-plane 8, which a shift in uint8 would drop
    sp = cc.generate_family("path", {"size": 300})
    i = np.arange(300)
    assert sp.dist.dtype == np.uint16
    assert np.array_equal(sp.dist, np.abs(i[:, None] - i[None, :]))


def test_scaled_compact_metric_widens_first():
    sp = cc.scaled_metric(cc.generate_family("path", {"size": 200}), 3)
    assert sp.integer_metric
    assert sp.d(0, 199) == 597
    assert sp.dist.dtype == np.uint16


def test_negative_integer_distance_is_still_rejected():
    with pytest.raises(ValueError, match="positive"):
        cc.FiniteMetricSpace(np.array([[0, -1], [-1, 0]]))
    # the matrix stays int64, so that validate sees the negative entry
    assert _compact(np.array([[0, -1], [-1, 0]])).dtype == np.int64


def test_dense_integer_matrix_keeps_its_values():
    sp = cc.FiniteMetricSpace(np.array([[0, 300, 2], [300, 0, 299],
                                        [2, 299, 0]]))
    assert sp.dist.dtype == np.uint16
    assert sp.to_json()["dist"] == [[0, 300, 2], [300, 0, 299], [2, 299, 0]]
    assert sp.min_positive_distance() == 2.0


def test_min_positive_distance_of_fortran_ordered_matrix():
    d = np.asfortranarray([[0.0, 2.5, 0.75], [2.5, 0.0, 2.0],
                           [0.75, 2.0, 0.0]])
    sp = cc.FiniteMetricSpace(d)
    assert sp.dist.dtype == np.float64
    assert sp.min_positive_distance() == 0.75


def test_distance_step_memory_is_bounded():
    n = 600
    edges = np.array(list(combinations(range(n), 2)))
    tracemalloc.start()
    try:
        dist = _hop_distances(n, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(dist, 1 - np.eye(n, dtype=int))
    assert peak < 16 * 2 ** 20


def test_hop_distances_come_in_the_diameters_dtype():
    # the matrix is allocated after the BFS, in the smallest unsigned dtype
    # that holds the diameter, and the space keeps it as it is: a uint16
    # matrix and a uint8 copy of it would take 12 MiB on their own
    tracemalloc.start()
    try:
        rr = cc.generate_family("random_regular", {"n": 2048, "k": 3}, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20
    dist = _hop_distances(rr.n, np.array(rr.meta["edges"]))
    assert dist.dtype == np.uint8 == np.min_scalar_type(int(dist.max()))
    assert np.array_equal(rr.dist, dist)
    # so the space keeps the matrix itself, with no copy
    assert _compact(dist) is dist
    path = np.array([(i, i + 1) for i in range(299)])
    assert _hop_distances(300, path).dtype == np.uint16


def _star(n: int) -> list:
    return [(0, v) for v in range(1, n)]


def _hub_and_path(leaves: int, length: int) -> list:
    """A hub with `leaves` leaves, and a path of `length` more vertices
    hanging off it."""
    tail = range(leaves + 1, leaves + 1 + length)
    return _star(leaves + 1) + [(0, leaves + 1)] + list(zip(tail, tail[1:]))


def test_star_hop_distances():
    # every row has 1 neighbour but the hub, whose 2998 extra neighbours
    # take the reduceat alone
    n = 3000
    want = np.full((n, n), 2)
    want[0] = want[:, 0] = 1
    np.fill_diagonal(want, 0)
    assert np.array_equal(_hop_distances(n, np.array(_star(n))), want)


@pytest.mark.parametrize("graph", [
    # leaves and the path's end have 1 neighbour, the path 2 and the hub
    # 101, so one block of extra neighbours mixes one-entry rows with a
    # long one
    lambda: (_hub_and_path(100, 600), 701),
    # inner words have 4 neighbours, the leaves 1, and the inner words
    # come first, so their rows are one slice
    lambda: _free_ball_edges(2, 5)[:2],
    # every row has 4 neighbours, all of them slots
    lambda: _torus_edges(2, 20)[:2],
], ids=["hub-and-path", "free_ball-2-5", "torus-20x20"])
def test_hop_distances_match_reference_bfs(graph):
    edges, n = graph()
    assert np.array_equal(_hop_distances(n, np.array(edges)),
                          bfs_graph_dist(edges, n))


@pytest.mark.parametrize("n, edges", [
    (10, _star(9)),  # vertex 9 is isolated, so J = 0 and there is no slot
    (400, _star(150) + [(v, v + 1) for v in range(200, 399)]),
    (701, [(u, v) for u, v in _hub_and_path(100, 600) if (u, v) != (0, 101)]),
], ids=["isolated-vertex", "star-and-path", "cut-hub-and-path"])
def test_disconnected_error_matches_reference_bfs(n, edges):
    with pytest.raises(ValueError) as want:
        bfs_graph_dist(edges, n)
    with pytest.raises(ValueError) as got:
        _hop_distances(n, np.array(edges))
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("graph is disconnected: vertex ")


@st.composite
def edge_lists_with_bad_edges(draw):
    """(n, edges): a random edge list with several bad edges at random
    places: self-loops, ends past n or below 0, and loops out of range,
    which are both."""
    n = draw(st.integers(1, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [e for e in draw(st.lists(pair, max_size=3 * n)) if e[0] != e[1]]
    v = st.integers(0, n - 1)
    bad = st.one_of(v.map(lambda a: (a, a)),
                    st.tuples(v, st.integers(n, n + 3)),
                    st.tuples(st.integers(-3, -1), v),
                    st.integers(n, n + 3).map(lambda a: (a, a)))
    for edge in draw(st.lists(bad, min_size=1, max_size=4)):
        edges.insert(draw(st.integers(0, len(edges))), edge)
    return n, edges


@settings(deadline=None, max_examples=200)
@given(edge_lists_with_bad_edges(), st.booleans())
def test_edge_errors_name_the_first_bad_edge_like_the_edge_loop(case,
                                                                as_array):
    # the vectorised checks raise what the per-edge loop raised: the first
    # offending edge in the given order, a range error before a self-loop
    n, edges = case
    with pytest.raises(ValueError) as want:
        bfs_graph_dist(edges, n)
    with pytest.raises(ValueError) as got:
        cc.build_graph_metric(np.array(edges) if as_array else edges, n)
    assert str(got.value) == str(want.value)


@settings(deadline=None, max_examples=100)
@given(edge_lists())
def test_meta_edges_are_the_sorted_distinct_edges(case):
    n, edges = case
    if isinstance(_outcome(bfs_graph_dist, edges, n), str):
        return
    sp = cc.build_graph_metric(edges, n)
    assert sp.meta["edges"] == sorted({(min(e), max(e)) for e in edges})
    assert all(type(a) is int and type(b) is int for a, b in sp.meta["edges"])


@pytest.mark.parametrize("kind,params,seed,make", [
    ("cycle", {"size": 9}, 0, lambda: _cycle_edges(9)),
    ("path", {"size": 1}, 0, lambda: _path_edges(1)),
    ("complete", {"n": 7}, 0, lambda: _complete_edges(7)),
    ("torus", {"size": 3, "dim": 3}, 0, lambda: _torus_edges(3, 3)),
    ("free_ball", {"rank": 3, "radius": 2}, 0,
     lambda: _free_ball_edges(3, 2)),
    ("random_regular", {"n": 30, "k": 4}, 2,
     lambda: _random_regular_edges(30, 4, 2))],
    ids=lambda v: v if isinstance(v, str) else None)
def test_family_meta_edges_are_the_sorted_min_max_pairs(kind, params, seed,
                                                        make):
    # the family's edges as the one sort of (min, max) pairs made them
    edges = make()[0]
    sp = cc.generate_family(kind, params, seed)
    assert sp.meta["edges"] == sorted((min(e), max(e)) for e in edges)
    assert all(type(a) is int and type(b) is int for a, b in sp.meta["edges"])


def test_edge_validation():
    with pytest.raises(ValueError, match="out of range"):
        cc.build_graph_metric([(0, 5)], 3)
    with pytest.raises(ValueError, match="self-loop"):
        cc.build_graph_metric([(1, 1)], 3)
    with pytest.raises(ValueError, match="at least one point"):
        cc.build_graph_metric([], 0)


def test_random_regular_properties():
    sp = cc.generate_family("random_regular", {"n": 32, "k": 3}, seed=1)
    assert sp.n == 32
    degree = [0] * 32
    for u, v in sp.meta["edges"]:
        degree[u] += 1
        degree[v] += 1
    assert degree == [3] * 32
    assert np.all(np.isfinite(sp.dist))  # connected by construction
    assert sp.meta["retries"] >= 0

    again = cc.generate_family("random_regular", {"n": 32, "k": 3}, seed=1)
    assert again.canonical_json() == sp.canonical_json()
    other = cc.generate_family("random_regular", {"n": 32, "k": 3}, seed=2)
    assert other.meta["edges"] != sp.meta["edges"]


@pytest.mark.parametrize("n, k, seed, retries, digest", [
    (8, 2, 0, 2, "a6da8242a2694721"), (12, 2, 1, 4, "926f0bd3c43f78fc"),
    (20, 2, 3, 0, "e29f19dbf0422d97"), (30, 2, 4, 7, "4e247be8c9b76f2b"),
    (10, 3, 0, 8, "db0ee412bbbfe74e"), (16, 3, 5, 5, "9d91d192b404bca5"),
    (64, 3, 2, 0, "28447a7446fab53f"), (40, 4, 1, 111, "92d2fb098b7c73df"),
])
def test_random_regular_draws_are_stable(n, k, seed, retries, digest):
    # retries and edges as written when connectivity had its own routine;
    # k = 2 draws are often disconnected, so several of these reject some
    sp = cc.generate_family("random_regular", {"n": n, "k": k}, seed=seed)
    assert sp.meta["retries"] == retries
    edges = json.dumps(sp.meta["edges"]).encode()
    assert hashlib.sha256(edges).hexdigest()[:16] == digest


def test_hop_row_marks_unreached_vertices():
    two_paths = np.array([[0, 1], [1, 2], [3, 4], [4, 5]])
    assert _hop_row(6, two_paths, 0).tolist() == [0, 1, 2, -1, -1, -1]


@pytest.mark.parametrize("kind, params, error", [
    ("cycle", {}, "family cycle needs parameter 'size'"),
    ("torus", {"dim": 2}, "family torus needs parameter 'size'"),
    ("torus", {"size": 4, "dim": 2, "rank": 3},
     "family torus takes no parameter 'rank'"),
    ("complete", {"size": 5}, "family complete takes no parameter 'size'"),
    ("complete", {}, "family complete needs parameter 'n'"),
    ("free_ball", {"rank": 2}, "family free_ball needs parameter 'radius'"),
    ("random_regular", {"n": 8}, "family random_regular needs parameter 'k'"),
    ("path", {"size": 4, "n": 4}, "family path takes no parameter 'n'"),
])
def test_family_parameters_are_checked(kind, params, error):
    with pytest.raises(ValueError) as info:
        cc.generate_family(kind, params)
    assert str(info.value) == error


def test_optional_torus_dim_is_filled_into_the_params():
    # an omitted dim is 2, and the params (and so the hash) say so: one
    # torus, one hash
    sp = cc.generate_family("torus", {"size": 4})
    assert sp.meta["params"] == {"size": 4, "dim": 2} and sp.n == 16
    same = cc.generate_family("torus", {"size": 4, "dim": 2})
    assert sp.content_hash() == same.content_hash()
    assert sp.content_hash()[:16] == "c70c7bb24009c37c"


def test_random_regular_odd_product_rejected():
    with pytest.raises(ValueError, match="odd"):
        cc.generate_family("random_regular", {"n": 9, "k": 3})


def test_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        cc.generate_family("moebius", {"size": 4})


@pytest.mark.parametrize("kind,params,seed", [
    ("cycle", {"size": 9}, 0),
    ("free_ball", {"rank": 2, "radius": 2}, 0),
    ("random_regular", {"n": 16, "k": 3}, 7),
])
def test_json_round_trip(kind, params, seed):
    sp = cc.generate_family(kind, params, seed)
    clone = cc.FiniteMetricSpace.from_json(json.loads(json.dumps(sp.to_json())))
    assert clone.canonical_json() == sp.canonical_json()
    assert clone.content_hash() == sp.content_hash()
    assert np.array_equal(clone.dist, sp.dist)


def test_json_round_trip_dense_matrix():
    sp = cc.FiniteMetricSpace(np.array([[0.0, 1.5], [1.5, 0.0]]))
    clone = cc.FiniteMetricSpace.from_json(sp.to_json())
    assert clone.d(0, 1) == 1.5
    assert not clone.integer_metric
    assert clone.dist.dtype == np.float64
    assert np.array_equal(clone.dist, sp.dist)


def test_edge_list_import():
    text = "# square\n0 1\n1 2\n2 3\n\n3 0\n"
    sp = cc.load_edge_list(text)
    assert sp.n == 4 and sp.d(0, 2) == 2
    with pytest.raises(ValueError, match="expected 'u v'"):
        cc.load_edge_list("0 1 2\n")
    with pytest.raises(ValueError, match="empty"):
        cc.load_edge_list("# nothing\n")


def test_metric_validation():
    with pytest.raises(ValueError, match="symmetric"):
        cc.FiniteMetricSpace(np.array([[0, 1], [2, 0]]))
    with pytest.raises(ValueError, match="diagonal"):
        cc.FiniteMetricSpace(np.array([[1, 1], [1, 0]]))
    with pytest.raises(ValueError, match="positive"):
        cc.FiniteMetricSpace(np.array([[0, 0], [0, 0]]))
    with pytest.raises(ValueError, match="triangle"):
        cc.FiniteMetricSpace(np.array([[0, 1, 9], [1, 0, 1], [9, 1, 0]]))
    # a single point is a legal space
    assert cc.FiniteMetricSpace(np.zeros((1, 1), dtype=int)).n == 1


@pytest.mark.parametrize("dist, error", [
    ([[0, 1], [2, 0]],
     "distance matrix must be symmetric: d(0,1) = 1 but d(1,0) = 2"),
    ([[0, 1, 1], [1, 3, 1], [1, 1, 5]],
     "diagonal distances must be zero: d(1,1) = 3"),
    ([[0, 1, 1], [1, 0, 0], [1, 0, 0]],
     "off-diagonal distances must be positive: d(1,2) = 0"),
    ([[0.0, 1.0, np.inf], [1.0, 0.0, 1.0], [np.inf, 1.0, 0.0]],
     "distances must be finite: d(0,2) = inf"),
    # finiteness comes first, so a symmetric NaN is named as what it is
    ([[0.0, np.nan], [np.nan, 0.0]], "distances must be finite: d(0,1) = nan"),
    ([[np.nan, 1.0], [2.0, 0.0]], "distances must be finite: d(0,0) = nan"),
])
def test_metric_errors_name_the_first_offending_entry(dist, error):
    with pytest.raises(ValueError) as info:
        cc.FiniteMetricSpace(np.array(dist))
    assert str(info.value) == error


def _line_metric(n: int) -> np.ndarray:
    """|x_i - x_j| for n distinct sorted reals: a metric far above the
    triangle scan limit, so symmetry is the check under test."""
    x = np.sort(np.random.default_rng(3).uniform(0.0, 100.0, n))
    return np.abs(x[:, None] - x[None, :])


@pytest.mark.parametrize("i, j", [
    (3, 590),    # in the last, partial tile column
    (590, 3),    # its mirror, reported from the upper triangle
    (100, 300),  # an off-diagonal tile pair
    (598, 599),  # next to the diagonal in the last, partial tile
])
@pytest.mark.parametrize("kind", ["real", "integer"])
def test_symmetry_check_catches_a_lone_asymmetric_entry(i, j, kind):
    # the tiles have about 32 KiB: 64 x 64 float64 entries and 128 x 128
    # uint16 ones, so 600 points leave a partial tile at the end
    if kind == "real":
        dist = _line_metric(600)
    else:
        dist = cc.generate_family("path", {"size": 600}).dist.copy()
        assert dist.dtype == np.uint16
    assert cc.FiniteMetricSpace(dist).n == 600
    dist[i, j] += 1
    a, b = min(i, j), max(i, j)
    with pytest.raises(ValueError) as info:
        cc.FiniteMetricSpace(dist)
    assert str(info.value) == (
        f"distance matrix must be symmetric: d({a},{b}) = {dist[a, b]} but "
        f"d({b},{a}) = {dist[b, a]}")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 299), st.integers(0, 299))
def test_symmetry_check_sees_every_entry(i, j):
    dist = cc.generate_family("path", {"size": 300}).dist.copy()
    dist[i, j] += 1
    with pytest.raises(ValueError, match="symmetric" if i != j else
                       "diagonal"):
        cc.FiniteMetricSpace(dist)


def test_fortran_ordered_matrix_validates():
    for dist in (_line_metric(600),
                 cc.generate_family("path", {"size": 600}).dist):
        sp = cc.FiniteMetricSpace(np.asfortranarray(dist))
        assert sp.dist.dtype == dist.dtype
        assert np.array_equal(sp.dist, dist)


def test_scaled_metric():
    sp = cc.generate_family("cycle", {"size": 8})
    big = cc.scaled_metric(sp, 2.0)
    assert big.d(0, 3) == 6
    assert big.integer_metric
    frac = cc.scaled_metric(sp, 0.5)
    assert not frac.integer_metric
    with pytest.raises(ValueError):
        cc.scaled_metric(sp, 0.0)


def _ball(sp, i, r):
    indptr, members, _ = sp.rows_within(r)
    return members[indptr[i]:indptr[i + 1]].tolist()


def test_balls():
    sp = cc.generate_family("cycle", {"size": 4})
    assert _ball(sp, 0, 1) == [0, 1, 3]
    assert _ball(sp, 0, 2) == [0, 1, 2, 3]
    assert all(isinstance(v, int) for v in _ball(sp, 0, 1))


def _rows(faces):
    return [tuple(row) for row in faces.tolist()]


def test_cycle5_pair_domain():
    # each point has a 3-ball, so 5*3 ordered pairs within distance 1
    sp = cc.generate_family("cycle", {"size": 5})
    points, exact = cc.audit_points(sp, 2, 0, 1.0)
    assert exact and len(points) == 15
    assert _rows(points) == brute_tuples(sp, 1, 1)


@pytest.mark.parametrize("kind,params,p,r", [
    ("cycle", {"size": 6}, 2, 2.0),
    ("path", {"size": 5}, 1, 1.0),
    ("torus", {"dim": 2, "size": 3}, 1, 1.0),
    ("free_ball", {"rank": 2, "radius": 1}, 2, 1.0),
])
def test_exact_enumeration_matches_brute_force(kind, params, p, r):
    sp = cc.generate_family(kind, params)
    faces = _join(sp, p, r, 20_000)
    assert faces.dtype == np.int64 and not faces.flags.writeable
    assert _rows(faces) == brute_tuples(sp, p, r)      # lexicographic


@settings(deadline=None, max_examples=60)
@given(spaces(1, 8), st.integers(0, 3),
       st.sampled_from([0.0, 0.75, 1.0, 1.5, 2.0]), st.sampled_from([-1, 0, 1]))
def test_exact_domain_is_the_brute_force_scan_or_none(space, p, r, offset):
    # budgets just below, at and just above the true count
    want = brute_tuples(space, p, r)
    budget = len(want) + offset
    faces = _join(space, p, r, budget)
    if budget < len(want):
        assert faces is None
    else:
        assert faces.shape == (len(want), p + 1)
        assert _rows(faces) == want


def test_sampled_domain():
    def draw(seed):
        sp = cc.generate_family("torus", {"dim": 2, "size": 8})
        return sp, cc.audit_points(sp, 3, 0, 2.0, budget=500,
                                   sample_size=500, seed=seed)

    sp, (points, exact) = draw(3)
    assert not exact
    assert len(points) == 500
    rows = _rows(points)
    assert rows == sorted(set(rows))                   # distinct, sorted
    assert all(sp.within(a, b, 2.0) for row in rows for a in row for b in row)
    assert np.array_equal(draw(3)[1][0], points)
    assert not np.array_equal(draw(4)[1][0], points)


def test_point_domain():
    sp = cc.generate_family("path", {"size": 7})
    points, exact = cc.audit_points(sp, 1, 0, 1.0)
    assert exact and _rows(points) == [(i,) for i in range(7)]


def test_derive_seed_stable_and_sensitive():
    a = cc.derive_seed(1, "tag", 2)
    assert a == cc.derive_seed(1, "tag", 2)
    assert a != cc.derive_seed(1, "tag", 3)
    assert a != cc.derive_seed(2, "tag", 2)
    assert 0 <= a < 2 ** 64


@settings(deadline=None, max_examples=25)
@given(st.integers(3, 9), st.integers(0, 3), st.data())
def test_ball_symmetry_property(m, r, data):
    sp = cc.generate_family("cycle", {"size": m})
    i = data.draw(st.integers(0, m - 1))
    j = data.draw(st.integers(0, m - 1))
    assert (j in _ball(sp, i, r)) == (i in _ball(sp, j, r))
    assert sp.within(i, j, r) == (sp.d(i, j) <= r)
