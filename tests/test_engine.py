"""The audit engine's sampler and caches.

The digest pins every audit point drawn over a small grid of spaces,
degrees, radii and seeds: a budget of 300 puts some domains in the
exhaustive branch and the rest in the two sampled ones, so a change to any
branch, to a seed tag or to the draw order shows here. The other tests say
what the draws must be whatever their bits: admissible, distinct, sorted,
as many as asked for when the x-domain is exact, uniform, reproducible per
seed, and counted as the sequential rejection loop would count them.
"""

import gc
import hashlib
import weakref
from itertools import combinations, product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import coarsecohom as cc
from coarsecohom import cochains
from coarsecohom.cochains import _DOMAINS, _join, _proposals, _sample_points
from helpers import brute_tuples, spaces

ENGINE_DIGEST = "f8a1b9bdf9d6f1f5f6668f92127566b02926774fd8e3f28ae52464a54626d59b"


def _grid_spaces():
    return [cc.generate_family("torus", {"dim": 2, "size": 8}),
            cc.generate_family("free_ball", {"rank": 2, "radius": 3}),
            cc.generate_family("random_regular", {"n": 64, "k": 3}, seed=1)]


def test_sampler_and_audit_points_digest():
    h = hashlib.sha256()
    for space in _grid_spaces():
        for seed in (1, 2):
            for p in range(4):
                for r in (1.0, 2.0):
                    for ylen in range(3):
                        dom = cc.audit_points(space, p + 1, ylen, r,
                                              budget=300, sample_size=120,
                                              seed=seed)
                        points, exact = dom
                        h.update(points.tobytes())
                        h.update(repr((points.shape, exact, dom.requested,
                                       dom.attempts)).encode())
    assert h.hexdigest() == ENGINE_DIGEST


def test_audit_points_leaves_no_sampled_domain():
    # 64 points exceed the budget, so the x-domain itself is over budget
    space = cc.generate_family("torus", {"dim": 2, "size": 8})
    pts, exact = cc.audit_points(space, 1, 1, 1.0, budget=50,
                                 sample_size=40, seed=3)
    assert not exact and len(pts) == 40
    # the over-budget x-domain is cached as None; the one sampled entry is
    # the audit points themselves
    cache = _DOMAINS[space]
    assert cache[("join", 0, 1.0, 50)] is None
    assert [key for key in cache if key[0] == "sampled"] == [
        ("sampled", 3, 1, 1, 1.0, 50, 40)]
    assert cache[("sampled", 3, 1, 1, 1.0, 50, 40)][0] is pts


def test_tuple_cache_bounded_across_seeds():
    space = cc.generate_family("torus", {"dim": 2, "size": 8})

    def audit(seed):
        cc.audit_points(space, 1, 0, 1.0, budget=100, seed=seed)   # exact
        cc.audit_points(space, 2, 1, 1.0, budget=100, sample_size=30,
                        seed=seed)                                 # sampled

    audit(0)
    after_one = len(_DOMAINS[space])
    for seed in range(1, 200):
        audit(seed)
        assert {key[1] for key in _DOMAINS[space]
                if key[0] == "sampled"} == {seed}
    assert len(_DOMAINS[space]) <= after_one


def test_one_join_serves_every_ylen(monkeypatch):
    # the x-domain is seed-free and shared across ylen: one join for three
    # exact domains and a repeat, and a repeated request is the same object
    space = cc.generate_family("cycle", {"size": 8})
    calls = []

    def counted(*args):
        calls.append(args)
        return _join(*args)

    monkeypatch.setattr(cochains, "_join", counted)
    doms = [cc.audit_points(space, 2, ylen, 1.0, budget=2000)
            for ylen in (0, 1, 2)]
    assert [dom[1] for dom in doms] == [True, True, True]
    assert cc.audit_points(space, 2, 1, 1.0, budget=2000) is doms[1]
    assert len(calls) == 1


def test_domains_leave_the_cache_with_their_space():
    gc.collect()
    before = len(_DOMAINS)
    space = cc.generate_family("cycle", {"size": 8})
    cc.audit_points(space, 2, 1, 1.0, budget=40, sample_size=10, seed=1)
    assert len(_DOMAINS) == before + 1
    gone = weakref.ref(space)
    del space
    gc.collect()
    assert gone() is None and len(_DOMAINS) == before


# -- what every draw must be ----------------------------------------------------

def _admissible(space, xs, r):
    return all(space.within(a, b, r) for a, b in combinations(xs, 2))


@settings(deadline=None, max_examples=60)
@given(spaces(1, 7), st.integers(0, 3), st.integers(0, 3),
       st.sampled_from([0.0, 0.75, 1.0, 2.0]), st.integers(1, 60),
       st.integers(0, 80), st.integers(0, 3))
def test_audit_points_are_admissible_distinct_and_sorted(space, p, ylen, r,
                                                         budget, sample, seed):
    xdom = brute_tuples(space, p, r)
    total = len(xdom) * space.n ** ylen
    dom = cc.audit_points(space, p + 1, ylen, r, budget=budget,
                          sample_size=sample, seed=seed)
    points, exact = dom
    assert points.dtype == np.int64 and points.shape[1] == p + 1 + ylen
    rows = [tuple(row) for row in points.tolist()]
    assert rows == sorted(set(rows))            # distinct, lexicographic
    assert all(_admissible(space, row[:p + 1], r) for row in rows)
    want = min(sample, budget)
    if total <= budget:
        assert exact and len(rows) == total
        assert (dom.requested, dom.attempts) == (None, None)
    elif len(xdom) <= budget:
        # drawn from the exact x-domain: never short, never a rejection
        assert not exact and len(rows) == min(want, total)
        assert dom.requested == want and dom.attempts == len(rows)
    else:
        assert not exact and len(rows) <= want
        assert dom.requested == want
        assert len(rows) <= dom.attempts <= 60 * want + 1000
    record = dom.record()
    assert record["exact"] == exact
    assert record["samples"] == (None if exact else len(rows))


def test_draws_do_not_depend_on_the_cache():
    def fresh():
        return cc.generate_family("torus", {"dim": 2, "size": 5})

    for xlen, ylen, budget in ((2, 1, 100), (3, 1, 80), (2, 0, 60)):
        kw = {"budget": budget, "sample_size": 40}
        cold = cc.audit_points(fresh(), xlen, ylen, 1.0, seed=7, **kw)
        warm = fresh()
        cc.audit_points(warm, xlen, ylen, 1.0, budget=10 ** 6)
        cc.audit_points(warm, xlen, 0, 1.0, seed=7, **kw)
        cc.audit_points(warm, xlen, ylen, 1.0, seed=8, **kw)
        again = cc.audit_points(warm, xlen, ylen, 1.0, seed=7, **kw)
        assert not cold[1] and not again[1]
        assert np.array_equal(cold[0], again[0])
        assert (cold.requested, cold.attempts) == (again.requested,
                                                   again.attempts)
        other = cc.audit_points(warm, xlen, ylen, 1.0, seed=8, **kw)
        assert not np.array_equal(cold[0], other[0])
    # the rejection branch with no free y, as a row cochain (q = -1) draws it
    kw = {"budget": 20, "sample_size": 20}
    points = cc.audit_points(fresh(), 3, 0, 1.0, seed=5, **kw)[0]
    warm = fresh()
    cc.audit_points(warm, 3, 0, 1.0, seed=6, **kw)
    cc.audit_points(warm, 3, 1, 1.0, seed=5, **kw)
    assert np.array_equal(cc.audit_points(warm, 3, 0, 1.0, seed=5, **kw)[0],
                          points)


def _chi_square(counts, expected):
    return float(((counts - expected) ** 2 / expected).sum())


def _frequencies(draw, domain, seeds):
    index = {row: i for i, row in enumerate(domain)}
    counts = np.zeros(len(domain))
    for seed in seeds:
        for row in draw(seed):
            counts[index[row]] += 1
    return counts


def test_both_sampled_branches_are_uniform():
    # a path has balls of two sizes, so x0 must be weighted by |B(x0)|^p;
    # over seeds, each of the N points must turn up k/N of the time
    space = cc.generate_family("path", {"size": 6})
    xdom = brute_tuples(space, 2, 1.0)      # 36 triples
    joint = [x + (y,) for x in xdom for y in range(6)]
    seeds = range(1500)

    def bound(cells):
        # chi-square with cells - 1 degrees of freedom, 5 sd above the mean
        return cells - 1 + 5 * (2 * (cells - 1)) ** 0.5

    for budget, sample in ((40, 8), (12, 8)):    # exact x, then rejection
        counts = _frequencies(
            lambda seed: map(tuple, cc.audit_points(
                space, 3, 1, 1.0, budget=budget, sample_size=sample,
                seed=seed)[0].tolist()), joint, seeds)
        expected = len(seeds) * sample / len(joint)
        assert _chi_square(counts, expected) < bound(len(joint))
    # with no free y the rejection branch draws x alone
    counts = _frequencies(
        lambda seed: map(tuple, cc.audit_points(
            space, 3, 0, 1.0, budget=4, sample_size=4,
            seed=seed)[0].tolist()), xdom, seeds)
    assert _chi_square(counts, len(seeds) * 4 / len(xdom)) < bound(len(xdom))


def _replay(space, p, r, ylen, count, rng):
    """The sequential rejection loop over the stream of _proposals, with
    admissibility checked point by point: (sorted points, attempts)."""
    n = space.n
    want = min(count, n ** (ylen + 1)) if p == 0 else count
    limit = 60 * count + 1000
    bound = space.radius_bound(r)
    stream = (row for faces, _ in _proposals(space, p, r, ylen, rng, want,
                                             limit)
              for row in faces.tolist())
    picked, attempts = set(), 0
    while len(picked) < want and attempts < limit:
        attempts += 1
        row = next(stream)
        xs = row[:p + 1]
        assert all(space.dist[xs[0], u] <= bound for u in xs)
        if _admissible(space, xs, r):
            picked.add(tuple(row))
    return sorted(picked), attempts


@settings(deadline=None, max_examples=40)
@given(spaces(1, 7), st.integers(0, 3), st.integers(0, 2),
       st.sampled_from([0.75, 1.0, 2.0]), st.integers(0, 50),
       st.integers(0, 3))
def test_attempts_match_a_sequential_replay(space, p, ylen, r, count, seed):
    tag = cc.derive_seed(seed, "replay")
    got, attempts = _sample_points(space, p, r, ylen, count,
                                   np.random.default_rng(tag))
    want, replayed = _replay(space, p, r, ylen, count,
                             np.random.default_rng(tag))
    assert [tuple(row) for row in got.tolist()] == want
    assert attempts == replayed


def test_rejection_branch_attempts_match_the_replay():
    # rr64's x-domain is over a budget of 300, so audit_points rejects
    space = cc.generate_family("random_regular", {"n": 64, "k": 3}, seed=1)
    dom = cc.audit_points(space, 3, 1, 2.0, budget=300, sample_size=120,
                          seed=4)
    rng = np.random.default_rng(cc.derive_seed(4, "audit-points", 3, 1, 2.0))
    want, attempts = _replay(space, 2, 2.0, 1, 120, rng)
    assert [tuple(row) for row in dom[0].tolist()] == want
    assert dom.attempts == attempts > len(want) == dom.requested


def test_sampler_keeps_first_sightings_in_stream_order():
    # on K3 with p = 0 every proposal is admissible and the first batch
    # repeats points, so the sample is the first five distinct points
    # seen, not the five smallest
    space = cc.generate_family("complete", {"n": 3})
    faces, ok = next(_proposals(space, 0, 1.0, 1, np.random.default_rng(0),
                                5, 1000))
    assert ok.all()
    seen = []
    for attempts, row in enumerate(map(tuple, faces.tolist()), 1):
        if row not in seen:
            seen.append(row)
        if len(seen) == 5:
            break
    assert attempts > 5                         # a repeat came first
    assert sorted(seen) != sorted(product(range(3), repeat=2))[:5]
    got, got_attempts = _sample_points(space, 0, 1.0, 1, 5,
                                       np.random.default_rng(0))
    assert [tuple(row) for row in got.tolist()] == sorted(seen)
    assert got_attempts == attempts


def test_sampler_spends_its_limit_on_a_small_domain():
    # asking for more tuples than the domain holds spends every proposal
    # (audit_points never asks for that many: it samples only domains
    # over budget, and asks for at most the budget)
    space = cc.generate_family("path", {"size": 6})
    xdom = _join(space, 2, 1.0, 10 ** 6)
    count = len(xdom) + 4
    faces, attempts = _sample_points(space, 2, 1.0, 0, count,
                                     np.random.default_rng(1))
    assert np.array_equal(faces, xdom)
    assert attempts == 60 * count + 1000


def test_joint_count_past_int64_goes_to_the_rejection_sampler():
    # |X| * n**ylen = 8 * 8**21 = 2**66 does not fit an index draw
    space = cc.generate_family("complete", {"n": 8})
    dom = cc.audit_points(space, 1, 21, 1.0, budget=10, sample_size=5,
                          seed=2)
    points, exact = dom
    assert not exact and points.shape == (5, 22)
    assert len({tuple(row) for row in points.tolist()}) == 5
    assert dom.requested == 5 and dom.attempts >= 5
