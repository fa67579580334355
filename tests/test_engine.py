"""The audit engine's sampler and caches.

The digest pins every tuple and audit point drawn over a small grid of
spaces, degrees, radii and seeds: a budget of 300 puts some domains in the
exhaustive branch and the rest in the sampled one, so a change to either
branch, to a seed tag or to the draw order shows here.
"""

import hashlib

import coarsecohom as cc

ENGINE_DIGEST = "4bc212d816b9e6df834dbc45c97371f72fb4320cd424dc5e4730f991b736a667"


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
                    h.update(repr(cc.sample_tuples(space, p, r, 120,
                                                   seed)).encode())
                    for ylen in range(3):
                        h.update(repr(cc.audit_points(
                            space, p + 1, ylen, r, budget=300,
                            sample_size=120, seed=seed)).encode())
    assert h.hexdigest() == ENGINE_DIGEST


def test_audit_points_leaves_no_sampled_domain():
    # 64 points exceed the budget, so the x-domain itself is over budget
    space = cc.generate_family("torus", {"dim": 2, "size": 8})
    pts, exact = cc.audit_points(space, 1, 1, 1.0, budget=50,
                                 sample_size=40, seed=3)
    assert not exact and len(pts) == 40
    assert not any(isinstance(v, cc.TupleDomain) and not v.exact
                   for v in space._tuple_cache.values())


def test_tuple_cache_bounded_across_seeds():
    space = cc.generate_family("torus", {"dim": 2, "size": 8})

    def audit(seed):
        cc.audit_points(space, 1, 0, 1.0, budget=100, seed=seed)   # exact
        cc.audit_points(space, 2, 1, 1.0, budget=100, sample_size=30,
                        seed=seed)                                 # sampled

    audit(0)
    after_one = len(space._tuple_cache)
    for seed in range(1, 200):
        audit(seed)
    assert len(space._tuple_cache) <= after_one
