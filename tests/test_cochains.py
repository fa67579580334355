import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coarsecohom as cc
from coarsecohom import L1, L1_ZERO, SCALAR
from helpers import (Pointwise, brute_tuples, dict_gap, one_value,
                     ref_diff_D, ref_diff_d, ref_split_s, rule_cochain)

CYCLE8 = cc.generate_family("cycle", {"size": 8})
PATH6 = cc.generate_family("path", {"size": 6})


def wrap(cochain):
    """Package cochain as a plain dict-valued callable for the reference ops."""
    value = Pointwise()
    return lambda xs, ys: value(cochain, xs, ys)


def seeded_points(space, p, q, count, seed):
    rng = random.Random(seed)
    xdom = brute_tuples(space, p, 2)
    pts = []
    for _ in range(count):
        xs = xdom[rng.randrange(len(xdom))]
        ys = tuple(rng.randrange(space.n) for _ in range(q + 1))
        pts.append((xs, ys))
    return pts


@pytest.mark.parametrize("p,q", [(0, -1), (0, 0), (1, 0), (0, 1), (1, 1), (2, 0)])
@pytest.mark.parametrize("module", [L1, L1_ZERO, SCALAR])
def test_operators_match_reference_implementation(p, q, module):
    # the one test that pins every sign: package D, d, s against definitional
    # re-implementations evaluated on sampled admissible tuples
    phi = cc.random_cochain(CYCLE8, p, q, module, seed=11)
    ref = wrap(phi)
    Dphi = wrap(cc.diff_D(phi))
    dphi = wrap(cc.diff_d(phi))
    for xs, ys in seeded_points(CYCLE8, p + 1, q, 40, seed=p * 31 + q):
        assert dict_gap(Dphi(xs, ys), ref_diff_D(ref, xs, ys)) <= 1e-12
    for xs, ys in seeded_points(CYCLE8, p, q + 1, 40, seed=p * 37 + q):
        assert dict_gap(dphi(xs, ys), ref_diff_d(ref, p, xs, ys)) <= 1e-12
    if q >= 0:
        sphi = wrap(cc.split_s(phi))
        for xs, ys in seeded_points(CYCLE8, p, q - 1, 40, seed=p * 41 + q):
            assert dict_gap(sphi(xs, ys), ref_split_s(ref, p, xs, ys)) <= 1e-12


def test_row_minus_one_sign_convention():
    # d phi (x, (y)) = (-1)^p phi(x): the sign that makes sd = id exact
    even = rule_cochain(CYCLE8, 0, -1, L1, lambda xs, ys: {xs[0]: 1.0})
    assert one_value(cc.diff_d(even), (3,), (5,)) == {3: 1.0}
    odd = rule_cochain(CYCLE8, 1, -1, L1, lambda xs, ys: {xs[1]: 1.0})
    assert one_value(cc.diff_d(odd), (3, 4), (5,)) == {4: -1.0}


@pytest.mark.parametrize("p,q,module", [
    (0, 0, L1), (1, 1, L1_ZERO), (0, 1, SCALAR), (1, 0, L1), (0, -1, L1_ZERO),
])
def test_complex_identities_exact_on_small_space(p, q, module):
    phi = cc.random_cochain(CYCLE8, p, q, module, seed=5)
    kw = dict(budget=6000, seed=0, tol=1e-12)
    assert cc.audit_zero("DD", cc.diff_D(cc.diff_D(phi)), 2.0, **kw).ok
    assert cc.audit_zero("dd", cc.diff_d(cc.diff_d(phi)), 2.0, **kw).ok
    anti = cc.cochain_add(cc.diff_D(cc.diff_d(phi)), cc.diff_d(cc.diff_D(phi)))
    assert cc.audit_zero("anti", anti, 2.0, **kw).ok
    if q >= 0:
        hom = cc.cochain_add(cc.diff_d(cc.split_s(phi)),
                             cc.split_s(cc.diff_d(phi)))
        assert cc.audit_equal("homotopy", hom, phi, 2.0, **kw).ok
    else:
        assert cc.audit_equal("sd", cc.split_s(cc.diff_d(phi)), phi, 2.0,
                              **kw).ok


def test_split_refuses_bottom_row():
    phi = cc.random_cochain(CYCLE8, 0, -1, L1, seed=1)
    with pytest.raises(ValueError, match="augmentation row"):
        cc.split_s(phi)


def test_bidegree_validation():
    fill = cc.random_cochain(CYCLE8, 0, 0, L1, seed=1).fill
    with pytest.raises(ValueError):
        cc.Cochain(CYCLE8, -1, 0, L1, fill)
    with pytest.raises(ValueError):
        cc.Cochain(CYCLE8, 0, -2, L1, fill)


def test_cochain_add_requires_matching_shape():
    a = cc.random_cochain(CYCLE8, 0, 0, L1, seed=1)
    b = cc.random_cochain(CYCLE8, 1, 0, L1, seed=1)
    c = cc.random_cochain(CYCLE8, 0, 0, L1_ZERO, seed=1)
    d = cc.random_cochain(PATH6, 0, 0, L1, seed=1)
    for other in (b, c, d):
        with pytest.raises(ValueError):
            cc.cochain_add(a, other)


def test_memoization_counts_calls():
    # the pointwise reference fills a leaf once per face, however often the
    # terms above it read that face
    calls = [0]

    def rule(xs, ys):
        calls[0] += 1
        return {xs[0]: 1.0}

    phi = rule_cochain(CYCLE8, 0, -1, L1, rule)
    value = Pointwise()
    total = value(cc.cochain_add(phi, phi), (2,))
    assert total == {2: 2.0} and value(phi, (2,)) == {2: 1.0}
    assert calls[0] == 1


def test_johnson_values_and_identities():
    j01, j10, hom = cc.johnson_cocycles(PATH6)
    for rep in cc.johnson_relations(j01, j10, hom, 1.0, budget=800,
                                    tol=1e-12):
        assert rep.ok, rep.to_json()
    assert one_value(j01, (2,), (4, 1)) == {1: 1.0, 4: -1.0}
    assert one_value(j01, (2,), (3, 3)) == {}
    assert one_value(j10, (0, 5), (2,)) == {0: -1.0, 5: 1.0}
    assert one_value(hom, (1,), (4,)) == {1: -1.0, 4: 1.0}
    # D hom = -j10 by direct evaluation at one tuple
    got = Pointwise()(cc.diff_D(hom), (0, 3), (2,))
    want = one_value(j10, (0, 3), (2,))
    assert got == {k: -w for k, w in want.items()}


def test_johnson_needs_two_points():
    single = cc.FiniteMetricSpace([[0]], integer_metric=True)
    with pytest.raises(ValueError, match="two points"):
        cc.johnson_cocycles(single)


def test_seminorm_j01_is_two():
    j01, _, _ = cc.johnson_cocycles(CYCLE8)
    rep = cc.seminorm(j01, 1.0)
    assert rep.exact and rep["value"] == 2.0
    xs, ys = rep.witness
    assert ys[0] != ys[1]


def test_seminorm_monotone_in_radius():
    phi = cc.random_cochain(CYCLE8, 1, 0, L1, seed=9)
    values = [cc.seminorm(phi, r)["value"] for r in (0.0, 1.0, 2.0, 4.0)]
    assert values == sorted(values)


def test_seminorm_coarse_equivalence():
    # doubling every distance doubles the radius needed for the same sup
    doubled = cc.scaled_metric(CYCLE8, 2.0)
    phi = cc.random_cochain(CYCLE8, 1, 0, L1, seed=4)
    psi = cc.Cochain(doubled, 1, 0, L1, phi.fill)
    for r in (1.0, 2.0, 3.0):
        a = cc.seminorm(phi, r)
        b = cc.seminorm(psi, 2.0 * r)
        assert a.exact and b.exact
        assert a["value"] == b["value"]


def test_audit_points_exact_and_sampled():
    pts, exact = cc.audit_points(CYCLE8, 2, 1, 1.0, budget=6000)
    assert exact and len(pts) == 24 * 8
    pts2, exact2 = cc.audit_points(CYCLE8, 2, 1, 1.0, budget=100,
                                   sample_size=60, seed=1)
    assert not exact2 and len(pts2) == 60
    for x0, x1, _ in pts2.tolist():
        assert CYCLE8.d(x0, x1) <= 1


def test_audit_equal_shape_mismatch():
    a = cc.random_cochain(CYCLE8, 0, 0, L1, seed=1)
    b = cc.random_cochain(CYCLE8, 0, 1, L1, seed=1)
    with pytest.raises(ValueError, match="matching bidegree"):
        cc.audit_equal("bad", a, b, 1.0)


def test_norm_bound_audits():
    for p, q, module in [(0, 0, L1), (1, 1, L1_ZERO), (0, 1, SCALAR),
                         (1, -1, L1)]:
        phi = cc.random_cochain(CYCLE8, p, q, module, seed=13)
        for r in (1.0, 2.0):
            rep = cc.diff_D_norm_audit(phi, r, budget=6000)
            assert rep.ok and rep["factor"] == p + 2
            rep = cc.diff_d_norm_audit(phi, r, budget=6000)
            assert rep.ok and rep["factor"] == q + 2
            if q >= 0:
                rep = cc.split_s_norm_audit(phi, r, budget=6000)
                assert rep.ok and rep["factor"] == 1.0
                assert rep["value"] <= rep["bound"] + 1e-12


def test_bound_report_json_fields():
    phi = cc.random_cochain(CYCLE8, 0, 0, L1, seed=3)
    payload = cc.diff_D_norm_audit(phi, 1.0, budget=6000).to_json()
    assert payload["check"] == "norm_bound_D"
    assert payload["ok"] and payload["exact"]
    assert payload["value"] <= payload["bound"] + 1e-10


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 2 ** 31), st.sampled_from([(0, 0), (1, 0), (0, 1)]),
       st.sampled_from([L1, L1_ZERO, SCALAR]))
def test_identity_audits_hold_for_arbitrary_seeds(seed, bidegree, module):
    p, q = bidegree
    sp = cc.generate_family("cycle", {"size": 5})
    phi = cc.random_cochain(sp, p, q, module, seed=seed)
    anti = cc.cochain_add(cc.diff_D(cc.diff_d(phi)), cc.diff_d(cc.diff_D(phi)))
    assert cc.audit_zero("anti", anti, 2.0, budget=4000, tol=1e-12).ok
    hom = cc.cochain_add(cc.diff_d(cc.split_s(phi)), cc.split_s(cc.diff_d(phi)))
    assert cc.audit_equal("homotopy", hom, phi, 2.0, budget=4000,
                          tol=1e-12).ok
