from fractions import Fraction

import pytest

import coarsecohom as cc
from coarsecohom import L1, L1_ZERO, SCALAR
from helpers import frac_ball_nu

CYCLE8 = cc.generate_family("cycle", {"size": 8})
CYCLE64 = cc.generate_family("cycle", {"size": 64})
TORUS8 = cc.generate_family("torus", {"dim": 2, "size": 8})


def test_ball_average_cycle3_is_uniform():
    sp = cc.generate_family("cycle", {"size": 3})
    fam = cc.ball_average(sp, 1.0)
    for v in fam.vectors:
        assert v.support == {0, 1, 2}
        assert all(abs(w - 1 / 3) <= 1e-15 for w in v.entries.values())


def test_ball_average_large_radius_kills_variation():
    fam = cc.ball_average(CYCLE8, 4.0)  # 4 = diameter
    table = cc.variation_profile(CYCLE8, [4.0], [1.0, 2.0])
    assert table.get(4.0, 1.0).nu == 0.0
    assert table.get(4.0, 2.0).nu == 0.0
    assert fam.sup_norm == 1.0


def test_complete_graph_has_zero_variation():
    comp = cc.generate_family("complete", {"n": 6})
    table = cc.variation_profile(comp, [1.0, 2.0], [1.0])
    assert all(row.nu == 0.0 for row in table.rows)


def test_cycle64_profile_matches_rational_oracle():
    table = cc.variation_profile(CYCLE64, [1, 2, 3, 4, 5, 6], [1.0])
    for s in (1, 2, 3, 4, 5, 6):
        want = frac_ball_nu(CYCLE64, s, 1)
        assert want == Fraction(2, 2 * s + 1)
        assert abs(table.get(s, 1.0).nu - float(want)) <= 1e-12


def test_torus_profile_matches_rational_oracle():
    table = cc.variation_profile(TORUS8, [1, 2, 3], [1.0])
    for s in (1, 2, 3):
        want = frac_ball_nu(TORUS8, s, 1)
        # diamond balls: |B_s| = 2s^2+2s+1, adjacent symmetric difference 2(2s+1)
        assert want == Fraction(2 * (2 * s + 1), 2 * s * s + 2 * s + 1)
        assert abs(table.get(s, 1.0).nu - float(want)) <= 1e-12


def test_profile_agrees_with_seminorm_of_D():
    # nu(S, R) is exactly the R-seminorm of D applied to the family cochain
    for s, r in [(2, 1.0), (2, 2.0), (3, 1.0)]:
        fam = cc.ball_average(CYCLE8, s)
        nu = cc.variation_profile(CYCLE8, [s], [r]).get(s, r).nu
        rep = cc.seminorm(cc.diff_D(fam.as_cochain()), r, budget=20000)
        assert rep.exact
        assert abs(nu - rep.value) <= 1e-12


def test_profile_witness_is_first_maximizer():
    table = cc.variation_profile(CYCLE8, [1], [1.0])
    row = table.get(1, 1.0)
    assert (row.x0, row.x1) == (0, 1)  # symmetric space: all pairs tie
    assert row.exact


def test_pairs_within():
    assert len(cc.pairs_within(CYCLE8, 1.0)) == 8
    assert len(cc.pairs_within(CYCLE8, 2.0)) == 16
    assert cc.pairs_within(CYCLE8, 0.0) == []


def test_profile_table_lookup_and_csv():
    table = cc.variation_profile(CYCLE8, [1], [1.0])
    with pytest.raises(KeyError):
        table.get(9, 1.0)
    lines = table.to_csv().splitlines()
    assert lines[0] == "S,R,nu,x0,x1,exact"
    assert lines[1].endswith(",true")
    assert table.to_json()[0]["S"] == 1.0


def test_lazy_walk_family():
    fam = cc.lazy_walk_family(CYCLE8, steps=2)
    assert fam.s == 2
    for x, v in enumerate(fam.vectors):
        assert abs(cc.pi_sum(v) - 1.0) <= 1e-12
        assert all(CYCLE8.d(x, z) <= 2 for z in v.support)
    none = cc.lazy_walk_family(CYCLE8, steps=0)
    assert all(none.vectors[x].support == {x} for x in range(8))
    with pytest.raises(ValueError):
        cc.lazy_walk_family(CYCLE8, steps=-1)
    with pytest.raises(ValueError):
        cc.lazy_walk_family(CYCLE8, steps=1, laziness=1.0)


def test_reiter_family_validation():
    good = [cc.dirac(x) for x in range(8)]
    escaped = list(good)
    escaped[0] = cc.dirac(4)
    with pytest.raises(ValueError, match="escapes"):
        cc.ReiterFamily(CYCLE8, 1.0, escaped)
    negative = list(good)
    negative[1] = cc.SupportedVector(L1, {1: 2.0, 2: -1.0})
    with pytest.raises(ValueError, match="negative mass"):
        cc.ReiterFamily(CYCLE8, 1.0, negative)
    off = list(good)
    off[2] = cc.SupportedVector(L1, {2: 0.5})
    with pytest.raises(ValueError, match="sums to"):
        cc.ReiterFamily(CYCLE8, 1.0, off)
    with pytest.raises(ValueError, match="one vector per point"):
        cc.ReiterFamily(CYCLE8, 1.0, good[:-1])
    # non-probability families skip the positivity and sum checks
    cc.ReiterFamily(CYCLE8, 1.0, negative, is_prob=False)


def test_normalize_two_thirds_one_third_example():
    # phi(x) = 2 delta_x - delta_{x+1} has pi_sum 1 and norm 3
    phi = cc.Cochain(CYCLE8, 0, -1, L1,
                     lambda xs, ys: cc.SupportedVector(
                         L1, {xs[0]: 2.0, (xs[0] + 1) % 8: -1.0}))
    fam = cc.normalize_to_prob(phi)
    assert fam.is_prob and fam.s == 1.0
    for x in range(8):
        v = fam.vectors[x]
        assert abs(v.get(x) - 2 / 3) <= 1e-15
        assert abs(v.get((x + 1) % 8) - 1 / 3) <= 1e-15
        assert v.support == phi((x,), ()).support


def test_normalize_dirac_fixed_point():
    phi = cc.dirac_family(CYCLE8).as_cochain()
    fam = cc.normalize_to_prob(phi)
    assert all(fam.vectors[x].entries == {x: 1.0} for x in range(8))


def test_normalize_rejects_bad_sum():
    j01, _, _ = cc.johnson_cocycles(CYCLE8, audit=False)
    bad = cc.Cochain(CYCLE8, 0, -1, L1,
                     lambda xs, ys: cc.dirac(xs[0], weight=0.5))
    with pytest.raises(ValueError, match=r"pi_sum\(phi\(0\)\) = 0\.5"):
        cc.normalize_to_prob(bad)
    with pytest.raises(ValueError, match="expects an l1 family"):
        cc.normalize_to_prob(j01)


def test_normalize_variation_doubles_at_most():
    for seed in range(6):
        phi = cc.random_unit_sum_cochain(TORUS8, 2.0, seed=seed)
        fam = cc.normalize_to_prob(phi)
        phi_vecs = [phi((x,), ()) for x in range(TORUS8.n)]
        for r in (1.0, 2.0):
            pairs = cc.pairs_within(TORUS8, r)
            nu_phi = max(cc.l1_distance(phi_vecs[i], phi_vecs[j])
                         for i, j in pairs)
            nu_f = max(cc.l1_distance(fam.vectors[i], fam.vectors[j])
                       for i, j in pairs)
            assert nu_f <= 2.0 * nu_phi + 1e-12


def test_repair_unit_sum():
    phi = cc.random_cochain(CYCLE8, 0, -1, L1, seed=21)
    fixed = cc.repair_unit_sum(phi)
    for x in range(8):
        v = fixed((x,), ())
        assert abs(cc.pi_sum(v) - 1.0) <= 1e-12
        assert v.support <= phi((x,), ()).support | {x}
    with pytest.raises(ValueError):
        cc.repair_unit_sum(cc.random_cochain(CYCLE8, 0, 0, L1, seed=1))


def test_convolve_dirac_is_identity():
    delta = cc.dirac_family(CYCLE8).as_cochain()
    theta = cc.random_cochain(CYCLE8, 0, 1, L1_ZERO, seed=2)
    rep = cc.audit_equal("delta*", cc.convolve(delta, theta), theta, 2.0,
                         budget=6000, tol=1e-15)
    assert rep.exact and rep.ok


def test_convolve_commutation_laws():
    f = cc.random_cochain(CYCLE8, 0, -1, L1, seed=3)
    theta = cc.random_cochain(CYCLE8, 0, 1, L1, seed=4)
    conv = cc.convolve(f, theta)
    assert cc.audit_equal("D law", cc.diff_D(conv),
                          cc.convolve(cc.diff_D(f), theta), 1.0,
                          budget=6000, tol=1e-12).ok
    assert cc.audit_equal("d law", cc.diff_d(conv),
                          cc.convolve(f, cc.diff_d(theta)), 1.0,
                          budget=6000, tol=1e-12).ok


def test_convolve_d_law_gains_sign_for_odd_p():
    # d's signs depend on p, so an odd-p row cochain anticommutes instead
    f = cc.random_cochain(CYCLE8, 1, -1, L1, seed=5)
    theta = cc.random_cochain(CYCLE8, 0, 1, L1, seed=6)
    lhs = cc.diff_d(cc.convolve(f, theta))
    rhs = cc.cochain_scale(cc.convolve(f, cc.diff_d(theta)), -1.0)
    assert cc.audit_equal("graded d law", lhs, rhs, 1.0, budget=6000,
                          tol=1e-12).ok


def test_convolve_prob_times_x_independent():
    fam = cc.random_prob_family(CYCLE8, 2.0, seed=7)
    theta = cc.random_x_independent_cochain(CYCLE8, 0, L1, seed=8)
    rep = cc.audit_equal("prob*xind", cc.convolve(fam.as_cochain(), theta),
                         theta, 1.0, budget=6000, tol=1e-12)
    assert rep.ok


def test_convolve_validation():
    f = cc.random_cochain(CYCLE8, 0, -1, L1, seed=1)
    theta = cc.random_cochain(CYCLE8, 0, 0, L1, seed=1)
    with pytest.raises(ValueError, match="l1-type row"):
        cc.convolve(theta, theta)  # q != -1 on the left
    with pytest.raises(ValueError, match="l1-type row"):
        cc.convolve(cc.constant_one(CYCLE8), theta)  # scalar on the left
    with pytest.raises(ValueError, match="column cochain"):
        cc.convolve(f, cc.random_cochain(CYCLE8, 1, 0, L1, seed=1))
    other = cc.random_cochain(cc.generate_family("cycle", {"size": 8}),
                              0, 0, L1, seed=1)
    with pytest.raises(ValueError, match="share their space"):
        cc.convolve(f, other)


def test_conv_norm_audit():
    f = cc.random_cochain(CYCLE8, 0, -1, L1, seed=9)
    theta = cc.random_cochain(CYCLE8, 0, 0, L1_ZERO, seed=10)
    rep = cc.conv_norm_audit(f, theta, 1.0, budget=6000)
    assert rep.ok
    assert rep.lhs <= rep.f_sup * rep.theta_sup + 1e-10


def test_averaged_split_homotopy():
    # (d s_f + s_f d) phi = f * phi for any probability family
    fam = cc.ball_average(CYCLE8, 2.0)
    phi = cc.random_cochain(CYCLE8, 0, 1, L1, seed=11)
    lhs = cc.cochain_add(cc.diff_d(cc.averaged_split(fam, phi)),
                         cc.averaged_split(fam, cc.diff_d(phi)))
    rhs = cc.convolve(fam.as_cochain(), phi)
    assert cc.audit_equal("homotopy", lhs, rhs, 2.0, budget=6000,
                          tol=1e-12).ok
    with pytest.raises(ValueError):
        cc.averaged_split(fam, cc.random_cochain(CYCLE8, 0, -1, L1, seed=1))
    with pytest.raises(ValueError):
        cc.averaged_split(fam, cc.random_cochain(CYCLE8, 1, 0, L1, seed=1))


def test_averaged_split_of_flat_cocycle_splits_exactly():
    # D j01 = 0 makes f * j01 = j01, so the homotopy recovers j01 itself
    fam = cc.ball_average(CYCLE8, 2.0)
    j01, _, _ = cc.johnson_cocycles(CYCLE8, audit=False)
    lhs = cc.cochain_add(cc.diff_d(cc.averaged_split(fam, j01)),
                         cc.averaged_split(fam, cc.diff_d(j01)))
    assert cc.audit_equal("splits j01", lhs, j01, 2.0, budget=6000,
                          tol=1e-12).ok


def test_homotopy_defect_exact_instance():
    sp = cc.generate_family("cycle", {"size": 3})
    fam = cc.ball_average(sp, 1.0)
    phi = cc.dirac_family(sp).as_cochain()
    defect, rep = cc.homotopy_defect(fam, phi)
    assert abs(rep.defect_norm - 4 / 3) <= 1e-12
    assert abs(rep.bound - 2.0) <= 1e-12
    assert rep.telescope_gap <= 1e-12
    assert rep.exact
    # the defect itself is uniform(1/3) - delta_x
    v = defect((0,), ())
    assert abs(v.get(0) + 2 / 3) <= 1e-15
    assert abs(v.get(1) - 1 / 3) <= 1e-15


def test_homotopy_defect_vanishes_for_flat_cochains():
    j01, _, _ = cc.johnson_cocycles(CYCLE8, audit=False)
    fam = cc.ball_average(CYCLE8, 2.0)
    _, rep = cc.homotopy_defect(fam, j01)
    assert rep.defect_norm == 0.0
    _, rep = cc.homotopy_defect(cc.dirac_family(CYCLE8),
                                cc.random_cochain(CYCLE8, 0, 0, L1, seed=12))
    assert rep.defect_norm == 0.0


def test_homotopy_defect_validation():
    fam = cc.ReiterFamily(CYCLE8, 1.0, [cc.dirac(x, weight=0.5)
                                        for x in range(8)], is_prob=False)
    with pytest.raises(ValueError, match="probability"):
        cc.homotopy_defect(fam, cc.dirac_family(CYCLE8).as_cochain())
    with pytest.raises(ValueError, match="column"):
        cc.homotopy_defect(cc.ball_average(CYCLE8, 1.0),
                           cc.random_cochain(CYCLE8, 1, 0, L1, seed=1))


def test_tf_identity_lift_example():
    # F(x) = lift of delta_{x+1} - delta_x at x, the canonical cycle case
    field = [cc.lift_boundary(cc.dirac_diff((x + 1) % 8, x), x)
             for x in range(8)]
    j01, _, _ = cc.johnson_cocycles(CYCLE8, audit=False)
    rep = cc.tf_identity(field, j01)
    assert rep.ok and rep.identity.max_violation <= 1e-12
    assert rep.r_ball == 1.0 and rep.r_pair == 1.0


def test_tf_identity_zero_field():
    field = [cc.PairVector() for _ in range(8)]
    theta = cc.random_cochain(CYCLE8, 0, 0, L1, seed=13)
    rep = cc.tf_identity(field, theta)
    assert rep.ok and rep.lhs_sup == 0.0


def test_tf_identity_x_independent_theta():
    field = cc.random_pair_field(CYCLE8, 2.0, seed=14)
    theta = cc.random_x_independent_cochain(CYCLE8, 0, L1, seed=15)
    rep = cc.tf_identity(field, theta)
    # D theta = 0 so (boundary F) * theta must audit to zero
    assert rep.ok
    conv = cc.convolve(cc.Cochain(CYCLE8, 0, -1, L1_ZERO,
                                  lambda xs, ys: cc.boundary_pairs(field[xs[0]])),
                       theta)
    assert cc.audit_zero("flat", conv, 1.0, budget=6000, tol=1e-12).ok


def test_tf_identity_radius_escape():
    field = [cc.PairVector({(x, (x + 3) % 8): 1.0}) for x in range(8)]
    theta = cc.random_cochain(CYCLE8, 0, 0, L1, seed=16)
    with pytest.raises(ValueError, match="escapes"):
        cc.tf_identity(field, theta, radius=1.0)
    rep = cc.tf_identity(field, theta)  # no declared radius, measured instead
    assert rep.r_ball == 3.0


def test_transfer_validation():
    field = cc.random_pair_field(CYCLE8, 1.0, seed=17)
    with pytest.raises(ValueError, match="consumes"):
        cc.transfer_cochain(field, cc.random_cochain(CYCLE8, 0, 0, L1, seed=1))
    theta = cc.random_cochain(CYCLE8, 0, 0, L1, seed=1)
    with pytest.raises(ValueError, match="one pair vector"):
        cc.tf_identity(field[:-1], theta)
