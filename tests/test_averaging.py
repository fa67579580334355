import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coarsecohom as cc
from coarsecohom import (L1, L1_ZERO, SCALAR, averaging, cochains,
                         facetables)
from coarsecohom import space as spacemod
from coarsecohom.coefficients import PRUNE_TOL
from helpers import (csr_dicts, dict_norm, dict_total, dicts_csr,
                     family_dicts, frac_ball_nu, kept, max_pair_variation,
                     max_pair_variation_reference, one_value,
                     padded_rows, pair_index, pairs_reference, radius_bound,
                     ref_balls, rule_cochain,
                     sparse_walk_rows, validate_family_reference,
                     walk_dicts_reference, walk_matrix_reference,
                     walk_rows_reference)

CYCLE8 = cc.generate_family("cycle", {"size": 8})
CYCLE64 = cc.generate_family("cycle", {"size": 64})
TORUS8 = cc.generate_family("torus", {"dim": 2, "size": 8})


def _law_free(space):
    """The same graph with no group law, so that its ball profile takes the
    dense pair scan."""
    plain = cc.build_graph_metric(space.meta["edges"], space.n)
    assert plain.group is None
    return plain


def test_ball_average_cycle3_is_uniform():
    sp = cc.generate_family("cycle", {"size": 3})
    fam = cc.ball_average(sp, 1.0)
    for v in family_dicts(fam):
        assert set(v) == {0, 1, 2}
        assert all(abs(w - 1 / 3) <= 1e-15 for w in v.values())


def test_ball_average_and_walk_check_their_own_scale():
    # neither family is validated, so each rejects a scale it cannot build
    cycle = cc.generate_family("cycle", {"size": 12})
    for s in (-1.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match=rf"scale s >= 0, got {s!r}"):
            cc.ball_average(cycle, s)
        # the ball profile reads the rows itself, on either path
        for space in (cycle, _law_free(cycle)):
            with pytest.raises(ValueError,
                               match=rf"scale s >= 0, got {s!r}"):
                cc.variation_profile(space, [s], [1.0])
    rr512 = cc.generate_family("random_regular", {"n": 512, "k": 3}, seed=1)
    for space in (cycle, rr512):
        for steps in (2.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="whole number"):
                cc.lazy_walk_family(space, steps)
        with pytest.raises(ValueError, match="whole number, got 1.5"):
            cc.variation_profile(space, [1.5, 2.0], [1.0],
                                 family=cc.lazy_walk_family)
        # a whole float is its number of steps
        fam = cc.lazy_walk_family(space, 2.0)
        assert (fam.s, fam.name) == (2.0, "walk[2]")
        assert _csr_bits(fam) == _csr_bits(
            cc.lazy_walk_family(_twin(space), 2))


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
        want, pair = frac_ball_nu(CYCLE64, s, 1)
        assert want == Fraction(2, 2 * s + 1)
        row = table.get(s, 1.0)
        assert (row.nu, (row.x0, row.x1)) == (float(want), pair)


def test_torus_profile_matches_rational_oracle():
    table = cc.variation_profile(TORUS8, [1, 2, 3], [1.0])
    for s in (1, 2, 3):
        want, pair = frac_ball_nu(TORUS8, s, 1)
        # diamond balls: |B_s| = 2s^2+2s+1, adjacent symmetric difference 2(2s+1)
        assert want == Fraction(2 * (2 * s + 1), 2 * s * s + 2 * s + 1)
        row = table.get(s, 1.0)
        assert (row.nu, (row.x0, row.x1)) == (float(want), pair)


def test_profile_agrees_with_seminorm_of_D():
    # nu(S, R) is exactly the R-seminorm of D applied to the family cochain
    for s, r in [(2, 1.0), (2, 2.0), (3, 1.0)]:
        fam = cc.ball_average(CYCLE8, s)
        nu = cc.variation_profile(CYCLE8, [s], [r]).get(s, r).nu
        rep = cc.seminorm(cc.diff_D(fam.as_cochain()), r, budget=20000)
        assert rep.exact
        assert abs(nu - rep["value"]) <= 1e-12


def test_profile_witness_is_first_maximizer():
    table = cc.variation_profile(_law_free(CYCLE8), [1], [1.0])
    row = table.get(1, 1.0)
    assert (row.x0, row.x1) == (0, 1)  # symmetric space: all pairs tie
    assert row.exact


def test_pairs_within():
    # the pair scan's pairs i < j within R, in lexicographic order, read
    # off a space whose widest rows are of radius R or wider, and the per-R
    # reference list
    for r, count in ((1.0, 8), (2.0, 16), (0.0, 0)):
        want = pairs_reference(CYCLE8, r)
        assert len(want) == count
        for wider in (0.0, 2.0):
            space = cc.generate_family("cycle", {"size": 8})
            space.rows_within(r + wider)
            pi, pj, pd = averaging._ball_pairs(space, r)
            got = list(zip(pi.tolist(), pj.tolist()))
            assert got == want
            assert pd.tolist() == [CYCLE8.d(i, j) for i, j in got]
        pi, pj = pair_index(CYCLE8, r)
        assert list(zip(pi.tolist(), pj.tolist())) == want
    # no pair within R reads 0.0, as the profile and the ses suite report
    fam = cc.ball_average(CYCLE8, 1.0)
    padded = padded_rows(8, fam.indptr, fam.cols, fam.weights)
    assert max_pair_variation(padded, *pair_index(CYCLE8, 0.0)) == (
        0.0, (0, 0))


def test_profile_table_lookup_and_csv():
    table = cc.variation_profile(CYCLE8, [1], [1.0])
    with pytest.raises(KeyError):
        table.get(9, 1.0)
    lines = table.to_csv().splitlines()
    assert lines[0] == "S,R,nu,x0,x1,exact"
    assert lines[1].endswith(",true")
    assert table.rows[0].s == 1.0


def test_lazy_walk_family():
    fam = cc.lazy_walk_family(CYCLE8, steps=2)
    assert fam.s == 2
    for x, v in enumerate(family_dicts(fam)):
        assert abs(dict_total(v) - 1.0) <= 1e-12
        assert all(CYCLE8.d(x, z) <= 2 for z in v)
    none = cc.lazy_walk_family(CYCLE8, steps=0)
    assert family_dicts(none) == [{x: 1.0} for x in range(8)]
    with pytest.raises(ValueError):
        cc.lazy_walk_family(CYCLE8, steps=-1)
    with pytest.raises(ValueError):
        cc.lazy_walk_family(CYCLE8, steps=1, laziness=1.0)


def _family(space, s, rows, is_prob=True):
    """The family of dict rows, each listed in ascending order."""
    return cc.ReiterFamily(space, s, *dicts_csr(
        [dict(sorted(row.items())) for row in rows]), is_prob=is_prob)


def test_reiter_family_validation():
    good = [{x: 1.0} for x in range(8)]
    escaped = list(good)
    escaped[0] = {4: 1.0}
    with pytest.raises(ValueError, match="escapes"):
        _family(CYCLE8, 1.0, escaped)
    negative = list(good)
    negative[1] = {1: 2.0, 2: -1.0}
    with pytest.raises(ValueError, match="negative mass"):
        _family(CYCLE8, 1.0, negative)
    off = list(good)
    off[2] = {2: 0.5}
    with pytest.raises(ValueError, match="sums to"):
        _family(CYCLE8, 1.0, off)
    with pytest.raises(ValueError, match="one row per point"):
        cc.ReiterFamily(CYCLE8, 1.0, *dicts_csr(good[:-1]))
    # non-probability families skip the positivity and sum checks
    _family(CYCLE8, 1.0, negative, is_prob=False)


@pytest.mark.parametrize("size", [36_376, 40_000])
def test_long_uniform_rows_sum_within_their_length_tolerance(size):
    # a uniform ball row this long, added left to right, misses 1 by more
    # than 1e-12 (by -1.008e-12 and +1.004e-12), but not by more than the
    # tolerance of its length, which validate and is_prob use
    total = facetables.csr_row_sums(np.array([0, size]),
                                    np.full(size, 1.0 / size))[0]
    assert 1e-12 < abs(total - 1.0) <= averaging._prob_sum_tol([size])[0]


def test_short_rows_keep_the_flat_sum_tolerance():
    assert averaging._prob_sum_tol([0, 1, 8, 500]).tolist() == [1e-12] * 4
    for row in ({3: 1.0 + 1e-9}, {2: 0.5, 3: 0.5 + 1e-9}, {3: 1.0 - 1e-9}):
        vectors = [{x: 1.0} for x in range(8)]
        vectors[3] = row
        with pytest.raises(ValueError, match=r"f\(3\) sums to"):
            _family(CYCLE8, 1.0, vectors)


@pytest.mark.parametrize("rows,is_prob", [
    # f(5): an escape (d(5,3) = 2) before a negative mass; f(6) sums to 0.5
    ({5: {3: 0.5, 6: -0.5, 5: 1.0}, 6: {6: 0.5}}, True),
    # f(1): a negative mass before an escape
    ({1: {0: -0.5, 3: 1.5}, 5: {1: 1.0}}, True),
    # bad sum at f(3) before an escape at f(5)
    ({3: {3: 0.25, 2: 0.25, 4: 0.25}, 5: {1: 1.0}}, True),
    # an escape at f(2) before a bad sum at f(4)
    ({2: {4: 1.0}, 4: {4: 0.5}}, True),
    # no sign or sum checks without is_prob: the escape at f(6) is first
    ({0: {0: -3.0}, 6: {7: 2.0, 1: 1.0}}, False),
])
def test_reiter_family_reports_first_violation(rows, is_prob):
    vectors = [{x: 1.0} for x in range(8)]
    for x, entries in rows.items():
        vectors[x] = entries
    with pytest.raises(ValueError) as want:
        validate_family_reference(CYCLE8, 1.0, vectors, is_prob=is_prob)
    with pytest.raises(ValueError, match=re.escape(str(want.value)) + "$"):
        _family(CYCLE8, 1.0, vectors, is_prob=is_prob)


PATH2 = cc.generate_family("path", {"size": 2})


@pytest.mark.parametrize("indptr, cols, weights, message", [
    # indptr of the wrong length, or not rising from 0 to len(cols)
    ([0, 1], [1], [1.0], "one row per point: indptr has 2 entries for 2"),
    ([0, 1, 2, 3], [1, 0, 1], [1.0] * 3, "one row per point"),
    ([1, 1, 2], [1, 0], [1.0] * 2, r"rise from 0 to 2: f\(0\) spans \[1, 1\)"),
    ([0, 2, 1], [1, 0], [1.0] * 2, r"rise from 0 to 2: f\(1\) spans \[2, 1\)"),
    ([0, 1, 1], [1, 0], [1.0] * 2, r"rise from 0 to 2: f\(1\) spans \[1, 1\)"),
    # columns out of range, or not strictly ascending within a row
    ([0, 1, 2], [2, 0], [1.0] * 2, r"f\(0\) must rise .* 0..1, got 2$"),
    ([0, 1, 2], [1, -1], [1.0] * 2, r"f\(1\) must rise .* 0..1, got -1$"),
    # f(0) = 1/2 delta_1 + 1/2 delta_1 would read as f(1)
    ([0, 2, 3], [1, 1, 1], [0.5, 0.5, 1.0],
     r"columns of f\(0\) must rise strictly within 0..1, got 1$"),
    ([0, 2, 3], [1, 0, 1], [0.5, 0.5, 1.0],
     r"columns of f\(0\) must rise strictly within 0..1, got 0$"),
    # non-finite masses; a NaN passes every check written as x > bound
    ([0, 1, 2], [0, 1], [float("nan"), 1.0], r"non-finite mass nan in f\(0\)"),
    ([0, 1, 2], [0, 1], [1.0, float("inf")], r"non-finite mass inf in f\(1\)"),
    ([0, 1, 2], [0, 1], [1.0, -float("inf")],
     r"non-finite mass -inf in f\(1\)"),
], ids=["short-indptr", "long-indptr", "indptr-not-from-0", "indptr-falls",
        "indptr-short-of-cols", "col-past-n", "col-negative", "col-repeated",
        "col-descending", "nan", "inf", "-inf"])
@pytest.mark.parametrize("is_prob", [True, False])
def test_family_rejects_malformed_rows(indptr, cols, weights, message,
                                       is_prob):
    with pytest.raises(ValueError, match=message):
        cc.ReiterFamily(PATH2, 1.0, indptr, cols, weights, is_prob=is_prob)


def test_family_nan_mass_is_no_probability():
    # before the finiteness check, a NaN mass passed the sum check (abs(nan
    # - 1) > tol is False) and the family read sup_norm nan
    with pytest.raises(ValueError, match="non-finite mass nan"):
        cc.ReiterFamily(PATH2, 1.0, [0, 1, 2], [0, 1], [float("nan"), 1.0])
    fam = cc.ReiterFamily(PATH2, 1.0, [0, 2, 3], [0, 1, 1], [0.5, 0.5, 1.0])
    assert fam.sup_norm == 1.0 and fam.is_prob


def test_normalize_two_thirds_one_third_example():
    # phi(x) = 2 delta_x - delta_{x+1} has pi_sum 1 and norm 3
    phi = rule_cochain(CYCLE8, 0, -1, L1,
                       lambda xs, ys: {xs[0]: 2.0, (xs[0] + 1) % 8: -1.0})
    fam = cc.normalize_to_prob(phi)
    assert fam.is_prob and fam.s == 1.0
    for x, v in enumerate(family_dicts(fam)):
        assert abs(v[x] - 2 / 3) <= 1e-15
        assert abs(v[(x + 1) % 8] - 1 / 3) <= 1e-15
        assert set(v) == set(one_value(phi, (x,)))


def test_normalize_dirac_fixed_point():
    phi = cc.dirac_family(CYCLE8).as_cochain()
    fam = cc.normalize_to_prob(phi)
    assert family_dicts(fam) == [{x: 1.0} for x in range(8)]


def test_normalize_rejects_bad_sum():
    j01, _, _ = cc.johnson_cocycles(CYCLE8)
    bad = rule_cochain(CYCLE8, 0, -1, L1, lambda xs, ys: {xs[0]: 0.5})
    with pytest.raises(ValueError, match=r"pi_sum\(phi\(0\)\) = 0\.5"):
        cc.normalize_to_prob(bad)
    with pytest.raises(ValueError, match="expects an l1 family"):
        cc.normalize_to_prob(j01)


def test_normalize_variation_doubles_at_most():
    for seed in range(6):
        phi = cc.random_unit_sum_cochain(TORUS8, 2.0, seed=seed)
        fam = cc.normalize_to_prob(phi)
        phi_vecs = [one_value(phi, (x,)) for x in range(TORUS8.n)]
        for r in (1.0, 2.0):
            pairs = pairs_reference(TORUS8, r)
            nu_phi = max_pair_variation_reference(phi_vecs, pairs)[0]
            nu_f = max_pair_variation_reference(family_dicts(fam), pairs)[0]
            assert nu_f <= 2.0 * nu_phi + 1e-12


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
        cc.convolve(cc.random_cochain(CYCLE8, 0, -1, SCALAR, seed=1),
                    theta)  # scalar on the left
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
    assert rep["value"] <= rep["f_sup"] * rep["theta_sup"] + 1e-10


def averaged_homotopy(fam, phi):
    """(d s_f + s_f d) phi with the averaged splitting s_f = f * s."""
    def s_f(theta):
        return cc.convolve(fam.as_cochain(), cc.split_s(theta))

    return cc.cochain_add(cc.diff_d(s_f(phi)), s_f(cc.diff_d(phi)))


def test_averaged_split_homotopy():
    # (d s_f + s_f d) phi = f * phi for any probability family
    fam = cc.ball_average(CYCLE8, 2.0)
    phi = cc.random_cochain(CYCLE8, 0, 1, L1, seed=11)
    rhs = cc.convolve(fam.as_cochain(), phi)
    assert cc.audit_equal("homotopy", averaged_homotopy(fam, phi), rhs, 2.0,
                          budget=6000, tol=1e-12).ok


def test_averaged_split_of_flat_cocycle_splits_exactly():
    # D j01 = 0 makes f * j01 = j01, so the homotopy recovers j01 itself
    fam = cc.ball_average(CYCLE8, 2.0)
    j01, _, _ = cc.johnson_cocycles(CYCLE8)
    lhs = averaged_homotopy(fam, j01)
    assert cc.audit_equal("splits j01", lhs, j01, 2.0, budget=6000,
                          tol=1e-12).ok


def test_homotopy_defect_exact_instance():
    sp = cc.generate_family("cycle", {"size": 3})
    fam = cc.ball_average(sp, 1.0)
    phi = cc.dirac_family(sp).as_cochain()
    defect, rep = cc.homotopy_defect(fam, phi)
    assert abs(rep["value"] - 4 / 3) <= 1e-12
    assert abs(rep["bound"] - 2.0) <= 1e-12
    assert rep["telescope_gap"] <= 1e-12
    assert rep.exact
    # the defect itself is uniform(1/3) - delta_x
    v = one_value(defect, (0,))
    assert abs(v[0] + 2 / 3) <= 1e-15
    assert abs(v[1] - 1 / 3) <= 1e-15


def test_homotopy_defect_vanishes_for_flat_cochains():
    j01, _, _ = cc.johnson_cocycles(CYCLE8)
    fam = cc.ball_average(CYCLE8, 2.0)
    _, rep = cc.homotopy_defect(fam, j01)
    assert rep["value"] == 0.0
    _, rep = cc.homotopy_defect(cc.dirac_family(CYCLE8),
                                cc.random_cochain(CYCLE8, 0, 0, L1, seed=12))
    assert rep["value"] == 0.0


@pytest.mark.parametrize("module, q", [(L1, 1), (L1_ZERO, 0),
                                       (SCALAR, -1)])
def test_defect_telescope_is_the_transfer_of_d_phi(module, q):
    # for F(x) = sum_z f(x)(z) (x, z), dF(x) = f(x) - delta_x, so the
    # defect f*phi - phi is (dF)*phi = T_F(D phi): the telescope the
    # defect audit compares against is transfer_cochain(F, D phi), and the
    # pairing identity holds for this F
    fam = cc.ball_average(TORUS8, 1.0)
    phi = cc.random_cochain(TORUS8, 0, q, module, seed=21)
    rows = np.repeat(np.arange(TORUS8.n), np.diff(fam.indptr))
    field = (fam.indptr, np.stack((rows, fam.cols), axis=1), fam.weights)
    boundary = cc.Cochain(TORUS8, 0, -1, L1_ZERO, facetables.rows_fill(
        L1_ZERO, TORUS8.n, *cc.pair_boundary(TORUS8.n, field)))
    transfer = cc.transfer_cochain(field, cc.diff_D(phi))
    kw = {"budget": 4000, "sample_size": 300, "seed": 2}
    defect, rep = cc.homotopy_defect(fam, phi, **kw)
    assert cc.audit_equal("telescope", defect, transfer, 0.0,
                          **kw)["max_violation"] == rep["telescope_gap"]
    pairing = cc.audit_equal("dF*phi=T_F(D phi)", cc.convolve(boundary, phi),
                             transfer, 0.0, tol=1e-12, **kw)
    assert pairing.ok and rep["telescope_gap"] <= 1e-12
    assert (pairing.exact, pairing.samples) == (rep.exact, rep.samples)


def test_failing_defect_bound_is_returned_not_raised(monkeypatch):
    fam = cc.ball_average(CYCLE8, 1.0)
    phi = cc.random_cochain(CYCLE8, 0, 0, L1, seed=12)
    _, want = cc.homotopy_defect(fam, phi)
    assert want.ok and want["family_norm"] == 1.0
    monkeypatch.setattr(cc.ReiterFamily, "sup_norm", property(lambda f: 0.0))
    _, rep = cc.homotopy_defect(fam, phi)
    assert rep.ok is False
    assert rep["value"] == want["value"] > 0.0
    assert rep["bound"] == rep["family_norm"] == 0.0
    assert rep["dphi_sup"] == want["dphi_sup"] > 0.0
    assert rep["telescope_gap"] == want["telescope_gap"] <= 1e-12
    assert (rep.exact, rep.witness) == (want.exact, want.witness)
    assert rep.to_json() == want.to_json() | {
        "bound": 0.0, "family_norm": 0.0, "ok": False}


def test_family_sup_norm_reads_the_csr_rows():
    # each row's |w| added left to right, as the dict loop adds them, so
    # the sup equals the rows' bit for bit
    space = cc.generate_family("random_regular", {"n": 40, "k": 3}, seed=2)
    unit = cc.random_unit_sum_cochain(space, 2.0, 5)
    # a family that is no probability family, with signed masses
    signed = _family(space, 0.0, [{x: (-1.0) ** x * x} if x else {}
                                  for x in range(space.n)], is_prob=False)
    for fam in (cc.ball_average(space, 2.0), cc.lazy_walk_family(space, 3),
                cc.random_prob_family(space, 2.0, 4), cc.dirac_family(space),
                cc.normalize_to_prob(unit), signed):
        got = fam.sup_norm
        assert type(got) is float
        assert got.hex() == max(map(dict_norm, family_dicts(fam))).hex(), (
            fam.name)


@pytest.mark.parametrize("make", [lambda sp: cc.ball_average(sp, 2.0),
                                  lambda sp: cc.lazy_walk_family(sp, 2)],
                         ids=["ball", "walk"])
def test_homotopy_defect_builds_no_family_vectors(make):
    # the defect reads the family's CSR rows, and so does its cochain
    fam = make(CYCLE8)
    phi = cc.random_cochain(CYCLE8, 0, 1, L1, seed=3)
    _, rep = cc.homotopy_defect(fam, phi)
    assert rep.ok
    assert one_value(fam.as_cochain(), (3,)) == family_dicts(fam)[3]


def test_conv_norm_audit_fills_f_once_per_piece():
    # the f-sup folds the f table the convolution itself evaluates, so f
    # is filled once per audited piece, never a second time
    space = cc.generate_family("cycle", {"size": 9})
    f = cc.random_cochain(space, 1, -1, L1, 3)
    theta = cc.random_cochain(space, 0, 1, L1_ZERO, 4)
    fills, pieces = [], []
    fill, scan = f.fill, cochains.sup_scan

    def counted_fill(faces):
        fills.append(len(faces))
        return fill(faces)

    def counted_scan(faces, xlen, module, n, measure):
        def counted(part):
            pieces.append(len(part))
            return measure(part)
        return scan(faces, xlen, module, n, counted)

    f.fill = counted_fill
    with mock.patch.object(cochains, "sup_scan", counted_scan), \
            mock.patch.object(facetables, "_TABLE_CHUNK_BYTES", 1 << 12):
        rep = cc.conv_norm_audit(f, theta, 2.0, budget=4000)
    assert rep.ok and len(pieces) > 1
    assert len(fills) == len(pieces)


def test_homotopy_defect_validation():
    fam = _family(CYCLE8, 1.0, [{x: 0.5} for x in range(8)], is_prob=False)
    with pytest.raises(ValueError, match="probability"):
        cc.homotopy_defect(fam, cc.dirac_family(CYCLE8).as_cochain())
    with pytest.raises(ValueError, match="column"):
        cc.homotopy_defect(cc.ball_average(CYCLE8, 1.0),
                           cc.random_cochain(CYCLE8, 1, 0, L1, seed=1))


def test_tf_identity_lift_example():
    # F(x) = lift of delta_{x+1} - delta_x at x, the canonical cycle case
    rows = []
    for x in range(8):
        cols = np.array(sorted({x, (x + 1) % 8}))
        pairs, weights = cc.lift_boundary(cols, np.where(cols == x, -1.0, 1.0),
                                          x)
        rows.append(dict(zip(map(tuple, pairs.tolist()), weights.tolist())))
    field = dicts_csr(rows, pairs=True)
    j01, _, _ = cc.johnson_cocycles(CYCLE8)
    rep = cc.tf_identity(field, j01)
    assert rep.ok and rep["identity"]["max_violation"] <= 1e-12
    assert rep["r_ball"] == 1.0 and rep["r_pair"] == 1.0


def test_tf_identity_zero_field():
    field = (np.zeros(9, dtype=np.int64), np.zeros((0, 2), dtype=np.int64),
             np.zeros(0))
    theta = cc.random_cochain(CYCLE8, 0, 0, L1, seed=13)
    rep = cc.tf_identity(field, theta)
    assert rep.ok and rep["value"] == 0.0


def test_tf_identity_x_independent_theta():
    field = cc.random_pair_field(CYCLE8, 2.0, seed=14)
    theta = cc.random_x_independent_cochain(CYCLE8, 0, L1, seed=15)
    rep = cc.tf_identity(field, theta)
    # D theta = 0 so (boundary F) * theta must audit to zero
    assert rep.ok
    conv = cc.convolve(cc.Cochain(CYCLE8, 0, -1, L1_ZERO, facetables.rows_fill(
        L1_ZERO, 8, *cc.pair_boundary(8, field))), theta)
    assert cc.audit_zero("flat", conv, 1.0, budget=6000, tol=1e-12).ok


def test_tf_identity_radius_escape():
    field = dicts_csr([{(x, (x + 3) % 8): 1.0} for x in range(8)], pairs=True)
    theta = cc.random_cochain(CYCLE8, 0, 0, L1, seed=16)
    with pytest.raises(ValueError, match="escapes"):
        cc.tf_identity(field, theta, radius=1.0)
    rep = cc.tf_identity(field, theta)  # no declared radius, measured instead
    assert rep["r_ball"] == 3.0


def test_transfer_validation():
    field = cc.random_pair_field(CYCLE8, 1.0, seed=17)
    with pytest.raises(ValueError, match="consumes"):
        cc.transfer_cochain(field, cc.random_cochain(CYCLE8, 0, 0, L1, seed=1))
    theta = cc.random_cochain(CYCLE8, 0, 0, L1, seed=1)
    indptr, pairs, weights = field
    with pytest.raises(ValueError, match="one pair row per point"):
        cc.tf_identity((indptr[:-1], pairs, weights), theta)


# -- CSR families and the array pair scan ---------------------------------------

def _spaces_for_walk():
    return [CYCLE8, TORUS8,
            cc.generate_family("random_regular", {"n": 64, "k": 3}, seed=3),
            cc.generate_family("free_ball", {"rank": 2, "radius": 3}),
            cc.scaled_metric(CYCLE8, 0.5),
            cc.generate_family("path", {"size": 1})]


@pytest.mark.parametrize("space", _spaces_for_walk(),
                         ids=["cycle8", "torus8", "rr64", "free_ball",
                              "real", "n1"])
@pytest.mark.parametrize("laziness", [0.5, 0.3])
def test_walk_matrix_matches_sum_expression(space, laziness):
    # the dict loop over the rows of the sum expression, in entry order
    fam = cc.lazy_walk_family(space, 2, laziness)
    want = walk_rows_reference(space, 2, laziness)
    assert [list(row.items()) for row in family_dicts(fam)] == [
        list(row.items()) for row in want]


@pytest.mark.parametrize("method", ["ball", "walk"])
def test_profile_builds_no_vectors_and_no_distance_lists(method):
    space = cc.generate_family("torus", {"dim": 2, "size": 24})
    family = cc.ball_average if method == "ball" else (
        lambda sp, s: cc.lazy_walk_family(sp, int(s)))
    cc.variation_profile(space, [1, 2, 3], [1.0, 2.0], family=family)
    assert space._dist_rows is None


def _space_strategy():
    @st.composite
    def spaces(draw):
        n = draw(st.integers(1, 40))
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges += [(u, v) for u, v in draw(st.lists(extra, max_size=n))
                  if u != v]
        space = cc.build_graph_metric(edges, n)
        if draw(st.booleans()):
            space = cc.scaled_metric(space, draw(st.sampled_from([0.5, 1.5])))
        return space
    return spaces()


_WEIGHTS = st.one_of(st.sampled_from([1.0, 0.5, 0.25, -0.25, 1 / 3, -2.0]),
                     st.floats(-2.0, 2.0, allow_nan=False))


@st.composite
def _families(draw):
    """Ball averages, lazy walks and random families, and families of rows
    that hold one value w: of different lengths ("lengths"), with w < 0
    ("negative"), with an empty row ("empty"), and among rows of random
    values ("mixed")."""
    space = draw(_space_strategy())
    s = float(draw(st.integers(0, 3)))
    kind = draw(st.sampled_from(["random", "ball", "walk", "lengths",
                                 "negative", "empty", "mixed"]))
    if kind == "ball":
        return cc.ball_average(space, s)
    if kind == "walk" and space.integer_metric and (
            space.n == 1 or space.diameter() > 0):
        return cc.lazy_walk_family(space, int(s))
    balls = ref_balls(space, s)
    supports = []
    for x in range(space.n):
        ball = list(balls[x])
        supports.append(
            draw(st.permutations(ball))[:draw(st.integers(1, len(ball)))])
    if kind in ("lengths", "negative", "empty", "mixed"):
        w = draw(st.one_of(st.sampled_from([0.25, 1 / 3, 0.1, 2.0]),
                           st.floats(1e-3, 2.0)))
        if kind == "negative":
            w = -w
        if kind == "empty":
            supports[draw(st.integers(0, space.n - 1))] = []
        vectors = [kept(L1, {k: draw(_WEIGHTS) for k in support})
                   if kind == "mixed" and draw(st.booleans())
                   else {k: w for k in support} for support in supports]
        return _family(space, s, vectors, is_prob=False)
    is_prob = draw(st.booleans())
    vectors = []
    for support in supports:
        if is_prob:
            raw = {k: 0.05 + draw(st.floats(0.0, 1.0)) for k in support}
            total = sum(raw.values())
            vectors.append(kept(L1, {k: w / total for k, w in raw.items()}))
        else:
            vectors.append(kept(L1, {k: draw(_WEIGHTS) for k in support}))
    return _family(space, s, vectors, is_prob=is_prob)


# _SlotTable budgets of one row, of a few rows (90 bytes hold two rows
# of 40 points) and of every row: many blocks, some with no pair
_SLOT_BUDGETS = st.sampled_from([1, 90, 1 << 20])


@settings(deadline=None, max_examples=150)
@given(_families(), st.sampled_from([0.0, 1.0, 2.0, 3.0]),
       st.sampled_from([8, 64, 1 << 21]), _SLOT_BUDGETS)
def test_profile_scan_matches_dict_loop(fam, r, chunk_bytes, block_bytes):
    space = fam.space
    assert space.group is None
    with mock.patch.object(averaging, "_SCAN_CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(averaging, "_SLOT_BLOCK_BYTES", block_bytes):
        row = cc.variation_profile(space, [fam.s], [r],
                                   family=lambda sp, s: fam).rows[0]
    nu, pair = max_pair_variation_reference(family_dicts(fam),
                                            pairs_reference(space, r))
    assert row.nu == nu and type(row.nu) is float
    assert (row.x0, row.x1) == pair
    assert type(row.x0) is int and type(row.x1) is int


@settings(deadline=None, max_examples=150)
@given(_space_strategy(),
       st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=1,
                max_size=3, unique=True),
       st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=1,
                max_size=3, unique=True),
       st.sampled_from([8, 64, 1 << 21]), _SLOT_BUDGETS)
def test_ball_profile_cells_are_the_rounded_exact_values(
        space, schedule, r_list, chunk_bytes, block_bytes):
    # every ball cell is the correctly rounded float of the exact rational,
    # bit for bit, and its witness is the first exact maximiser, across
    # chunks and slot blocks
    assert space.group is None
    with mock.patch.object(averaging, "_SCAN_CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(averaging, "_SLOT_BLOCK_BYTES", block_bytes):
        table = cc.variation_profile(space, schedule, r_list)
    for row in table.rows:
        exact, pair = frac_ball_nu(space, row.s, row.r)
        assert (row.nu.hex(), (row.x0, row.x1)) == (float(exact).hex(), pair)
        assert type(row.nu) is float and type(row.x1) is int


@pytest.mark.parametrize("space", [_law_free(CYCLE8), _law_free(TORUS8),
                                   _law_free(CYCLE64),
                                   cc.generate_family("path", {"size": 1})],
                         ids=["cycle8", "torus8", "cycle64", "n1"])
def test_profile_ties_and_empty_pairs_match_dict_loop(space):
    # the pairs at one distance all tie on these graphs: every cell is the
    # exact rational's float with the first exact maximiser as witness, and
    # R = 0 holds no pair
    table = cc.variation_profile(space, [0, 1, 2, 3], [0.0, 1.0, 2.0])
    for row in table.rows:
        exact, pair = frac_ball_nu(space, row.s, row.r)
        assert (row.nu, (row.x0, row.x1)) == (float(exact), pair)
    assert table.get(1.0, 0.0).nu == 0.0
    assert (table.get(1.0, 0.0).x0, table.get(1.0, 0.0).x1) == (0, 0)


def _group_spaces():
    """Cycles of sizes 3-19, 2-tori of sizes 3-9, 3-tori of sizes 3-5."""
    return ([("cycle", {"size": m}) for m in range(3, 20)]
            + [("torus", {"dim": 2, "size": m}) for m in range(3, 10)]
            + [("torus", {"dim": 3, "size": m}) for m in range(3, 6)])


def _assert_one_row_is_the_dense_scan(space, schedule, r_list):
    dense = cc.variation_profile(_law_free(space), schedule, r_list)
    with mock.patch.object(cc.FiniteMetricSpace, "rows_within") as scan:
        routed = cc.variation_profile(space, schedule, r_list)
    assert not scan.called and space._dist is None
    assert [(row.s, row.r, row.nu.hex(), row.x0, row.x1, row.exact)
            for row in routed.rows] == [
        (row.s, row.r, row.nu.hex(), row.x0, row.x1, row.exact)
        for row in dense.rows]
    assert routed.to_csv() == dense.to_csv()
    assert all(type(row.x1) is int for row in routed.rows)


@pytest.mark.parametrize("kind,params", _group_spaces(),
                         ids=lambda v: v if isinstance(v, str) else "-".join(
                             str(x) for x in v.values()))
def test_one_row_profile_matches_dense_scan_bit_for_bit(kind, params):
    space = cc.generate_family(kind, params)
    diameter = int(_law_free(space).diameter())
    # S = 0 and R = 0 add the one-point balls and the empty pair set
    _assert_one_row_is_the_dense_scan(
        space, list(range(0, diameter + 2)),
        [float(r) for r in range(0, min(diameter, 3) + 1)])


@pytest.mark.parametrize("size", [12, 48])
def test_one_row_profile_matches_dense_scan_on_large_tori(size):
    space = cc.generate_family("torus", {"dim": 2, "size": size})
    _assert_one_row_is_the_dense_scan(space, [1, 2, 3, 4, 5], [1.0, 2.0])


def test_walk_profile_on_a_group_space_keeps_the_dense_scan():
    walk = lambda sp, s: cc.lazy_walk_family(sp, int(s))
    with mock.patch.object(averaging, "_one_row_variation") as one_row:
        table = cc.variation_profile(TORUS8, [1, 2], [1.0, 2.0], family=walk)
    assert not one_row.called
    assert table.to_csv() == cc.variation_profile(
        _law_free(TORUS8), [1, 2], [1.0, 2.0], family=walk).to_csv()


@settings(deadline=None, max_examples=100)
@given(_space_strategy(), st.integers(0, 2), st.booleans(), st.data())
def test_family_validation_matches_per_entry_loop(space, s, is_prob, data):
    vectors = []
    for _ in range(space.n):
        support = data.draw(st.lists(st.integers(0, space.n - 1), max_size=4,
                                     unique=True))
        vectors.append(kept(L1, {k: data.draw(_WEIGHTS) for k in support}))
    try:
        validate_family_reference(space, s, vectors, is_prob=is_prob)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc)) + "$"):
            _family(space, s, vectors, is_prob=is_prob)
    else:
        _family(space, s, vectors, is_prob=is_prob)


# -- the sparse walk kernel ------------------------------------------------------

def _check_sparse_walk(space, steps, laziness, rows=sparse_walk_rows):
    """The walk's rows (by default from the identity) equal the dict loop
    bit for bit, in entry order, and matrix_power within 1e-13."""
    got = csr_dicts(*rows(space, steps, laziness))
    want = walk_rows_reference(space, steps, laziness)
    assert got == want
    assert [list(row) for row in got] == [list(row) for row in want]
    dense = walk_dicts_reference(space, steps, laziness)
    for row, mat_row in zip(got, dense):
        for j in set(row) | set(mat_row):
            assert abs(row.get(j, 0.0) - mat_row.get(j, 0.0)) <= 1e-13
    return got


def _walk_rows(space, steps, laziness):
    fam = cc.lazy_walk_family(space, steps, laziness)
    return fam.indptr, fam.cols, fam.weights


def _has_unit_neighbours(space):
    return space.n == 1 or all(
        any(0 < space.d(x, y) <= 1.0 + 1e-12 for y in range(space.n))
        for x in range(space.n))


@settings(deadline=None, max_examples=80)
@given(_space_strategy(), st.integers(0, 6), st.sampled_from([0.5, 0.3]),
       st.sampled_from([1, 16, 1 << 13]))
def test_sparse_walk_rows_match_dict_loop(space, steps, laziness, chunk):
    # up to 6 steps the rows of most of these spaces hold every point
    with mock.patch.object(averaging, "_WALK_CHUNK_TERMS", chunk):
        if _has_unit_neighbours(space):
            _check_sparse_walk(space, steps, laziness, _walk_rows)
        else:
            with pytest.raises(ValueError, match="unit neighbor"):
                cc.lazy_walk_family(space, steps, laziness)


@pytest.mark.parametrize("laziness", [0.5, 0.3])
def test_sparse_walk_rows_on_a_single_point(laziness):
    single = cc.generate_family("path", {"size": 1})
    for steps in range(4):
        assert _check_sparse_walk(single, steps, laziness) == [{0: 1.0}]


def test_sparse_walk_rows_prune_like_supported_vectors():
    path = cc.generate_family("path", {"size": 40})
    assert any(0 < w < PRUNE_TOL for row in walk_dicts_reference(path, 30)
               for w in row.values())
    _check_sparse_walk(path, 30, 0.5)


def test_walk_rows_prune_like_supported_vectors():
    # lazy_walk_family drops what falls below PRUNE_TOL, as the dict loop does
    path = cc.generate_family("path", {"size": 40})
    assert any(0 < w < PRUNE_TOL for row in walk_dicts_reference(path, 30)
               for w in row.values())
    _check_sparse_walk(path, 30, 0.5, _walk_rows)


@pytest.mark.parametrize("space", _spaces_for_walk(),
                         ids=["cycle8", "torus8", "rr64", "free_ball",
                              "real", "n1"])
@pytest.mark.parametrize("laziness", [0.5, 0.3])
def test_walk_step_rows_are_the_reference_nonzeros(space, laziness):
    indptr, cols, weights = averaging._walk_step_rows(space, laziness)
    mat = walk_matrix_reference(space, laziness)
    rows, want_cols = np.nonzero(mat)
    assert np.array_equal(indptr, np.searchsorted(rows, np.arange(space.n + 1)))
    assert np.array_equal(cols, want_cols)
    assert np.array_equal(weights, mat[rows, want_cols])


def test_walk_on_thin_balls_builds_no_dense_matrix():
    space = cc.generate_family("random_regular", {"n": 1024, "k": 3}, seed=1)
    tracemalloc.start()
    try:
        fam = cc.lazy_walk_family(space, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * space.n * space.n  # one n x n float64 matrix
    assert np.array_equal(fam.weights, sparse_walk_rows(space, 4, 0.5)[2])


@pytest.mark.parametrize("laziness", [0.5, 0.3])
def test_walk_on_saturated_balls_is_the_dict_loop(laziness):
    # every row holds every point from one step on
    space = cc.generate_family("complete", {"n": 64})
    for steps in (1, 2, 3):
        rows = _check_sparse_walk(space, steps, laziness, _walk_rows)
        assert all(len(row) == space.n for row in rows)


# -- one read of the distances per profile ----------------------------------------

def _scan_key(results):
    return [(nu.hex(), pair, type(nu), type(pair[0]), type(pair[1]))
            for nu, pair in results]


@settings(deadline=None, max_examples=150)
@given(_families(),
       st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0]),
                min_size=1, max_size=5),
       st.sampled_from([0.0, 1.0, 4.0]), st.sampled_from([8, 64, 1 << 21]))
def test_one_scan_over_the_widest_r_is_one_scan_per_r(fam, r_list, wider,
                                                      chunk_bytes):
    # R lists in any order, with R = 0 and R past the diameter; the space's
    # widest rows may be wider than the largest R, as a profile's are
    space = fam.space
    r_max = max(r_list)
    padded = padded_rows(space.n, fam.indptr, fam.cols, fam.weights)
    space.rows_within(r_max + wider)
    with mock.patch.object(averaging, "_SCAN_CHUNK_BYTES", chunk_bytes):
        got = averaging.pair_scan(fam, r_list)
        want = [max_pair_variation(padded, *pair_index(space, r))
                for r in r_list]
    assert _scan_key(got) == _scan_key(want)
    pairs = averaging._ball_pairs(space, r_max)
    assert _scan_key(averaging.pair_scan(fam, r_list, pairs)) == _scan_key(
        want)


def test_one_scan_keeps_ties_and_empty_pair_sets():
    # on a law-free cycle the pairs at one distance all tie, and the
    # variation of the unit balls peaks at distance 3, so the first pair
    # at the farthest distance up to 3 wins; R = 0 and 0.5 hold no pair
    # and read (0.0, (0, 0))
    space = _law_free(CYCLE8)
    fam = cc.ball_average(space, 1.0)
    r_list = [2.0, 0.0, 1.0, 0.5, 4.0]
    got = averaging.pair_scan(fam, r_list)
    assert [pair for _, pair in got] == [(0, 2), (0, 0), (0, 1), (0, 0),
                                         (0, 3)]
    assert got[1] == got[3] == (0.0, (0, 0))
    padded = padded_rows(8, fam.indptr, fam.cols, fam.weights)
    assert _scan_key(got) == _scan_key(
        [max_pair_variation(padded, *pair_index(space, r)) for r in r_list])


def _twin(space):
    """A fresh copy of the space, with no rows read."""
    return cc.FiniteMetricSpace.from_json(space.to_json())


def _csr_bits(fam):
    return (fam.indptr.tobytes(), fam.cols.tobytes(), fam.weights.tobytes(),
            fam.indptr.dtype, fam.cols.dtype, fam.weights.dtype)


@pytest.mark.parametrize("kind,params,seed,schedule", [
    ("random_regular", {"n": 512, "k": 3}, 5, (1, 2, 4, 7)),
    ("torus", {"dim": 2, "size": 32}, 0, (1, 2, 4, 7)),
    ("free_ball", {"rank": 2, "radius": 4}, 0, (1, 2, 4, 7)),
    # rows that fill up (dense) from S = 2 on
    ("random_regular", {"n": 64, "k": 3}, 3, (1, 2, 3)),
    # a smaller S than the power in hand starts again from the identity
    ("random_regular", {"n": 512, "k": 3}, 5, (3, 1, 4, 2)),
], ids=["rr512", "torus32", "free_ball", "rr64-to-dense", "rr512-unsorted"])
@pytest.mark.parametrize("laziness", [0.5, 0.3])
def test_walks_carried_along_a_schedule_equal_walks_from_the_identity(
        kind, params, seed, schedule, laziness):
    # walks called in turn on one space carry its sparse powers along the
    # schedule; each equals, bit for bit, the same call on a fresh twin
    space = cc.generate_family(kind, params, seed)
    for steps in schedule:
        got = cc.lazy_walk_family(space, steps, laziness)
        want = cc.lazy_walk_family(cc.generate_family(kind, params, seed),
                                   steps, laziness)
        assert _csr_bits(got) == _csr_bits(want)
        assert averaging._WALKS[space][0] == laziness
        assert averaging._WALKS[space][1].t == steps
    # the space keeps the powers of the latest laziness only
    other = 0.8 - laziness
    got = cc.lazy_walk_family(space, schedule[0], other)
    assert _csr_bits(got) == _csr_bits(cc.lazy_walk_family(
        cc.generate_family(kind, params, seed), schedule[0], other))
    assert averaging._WALKS[space][0] == other


@pytest.mark.parametrize("kind,params,family,schedule", [
    ("random_regular", {"n": 256, "k": 3}, cc.lazy_walk_family, (4, 1, 3)),
    ("random_regular", {"n": 256, "k": 3}, cc.ball_average, (4, 1, 3)),
    # uint8 cells, then uint16 ones for rows of up to 300 entries
    ("path", {"size": 300}, cc.ball_average, (1, 200, 3)),
], ids=["rr256-walk", "rr256-ball", "path300-ball"])
def test_one_slot_table_serves_a_profile(kind, params, family, schedule):
    # one profile writes every family's slots to one table, a block of
    # rows at a time, and clears each block after reading its pairs:
    # wide, then narrow, then wide again, each row equals the profile of
    # its S alone on a fresh twin, the table is all zeros after every
    # clear, and it never holds more than its budget or one row; with the
    # default budget and with one of a few rows per block
    space = cc.generate_family(kind, params, seed=4)
    alone = [(row.s, row.r, row.nu.hex(), row.x0, row.x1)
             for s in schedule for row in cc.variation_profile(
                 _twin(space), [s], [1.0, 2.0], family=family).rows]
    clear = averaging._SlotTable.clear
    for block_bytes in (averaging._SLOT_BLOCK_BYTES, 1000):
        tables = []

        def clear_and_check(slots):
            clear(slots)
            tables.append((slots.cells.dtype, slots.cells.nbytes,
                           slots.cells.any()))

        with mock.patch.object(averaging, "_SLOT_BLOCK_BYTES",
                               block_bytes), \
                mock.patch.object(averaging._SlotTable, "clear",
                                  autospec=True,
                                  side_effect=clear_and_check):
            table = cc.variation_profile(_twin(space), schedule, [1.0, 2.0],
                                         family=family)
        assert len(tables) >= len(schedule)
        assert not any(dirty for _, _, dirty in tables)
        assert all(size <= max(block_bytes, (space.n + 1) * dtype.itemsize)
                   for dtype, size, _ in tables)
        if block_bytes < space.n:
            # a few rows per block, so many blocks per family
            assert len(tables) > 20 * len(schedule)
        dtypes = [dtype for dtype, _, _ in tables]
        if kind == "path":
            # the narrow family keeps the uint16 table of the wide one
            wide = dtypes.index(np.uint16)
            assert dtypes == [np.uint8] * wide + [np.uint16] * (
                len(dtypes) - wide)
        assert [(row.s, row.r, row.nu.hex(), row.x0, row.x1)
                for row in table.rows] == alone


@pytest.mark.parametrize("kind,params,s", [
    ("random_regular", {"n": 30, "k": 3}, 2.0),
    ("random_regular", {"n": 300, "k": 3}, 3.0),
    ("free_ball", {"rank": 2, "radius": 3}, 2.0),
    ("path", {"size": 300}, 150.0),
], ids=["rr30", "rr300", "free_ball", "path300"])
def test_profiles_across_blocks_match_dict_loop(kind, params, s):
    # blocks of 3 slot rows (1 of uint16 cells) and of one packed ball row
    # at a time: the ball, walk and random families of graphs of 30 to 300
    # points read the dict loop's floats and first witnesses
    space = cc.generate_family(kind, params, seed=3)
    rng = np.random.default_rng(3)
    r_list = [1.0, 2.0, 3.0]
    with mock.patch.object(averaging, "_SLOT_BLOCK_BYTES", 1000), \
            mock.patch.object(spacemod, "_READ_BYTES", 8):
        space.rows_within(max(s, 3.0))
        indptr, cols = space.rows_within(s)[:2]
        masses = rng.random(len(cols)) + 0.05
        fams = [cc.ball_average(space, s), cc.lazy_walk_family(space, s),
                cc.ReiterFamily(space, s, indptr, cols, masses,
                                is_prob=False)]
        got = [averaging.pair_scan(fam, r_list) for fam in fams]
    for fam, scans in zip(fams, got):
        for r, (nu, pair) in zip(r_list, scans):
            want_nu, want_pair = max_pair_variation_reference(
                family_dicts(fam), pairs_reference(space, r))
            assert (nu.hex(), pair) == (want_nu.hex(), want_pair)


@pytest.mark.parametrize("kind,params,s", [
    ("random_regular", {"n": 300, "k": 3}, 2.0),
    ("path", {"size": 300}, 150.0),
], ids=["rr300", "path300"])
def test_pair_scan_takes_pairs_in_any_order(kind, params, s):
    # shuffled pairs, half of them as (j, i), across blocks of 3 slot rows:
    # each pair's variation is the dict loop's, and the witness is the
    # first maximising pair in the order given
    space = cc.generate_family(kind, params, seed=5)
    rng = np.random.default_rng(5)
    r_list = [1.0, 2.0, 3.0]
    pi, pj, pd = averaging._ball_pairs(space, 3.0)
    order = rng.permutation(len(pi))
    flip = rng.random(len(pi)) < 0.5
    pi, pj = np.where(flip, pj, pi)[order], np.where(flip, pi, pj)[order]
    pd = pd[order]
    indptr, cols = space.rows_within(s)[:2]
    fams = [cc.ball_average(space, s), cc.lazy_walk_family(space, s),
            cc.ReiterFamily(space, s, indptr, cols,
                            rng.random(len(cols)) + 0.05, is_prob=False)]
    with mock.patch.object(averaging, "_SLOT_BLOCK_BYTES", 1000):
        got = [averaging.pair_scan(fam, r_list, (pi, pj, pd))
               for fam in fams]
    for fam, scans in zip(fams, got):
        for r, (nu, pair) in zip(r_list, scans):
            inside = pd <= radius_bound(space, r)
            want_nu, want_pair = max_pair_variation_reference(
                family_dicts(fam), list(zip(pi[inside].tolist(),
                                            pj[inside].tolist())))
            assert (nu.hex(), pair) == (want_nu.hex(), want_pair)


def test_pair_scan_memory_follows_the_block():
    # with its rows read in advance, the scan of an rr8192 ball family
    # holds its padded rows, one block of slots and a chunk of pairs: a
    # table of every row's slots, n x (n + 1) bytes (64 MiB), breaks this
    space = cc.generate_family("random_regular", {"n": 8192, "k": 3}, seed=1)
    fam = cc.ball_average(space, 4.0)
    pairs = averaging._ball_pairs(space, 2.0)
    tracemalloc.start()
    try:
        got = averaging.pair_scan(fam, [1.0, 2.0], pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert [pair for _, pair in got] and all(nu > 0 for nu, _ in got)


def test_ball_and_walk_profiles_read_the_distances_once():
    # a graph space's profile grows its widest balls once, the two
    # profiles share them, and no n x n mask or matrix is made
    space = cc.generate_family("random_regular", {"n": 256, "k": 3}, seed=4)
    near = cc.FiniteMetricSpace.near
    with mock.patch.object(cc.FiniteMetricSpace, "near", autospec=True,
                           side_effect=near) as calls, \
            mock.patch.object(spacemod, "_ball_rows",
                              wraps=spacemod._ball_rows) as grown:
        for family in (cc.ball_average, cc.lazy_walk_family):
            table = cc.variation_profile(space, [1, 2, 3, 4], [1.0, 2.0],
                                         family=family)
            assert len(table.rows) == 8
    assert calls.call_count == 0 and grown.call_count == 1
    assert space._dist is None


@settings(deadline=None, max_examples=80)
@given(_space_strategy(), st.integers(0, 4), st.sampled_from([0.5, 0.3]))
def test_families_built_from_balls_pass_validate(space, smax, laziness):
    # the ball averages and walks, read off the space's widest rows as a
    # profile reads them, skip validate at construction: each still passes
    # it, and equals the family built on a fresh twin of the space
    space.rows_within(max(smax, 1.0))
    walks = _has_unit_neighbours(space)
    with mock.patch.object(cc.ReiterFamily, "validate") as checked:
        built = []
        for s in range(smax + 1):
            built.append((cc.ball_average(space, float(s)),
                          cc.ball_average(_twin(space), float(s))))
            if walks:
                built.append((
                    cc.lazy_walk_family(space, s, laziness),
                    cc.lazy_walk_family(_twin(space), s, laziness)))
    assert not checked.called
    for fam, alone in built:
        fam.validate()
        assert _csr_bits(fam) == _csr_bits(alone)
        assert (fam.s, fam.name, fam.is_prob) == (alone.s, alone.name,
                                                  alone.is_prob)


def test_walk_profile_equals_the_profile_of_each_walk_alone():
    space = cc.generate_family("random_regular", {"n": 256, "k": 3}, seed=4)
    alone = lambda sp, s: cc.lazy_walk_family(sp, int(s))
    schedule, r_list = [1, 2, 3, 5, 8], [2.0, 1.0]
    assert cc.variation_profile(
        space, schedule, r_list, family=cc.lazy_walk_family).to_csv() == (
        cc.variation_profile(space, schedule, r_list, family=alone).to_csv())


def test_saturating_ball_profile_memory_is_bounded():
    # the widest balls hold every point: this rr512 has diameter 12
    space = cc.generate_family("random_regular", {"n": 512, "k": 3}, seed=1)
    schedule = [2.0, 6.0, 12.0]
    assert space.diameter() <= max(schedule)
    tracemalloc.start()
    try:
        cc.variation_profile(space, schedule, [1.0, 2.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the tracemalloc peak of the same profile when each S and each R read
    # their own near mask (measured once, numpy 2.4.6)
    assert peak <= 13_198_639


def test_saturating_walk_profile_memory_is_bounded():
    # the widest 8-ball of this rr512 holds 448 of its 512 points
    space = cc.generate_family("random_regular", {"n": 512, "k": 3}, seed=1)
    tracemalloc.start()
    try:
        cc.variation_profile(space, list(range(1, 9)), [1.0, 2.0],
                             family=cc.lazy_walk_family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.diff(space.rows_within(8.0)[0]).max() == 448
    # measured once (numpy 2.4.6): 10.29 MB, and 11.21 MB when each step
    # kept the power in hand while it laid out the next
    assert peak < 10_750_000
