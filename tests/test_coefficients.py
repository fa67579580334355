"""Values as face-table rows and CSR rows: pruning, the zero-sum check, the
entry order, the pair boundary and its lift, and the seeded CSR builders
against the dict-built values they replaced (tests/helpers.py)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coarsecohom as cc
from coarsecohom import L1, L1_ZERO, MODULES, SCALAR, averaging, facetables
from coarsecohom.facetables import csr_add, csr_row_sums
from helpers import (Pointwise, boundary_reference, csr_dicts, dict_gap,
                     dict_norm, dicts_csr, family_dicts, kept,
                     max_pair_variation, max_pair_variation_reference, normalize_reference,
                     one_value, padded_rows, pair_field_reference,
                     prob_family_reference,
                     rule_cochain, spaces, table_dicts, unit_sum_reference,
                     zero_sum_vector_reference)


entry_dicts = st.dictionaries(
    st.integers(0, 30),
    st.floats(-10, 10, allow_nan=False).filter(lambda v: abs(v) > 1e-9),
    max_size=6)

CYCLE4 = cc.generate_family("cycle", {"size": 4})
CYCLE6 = cc.generate_family("cycle", {"size": 6})


def _constant(space, module, entries):
    """The (0, -1)-cochain with the one value `entries` everywhere."""
    return rule_cochain(space, 0, -1, module, lambda xs, ys: entries)


def test_dirac_and_zero():
    fam = cc.dirac_family(CYCLE6)
    assert family_dicts(fam) == [{x: 1.0} for x in range(6)]
    assert fam.sup_norm == 1.0 and fam.s == 0.0
    assert one_value(fam.as_cochain(), (3,)) == {3: 1.0}
    # values with no entries have norm 0 in every module
    for module in MODULES:
        assert facetables.norms(facetables.empty(module, 6, 2)).tolist() == [
            0.0, 0.0]
    weighted = facetables.csr_table(L1, 6, np.array([0, 1]), np.array([2]),
                                    np.array([-2.5]), np.array([0]))
    assert facetables.norms(weighted).tolist() == [2.5]


def test_dirac_diff():
    tab = facetables.dirac_diff_table(6, np.array([4, 2]), np.array([1, 2]))
    assert tab.module == L1_ZERO
    assert table_dicts(tab) == [{1: -1.0, 4: 1.0}, {}]
    assert facetables.norms(tab).tolist() == [2.0, 0.0]


def test_zero_sum_enforced():
    with pytest.raises(ValueError, match="sum to 0"):
        facetables.finish(L1_ZERO, np.array([[1.0, -0.5]]))
    with pytest.raises(ValueError, match="sum to 0"):
        csr_add(L1_ZERO, 1, [0, 0], [0, 1], [1.0, -0.5], 2)
    # balanced entries pass
    facetables.finish(L1_ZERO, np.array([[1.0, -1.0]]))
    csr_add(L1_ZERO, 1, [0, 0], [0, 1], [1.0, -1.0], 2)


def test_pruning():
    tab = facetables.finish(L1, np.array([[1.0, 1e-16, -1e-16]]))
    assert table_dicts(tab) == [{0: 1.0}]
    _, cols, weights = csr_add(L1, 1, [0, 0, 0], [0, 1, 2],
                               [1.0, 1e-16, -1e-16], 3)
    assert cols.tolist() == [0] and weights.tolist() == [1.0]
    # a sum that cancels goes too
    _, cols, _ = csr_add(L1, 1, [0, 0, 0], [1, 0, 1], [0.1, 1.0, -0.1], 2)
    assert cols.tolist() == [0]


def test_entries_are_kept_in_ascending_point_order():
    # 16 + 1.5e-15 rounds back to 16, but the two small entries added
    # first reach one ulp of 16: the norm tells the orders apart
    tiny = 1.5e-15
    want = 16.000000000000004
    indptr, cols, weights = csr_add(L1, 1, [0, 0, 0], [2, 1, 0],
                                    [16.0, tiny, tiny], 3)
    assert cols.tolist() == [0, 1, 2]
    assert csr_row_sums(indptr, np.abs(weights)).tolist() == [want]
    # values that cochain sums, differences and scalings build
    big = _constant(CYCLE4, L1, {2: 16.0})
    small = _constant(CYCLE4, L1, {1: tiny, 0: tiny})
    whole = _constant(CYCLE4, L1, {2: 16.0, 1: tiny, 0: tiny})
    built = [
        cc.cochain_add(big, small),
        cc.cochain_sub(big, _constant(CYCLE4, L1, {1: -tiny, 0: -tiny})),
        cc.cochain_scale(whole, 1.0),
    ]
    for c in built:
        u = Pointwise()(c, (0,))
        assert list(u) == [0, 1, 2] and dict_norm(u) == want
        assert list(one_value(c, (0,))) == [0, 1, 2]
        # the face tables add each row in the same order
        assert cc.seminorm(c, 0.0)["value"] == want
    assert cc.seminorm(whole, 0.0)["value"] == want
    field = (np.array([0, 3]), np.array([[3, 2], [3, 1], [3, 0]]),
             np.array([16.0, tiny, tiny]))
    indptr, cols, dh = cc.pair_boundary(4, field)
    assert cols.tolist() == [0, 1, 2, 3]
    assert csr_row_sums(indptr, dh)[0] == ((tiny + tiny) + 16.0) + dh[3]


def test_arithmetic_and_module_mismatch():
    # values are added by cochain sums, differences and scalings only,
    # which refuse operands of different modules
    a = cc.cochain_add(_constant(CYCLE6, L1, {0: 1.0}),
                       _constant(CYCLE6, L1, {1: 1.0}))
    assert dict_norm(one_value(a, (3,))) == 2.0
    assert one_value(cc.cochain_sub(a, a), (3,)) == {}
    five = _constant(CYCLE6, L1, {5: 1.0})
    assert one_value(cc.cochain_scale(five, 2.0), (3,)) == {5: 2.0}
    assert one_value(cc.cochain_scale(five, -1.0), (3,)) == {5: -1.0}
    with pytest.raises(ValueError, match="matching space, bidegree, module"):
        cc.cochain_add(_constant(CYCLE6, L1, {0: 1.0}),
                       _constant(CYCLE6, L1_ZERO, {1: 1.0, 0: -1.0}))


def test_scalar_module():
    s = _constant(CYCLE4, SCALAR, {"scalar": -2.0})
    assert facetables.norms(facetables.evaluate(s, np.array([[0]]))).tolist(
        ) == [2.0]
    total = cc.cochain_add(s, _constant(CYCLE4, SCALAR, {"scalar": 3.0}))
    assert one_value(total, (0,)) == {"scalar": 1.0}
    # pi_sum is defined on l1-type values only
    with pytest.raises(ValueError, match="expects an l1 family"):
        cc.normalize_to_prob(s)


def test_pi_sum_and_sections():
    # pi_sum of a CSR row adds its entries from left to right
    indptr = np.array([0, 2, 3])
    assert csr_row_sums(indptr, np.array([0.25, 0.5, 0.75])).tolist() == [
        0.75, 0.75]
    # the section lam -> lam * delta_x, read back as family rows
    lifted = rule_cochain(CYCLE4, 0, -1, L1, lambda xs, ys: {xs[0]: 0.75})
    indptr, cols, weights = cc.family_rows(lifted)
    assert cols.tolist() == [0, 1, 2, 3]
    assert csr_row_sums(indptr, weights).tolist() == [0.75] * 4


def test_inclusion_and_retag():
    # an l1_0 value includes into l1 as the same entries: the rows of an
    # l1_0 family cochain read as they are
    step = rule_cochain(CYCLE6, 0, -1, L1_ZERO,
                        lambda xs, ys: {(xs[0] + 1) % 6: 1.0, xs[0]: -1.0})
    assert csr_dicts(*cc.family_rows(step))[0] == {0: -1.0, 1: 1.0}
    # only an l1 family cochain normalizes
    with pytest.raises(ValueError, match="expects an l1 family"):
        cc.normalize_to_prob(step)


@settings(deadline=None, max_examples=60)
@given(entry_dicts, entry_dicts)
def test_l1_distance_matches_difference_norm(da, db):
    # the l1 distance of the profile's pair scan, on the rows u, v, u
    u = kept(L1, da)
    v = kept(L1, db)
    rows = [u, v, u] + [{}] * 28
    padded = padded_rows(len(rows), *dicts_csr(rows))

    def distance(i, j):
        return max_pair_variation(padded, np.array([i]), np.array([j]))[0]

    direct = sum(abs(u.get(k, 0.0) - v.get(k, 0.0)) for k in set(da) | set(db))
    assert math.isclose(distance(0, 1), direct, rel_tol=0, abs_tol=1e-12)
    assert distance(0, 1) == max_pair_variation_reference(rows, [(0, 1)])[0]
    assert distance(0, 2) == 0.0


def test_entry_gap():
    row = np.array([0, 2])
    u = facetables.csr_table(L1, 3, row, np.array([0, 1]),
                             np.array([1.0, 2.0]), np.array([0]))
    v = facetables.csr_table(L1, 3, row, np.array([1, 2]),
                             np.array([2.5, -0.25]), np.array([0]))
    assert facetables.gaps(u, v).tolist() == [1.0]
    assert facetables.gaps(u).tolist() == [2.0]
    scalars = [facetables.Table(SCALAR, np.array([[w]])) for w in (3.0, 1.0)]
    assert facetables.gaps(*scalars).tolist() == [2.0]
    a = cc.random_cochain(CYCLE6, 0, 0, L1, seed=1)
    b = cc.random_cochain(CYCLE6, 0, 0, L1_ZERO, seed=1)
    with pytest.raises(ValueError, match="matching bidegree and module"):
        cc.audit_equal("mismatch", a, b, 1.0)


def test_pair_vector():
    # a pair row keeps its pairs in the order they first appear, adds
    # repeats and drops weights below PRUNE_TOL; its norm adds |w| in order
    codes = [0 * 9 + 1, 3 * 9 + 2, 4 * 9 + 4, 0 * 9 + 1]
    indptr, codes, weights = csr_add(L1, 1, [0] * 4, codes,
                                     [2.0, -1.0, 1e-16, 0.5], 81,
                                     ascending=False)
    assert codes.tolist() == [1, 29] and weights.tolist() == [2.5, -1.0]
    assert csr_row_sums(indptr, np.abs(weights)).tolist() == [3.5]
    indptr, pairs, weights = cc.random_pair_field(CYCLE6, 1.0, 3, terms=0)
    assert indptr.tolist() == [0] * 7 and pairs.shape == (0, 2)


def test_boundary_pairs_hand_example():
    field = (np.array([0, 2]), np.array([[0, 1], [1, 2]]),
             np.array([1.0, 1.0]))
    # telescoping: -delta_0 + delta_2
    assert csr_dicts(*cc.pair_boundary(3, field)) == [{0: -1.0, 2: 1.0}]


pair_dicts = st.dictionaries(
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
    st.floats(-5, 5, allow_nan=False).filter(lambda v: abs(v) > 1e-9),
    max_size=6)


@settings(deadline=None, max_examples=60)
@given(pair_dicts)
def test_boundary_contraction_property(entries):
    field = dicts_csr([entries], pairs=True)
    out = csr_dicts(*cc.pair_boundary(9, field))[0]
    want = boundary_reference(entries)
    assert [(k, w.hex()) for k, w in out.items()] == [
        (k, w.hex()) for k, w in want.items()]
    assert dict_norm(out) <= 2.0 * dict_norm(entries) + 1e-12
    assert abs(sum(out.values())) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(entry_dicts, st.integers(0, 30))
def test_lift_boundary_round_trip(entries, base):
    # symmetrize into a genuine zero-sum vector first
    balanced = dict(entries)
    drift = sum(balanced.values())
    balanced[31] = balanced.get(31, 0.0) - drift
    h = kept(L1_ZERO, balanced)
    cols = np.array(list(h), dtype=np.int64)
    pairs, weights = cc.lift_boundary(cols, np.array(list(h.values())), base)
    lifted = csr_dicts(np.array([0, len(weights)]), pairs, weights)[0]
    back = csr_dicts(*cc.pair_boundary(32, (np.array([0, len(weights)]),
                                            pairs, weights)))[0]
    assert dict_gap(back, h) <= 1e-12
    assert dict_norm(lifted) <= dict_norm(h) + 1e-12
    assert all(z0 == base and z1 in h for z0, z1 in lifted)


def test_lift_boundary_rejects_drift():
    with pytest.raises(ValueError, match="pi_sum"):
        cc.lift_boundary(np.array([0]), np.array([1.0]), 1)


def test_unknown_module_tag():
    fill = cc.random_cochain(CYCLE4, 0, 0, L1, seed=1).fill
    with pytest.raises(ValueError, match="unknown module"):
        cc.Cochain(CYCLE4, 0, 0, "l2", fill)


# -- the CSR builders against the dict-built values ---------------------------------

def _same_rows(got, want):
    """The same keys in the same order, with the same bits."""
    assert [[(k, w.hex()) for k, w in row.items()] for row in got] == [
        [(k, w.hex()) for k, w in row.items()] for row in want]


def _check_builders(space, seed):
    n = space.n
    for s in (0.0, 1.0, 2.0):
        for density in (1.0, 0.5):
            _same_rows(family_dicts(cc.random_prob_family(space, s, seed,
                                                          density)),
                       prob_family_reference(space, s, seed, density))
        phi = cc.random_unit_sum_cochain(space, s, seed)
        rows = csr_dicts(*cc.family_rows(phi))
        _same_rows(rows, unit_sum_reference(space, s, seed))
        want, reach = normalize_reference(space, rows)
        fam = cc.normalize_to_prob(phi)
        _same_rows(family_dicts(fam), want)
        assert fam.s == float(reach)
        for lift_style in (False, True):
            field = cc.random_pair_field(space, s, seed, lift_style=lift_style)
            pairs = pair_field_reference(space, s, seed, lift_style=lift_style)
            _same_rows(csr_dicts(*field), pairs)
            _same_rows(csr_dicts(*cc.pair_boundary(n, field)),
                       [boundary_reference(row) for row in pairs])
    _same_rows(family_dicts(cc.dirac_family(space)),
               [{x: 1.0} for x in range(n)])
    cols, weights = cc.random_zero_sum_vector(space, seed)
    _same_rows([dict(zip(cols.tolist(), weights.tolist()))],
               [zero_sum_vector_reference(space, seed)])
    if n >= 3:
        # |w| / ||phi(x)|| = 5e-16 falls below PRUNE_TOL: the mass goes,
        # but its distance still counts for S
        phi = rule_cochain(space, 0, -1, L1, lambda xs, ys: {
            xs[0]: 2.0, (xs[0] + 1) % n: -1.0, (xs[0] + 2) % n: 1.5e-15})
        rows = csr_dicts(*cc.family_rows(phi))
        want, reach = normalize_reference(space, rows)
        assert all(len(row) == 3 for row in rows)
        assert all(len(row) == 2 for row in want)
        fam = cc.normalize_to_prob(phi)
        _same_rows(family_dicts(fam), want)
        assert fam.s == float(reach)


@settings(deadline=None, max_examples=40)
@given(spaces(low=1), st.integers(0, 10 ** 6))
def test_csr_builders_equal_the_dict_built_values(space, seed):
    _check_builders(space, seed)


@pytest.mark.parametrize("space", [
    cc.generate_family("path", {"size": 1}),
    cc.generate_family("path", {"size": 2}),
    cc.scaled_metric(cc.generate_family("path", {"size": 2}), 0.5),
    cc.generate_family("path", {"size": 3}),
], ids=["n1", "n2", "n2-real", "n3"])
def test_csr_builders_on_one_two_and_three_points(space):
    for seed in range(3):
        _check_builders(space, seed)
