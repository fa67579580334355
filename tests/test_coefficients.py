import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coarsecohom as cc
from coarsecohom import L1, L1_ZERO, SCALAR, averaging
from coarsecohom.facetables import vectors_csr
from helpers import max_pair_variation_reference


entry_dicts = st.dictionaries(
    st.integers(0, 30),
    st.floats(-10, 10, allow_nan=False).filter(lambda v: abs(v) > 1e-9),
    max_size=6)


def test_dirac_and_zero():
    v = cc.dirac(3)
    assert v.norm == 1.0 and v.support == {3} and v.get(3) == 1.0
    assert cc.zero().is_zero()
    assert cc.dirac(2, weight=-2.5).norm == 2.5


def test_dirac_diff():
    v = cc.dirac_diff(4, 1)
    assert v.module == L1_ZERO
    assert v.get(4) == 1.0 and v.get(1) == -1.0 and v.norm == 2.0
    assert cc.dirac_diff(2, 2).is_zero()


def test_zero_sum_enforced():
    with pytest.raises(ValueError, match="sum to 0"):
        cc.SupportedVector(L1_ZERO, {0: 1.0, 1: -0.5})
    # balanced entries pass
    cc.SupportedVector(L1_ZERO, {0: 1.0, 1: -1.0})


def test_pruning():
    v = cc.SupportedVector(L1, {0: 1.0, 1: 1e-16, 2: -1e-16})
    assert v.support == {0}


def _constant(space, value):
    """The (0, -1)-cochain with the one value `value` everywhere."""
    return cc.Cochain(space, 0, -1, value.module, lambda xs, ys: value)


def test_entries_are_kept_in_ascending_point_order():
    # 16 + 1.5e-15 rounds back to 16, but the two small entries added
    # first reach one ulp of 16: the norm tells the orders apart
    tiny = 1.5e-15
    want = 16.000000000000004
    v = cc.SupportedVector(L1, {2: 16.0, 1: tiny, 0: tiny})
    assert list(v.entries) == [0, 1, 2] and v.norm == want
    # values that cochain sums, differences and scalings build
    space = cc.generate_family("cycle", {"size": 4})
    big = _constant(space, cc.SupportedVector(L1, {2: 16.0}))
    small = _constant(space, cc.SupportedVector(L1, {1: tiny, 0: tiny}))
    built = [
        cc.cochain_add(big, small),
        cc.cochain_sub(big, _constant(space, cc.SupportedVector(
            L1, {1: -tiny, 0: -tiny}))),
        cc.cochain_scale(_constant(space, v), 1.0),
    ]
    for c in built:
        u = c.rule((0,), ())
        assert list(u.entries) == [0, 1, 2] and u.norm == want
    # the face tables add each row in the same order
    bare = cc.Cochain(space, 0, -1, L1, lambda xs, ys: v)
    assert cc.seminorm(bare, 0.0)["value"] == want
    dh = cc.boundary_pairs(cc.PairVector({(3, 2): 16.0, (3, 1): tiny,
                                          (3, 0): tiny}))
    assert list(dh.entries) == [0, 1, 2, 3]
    assert cc.pi_sum(dh) == ((tiny + tiny) + 16.0) + dh.get(3)


def test_arithmetic_and_module_mismatch():
    # values are added by cochain sums, differences and scalings only,
    # which refuse operands of different modules
    space = cc.generate_family("cycle", {"size": 6})
    a = cc.cochain_add(_constant(space, cc.dirac(0)),
                       _constant(space, cc.dirac(1)))
    assert a((3,), ()).norm == 2.0
    assert cc.cochain_sub(a, a)((3,), ()).is_zero()
    five = _constant(space, cc.dirac(5))
    assert cc.cochain_scale(five, 2.0)((3,), ()).get(5) == 2.0
    assert cc.cochain_scale(five, -1.0)((3,), ()).get(5) == -1.0
    with pytest.raises(ValueError, match="matching space, bidegree, module"):
        cc.cochain_add(_constant(space, cc.dirac(0)),
                       _constant(space, cc.dirac_diff(1, 0)))
    # a vector itself has no arithmetic
    with pytest.raises(TypeError):
        cc.dirac(0) + cc.dirac(1)


def test_scalar_module():
    s = cc.SupportedVector(SCALAR, scalar=-2.0)
    assert s.norm == 2.0 and s.support == frozenset()
    space = cc.generate_family("cycle", {"size": 4})
    total = cc.cochain_add(_constant(space, s), _constant(
        space, cc.SupportedVector(SCALAR, scalar=3.0)))
    assert total((0,), ()).scalar == 1.0
    with pytest.raises(TypeError):
        cc.pi_sum(s)


def test_pi_sum_and_sections():
    v = cc.SupportedVector(L1, {0: 0.25, 3: 0.5})
    assert cc.pi_sum(v) == 0.75
    lifted = cc.lift_scalar(0.75, 3)
    assert cc.pi_sum(lifted) == 0.75
    assert lifted.support == {3} and lifted.norm == 0.75


def test_inclusion_and_retag():
    z = cc.dirac_diff(1, 0)
    inc = cc.include_in_l1(z)
    assert inc.module == L1 and inc.entries == z.entries
    with pytest.raises(ValueError):
        cc.include_in_l1(cc.dirac(0))


@settings(deadline=None, max_examples=60)
@given(entry_dicts, entry_dicts)
def test_l1_distance_matches_difference_norm(da, db):
    # the l1 distance of the profile's pair scan, on the rows u, v, u
    u = cc.SupportedVector(L1, da)
    v = cc.SupportedVector(L1, db)
    rows = [u, v, u] + [cc.zero()] * 28
    padded = averaging._padded_rows(len(rows), *vectors_csr(rows))

    def distance(i, j):
        return averaging._max_pair_variation(padded, np.array([i]),
                                             np.array([j]))[0]

    direct = sum(abs(u.get(k) - v.get(k)) for k in set(da) | set(db))
    assert math.isclose(distance(0, 1), direct, rel_tol=0, abs_tol=1e-12)
    assert distance(0, 1) == max_pair_variation_reference(rows, [(0, 1)])[0]
    assert distance(0, 2) == 0.0


def test_entry_gap():
    u = cc.SupportedVector(L1, {0: 1.0, 1: 2.0})
    v = cc.SupportedVector(L1, {1: 2.5, 2: -0.25})
    assert cc.entry_gap(u, v) == 1.0
    assert cc.entry_gap(u) == 2.0
    assert cc.entry_gap(cc.SupportedVector(SCALAR, scalar=3.0),
                        cc.SupportedVector(SCALAR, scalar=1.0)) == 2.0
    with pytest.raises(ValueError, match="module mismatch"):
        cc.entry_gap(u, cc.dirac_diff(0, 1))


def test_pair_vector():
    h = cc.PairVector({(0, 1): 2.0, (3, 2): -1.0, (4, 4): 1e-16})
    assert h.norm == 3.0
    assert h.support == {(0, 1), (3, 2)}
    assert cc.PairVector().is_zero()


def test_boundary_pairs_hand_example():
    h = cc.PairVector({(0, 1): 1.0, (1, 2): 1.0})
    out = cc.boundary_pairs(h)
    # telescoping: -delta_0 + delta_2
    assert out.get(0) == -1.0 and out.get(2) == 1.0 and out.get(1) == 0.0
    assert out.module == L1_ZERO


pair_dicts = st.dictionaries(
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
    st.floats(-5, 5, allow_nan=False).filter(lambda v: abs(v) > 1e-9),
    max_size=6)


@settings(deadline=None, max_examples=60)
@given(pair_dicts)
def test_boundary_contraction_property(entries):
    h = cc.PairVector(entries)
    out = cc.boundary_pairs(h)
    assert out.norm <= 2.0 * h.norm + 1e-12
    assert abs(cc.pi_sum(out)) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(entry_dicts, st.integers(0, 30))
def test_lift_boundary_round_trip(entries, base):
    # symmetrize into a genuine zero-sum vector first
    balanced = dict(entries)
    drift = sum(balanced.values())
    balanced[31] = balanced.get(31, 0.0) - drift
    h = cc.SupportedVector(L1_ZERO, balanced)
    lifted = cc.lift_boundary(h, base)
    assert cc.entry_gap(cc.boundary_pairs(lifted), h) <= 1e-12
    assert lifted.norm <= h.norm + 1e-12
    assert all(z0 == base and z1 in h.support for z0, z1 in lifted.support)


def test_lift_boundary_rejects_drift():
    with pytest.raises(ValueError, match="pi_sum"):
        cc.lift_boundary(cc.dirac(0), 1)
    with pytest.raises(ValueError):
        cc.lift_boundary(cc.SupportedVector(SCALAR, scalar=0.0), 1)


def test_unknown_module_tag():
    with pytest.raises(ValueError, match="unknown module"):
        cc.SupportedVector("l2", {0: 1.0})
