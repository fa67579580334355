"""Profiles under maps of the metric, with no reference implementation.

A ball profile is a statement about the metric, so it does not depend on
how the points are labelled or on the unit of length:
- relabelling the points keeps every ball cell's nu, bit for bit, and the
  witness maps to a pair of the same exact value;
- the power graph G^c (x and y joined when d(x, y) <= c) has the hop
  metric ceil(d / c), so its S-balls are G's cS-balls and its pairs within
  R are G's pairs within cR, in the same order: its profile at (S, R) is
  G's at (cS, cR), nu bits and witnesses.
On torus24, G takes the one-row path of a group law and G^c, which has
none, the general scan, so the two paths are checked against each other.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coarsecohom as cc
from helpers import frac_pair_nu, power_graph, relabel, spaces

SPACES = {
    "rr512": ("random_regular", {"n": 512, "k": 3}, 1),
    "free_ball": ("free_ball", {"rank": 2, "radius": 5}, 0),
    "torus24": ("torus", {"dim": 2, "size": 24}, 0),
}


def _cells(table):
    return [(row.s, row.r, row.nu.hex(), row.x0, row.x1) for row in table.rows]


def _assert_relabelling_keeps_the_profile(space, perm, schedule, r_list):
    base = cc.variation_profile(space, schedule, r_list)
    moved = cc.variation_profile(relabel(space, perm), schedule, r_list)
    back = np.argsort(perm)
    for row, twin in zip(base.rows, moved.rows):
        assert (twin.s, twin.r, twin.nu.hex()) == (row.s, row.r, row.nu.hex())
        if twin.nu:
            pair = int(back[twin.x0]), int(back[twin.x1])
            assert float(frac_pair_nu(space, row.s, *pair)) == row.nu


@pytest.mark.parametrize("name", ["rr512", "free_ball", "torus24"])
def test_relabelled_points_keep_every_ball_cell(name):
    kind, params, seed = SPACES[name]
    space = cc.generate_family(kind, params, seed)
    rng = np.random.default_rng(7)
    for _ in range(5):
        _assert_relabelling_keeps_the_profile(
            space, rng.permutation(space.n), [1, 2, 3, 4], [1.0, 2.0])


@settings(deadline=None, max_examples=60)
@given(spaces(2, 30), st.data())
def test_relabelled_small_spaces_keep_every_ball_cell(space, data):
    perm = np.array(data.draw(st.permutations(range(space.n))))
    _assert_relabelling_keeps_the_profile(space, perm, [0, 1, 2, 3],
                                          [0.0, 1.0, 2.0])


@pytest.mark.parametrize("name", ["rr512", "free_ball", "torus24"])
@pytest.mark.parametrize("c", [2, 3])
def test_power_graph_profile_is_the_scaled_profile(name, c):
    kind, params, seed = SPACES[name]
    space = cc.generate_family(kind, params, seed)
    power = power_graph(space, c)
    assert power.group is None
    got = cc.variation_profile(power, [1, 2], [1.0, 2.0])
    want = cc.variation_profile(space, [c, 2 * c], [float(c), 2.0 * c])
    assert [cell[2:] for cell in _cells(got)] == [
        cell[2:] for cell in _cells(want)]
