"""Seeded pseudo-random cochains, families, and pair fields for law audits.

A random leaf's values are pure functions of (seed, face) via integer
hashing, so audits are reproducible without storing any tables. Values are
anchored near the tuple coordinates, giving honest controlled supports:
a value is supported within `spread` of one of its own coordinates, hence
within R + spread of every coordinate on a radius-R tuple.

The random leaves hash with one 64-bit mixer, the finalizer of splitmix64
(Steele, Lea & Flood, "Fast splittable pseudorandom number generators",
OOPSLA 2014), in uint64 arithmetic:

    mix(z):  z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
             z ^= z >> 27;  z *= 0x94D049BB133111EB
             z ^= z >> 31

The hash of a face's term t starts at h = base, the cochain's derive_seed
(blake2b of its parameters), and takes in one lane v at a time as
h = mix(h + 0x9E3779B97F4A7C15 + v). random_cochain's lanes are the
face's coordinates (*xs, *ys), then t; random_x_independent_cochain's are
(*ys), then t. Every reading of h (the anchor, the ball member, the
coefficient) takes it as unsigned. The values therefore do not depend on
the interpreter. tests/helpers.py holds a pure-Python reference of the
mixer and the leaves, which tests/test_facetables.py checks bit for bit,
with known answers of the mixer.

A fill is one pass over all terms (_leaf_fill): the hashes of every term
and face come out as one (terms, faces) array, and one facetables.scatter
writes the entries in term order. One value is the fill on a one-row face
array.

Families, unit-sum family cochains, zero-sum vectors and pair fields draw
their numbers from one random.Random each, point by point, over the
point's ball row (the space's rows_within) as Python ints, and
add them into CSR rows with facetables.csr_add: a row lists its points in
ascending order, or a pair field its pairs in the order they were drawn.
"""

from __future__ import annotations

import random

import numpy as np

from .averaging import ReiterFamily
from .coefficients import L1, L1_ZERO, SCALAR
from .cochains import Cochain
from .facetables import csr_add, rows_fill, scatter
from .space import FiniteMetricSpace, derive_seed

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer of a uint64 array, in place."""
    z ^= z >> 30
    z *= _MIX_1
    z ^= z >> 27
    z *= _MIX_2
    z ^= z >> 31
    return z


def _leaf_hashes(base: int, lanes: np.ndarray, terms: int) -> np.ndarray:
    """The hash of each term t < terms on each row of lanes (non-negative
    ints, one column per lane) as a (terms, rows) uint64 array: h = base,
    then h = mix(h + _GAMMA + v) for each lane v of the row and then t."""
    h = np.full(len(lanes), base, dtype=np.uint64)
    for lane in lanes.T:
        h += _GAMMA
        h += lane.astype(np.uint64)
        _mix(h)
    return _mix(h + (_GAMMA + np.arange(terms, dtype=np.uint64))[:, None])


def _coeffs(h: np.ndarray) -> np.ndarray:
    """A quasi-uniform value in [-1, 1), never tiny, for each hash."""
    u = ((h >> 11) % 2_000_003) / 1_000_001.5 - 1.0
    u[(u > -1e-3) & (u < 1e-3)] += 0.25
    return u


def _leaf_fill(space: FiniteMetricSpace, module: str, spread: int, hashes,
               anchors):
    """Fill of the values that add, over their terms t in order,
    a = _coeffs(h) for the term's hash h: to the scalar, or for l1/l1_0 to
    entry u, and for l1_0 also -a to entry c, where c is the term's anchor
    and u the member of c's spread-ball that h picks. hashes(faces) gives
    every term's hash as a (terms, faces) array, and anchors(faces, h) the
    anchors c in the same shape."""
    if module != SCALAR:
        ball_ptr, members, _ = space.rows_within(spread)

    def fill(faces):
        h = hashes(faces)
        a = _coeffs(h)
        u = 0
        if module != SCALAR:
            c = anchors(faces, h)
            start = ball_ptr[c]
            pick = (h >> 17).view(np.int64) % (ball_ptr[c + 1] - start)
            u = members[start + pick]
            if module == L1_ZERO:
                # term t adds a at u, then -a at c
                u = np.stack((u, c), axis=1)
                a = np.stack((a, -a), axis=1)
        return scatter(module, space.n, len(faces), np.arange(len(faces)), u,
                       a)

    return fill


def random_cochain(space: FiniteMetricSpace, p: int, q: int, module: str,
                   seed: int, spread: int = 1, terms: int = 3) -> Cochain:
    """Deterministic random cochain with supports near the tuple coordinates."""
    base = derive_seed(seed, "random-cochain", p, q, module, spread, terms)

    def hashes(faces):
        # lanes (*xs, *ys), then t
        return _leaf_hashes(base, faces, terms)

    def anchors(faces, h):
        # coords[h % len(coords)]
        return faces[np.arange(len(faces)), h % (p + q + 2)]

    return Cochain(space, p, q, module,
                   _leaf_fill(space, module, spread, hashes, anchors),
                   name=f"rand[{p},{q},{module}]")


def random_x_independent_cochain(space: FiniteMetricSpace, q: int, module: str,
                                 seed: int, spread: int = 1,
                                 terms: int = 3) -> Cochain:
    """Column cochain whose values ignore the x-coordinate entirely
    (so any probability family convolves to the identity on it)."""
    base = derive_seed(seed, "x-indep-cochain", q, module, spread, terms)

    def hashes(faces):
        # lanes (*ys), then t
        return _leaf_hashes(base, faces[:, 1:], terms)

    def anchors(faces, h):
        # ys[t % len(ys)] if ys else (h >> 5) % n, for each term t
        if q < 0:
            return ((h >> 5) % space.n).view(np.int64)
        return faces[:, 1 + np.arange(terms) % (q + 1)].T

    return Cochain(space, 0, q, module,
                   _leaf_fill(space, module, spread, hashes, anchors),
                   name=f"xind[{q},{module}]")


def random_prob_family(space: FiniteMetricSpace, s: float, seed: int,
                       density: float = 1.0) -> ReiterFamily:
    """Probability family supported on s-balls with seeded positive masses."""
    rng = random.Random(derive_seed(seed, "prob-family", float(s)))
    rows, cols, masses = [], [], []
    indptr, members, _ = space.rows_within(s)
    for x in range(space.n):
        ball = members[indptr[x]:indptr[x + 1]].tolist()
        keep = [z for z in ball if rng.random() <= density] or [ball[0]]
        raw = [0.05 + rng.random() for _ in keep]
        total = sum(raw)
        rows += [x] * len(keep)
        cols += keep
        masses += [w / total for w in raw]
    return ReiterFamily(space, s, *csr_add(L1, space.n, rows, cols, masses,
                                           space.n), name=f"randprob[{s}]")


def random_unit_sum_cochain(space: FiniteMetricSpace, s: float, seed: int,
                            eps: float = 0.05) -> Cochain:
    """Family cochain with pi_sum exactly 1 and small seeded variation.

    Ball average plus eps-scaled zero-sum noise inside the same ball: the
    input normalize_to_prob expects, flat to within the ball variation
    plus 2*eps.
    """
    rng = random.Random(derive_seed(seed, "unit-family", float(s), eps))
    rows, cols, values = [], [], []
    indptr, members, _ = space.rows_within(s)
    for x in range(space.n):
        ball = members[indptr[x]:indptr[x + 1]].tolist()
        rows += [x] * len(ball)
        cols += ball
        values += [1.0 / len(ball)] * len(ball)
        if len(ball) >= 2:
            for _ in range(2):
                u = ball[rng.randrange(len(ball))]
                v = ball[rng.randrange(len(ball))]
                c = eps * (rng.random() - 0.5)
                rows += [x, x]
                cols += [u, v]
                values += [c, -c]
    return Cochain(space, 0, -1, L1,
                   rows_fill(L1, space.n, *csr_add(L1, space.n, rows, cols,
                                                   values, space.n)),
                   name=f"unitfam[{s}]")


def random_zero_sum_vector(space: FiniteMetricSpace, seed: int,
                           terms: int = 3):
    """A seeded l1_0 vector as one CSR row (cols, weights), cols
    ascending: terms times c at a point u and -c at a point v."""
    rng = random.Random(derive_seed(seed, "zero-sum-vector", terms))
    cols, values = [], []
    for _ in range(terms):
        u = rng.randrange(space.n)
        v = rng.randrange(space.n)
        c = rng.uniform(-2.0, 2.0)
        cols += [u, v]
        values += [c, -c]
    _, cols, weights = csr_add(L1_ZERO, 1, 0, cols, values, space.n)
    return cols, weights


def random_pair_field(space: FiniteMetricSpace, radius: float, seed: int,
                      terms: int = 3, lift_style: bool = False):
    """A pair field (indptr, pairs, weights) whose row at x holds terms
    pairs of the radius-ball of x, in the order drawn (a pair drawn twice
    adds up).

    lift_style=True pins the first pair coordinate to the base point, the
    shape the boundary lift produces; otherwise both coordinates roam the
    radius ball.
    """
    rng = random.Random(derive_seed(seed, "pair-field", float(radius),
                                    terms, lift_style))
    n = space.n
    rows, codes, values = [], [], []
    ball_ptr, members, _ = space.rows_within(radius)
    for x in range(n):
        ball = members[ball_ptr[x]:ball_ptr[x + 1]].tolist()
        for _ in range(terms):
            z0 = x if lift_style else ball[rng.randrange(len(ball))]
            z1 = ball[rng.randrange(len(ball))]
            rows.append(x)
            codes.append(z0 * n + z1)
            values.append(rng.uniform(-1.5, 1.5))
    indptr, codes, weights = csr_add(L1, n, rows, codes, values, n * n,
                                     ascending=False)
    return indptr, np.stack(np.divmod(codes, n), axis=1), weights
