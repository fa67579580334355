"""Seeded pseudo-random cochains, families, and pair fields for law audits.

Evaluation rules are pure functions of (seed, arguments) via integer tuple
hashing, so audits are reproducible without storing any tables. Values are
anchored near the tuple coordinates, giving honest controlled supports:
a value is supported within `spread` of one of its own coordinates, hence
within R + spread of every coordinate on a radius-R tuple.

The rules hash with CPython's builtin hash() of integer tuples. The audits
fill whole face tables at once through _tuple_hash, a numpy port of
CPython's tuple hash (3.8 and later) that reproduces hash() bit for bit, so
a table holds exactly the values the rule gives. A fill is one pass over
all terms (_leaf_fill): the hashes of every term and face come out as one
(terms, faces) array, and one np.add.at writes the entries in term order,
so each cell adds its terms in the order the rule does.
"""

from __future__ import annotations

import random

import numpy as np

from .averaging import ReiterFamily
from .coefficients import L1, L1_ZERO, SCALAR, PairVector, SupportedVector
from .cochains import Cochain
from .facetables import finish, rows_fill, vectors_csr
from .space import FiniteMetricSpace, derive_seed, mask_rows

_XXPRIME_1 = np.uint64(11400714785074694791)
_XXPRIME_2 = 14029467366897019727
_XXPRIME_5 = 2870177450012600261
_MASK64 = (1 << 64) - 1


def _tuple_hash(lanes, size: int, acc: np.ndarray | None = None,
                done: int = 0) -> np.ndarray:
    """hash() of many tuples at once, as int64, given the hashes of their
    items: one lane per item, either an int64 array of item hashes or one
    int shared by every tuple. (An int's hash is itself for
    0 <= i < 2**61 - 1.) Lanes broadcast against each other and against
    acc, so a (terms, 1) lane after a state of `size` tuples hashes
    terms x size tuples. This is CPython's xxHash-based tuplehash. acc may
    carry the state after the first `done` items (see _hash_state)."""
    acc = _hash_state(lanes, size, acc)
    acc += np.uint64((done + len(lanes)) ^ (_XXPRIME_5 ^ 3527539))
    out = acc.view(np.int64)
    out[out == -1] = 1546275796
    return out


def _hash_state(lanes, size: int, acc: np.ndarray | None = None):
    """tuplehash's accumulator after the given lanes, starting from acc
    (left unchanged) or from the empty tuple's for `size` tuples."""
    if acc is None:
        acc = np.full(size, _XXPRIME_5, dtype=np.uint64)
    for lane in lanes:
        if isinstance(lane, np.ndarray):
            acc = acc + lane.view(np.uint64) * np.uint64(_XXPRIME_2)
        else:
            acc = acc + np.uint64((lane * _XXPRIME_2) & _MASK64)
        acc = (acc << np.uint64(31)) | (acc >> np.uint64(33))
        acc *= _XXPRIME_1
    return acc


def _row_hashes(faces: np.ndarray) -> np.ndarray:
    """hash(tuple(row)) for each row of a non-negative int64 array."""
    return _tuple_hash([faces[:, j] for j in range(faces.shape[1])],
                       len(faces))


def _term_hashes(state: np.ndarray, done: int, terms: int) -> np.ndarray:
    """hash(prefix + (t,)) for t < terms as a (terms, faces) array, given
    the state after each face's prefix of `done` items."""
    return _tuple_hash([np.arange(terms)[:, None]], 0, state, done)


def _coeffs(h: np.ndarray) -> np.ndarray:
    """_coeff of each hash in an int64 array."""
    u = ((h >> 11) % 2_000_003) / 1_000_001.5 - 1.0
    u[(u > -1e-3) & (u < 1e-3)] += 0.25
    return u


def _leaf_fill(space: FiniteMetricSpace, module: str, spread: int, hashes,
               anchors):
    """Table rule of the rules that add, over their terms t in order,
    a = _coeff(h) for the term's hash h: to the scalar, or for l1/l1_0 to
    entry u, and for l1_0 also -a to entry c, where c is the term's anchor
    and u the member of c's spread-ball that h picks. hashes(faces) gives
    every term's hash as a (terms, faces) array, and anchors(faces, h) the
    anchors c in the same shape."""
    width = 1 if module == SCALAR else space.n
    if module != SCALAR:
        ball_ptr, members = mask_rows(space.near(spread))

    def summed(faces):
        # the terms added in order, before finish; the (terms, faces)
        # arrays go when it returns
        h = hashes(faces)
        a = _coeffs(h)
        m = len(faces)
        cells = np.arange(m) * width           # each face's first cell
        if module == SCALAR:
            cells = np.broadcast_to(cells, h.shape)
        else:
            c = anchors(faces, h)
            start = ball_ptr[c]
            u = members[start + (h >> 17) % (ball_ptr[c + 1] - start)]
            if module == L1_ZERO:
                # term t adds a at u, then -a at c
                u = np.stack((u, c), axis=1)
                a = np.stack((a, -a), axis=1)
            cells = cells + u
        # one sequential pass over the terms in order, so each cell adds
        # its terms as the rule does
        vals = np.zeros(m * width)
        np.add.at(vals, cells.ravel(), a.ravel())
        return vals.reshape(m, width)

    return lambda faces: finish(module, summed(faces))


def _coeff(h: int) -> float:
    """Map a hash to a quasi-uniform value in [-1, 1), never tiny."""
    u = ((h >> 11) % 2_000_003) / 1_000_001.5 - 1.0
    if -1e-3 < u < 1e-3:
        u += 0.25
    return u


def random_cochain(space: FiniteMetricSpace, p: int, q: int, module: str,
                   seed: int, spread: int = 1, terms: int = 3) -> Cochain:
    """Deterministic random cochain with supports near the tuple coordinates."""
    balls = space.balls_list(spread)
    base = derive_seed(seed, "random-cochain", p, q, module, spread, terms)
    hbase = hash(base)
    xlen = p + 1

    def hashes(faces):
        # hash((base, xs, ys, t)) for each term t and each face
        hx, hy = _row_hashes(faces[:, :xlen]), _row_hashes(faces[:, xlen:])
        return _term_hashes(_hash_state([hbase, hx, hy], len(faces)), 3,
                            terms)

    def anchors(faces, h):
        # coords[h % len(coords)]
        return faces[np.arange(len(faces)), h % (p + q + 2)]

    if module == SCALAR:
        def rule(xs, ys):
            sca = 0.0
            for t in range(terms):
                sca += _coeff(hash((base, xs, ys, t)))
            return SupportedVector(SCALAR, scalar=sca)
    else:
        zero_sum = module == L1_ZERO

        def rule(xs, ys):
            coords = xs + ys
            ent: dict = {}
            for t in range(terms):
                h = hash((base, xs, ys, t))
                c = coords[h % len(coords)]
                ball = balls[c]
                u = ball[(h >> 17) % len(ball)]
                a = _coeff(h)
                ent[u] = ent.get(u, 0.0) + a
                if zero_sum:
                    ent[c] = ent.get(c, 0.0) - a
            return SupportedVector(module, ent)

    return Cochain(space, p, q, module, rule, name=f"rand[{p},{q},{module}]",
                   memoize=True,
                   fill=_leaf_fill(space, module, spread, hashes, anchors))


def random_x_independent_cochain(space: FiniteMetricSpace, q: int, module: str,
                                 seed: int, spread: int = 1,
                                 terms: int = 3) -> Cochain:
    """Column cochain whose values ignore the x-coordinate entirely
    (so any probability family convolves to the identity on it)."""
    balls = space.balls_list(spread)
    base = derive_seed(seed, "x-indep-cochain", q, module, spread, terms)
    hbase = hash(base)

    def hashes(faces):
        # hash((base, ys, t)) for each term t and each face
        state = _hash_state([hbase, _row_hashes(faces[:, 1:])], len(faces))
        return _term_hashes(state, 2, terms)

    def anchors(faces, h):
        # ys[t % len(ys)] if ys else (h >> 5) % n, for each term t
        if q < 0:
            return (h >> 5) % space.n
        return faces[:, 1 + np.arange(terms) % (q + 1)].T

    if module == SCALAR:
        def rule(xs, ys):
            sca = 0.0
            for t in range(terms):
                sca += _coeff(hash((base, ys, t)))
            return SupportedVector(SCALAR, scalar=sca)
    else:
        zero_sum = module == L1_ZERO

        def rule(xs, ys):
            ent: dict = {}
            for t in range(terms):
                h = hash((base, ys, t))
                c = ys[t % len(ys)] if ys else (h >> 5) % space.n
                ball = balls[c]
                u = ball[(h >> 17) % len(ball)]
                a = _coeff(h)
                ent[u] = ent.get(u, 0.0) + a
                if zero_sum:
                    ent[c] = ent.get(c, 0.0) - a
            return SupportedVector(module, ent)

    return Cochain(space, 0, q, module, rule, name=f"xind[{q},{module}]",
                   memoize=True,
                   fill=_leaf_fill(space, module, spread, hashes, anchors))


def random_prob_family(space: FiniteMetricSpace, s: float, seed: int,
                       density: float = 1.0) -> ReiterFamily:
    """Probability family supported on s-balls with seeded positive masses."""
    rng = random.Random(derive_seed(seed, "prob-family", float(s)))
    vectors = []
    for ball in space.balls_list(s):
        keep = [z for z in ball if rng.random() <= density] or [ball[0]]
        raw = {z: 0.05 + rng.random() for z in keep}
        total = sum(raw.values())
        vectors.append(SupportedVector(L1, {z: w / total
                                            for z, w in raw.items()}))
    return ReiterFamily(space, s, vectors, name=f"randprob[{s}]")


def random_unit_sum_cochain(space: FiniteMetricSpace, s: float, seed: int,
                            eps: float = 0.05) -> Cochain:
    """Family cochain with pi_sum exactly 1 and small seeded variation.

    Ball average plus eps-scaled zero-sum noise inside the same ball: the
    input normalize_to_prob expects, flat to within the ball variation
    plus 2*eps.
    """
    rng = random.Random(derive_seed(seed, "unit-family", float(s), eps))
    balls = space.balls_list(s)
    vectors = []
    for x in range(space.n):
        ball = balls[x]
        w = 1.0 / len(ball)
        ent = {z: w for z in ball}
        if len(ball) >= 2:
            for _ in range(2):
                u = ball[rng.randrange(len(ball))]
                v = ball[rng.randrange(len(ball))]
                c = eps * (rng.random() - 0.5)
                ent[u] = ent.get(u, 0.0) + c
                ent[v] = ent.get(v, 0.0) - c
        vectors.append(SupportedVector(L1, ent))

    def rule(xs, ys):
        return vectors[xs[0]]

    return Cochain(space, 0, -1, L1, rule, name=f"unitfam[{s}]",
                   fill=rows_fill(L1, space.n, *vectors_csr(vectors)))


def random_zero_sum_vector(space: FiniteMetricSpace, seed: int,
                           terms: int = 3) -> SupportedVector:
    rng = random.Random(derive_seed(seed, "zero-sum-vector", terms))
    ent: dict = {}
    for _ in range(terms):
        u = rng.randrange(space.n)
        v = rng.randrange(space.n)
        c = rng.uniform(-2.0, 2.0)
        ent[u] = ent.get(u, 0.0) + c
        ent[v] = ent.get(v, 0.0) - c
    return SupportedVector(L1_ZERO, ent)


def random_pair_field(space: FiniteMetricSpace, radius: float, seed: int,
                      terms: int = 3, lift_style: bool = False):
    """One ball-bounded PairVector per point.

    lift_style=True pins the first pair coordinate to the base point, the
    shape the boundary lift produces; otherwise both coordinates roam the
    radius ball.
    """
    rng = random.Random(derive_seed(seed, "pair-field", float(radius),
                                    terms, lift_style))
    balls = space.balls_list(radius)
    field = []
    for x in range(space.n):
        ball = balls[x]
        ent: dict = {}
        for _ in range(terms):
            z0 = x if lift_style else ball[rng.randrange(len(ball))]
            z1 = ball[rng.randrange(len(ball))]
            key = (z0, z1)
            ent[key] = ent.get(key, 0.0) + rng.uniform(-1.5, 1.5)
        field.append(PairVector(ent))
    return field
