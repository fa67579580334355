"""Seeded pseudo-random cochains, families, and pair fields for law audits.

Evaluation rules are pure functions of (seed, arguments) via integer tuple
hashing, so audits are reproducible without storing any tables. Values are
anchored near the tuple coordinates, giving honest controlled supports:
a value is supported within `spread` of one of its own coordinates, hence
within R + spread of every coordinate on a radius-R tuple.

The rules hash with CPython's builtin hash() of integer tuples. The audits
fill whole face tables at once through _tuple_hash, a numpy port of
CPython's tuple hash (3.8 and later) that reproduces hash() bit for bit, so
a table holds exactly the values the rule gives.
"""

from __future__ import annotations

import random

import numpy as np

from .averaging import ReiterFamily
from .coefficients import L1, L1_ZERO, SCALAR, PairVector, SupportedVector
from .cochains import Cochain
from .facetables import Table, finish, rows_fill, vectors_csr
from .space import FiniteMetricSpace, derive_seed, mask_rows

_XXPRIME_1 = np.uint64(11400714785074694791)
_XXPRIME_2 = 14029467366897019727
_XXPRIME_5 = 2870177450012600261
_MASK64 = (1 << 64) - 1


def _tuple_hash(lanes, size: int, acc: np.ndarray | None = None,
                done: int = 0) -> np.ndarray:
    """hash() of `size` tuples at once, as int64, given the hashes of their
    items: one lane per item, either an int64 array of `size` item hashes
    or one int shared by every tuple. (An int's hash is itself for
    0 <= i < 2**61 - 1.) This is CPython's xxHash-based tuplehash. acc
    may carry the state after the first `done` items (see _hash_state)."""
    acc = _hash_state(lanes, size, acc)
    acc += np.uint64((done + len(lanes)) ^ (_XXPRIME_5 ^ 3527539))
    out = acc.view(np.int64)
    out[out == -1] = 1546275796
    return out


def _hash_state(lanes, size: int, acc: np.ndarray | None = None):
    """tuplehash's accumulator after the given lanes, starting from acc (a
    copy of it) or from the empty tuple's."""
    if acc is None:
        acc = np.full(size, _XXPRIME_5, dtype=np.uint64)
    else:
        acc = acc.copy()
    for lane in lanes:
        if isinstance(lane, np.ndarray):
            acc += lane.view(np.uint64) * np.uint64(_XXPRIME_2)
        else:
            acc += np.uint64((lane * _XXPRIME_2) & _MASK64)
        acc = (acc << np.uint64(31)) | (acc >> np.uint64(33))
        acc *= _XXPRIME_1
    return acc


def _row_hashes(faces: np.ndarray) -> np.ndarray:
    """hash(tuple(row)) for each row of a non-negative int64 array."""
    return _tuple_hash([faces[:, j] for j in range(faces.shape[1])],
                       len(faces))


def _coeffs(h: np.ndarray) -> np.ndarray:
    """_coeff of each hash in an int64 array."""
    u = ((h >> 11) % 2_000_003) / 1_000_001.5 - 1.0
    u[(u > -1e-3) & (u < 1e-3)] += 0.25
    return u


def _scalar_fill(hashes):
    """Table rule of a scalar rule that adds _coeff(hash) over its terms;
    hashes(faces) gives the hashes of each term."""
    def fill(faces):
        sca = np.zeros(len(faces))
        for h in hashes(faces):
            sca += _coeffs(h)
        return Table(SCALAR, sca[:, None])
    return fill


def _anchored_table(n: int, module: str, balls, coords, hashes) -> Table:
    """The table the l1 rules build over `len(hashes)` terms: term t adds
    a to entry u and, for l1_0, subtracts a from entry c, where c =
    coords[t], u is the member of c's ball (CSR `balls`) that the hash
    picks and a = _coeff(hash)."""
    ball_ptr, members = balls
    m = len(hashes[0]) if hashes else 0
    rows = np.arange(m)
    vals = np.zeros((m, n))
    zero_sum = module == L1_ZERO
    for c, h in zip(coords, hashes):
        size = ball_ptr[c + 1] - ball_ptr[c]
        u = members[ball_ptr[c] + (h >> 17) % size]
        a = _coeffs(h)
        vals[rows, u] += a
        if zero_sum:
            vals[rows, c] -= a
    return finish(module, vals)


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
        # hash((base, xs, ys, t)) for each face and each term t
        hx, hy = _row_hashes(faces[:, :xlen]), _row_hashes(faces[:, xlen:])
        state = _hash_state([hbase, hx, hy], len(faces))
        return [_tuple_hash([t], len(faces), state, 3) for t in range(terms)]

    if module == SCALAR:
        def rule(xs, ys):
            sca = 0.0
            for t in range(terms):
                sca += _coeff(hash((base, xs, ys, t)))
            return SupportedVector(SCALAR, scalar=sca)

        fill = _scalar_fill(hashes)
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

        ball_rows = mask_rows(space.near(spread))
        width = p + q + 2

        def fill(faces):
            terms_h = hashes(faces)
            coords = [faces[np.arange(len(faces)), h % width] for h in terms_h]
            return _anchored_table(space.n, module, ball_rows, coords,
                                   terms_h)

    return Cochain(space, p, q, module, rule, name=f"rand[{p},{q},{module}]",
                   memoize=True, fill=fill)


def random_x_independent_cochain(space: FiniteMetricSpace, q: int, module: str,
                                 seed: int, spread: int = 1,
                                 terms: int = 3) -> Cochain:
    """Column cochain whose values ignore the x-coordinate entirely
    (so any probability family convolves to the identity on it)."""
    balls = space.balls_list(spread)
    base = derive_seed(seed, "x-indep-cochain", q, module, spread, terms)
    hbase = hash(base)

    def hashes(faces):
        # hash((base, ys, t)) for each face and each term t
        state = _hash_state([hbase, _row_hashes(faces[:, 1:])], len(faces))
        return [_tuple_hash([t], len(faces), state, 2) for t in range(terms)]

    if module == SCALAR:
        def rule(xs, ys):
            sca = 0.0
            for t in range(terms):
                sca += _coeff(hash((base, ys, t)))
            return SupportedVector(SCALAR, scalar=sca)

        fill = _scalar_fill(hashes)
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

        ball_rows = mask_rows(space.near(spread))

        def fill(faces):
            terms_h = hashes(faces)
            coords = [faces[:, 1 + t % (q + 1)] if q >= 0 else
                      (h >> 5) % space.n for t, h in enumerate(terms_h)]
            return _anchored_table(space.n, module, ball_rows, coords,
                                   terms_h)

    return Cochain(space, 0, q, module, rule, name=f"xind[{q},{module}]",
                   memoize=True, fill=fill)


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
