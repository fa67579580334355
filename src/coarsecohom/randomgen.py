"""Seeded pseudo-random cochains, families, and pair fields for law audits.

Evaluation rules are pure functions of (seed, arguments) via integer tuple
hashing, so audits are reproducible without storing any tables. Values are
anchored near the tuple coordinates, giving honest controlled supports:
a value is supported within `spread` of one of its own coordinates, hence
within R + spread of every coordinate on a radius-R tuple.
"""

from __future__ import annotations

import random

from .averaging import ReiterFamily
from .coefficients import L1, L1_ZERO, SCALAR, PairVector, SupportedVector
from .cochains import Cochain
from .space import FiniteMetricSpace, derive_seed


def _coeff(h: int) -> float:
    """Map a hash to a quasi-uniform value in [-1, 1), never tiny."""
    u = ((h >> 11) % 2_000_003) / 1_000_001.5 - 1.0
    if -1e-3 < u < 1e-3:
        u += 0.25
    return u


def random_cochain(space: FiniteMetricSpace, p: int, q: int, module: str,
                   seed: int, spread: int = 1, terms: int = 3,
                   memoize: bool = True) -> Cochain:
    """Deterministic random cochain with supports near the tuple coordinates."""
    balls = space.balls_list(spread)
    base = derive_seed(seed, "random-cochain", p, q, module, spread, terms)

    if module == SCALAR:
        def rule(xs, ys):
            sca = 0.0
            for t in range(terms):
                sca += _coeff(hash((base, xs, ys, t)))
            return SupportedVector(SCALAR, scalar=sca)
        wit = lambda r: 0.0
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
        wit = lambda r: r + spread

    return Cochain(space, p, q, module, rule, support_witness=wit,
                   name=f"rand[{p},{q},{module}]", memoize=memoize)


def random_x_independent_cochain(space: FiniteMetricSpace, q: int, module: str,
                                 seed: int, spread: int = 1,
                                 terms: int = 3) -> Cochain:
    """Column cochain whose values ignore the x-coordinate entirely
    (so any probability family convolves to the identity on it)."""
    balls = space.balls_list(spread)
    base = derive_seed(seed, "x-indep-cochain", q, module, spread, terms)

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
                   memoize=True)


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

    return Cochain(space, 0, -1, L1, rule, support_witness=lambda r: float(s),
                   name=f"unitfam[{s}]")


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
