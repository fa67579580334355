"""Reference implementations the tests compare the package against.

Everything here recomputes values straight from definitions, in a
deliberately different style from the package (plain dicts, itertools
filtering, Fraction arithmetic), so agreement is evidence, not tautology.

A value is a plain dict here: {point: entry} over the entries of an
l1-type value in ascending point order, or {"scalar": number}. Pointwise
evaluates a cochain at one face from its terms; rule_cochain makes a leaf
cochain out of a closure that returns such dicts.
"""

import random
from collections import deque
from fractions import Fraction
from itertools import product

import numpy as np
from hypothesis import strategies as st

import coarsecohom as cc
from coarsecohom import facetables
from coarsecohom.coefficients import PRUNE_TOL, SCALAR, ZERO_SUM_TOL
from coarsecohom.cochains import (DEFAULT_AUDIT_BUDGET, DEFAULT_SAMPLE_SIZE,
                                  EXACT_TOL, bound_check, identity_check)


@st.composite
def spaces(draw, low=2, high=8):
    """Small connected graphs on low..high points, some rescaled to a
    real-valued metric."""
    n = draw(st.integers(low, high))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges += [(u, v) for u, v in draw(st.lists(extra, max_size=n)) if u != v]
    space = cc.build_graph_metric(edges, n)
    if draw(st.booleans()):
        space = cc.scaled_metric(space, draw(st.sampled_from([0.5, 1.5])))
    return space


def cycle_dist(m, i, j):
    k = abs(i - j)
    return min(k, m - k)


def torus_dist(size, dim, a, b):
    # a, b are flat indices; the last axis varies fastest
    total = 0
    for _ in range(dim):
        total += cycle_dist(size, a % size, b % size)
        a //= size
        b //= size
    return total


def bfs_graph_dist(edges, n):
    """Hop metric by one queue BFS per source, with the package's edge
    checks and error texts; raises ValueError where the package must."""
    adj = [[] for _ in range(n)]
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    dist = np.full((n, n), -1, dtype=np.int64)
    for src in range(n):
        row = dist[src]
        row[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            du = row[u]
            for w in adj[u]:
                if row[w] < 0:
                    row[w] = du + 1
                    queue.append(w)
        if np.any(row < 0):
            far = int(np.flatnonzero(row < 0)[0])
            raise ValueError(
                f"graph is disconnected: vertex {far} is unreachable "
                f"from vertex {src}")
    return dist


def dict_add(acc, d, sign):
    for k, w in d.items():
        acc[k] = acc.get(k, 0.0) + sign * w


def dict_gap(a, b):
    worst = 0.0
    for k in set(a) | set(b):
        worst = max(worst, abs(a.get(k, 0.0) - b.get(k, 0.0)))
    return worst


def dict_total(d):
    """The entries of d added in dict order: pi_sum of an l1-type value."""
    total = 0.0
    for w in d.values():
        total += w
    return total


def dict_norm(d):
    """||d||: |scalar|, or the l1 norm added entry by entry in dict order."""
    return dict_total({k: abs(w) for k, w in d.items()})


def kept(module, entries):
    """The value of a module made from a dict of entries, as every value is
    kept: l1 entries in ascending point order without those below
    PRUNE_TOL, and an l1_0 value must add to 0 within ZERO_SUM_TOL."""
    if module == SCALAR:
        return dict(entries)
    out = {k: w for k, w in sorted(entries.items())
           if w >= PRUNE_TOL or -w >= PRUNE_TOL}
    total = dict_total(out)
    if module == "l1_0" and abs(total) > ZERO_SUM_TOL:
        raise ValueError(f"l1_0 entries must sum to 0, got {total!r}")
    return out


def table_dicts(tab):
    """Each value of a face table as a plain dict."""
    if tab.module == SCALAR:
        return [{"scalar": v} for v in tab.vals[:, 0].tolist()]
    return [{k: w for k, w in enumerate(row) if w != 0.0}
            for row in tab.vals.tolist()]


def dicts_table(module, n, rows):
    """The face table whose values are the plain dicts rows, as given."""
    vals = np.zeros((len(rows), 1 if module == SCALAR else n))
    for i, row in enumerate(rows):
        for k, w in row.items():
            vals[i, 0 if k == "scalar" else k] = w
    return facetables.Table(module, vals)


def one_value(cochain, xs, ys=()):
    """The value of a cochain at (xs, ys): its table on that one face."""
    return table_dicts(facetables.evaluate(
        cochain, np.array([tuple(xs) + tuple(ys)], dtype=np.int64)))[0]


class Pointwise:
    """The pointwise reference of every cochain: value(c, xs, ys) as a
    plain dict.

    A linear combination applies each term's `on` to the one face and adds
    coef times each operand value, read the same way, dict-wise and in term
    order from 0.0; then the value is kept (see kept). A term that reads
    another cochain's values (a convolution's f) reads them the same way.
    A leaf is its fill on the one face. Each value is computed once per
    cochain and face."""

    def __init__(self):
        self.memo = {}

    def __call__(self, c, xs, ys=()):
        face = tuple(xs) + tuple(ys)
        memo = self.memo.setdefault(id(c), (c, {}))[1]
        if face not in memo:
            memo[face] = self._walk(c, face)
        return memo[face]

    def table(self, c, faces):
        """The table of c's values on faces, read one face at a time."""
        xlen = c.p + 1
        return dicts_table(c.module, c.space.n, [
            self(c, f[:xlen], f[xlen:]) for f in faces.tolist()])

    def _walk(self, c, face):
        if c.terms is None:
            return one_value(c, face)
        acc = {"scalar": 0.0} if c.module == SCALAR else {}
        row = np.array([face], dtype=np.int64)
        for child, on in c.terms:
            faces, coefs = on(row, self.table)[:2]
            faces = faces.tolist()
            coefs = (coefs.tolist() if isinstance(coefs, np.ndarray)
                     else [coefs] * len(faces))
            xlen = child.p + 1
            for f, coef in zip(faces, coefs):
                dict_add(acc, self(child, f[:xlen], f[xlen:]), coef)
        return kept(c.module, acc)


def rule_cochain(space, p, q, module, rule, name="", checked=True):
    """The leaf cochain whose value at (xs, ys) is the plain dict
    rule(xs, ys). Its fill calls rule once per distinct face, in code
    order; the values are kept as every value is (facetables.finish), or,
    unchecked, exactly as rule gives them."""

    def fill(faces):
        first, inverse = facetables.distinct(faces, space.n)
        tab = dicts_table(module, space.n, [
            rule(tuple(f[:p + 1]), tuple(f[p + 1:]))
            for f in faces[first].tolist()])
        if checked:
            tab = facetables.finish(module, tab.vals)
        return facetables.Table(module, tab.vals[inverse])

    return cc.Cochain(space, p, q, module, fill, name=name)


# -- CSR rows and the dict-built values they replaced ----------------------------

def csr_dicts(indptr, items, weights):
    """CSR rows as dicts {item: weight} in row order; 2-D items (pairs)
    become tuple keys."""
    items, weights = items.tolist(), weights.tolist()
    bounds = indptr.tolist()
    return [{(tuple(k) if isinstance(k, list) else k): w
             for k, w in zip(items[lo:hi], weights[lo:hi])}
            for lo, hi in zip(bounds, bounds[1:])]


def family_dicts(fam):
    return csr_dicts(fam.indptr, fam.cols, fam.weights)


def dicts_csr(rows, pairs=False):
    """(indptr, items, weights) of dict rows, in dict order; the tuple keys
    of pair rows become an (entries, 2) array."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    items = [k for row in rows for k in row]
    return (indptr,
            np.array(items, dtype=np.int64).reshape((-1, 2) if pairs else -1),
            np.array([w for row in rows for w in row.values()], dtype=float))


def prob_family_reference(space, s, seed, density=1.0):
    rng = random.Random(cc.derive_seed(seed, "prob-family", float(s)))
    rows = []
    for ball in space.balls_list(s):
        keep = [z for z in ball if rng.random() <= density] or [ball[0]]
        raw = {z: 0.05 + rng.random() for z in keep}
        total = sum(raw.values())
        rows.append(kept("l1", {z: w / total for z, w in raw.items()}))
    return rows


def unit_sum_reference(space, s, seed, eps=0.05):
    rng = random.Random(cc.derive_seed(seed, "unit-family", float(s), eps))
    rows = []
    for ball in space.balls_list(s):
        w = 1.0 / len(ball)
        ent = {z: w for z in ball}
        if len(ball) >= 2:
            for _ in range(2):
                u = ball[rng.randrange(len(ball))]
                v = ball[rng.randrange(len(ball))]
                c = eps * (rng.random() - 0.5)
                ent[u] = ent.get(u, 0.0) + c
                ent[v] = ent.get(v, 0.0) - c
        rows.append(kept("l1", ent))
    return rows


def zero_sum_vector_reference(space, seed, terms=3):
    rng = random.Random(cc.derive_seed(seed, "zero-sum-vector", terms))
    ent = {}
    for _ in range(terms):
        u = rng.randrange(space.n)
        v = rng.randrange(space.n)
        c = rng.uniform(-2.0, 2.0)
        ent[u] = ent.get(u, 0.0) + c
        ent[v] = ent.get(v, 0.0) - c
    return kept("l1_0", ent)


def pair_field_reference(space, radius, seed, terms=3, lift_style=False):
    """One dict {(z0, z1): weight} per point, pairs in the order drawn,
    weights below PRUNE_TOL dropped."""
    rng = random.Random(cc.derive_seed(seed, "pair-field", float(radius),
                                       terms, lift_style))
    balls = space.balls_list(radius)
    field = []
    for x in range(space.n):
        ball = balls[x]
        ent = {}
        for _ in range(terms):
            z0 = x if lift_style else ball[rng.randrange(len(ball))]
            z1 = ball[rng.randrange(len(ball))]
            ent[(z0, z1)] = ent.get((z0, z1), 0.0) + rng.uniform(-1.5, 1.5)
        field.append({k: w for k, w in ent.items()
                      if w >= PRUNE_TOL or -w >= PRUNE_TOL})
    return field


def boundary_reference(pairs):
    """(dH)(w) = sum_z H(z, w) - H(w, z) of one pair dict."""
    ent = {}
    for (z0, z1), w in pairs.items():
        ent[z1] = ent.get(z1, 0.0) + w
        ent[z0] = ent.get(z0, 0.0) - w
    return kept("l1_0", ent)


def normalize_reference(space, rows, tol=1e-9):
    """(rows, S) of normalize_to_prob on the dict rows of phi: |phi(x)|
    divided by its norm, kept, and the farthest entry of phi."""
    out, s = [], 0.0
    for x, v in enumerate(rows):
        total = dict_total(v)
        if abs(total - 1.0) > tol:
            raise ValueError(f"pi_sum(phi({space.label(x)})) = {total!r}, "
                             f"expected 1 within {tol}")
        norm = dict_norm(v)
        out.append(kept("l1", {k: abs(w) / norm for k, w in v.items()}))
        for k in v:
            if space.d(x, k) > s:
                s = space.d(x, k)
    return out, s


# -- the random leaves, on Python ints ------------------------------------------

MASK64 = 2 ** 64 - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix64_mix(z):
    """The splitmix64 finalizer of an int in [0, 2**64)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return z ^ (z >> 31)


def lanes_hash(base, lanes):
    """h = base, then h = mix(h + GAMMA + v) for each lane v in order."""
    h = base
    for v in lanes:
        h = splitmix64_mix((h + GAMMA + v) & MASK64)
    return h


def leaf_reference(module, balls, base, lanes, terms, anchor):
    """One face's value of a random leaf, added term by term into a dict
    keyed as plain-dict values are, and the points each term writes. Term t
    hashes (*lanes, t) to h and adds a coefficient read from h: to the
    scalar, or at u = balls[c][(h >> 17) % len(balls[c])] for the anchor
    c = anchor(h, t), and for l1_0 also its negative at c."""
    ent = {}
    cells = []
    for t in range(terms):
        h = lanes_hash(base, (*lanes, t))
        a = ((h >> 11) % 2_000_003) / 1_000_001.5 - 1.0
        if -1e-3 < a < 1e-3:
            a += 0.25
        if module == "scalar":
            ent["scalar"] = ent.get("scalar", 0.0) + a
            continue
        c = anchor(h, t)
        u = balls[c][(h >> 17) % len(balls[c])]
        ent[u] = ent.get(u, 0.0) + a
        cells.append((u,))
        if module == "l1_0":
            ent[c] = ent.get(c, 0.0) - a
            cells[-1] += (c,)
    if module == "scalar":
        return {k: w for k, w in ent.items() if w != 0.0}, cells
    return {k: w for k, w in sorted(ent.items())
            if abs(w) >= PRUNE_TOL}, cells


def ref_diff_D(phi, xs, ys):
    """Alternating sum over dropped x-coordinates, signs +,-,+,..."""
    out = {}
    for i in range(len(xs)):
        dropped = xs[:i] + xs[i + 1:]
        dict_add(out, phi(dropped, ys), (-1) ** i)
    return out


def ref_diff_d(phi, p, xs, ys):
    """Alternating sum over dropped y-coordinates, signs (-1)**(i+p)."""
    out = {}
    for i in range(len(ys)):
        dropped = ys[:i] + ys[i + 1:]
        dict_add(out, phi(xs, dropped), (-1) ** (i + p))
    return out


def ref_split_s(phi, p, xs, ys):
    out = {}
    dict_add(out, phi(xs, (xs[0],) + ys), (-1) ** p)
    return out


def radius_bound(space, r):
    return r + (0.0 if space.integer_metric else 1e-12)


def brute_tuples(space, p, r):
    """All (p+1)-tuples with pairwise distances within r, by full product
    scan, in lexicographic order."""
    bound = radius_bound(space, r)
    pts = range(space.n)
    out = []
    for t in product(pts, repeat=p + 1):
        if all(space.d(a, b) <= bound for a in t for b in t):
            out.append(t)
    return out


def frac_ball_nu(space, s, r):
    """Exact rational ball-averaging variation nu(s, r)."""
    balls = [set(space.ball(i, s)) for i in range(space.n)]
    best = Fraction(0)
    for i in range(space.n):
        for j in range(i + 1, space.n):
            if space.d(i, j) > r:
                continue
            bi, bj = balls[i], balls[j]
            wi, wj = Fraction(1, len(bi)), Fraction(1, len(bj))
            tot = Fraction(0)
            for z in bi | bj:
                tot += abs((wi if z in bi else 0) - (wj if z in bj else 0))
            if tot > best:
                best = tot
    return best


def pairs_reference(space, r):
    """Pairs i < j within r, by a double loop over the distance oracle."""
    bound = radius_bound(space, r)
    return [(i, j) for i in range(space.n) for j in range(i + 1, space.n)
            if space.d(i, j) <= bound]


def max_pair_variation_reference(vectors, pairs):
    """The per-pair dict loop over dict rows: the largest ||v_j - v_i||_1
    over the pairs,
    summed entry by entry in dict order, and the first pair attaining it.
    No pairs give (0.0, (0, 0))."""
    if not pairs:
        return 0.0, (0, 0)
    entries_list = vectors
    best = -1.0
    best_pair = None
    for i, j in pairs:
        ue, ve = entries_list[i], entries_list[j]
        total = 0.0
        for k, a in ue.items():
            b = ve.get(k)
            diff = a - b if b is not None else a
            total += diff if diff >= 0 else -diff
        for k, b in ve.items():
            if k not in ue:
                total += b if b >= 0 else -b
        if total > best:
            best = total
            best_pair = (i, j)
    return best, best_pair


def validate_family_reference(space, s, vectors, is_prob=True):
    """The per-entry family check of dict rows: raises the first
    violation's ValueError, points in order, entries in ascending order,
    then the entry sum."""
    for x, v in enumerate(vectors):
        total = 0.0
        for w, weight in sorted(v.items()):
            if not space.d(x, w) <= radius_bound(space, s):
                raise ValueError(
                    f"support of f({space.label(x)}) escapes its "
                    f"{float(s)}-ball at {space.label(w)}")
            if is_prob and weight < 0:
                raise ValueError(
                    f"negative mass {weight!r} in f({space.label(x)})")
            total += weight
        if is_prob and abs(total - 1.0) > 1e-12:
            raise ValueError(f"f({space.label(x)}) sums to {total!r}, not 1")


def walk_matrix_reference(space, laziness):
    """One lazy-walk step as the sum laziness * I + (1 - laziness) * A / deg."""
    if space.integer_metric:
        adj = (space.dist == 1).astype(float)
    else:
        adj = ((space.dist > 0) & (space.dist <= 1.0 + 1e-12)).astype(float)
    deg = adj.sum(axis=1)
    if space.n == 1:
        return np.eye(1)
    return (laziness * np.eye(space.n)
            + (1.0 - laziness) * adj / np.maximum(deg, 1.0)[:, None])


def walk_dicts_reference(space, steps, laziness=0.5):
    """Row dicts {j: mass} of the walk after `steps` steps, one per point,
    over the positive entries in ascending j (before any pruning)."""
    mat = np.linalg.matrix_power(walk_matrix_reference(space, laziness),
                                 steps)
    return [{int(j): float(mat[x, j]) for j in np.flatnonzero(mat[x] > 0)}
            for x in range(space.n)]


def walk_rows_reference(space, steps, laziness=0.5):
    """Row dicts {j: mass} of the walk after `steps` steps by a dict loop.

    P's rows are the nonzeros of walk_matrix_reference. Row x of P^t adds
    P^(t-1)[x, k] * P[k, j] over k in ascending order, starting from the
    first term; entries below PRUNE_TOL are dropped at the end.
    """
    mat = walk_matrix_reference(space, laziness)
    step = [{int(j): float(mat[k, j]) for j in np.flatnonzero(mat[k])}
            for k in range(space.n)]
    rows = [{x: 1.0} for x in range(space.n)]
    for _ in range(steps):
        grown = []
        for row in rows:
            acc = {}
            for k in sorted(row):
                for j, p in step[k].items():
                    term = row[k] * p
                    acc[j] = acc[j] + term if j in acc else term
            grown.append(acc)
        rows = grown
    return [{j: row[j] for j in sorted(row) if row[j] >= PRUNE_TOL}
            for row in rows]


# -- the per-point audits -----------------------------------------------------------
#
# The package audits by face tables (coarsecohom.facetables). These scan the
# same points one at a time through a Pointwise walker, folding each value's
# norm or entry gap into a running sup with a strict `>`, so the first
# maximiser is the witness. The report types are the package's. Each takes
# the walker as `value`, so that references over the same cochains can
# share the values it keeps; by default it makes its own.

def sup_scan_reference(points, measure):
    best = 0.0
    witness = None
    for xs, ys in points:
        val = measure(xs, ys)
        if val > best:
            best = val
            witness = (xs, ys)
    return best, witness


def _audit_kw(budget, sample_size, seed):
    return {"budget": DEFAULT_AUDIT_BUDGET if budget is None else budget,
            "sample_size": (DEFAULT_SAMPLE_SIZE if sample_size is None
                            else sample_size),
            "seed": seed}


def audit_points_reference(space, xlen, ylen, r, budget=None,
                           sample_size=None, seed=0):
    """cc.audit_points, with its rows read back as (xs, ys) int tuples:
    (points, domain), where domain is the AuditPoints pair itself."""
    dom = cc.audit_points(space, xlen, ylen, r,
                          **_audit_kw(budget, sample_size, seed))
    return [(tuple(row[:xlen]), tuple(row[xlen:]))
            for row in dom[0].tolist()], dom


def seminorm_reference(phi, r, budget=None, sample_size=None, seed=0,
                       value=None):
    value = value or Pointwise()
    points, dom = audit_points_reference(phi.space, phi.p + 1, phi.q + 1, r,
                                         budget, sample_size, seed)
    best, witness = sup_scan_reference(
        points, lambda xs, ys: dict_norm(value(phi, xs, ys)))
    return cc.Check(check="seminorm", values={"R": float(r), "value": best},
                    witness=witness, **dom.record())


def audit_equal_reference(check, lhs, rhs, r, budget=None, sample_size=None,
                          seed=0, tol=1e-10, value=None):
    value = value or Pointwise()
    points, dom = audit_points_reference(lhs.space, lhs.p + 1, lhs.q + 1, r,
                                         budget, sample_size, seed)
    worst, witness = sup_scan_reference(points, lambda xs, ys: dict_gap(
        value(lhs, xs, ys), {} if rhs is None else value(rhs, xs, ys)))
    return identity_check(check, lhs.p, lhs.q, r, worst, tol,
                          witness=witness, **dom.record())


def norm_audit_reference(kind, phi, r, budget=None, sample_size=None, seed=0,
                         value=None):
    """diff_D_norm_audit, diff_d_norm_audit or split_s_norm_audit (kind
    "D", "d" or "s") with the coupled base points listed per point."""
    if kind == "D":
        check, result, factor = "norm_bound_D", cc.diff_D(phi), phi.p + 2

        def couple(xs, ys):
            return [(xs[:i] + xs[i + 1:], ys) for i in range(len(xs))]
    elif kind == "d":
        check, result, factor = "norm_bound_d", cc.diff_d(phi), phi.q + 2

        def couple(xs, ys):
            return [(xs, ys[:i] + ys[i + 1:]) for i in range(len(ys))]
    else:
        check, result, factor = "norm_bound_s", cc.split_s(phi), 1

        def couple(xs, ys):
            return [(xs, (xs[0],) + ys)]
    value = value or Pointwise()
    points, dom = audit_points_reference(result.space, result.p + 1,
                                         result.q + 1, r, budget,
                                         sample_size, seed)
    lhs, witness = sup_scan_reference(
        points, lambda xs, ys: dict_norm(value(result, xs, ys)))
    rhs, _ = sup_scan_reference(
        (pt for xs, ys in points for pt in couple(xs, ys)),
        lambda xs, ys: dict_norm(value(phi, xs, ys)))
    return bound_check(check, lhs, float(factor) * rhs,
                       {"R": float(r), "factor": float(factor)},
                       witness=witness, **dom.record())


def conv_norm_audit_reference(f, theta, r, budget=None, sample_size=None,
                              seed=0, value=None):
    value = value or Pointwise()
    conv = cc.convolve(f, theta)
    points, dom = audit_points_reference(f.space, f.p + 1, theta.q + 1, r,
                                         budget, sample_size, seed)
    f_sup = 0.0
    theta_sup = 0.0

    def conv_norm(xs, ys):
        nonlocal f_sup, theta_sup
        val = dict_norm(value(conv, xs, ys))
        fv = value(f, xs)
        f_sup = max(f_sup, dict_norm(fv))
        for z in fv:
            theta_sup = max(theta_sup, dict_norm(value(theta, (z,), ys)))
        return val

    lhs, witness = sup_scan_reference(points, conv_norm)
    return bound_check("norm_bound_conv", lhs, f_sup * theta_sup,
                       {"R": float(r), "f_sup": f_sup, "theta_sup": theta_sup},
                       witness=witness, **dom.record())


def homotopy_defect_reference(fam, phi, budget=None, sample_size=None,
                              seed=0, value=None):
    """The defect check (not the cochain)."""
    value = value or Pointwise()
    rows = family_dicts(fam)
    defect = cc.cochain_sub(cc.convolve(fam.as_cochain(), phi), phi)
    dphi = cc.diff_D(phi)
    points, dom = audit_points_reference(fam.space, 1, phi.q + 1, 0.0,
                                         budget, sample_size, seed)
    dphi_sup = 0.0
    telescope_gap = 0.0

    def defect_norm(xs, ys):
        nonlocal dphi_sup, telescope_gap
        dval = value(defect, xs, ys)
        acc = {"scalar": 0.0} if phi.module == SCALAR else {}
        for z, w in rows[xs[0]].items():
            term = value(dphi, (xs[0], z), ys)
            dphi_sup = max(dphi_sup, dict_norm(term))
            dict_add(acc, term, w)
        telescope_gap = max(telescope_gap,
                            dict_gap(dval, kept(phi.module, acc)))
        return dict_norm(dval)

    worst, witness = sup_scan_reference(points, defect_norm)
    fnorm = fam.sup_norm
    return bound_check("homotopy_defect", worst, fnorm * dphi_sup,
                       {"S": fam.s, "family_norm": fnorm, "dphi_sup": dphi_sup,
                        "telescope_gap": telescope_gap},
                       telescope_gap <= EXACT_TOL, witness=witness,
                       **dom.record())


def tf_identity_reference(field, theta, budget=None, sample_size=None, seed=0,
                          value=None):
    """The pairing check of tf_identity with radius=None."""
    space = theta.space
    value = value or Pointwise()
    rows = csr_dicts(*field)
    r_ball = 0.0
    r_pair = 0.0
    for x in range(space.n):
        for z0, z1 in rows[x]:
            r_ball = max(r_ball, max(space.d(x, z0), space.d(x, z1)))
            r_pair = max(r_pair, space.d(z0, z1))
    boundary = rule_cochain(space, 0, -1, "l1_0",
                            lambda xs, ys: boundary_reference(rows[xs[0]]))
    lhs = cc.convolve(boundary, theta)
    zeta = cc.diff_D(theta)
    rhs = cc.transfer_cochain(field, zeta)
    kw = _audit_kw(budget, sample_size, seed)
    identity = audit_equal_reference("pairing", lhs, rhs, 0.0, tol=1e-12,
                                     value=value, **kw)
    points, _ = audit_points_reference(space, 1, theta.q + 1, 0.0, **kw)
    lhs_sup, _ = sup_scan_reference(
        points, lambda xs, ys: dict_norm(value(rhs, xs, ys)))
    zeta_sup, _ = sup_scan_reference(
        ((pair, ys) for xs, ys in points for pair in rows[xs[0]]),
        lambda zs, ys: dict_norm(value(zeta, zs, ys)))
    f_sup = max((dict_norm(row) for row in rows), default=0.0)
    return bound_check("pairing", lhs_sup, f_sup * zeta_sup,
                       {"identity": identity, "f_sup": f_sup,
                        "zeta_sup": zeta_sup, "r_ball": r_ball,
                        "r_pair": r_pair}, identity.ok)
