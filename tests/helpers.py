"""Reference implementations the tests compare the package against.

Everything here recomputes values straight from definitions, in a
deliberately different style from the package (plain dicts, itertools
filtering, Fraction arithmetic), so agreement is evidence, not tautology.
"""

from collections import deque
from fractions import Fraction
from itertools import product

import numpy as np
from hypothesis import strategies as st

from coarsecohom.coefficients import PRUNE_TOL


@st.composite
def spaces(draw, low=2, high=8):
    """Small connected graphs on low..high points, some rescaled to a
    real-valued metric."""
    import coarsecohom as cc
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


def vec_dict(v):
    """SupportedVector -> plain dict; scalars keyed under 'scalar'."""
    if v.module == "scalar":
        return {"scalar": v.scalar} if v.scalar != 0.0 else {}
    return dict(v.entries)


def dict_add(acc, d, sign):
    for k, w in d.items():
        acc[k] = acc.get(k, 0.0) + sign * w


def dict_gap(a, b):
    worst = 0.0
    for k in set(a) | set(b):
        worst = max(worst, abs(a.get(k, 0.0) - b.get(k, 0.0)))
    return worst


def dict_norm(d):
    return sum(abs(w) for w in d.values())


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
    keyed as vec_dict keys it, and the points each term writes. Term t
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
    """The per-pair dict loop: the largest ||v_j - v_i||_1 over the pairs,
    summed entry by entry in dict order, and the first pair attaining it.
    No pairs give (0.0, (0, 0))."""
    if not pairs:
        return 0.0, (0, 0)
    entries_list = [v.entries for v in vectors]
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
    """The per-entry family check: raises the first violation's ValueError,
    points in order, entries in dict order, then the entry sum."""
    for x, v in enumerate(vectors):
        if v.module == "scalar":
            raise ValueError("family vectors must be l1-type")
        total = 0.0
        for w, weight in v.entries.items():
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


# -- the per-point closure audits -------------------------------------------------
#
# The package audits by face tables (coarsecohom.facetables). These are the
# scans it replaced: one point at a time through Cochain.__call__, folding
# each value's norm or entry gap into a running sup with a strict `>`, so
# the first maximiser is the witness. The report types are the package's.

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
    from coarsecohom.cochains import DEFAULT_AUDIT_BUDGET, DEFAULT_SAMPLE_SIZE
    return {"budget": DEFAULT_AUDIT_BUDGET if budget is None else budget,
            "sample_size": (DEFAULT_SAMPLE_SIZE if sample_size is None
                            else sample_size),
            "seed": seed}


def audit_points_reference(space, xlen, ylen, r, budget=None,
                           sample_size=None, seed=0):
    """cc.audit_points, with its rows read back as (xs, ys) int tuples:
    (points, domain), where domain is the AuditPoints pair itself."""
    import coarsecohom as cc
    dom = cc.audit_points(space, xlen, ylen, r,
                          **_audit_kw(budget, sample_size, seed))
    return [(tuple(row[:xlen]), tuple(row[xlen:]))
            for row in dom[0].tolist()], dom


def seminorm_reference(phi, r, budget=None, sample_size=None, seed=0):
    import coarsecohom as cc
    points, dom = audit_points_reference(phi.space, phi.p + 1, phi.q + 1, r,
                                         budget, sample_size, seed)
    best, witness = sup_scan_reference(points,
                                       lambda xs, ys: phi(xs, ys).norm)
    return cc.Check(check="seminorm", values={"R": float(r), "value": best},
                    witness=witness, **dom.record())


def audit_equal_reference(check, lhs, rhs, r, budget=None, sample_size=None,
                          seed=0, tol=1e-10):
    import coarsecohom as cc
    from coarsecohom.cochains import identity_check
    points, dom = audit_points_reference(lhs.space, lhs.p + 1, lhs.q + 1, r,
                                         budget, sample_size, seed)
    worst, witness = sup_scan_reference(points, lambda xs, ys: cc.entry_gap(
        lhs(xs, ys), None if rhs is None else rhs(xs, ys)))
    return identity_check(check, lhs.p, lhs.q, r, worst, tol,
                          witness=witness, **dom.record())


def norm_audit_reference(kind, phi, r, budget=None, sample_size=None, seed=0):
    """diff_D_norm_audit, diff_d_norm_audit or split_s_norm_audit (kind
    "D", "d" or "s") with the coupled base points listed per point."""
    import coarsecohom as cc
    from coarsecohom.cochains import bound_check
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
    points, dom = audit_points_reference(result.space, result.p + 1,
                                         result.q + 1, r, budget,
                                         sample_size, seed)
    lhs, witness = sup_scan_reference(points,
                                      lambda xs, ys: result(xs, ys).norm)
    rhs, _ = sup_scan_reference(
        (pt for xs, ys in points for pt in couple(xs, ys)),
        lambda xs, ys: phi(xs, ys).norm)
    return bound_check(check, lhs, float(factor) * rhs,
                       {"R": float(r), "factor": float(factor)},
                       witness=witness, **dom.record())


def conv_norm_audit_reference(f, theta, r, budget=None, sample_size=None,
                              seed=0):
    import coarsecohom as cc
    from coarsecohom.cochains import bound_check
    conv = cc.convolve(f, theta)
    points, dom = audit_points_reference(f.space, f.p + 1, theta.q + 1, r,
                                         budget, sample_size, seed)
    f_sup = 0.0
    theta_sup = 0.0

    def conv_norm(xs, ys):
        nonlocal f_sup, theta_sup
        val = conv(xs, ys).norm
        fv = f(xs, ())
        f_sup = max(f_sup, fv.norm)
        for z in fv.entries:
            theta_sup = max(theta_sup, theta((z,), ys).norm)
        return val

    lhs, witness = sup_scan_reference(points, conv_norm)
    return bound_check("norm_bound_conv", lhs, f_sup * theta_sup,
                       {"R": float(r), "f_sup": f_sup, "theta_sup": theta_sup},
                       witness=witness, **dom.record())


def homotopy_defect_reference(fam, phi, budget=None, sample_size=None,
                              seed=0):
    """The defect check (not the cochain)."""
    import coarsecohom as cc
    from coarsecohom.cochains import EXACT_TOL, bound_check
    defect = cc.cochain_sub(cc.convolve(fam.as_cochain(), phi), phi)
    dphi = cc.diff_D(phi)
    points, dom = audit_points_reference(fam.space, 1, phi.q + 1, 0.0,
                                         budget, sample_size, seed)
    dphi_sup = 0.0
    telescope_gap = 0.0

    def defect_norm(xs, ys):
        nonlocal dphi_sup, telescope_gap
        dval = defect(xs, ys)
        ent = {}
        sca = 0.0
        for z, w in fam.vectors[xs[0]].entries.items():
            term = dphi((xs[0], z), ys)
            dphi_sup = max(dphi_sup, term.norm)
            sca += w * term.scalar
            for k, u in term.entries.items():
                ent[k] = ent.get(k, 0.0) + w * u
        acc = cc.SupportedVector(phi.module, ent, sca)
        telescope_gap = max(telescope_gap, cc.entry_gap(dval, acc))
        return dval.norm

    worst, witness = sup_scan_reference(points, defect_norm)
    fnorm = fam.sup_norm
    return bound_check("homotopy_defect", worst, fnorm * dphi_sup,
                       {"S": fam.s, "family_norm": fnorm, "dphi_sup": dphi_sup,
                        "telescope_gap": telescope_gap},
                       telescope_gap <= EXACT_TOL, witness=witness,
                       **dom.record())


def tf_identity_reference(field, theta, budget=None, sample_size=None, seed=0):
    """The pairing check of tf_identity with radius=None."""
    import coarsecohom as cc
    from coarsecohom.cochains import bound_check
    space = theta.space
    r_ball = 0.0
    r_pair = 0.0
    for x in range(space.n):
        for z0, z1 in field[x].entries:
            r_ball = max(r_ball, max(space.d(x, z0), space.d(x, z1)))
            r_pair = max(r_pair, space.d(z0, z1))
    boundary = cc.Cochain(space, 0, -1, "l1_0",
                          lambda xs, ys: cc.boundary_pairs(field[xs[0]]))
    lhs = cc.convolve(boundary, theta)
    zeta = cc.diff_D(theta)
    rhs = cc.transfer_cochain(field, zeta)
    kw = _audit_kw(budget, sample_size, seed)
    identity = audit_equal_reference("pairing", lhs, rhs, 0.0, tol=1e-12,
                                     **kw)
    points, _ = audit_points_reference(space, 1, theta.q + 1, 0.0, **kw)
    lhs_sup, _ = sup_scan_reference(points, lambda xs, ys: rhs(xs, ys).norm)
    zeta_sup, _ = sup_scan_reference(
        ((pair, ys) for xs, ys in points for pair in field[xs[0]].entries),
        lambda zs, ys: zeta(zs, ys).norm)
    f_sup = max((pv.norm for pv in field), default=0.0)
    return bound_check("pairing", lhs_sup, f_sup * zeta_sup,
                       {"identity": identity, "f_sup": f_sup,
                        "zeta_sup": zeta_sup, "r_ball": r_ball,
                        "r_pair": r_pair}, identity.ok)
