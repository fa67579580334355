"""Reference implementations the tests compare the package against.

Everything here recomputes values straight from definitions, in a
deliberately different style from the package (plain dicts, itertools
filtering, Fraction arithmetic), so agreement is evidence, not tautology.
"""

from collections import deque
from fractions import Fraction
from itertools import product

import numpy as np


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


def brute_tuples(space, p, r):
    """All (p+1)-tuples with pairwise distances <= r, by full product scan."""
    pts = range(space.n)
    out = []
    for t in product(pts, repeat=p + 1):
        if all(space.d(a, b) <= r for a in t for b in t):
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
