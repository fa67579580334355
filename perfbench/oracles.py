"""Output oracles: independent numpy recomputations of what each command wrote.

Profile cells are checked against
  * the closed form nu = 2(2S+1)/(2S^2+2S+1) for R = 1 ball cells on the
    2-torus while 2S+1 <= size;
  * the intersection-count identity ||u_A - u_B||_1 = 2(1 - |A&B|/max(|A|,|B|))
    for uniform ball vectors, over every pair within R, with the witness pair
    required to reach the maximum;
  * a dense numpy recomputation of the lazy walk for walk cells;
  * the golden torus12/rr128 file, bit for bit, for the golden commands.
Verify reports must hold only checks with `ok: true`.

Ball membership comes from a BFS over the graph's edges done here, so a wrong
distance matrix in the package shows up as a mismatch.
"""

from __future__ import annotations

import json

import numpy as np

from coarsecohom.space import generate_family

BALL_TOL = 1e-12
WALK_TOL = 1e-10
_CHUNK = 2048
CSV_HEADER = "S,R,nu,x0,x1,exact"


def torus_edges(size: int, dim: int) -> np.ndarray:
    """Edges of the dim-torus with the last coordinate varying fastest."""
    idx = np.arange(size ** dim).reshape((size,) * dim)
    return np.concatenate([
        np.stack([idx.ravel(), np.roll(idx, -1, axis=axis).ravel()], axis=1)
        for axis in range(dim)])


def _neighbours(n: int, edges: np.ndarray) -> np.ndarray:
    """n x maxdeg neighbour table, padded with the vertex itself."""
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    deg = np.bincount(src, minlength=n)
    start = np.concatenate([[0], np.cumsum(deg)[:-1]])
    table = np.repeat(np.arange(n)[:, None], max(int(deg.max()), 1), axis=1)
    table[src, np.arange(src.size) - start[src]] = dst
    return table


def ball_masks(n: int, edges: np.ndarray, rmax: int) -> list:
    """masks[r][x, y] is True iff d(x, y) <= r, for r = 0..rmax."""
    table = _neighbours(n, edges)
    masks = [np.eye(n, dtype=bool)]
    for _ in range(rmax):
        prev = masks[-1]
        grown = prev.copy()
        for j in range(table.shape[1]):
            grown |= prev[:, table[:, j]]
        masks.append(grown)
    return masks


def _pairs(mask: np.ndarray):
    return np.nonzero(np.triu(mask, 1))


def _ball_variation(ball: np.ndarray, i, j) -> np.ndarray:
    sizes = ball.sum(axis=1)
    out = np.empty(i.size)
    for lo in range(0, i.size, _CHUNK):
        a, b = i[lo:lo + _CHUNK], j[lo:lo + _CHUNK]
        inter = (ball[a] & ball[b]).sum(axis=1)
        out[lo:lo + _CHUNK] = 2.0 * (1.0 - inter
                                     / np.maximum(sizes[a], sizes[b]))
    return out


def _walk_variation(rows: np.ndarray, i, j) -> np.ndarray:
    out = np.empty(i.size)
    for lo in range(0, i.size, _CHUNK):
        a, b = i[lo:lo + _CHUNK], j[lo:lo + _CHUNK]
        out[lo:lo + _CHUNK] = np.abs(rows[a] - rows[b]).sum(axis=1)
    return out


def _walk_powers(n: int, edges: np.ndarray, smax: int) -> dict:
    adj = np.zeros((n, n))
    adj[edges[:, 0], edges[:, 1]] = 1.0
    adj[edges[:, 1], edges[:, 0]] = 1.0
    step = 0.5 * np.eye(n) + 0.5 * adj / adj.sum(axis=1)[:, None]
    powers, mat = {}, np.eye(n)
    for s in range(1, smax + 1):
        mat = mat @ step
        powers[s] = mat
    return powers


def parse_csv(text: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        s, r, nu, x0, x1, exact = line.split(",")
        rows.append((float(s), float(r), float(nu), int(x0), int(x1),
                     exact == "true"))
    return rows


def profile_failures(cmd, files: dict, n: int, edges: np.ndarray,
                     golden: dict) -> list:
    """Messages for every profile cell the oracles reject ([] = all good)."""
    rows = parse_csv(files[cmd.outputs[0]].decode())
    verdict = json.loads(files[cmd.outputs[1]])
    expected = [(s, r) for s in cmd.schedule for r in cmd.r_list]
    if [(row[0], row[1]) for row in rows] != expected:
        return [f"{cmd.name}: cells {[(row[0], row[1]) for row in rows]} "
                f"!= {expected}"]
    bad = []
    if cmd.golden:
        entry = golden["instances"][cmd.golden]
        got = [row[2] for row in rows]
        if got != entry["nu"]:
            bad.append(f"{cmd.name}: nu {got} is not the golden {entry['nu']}")
        if verdict["space"]["hash"] != entry["space_hash"]:
            bad.append(f"{cmd.name}: space hash {verdict['space']['hash']} "
                       "is not the golden one")
    rmax = int(max(cmd.r_list))
    smax = int(max(cmd.schedule))
    masks = ball_masks(n, edges, max(rmax, smax) if cmd.method == "ball"
                       else rmax)
    pairs = {r: _pairs(masks[int(r)]) for r in cmd.r_list}
    powers = _walk_powers(n, edges, smax) if cmd.method == "walk" else {}
    for s, r, nu, x0, x1, _ in rows:
        i, j = pairs[r]
        if cmd.method == "ball":
            values, tol = _ball_variation(masks[int(s)], i, j), BALL_TOL
        else:
            values, tol = _walk_variation(powers[int(s)], i, j), WALK_TOL
        best = float(values.max()) if values.size else 0.0
        at = np.flatnonzero((i == x0) & (j == x1))
        cell = f"{cmd.name} S={s!r} R={r!r}"
        if abs(nu - best) > tol:
            bad.append(f"{cell}: nu {nu!r} but the oracle gives {best!r}")
        if values.size and (at.size != 1 or values[at[0]] < best - tol):
            bad.append(f"{cell}: witness ({x0},{x1}) does not reach the max")
        if (cmd.family == "torus" and cmd.method == "ball" and r == 1.0
                and cmd.params.get("dim", 2) == 2
                and 2 * s + 1 <= cmd.params["size"]):
            closed = 2.0 * (2 * s + 1) / (2 * s * s + 2 * s + 1)
            if abs(nu - closed) > BALL_TOL:
                bad.append(f"{cell}: nu {nu!r} but the closed form gives "
                           f"{closed!r}")
    return bad


def verify_checks(cmd, files: dict) -> list:
    """Every check record of a verify report."""
    report = json.loads(files[cmd.outputs[0]])
    return [check for suite in report["suites"] for check in suite["checks"]]


def exact_flag(check: dict):
    """True/False when the check says whether it was exhaustive, else None."""
    if "exact" in check:
        return bool(check["exact"])
    identity = check.get("identity")
    if isinstance(identity, dict) and "exact" in identity:
        return bool(identity["exact"])
    return None


class Scorer:
    """Turns command results into op counts, with the oracles' verdicts."""

    def __init__(self, cmds, golden):
        self.cmds = cmds
        self.golden = golden
        self.graphs: dict = {}
        self.problems: list = []
        self._oracle_bad: dict = {}
        self._reference: list = []

    def _graph(self, cmd):
        key = (cmd.family, tuple(sorted(cmd.params.items())), cmd.seed)
        if key not in self.graphs:
            if cmd.family == "torus":
                size, dim = cmd.params["size"], cmd.params.get("dim", 2)
                self.graphs[key] = (size ** dim, torus_edges(size, dim))
            else:
                space = generate_family(cmd.family, cmd.params, seed=cmd.seed)
                self.graphs[key] = (space.n,
                                    np.asarray(space.meta["edges"]))
        return self.graphs[key]

    def set_reference(self, first_pass, earlier=None) -> None:
        """Check the first pass against the oracles and against `earlier`,
        the {command: digest} of an earlier run with the same seed, if any;
        later passes must match the first byte for byte."""
        self._reference = [res["digest"] for res in first_pass["results"]]
        for cmd, res in zip(self.cmds, first_pass["results"]):
            bad = []
            if earlier is not None and earlier.get(cmd.name) != res["digest"]:
                bad.append(f"{cmd.name}: outputs differ from an earlier run "
                           "with the same seed")
            if res["code"] != 0 or res["error"]:
                bad.append(f"{cmd.name}: exit {res['code']!r}")
            elif len(res["files"]) != len(cmd.outputs):
                bad.append(f"{cmd.name}: missing outputs")
            elif cmd.command == "profile":
                n, edges = self._graph(cmd)
                bad += profile_failures(cmd, res["files"], n, edges,
                                        self.golden)
            self._oracle_bad[cmd.name] = bad
            self.problems += bad

    def score(self, one_pass) -> dict:
        tally = {"ops": 0, "failed": 0, "exact": 0, "flagged": 0}
        for cmd, res, ref in zip(self.cmds, one_pass["results"],
                                 self._reference):
            ops, failed, exact, flagged = cmd.cells, 0, 0, 0
            try:
                if cmd.command == "verify":
                    checks = verify_checks(cmd, res["files"])
                    ops = len(checks)
                    failed = sum(not check.get("ok") for check in checks)
                    flags = [exact_flag(check) for check in checks]
                    flags = [flag for flag in flags if flag is not None]
                else:
                    flags = [row[5] for row in parse_csv(
                        res["files"][cmd.outputs[0]].decode())]
                exact, flagged = sum(flags), len(flags)
            except (KeyError, ValueError) as exc:
                self.problems.append(f"{cmd.name}: unreadable output: {exc}")
                failed = ops = max(ops, 1)
            if res["digest"] != ref:
                self.problems.append(f"{cmd.name}: outputs differ between "
                                     "passes with the same seed")
                failed = ops
            if self._oracle_bad[cmd.name] or res["code"] != 0:
                failed = ops
            for key, val in (("ops", ops), ("failed", failed),
                             ("exact", exact), ("flagged", flagged)):
                tally[key] += val
        return tally
