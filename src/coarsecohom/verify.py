"""Named verification suites over a chosen space: each bundles law audits
into a pass/fail report the CLI can run and serialize.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .averaging import (ReiterFamily, ball_average, conv_norm_audit, convolve,
                        dirac_family, family_rows, homotopy_defect,
                        lift_boundary, normalize_to_prob, pair_boundary,
                        pair_scan, tf_identity)
from .coefficients import L1, L1_ZERO, SCALAR
from .facetables import csr_row_sums
from .cochains import (EXACT_TOL, IDENTITY_TOL, Check, Cochain, audit_equal,
                       audit_zero, cochain_add, cochain_scale,
                       diff_D, diff_D_norm_audit, diff_d, diff_d_norm_audit,
                       johnson_cocycles, johnson_relations, seminorm,
                       split_s, split_s_norm_audit)
from .randomgen import (random_cochain, random_pair_field, random_prob_family,
                        random_unit_sum_cochain, random_x_independent_cochain,
                        random_zero_sum_vector)
from .sequences import counterexample_s_not_invariant
from .space import FiniteMetricSpace, derive_seed

SUITE_NAMES = ("complex-identities", "splitting", "johnson", "convolution",
               "defect-bound", "pairing", "ses", "counterexample")

_BIDEGREES = ((0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1))
_MODULES = (L1, L1_ZERO, SCALAR)
_ROWS = (-1, 0, 1)


@dataclass
class VerifyOptions:
    """Shared audit configuration for the CLI suites."""
    seed: int = 0
    count: int | None = None
    r_list: tuple = (1.0, 2.0)
    budget: int = 4000
    sample_size: int = 700
    identity_tol: float = IDENTITY_TOL

    @property
    def audit(self) -> dict:
        """The audit-domain keywords every audit call takes."""
        return {"budget": self.budget, "sample_size": self.sample_size,
                "seed": self.seed}

    def resolved_count(self, default: int) -> int:
        return default if self.count is None else self.count


def pick_bidegree(i: int):
    return _BIDEGREES[i % len(_BIDEGREES)]


def pick_module(i: int) -> str:
    return _MODULES[i % len(_MODULES)]


def _splitting_identity(phi: Cochain):
    """(check name, cochain that must equal phi): ds + sd = id for q >= 0,
    sd = id on the row q = -1."""
    if phi.q >= 0:
        return "ds+sd=id", cochain_add(diff_d(split_s(phi)),
                                       split_s(diff_d(phi)))
    return "sd=id(row-1)", split_s(diff_d(phi))


def identity_checks_for(phi: Cochain, r_list, budget: int, sample_size: int,
                        seed: int, tol: float = IDENTITY_TOL):
    """The five complex identities, audited where they apply to phi."""
    checks = []
    dd_left = diff_D(diff_D(phi))
    dd_right = diff_d(diff_d(phi))
    anti = cochain_add(diff_D(diff_d(phi)), diff_d(diff_D(phi)))
    split_name, split = _splitting_identity(phi)
    for r in r_list:
        kw = dict(budget=budget, sample_size=sample_size, seed=seed, tol=tol)
        checks.append(audit_zero("DD=0", dd_left, r, **kw))
        checks.append(audit_zero("dd=0", dd_right, r, **kw))
        checks.append(audit_zero("Dd+dD=0", anti, r, **kw))
        checks.append(audit_equal(split_name, split, phi, r, **kw))
    return checks


def _suite(name: str, checks: list[Check]) -> dict:
    return {"suite": name, "passed": all(c.ok for c in checks),
            "checks": [c.to_json() for c in checks]}


def _numbered(reports, i: int) -> list[Check]:
    return [replace(rep, instance=i) for rep in reports]


def run_complex_identities(space: FiniteMetricSpace,
                           opts: VerifyOptions) -> dict:
    count = opts.resolved_count(200)
    checks = []
    for i in range(count):
        p, q = pick_bidegree(i)
        phi = random_cochain(space, p, q, pick_module(i),
                             derive_seed(opts.seed, "ci", i))
        reports = identity_checks_for(phi, opts.r_list, opts.budget,
                                      opts.sample_size, opts.seed,
                                      opts.identity_tol)
        for r in opts.r_list:
            reports += [diff_D_norm_audit(phi, r, **opts.audit),
                        diff_d_norm_audit(phi, r, **opts.audit)]
        checks += _numbered(reports, i)
    return _suite("complex-identities", checks)


def run_splitting(space: FiniteMetricSpace, opts: VerifyOptions) -> dict:
    count = opts.resolved_count(60)
    checks = []
    for i in range(count):
        phi = random_cochain(space, i % 2, _ROWS[i % 3], pick_module(i),
                             derive_seed(opts.seed, "split", i))
        split_name, split = _splitting_identity(phi)
        reports = []
        for r in opts.r_list:
            reports.append(audit_equal(split_name, split, phi, r,
                                       tol=opts.identity_tol, **opts.audit))
            if phi.q >= 0:
                reports.append(split_s_norm_audit(phi, r, **opts.audit))
        checks += _numbered(reports, i)
    return _suite("splitting", checks)


def run_johnson(space: FiniteMetricSpace, opts: VerifyOptions) -> dict:
    j01, j10, hom = johnson_cocycles(space)
    checks = []
    for r in opts.r_list:
        checks += johnson_relations(j01, j10, hom, r, tol=EXACT_TOL,
                                    **opts.audit)
        rep = seminorm(j01, r, **opts.audit)
        checks.append(replace(rep, check="seminorm(j01)=2",
                              ok=abs(rep["value"] - 2.0) <= EXACT_TOL))
    return _suite("johnson", checks)


def run_convolution(space: FiniteMetricSpace, opts: VerifyOptions) -> dict:
    count = opts.resolved_count(40)
    checks = []
    delta = dirac_family(space).as_cochain()
    r0 = opts.r_list[0]
    tight = dict(tol=EXACT_TOL, **opts.audit)
    loose = dict(tol=opts.identity_tol, **opts.audit)
    for i in range(count):
        q = _ROWS[i % 3]
        module = pick_module(i // 3)
        theta = random_cochain(space, 0, q, module,
                               derive_seed(opts.seed, "conv-t", i))
        f = random_cochain(space, i % 2, -1, L1,
                           derive_seed(opts.seed, "conv-f", i))
        conv = convolve(f, theta)
        d_right = convolve(f, diff_d(theta))
        if f.p % 2 == 1:
            d_right = cochain_scale(d_right, -1.0)
        prob = random_prob_family(space, 1.0 + (i % 2),
                                  derive_seed(opts.seed, "conv-p", i))
        xind = random_x_independent_cochain(space, q, module,
                                            derive_seed(opts.seed, "conv-x", i))
        reports = [
            audit_equal("delta*theta=theta", convolve(delta, theta), theta,
                        r0, **tight),
            audit_equal("D(f*theta)=(Df)*theta", diff_D(conv),
                        convolve(diff_D(f), theta), r0, **loose),
            audit_equal("d(f*theta)=(-1)^p f*(d theta)", diff_d(conv),
                        d_right, r0, **loose),
            *(conv_norm_audit(f, theta, r, **opts.audit)
              for r in opts.r_list),
            audit_equal("prob*xindep=xindep",
                        convolve(prob.as_cochain(), xind), xind, r0, **tight),
        ]
        checks += _numbered(reports, i)
    return _suite("convolution", checks)


def run_defect_bound(space: FiniteMetricSpace, opts: VerifyOptions) -> dict:
    count = opts.resolved_count(30)
    checks = []
    for i in range(count):
        s = 1.0 + (i % 2)
        kind = i % 3
        if kind == 0:
            fam = ball_average(space, s)
        elif kind == 1:
            fam = random_prob_family(space, s,
                                     derive_seed(opts.seed, "def-f", i))
        else:
            fam = dirac_family(space)
        phi = random_cochain(space, 0, _ROWS[i % 3], pick_module(i % 2),
                             derive_seed(opts.seed, "def-t", i))
        _, rep = homotopy_defect(fam, phi, **opts.audit)
        checks.append(replace(rep, instance=i))
    return _suite("defect-bound", checks)


def run_pairing(space: FiniteMetricSpace, opts: VerifyOptions) -> dict:
    count = opts.resolved_count(20)
    checks = []
    for i in range(count):
        field = random_pair_field(space, 1.0 + (i % 2),
                                  derive_seed(opts.seed, "pair-f", i),
                                  lift_style=i % 2 == 1)
        theta = random_cochain(space, 0, _ROWS[i % 3], pick_module(i),
                               derive_seed(opts.seed, "pair-t", i))
        checks.append(replace(tf_identity(field, theta, **opts.audit),
                              instance=i))
    n = space.n
    for i in range(opts.resolved_count(20)):
        cols, weights = random_zero_sum_vector(
            space, derive_seed(opts.seed, "lift", i))
        base = derive_seed(opts.seed, "lift-base", i) % n
        pairs, lifted = lift_boundary(cols, weights, base)
        _, bd_cols, bd = pair_boundary(n, (np.array([0, len(lifted)]), pairs,
                                           lifted))
        round_trip = np.abs(np.bincount(bd_cols, bd, n)
                            - np.bincount(cols, weights, n)).max().item()
        # the l1 norms of H, h and dH, each added left to right from 0.0
        lifted_norm, norm, bd_norm = csr_row_sums(
            np.cumsum([0, len(lifted), len(weights), len(bd)]),
            np.abs(np.concatenate((lifted, weights, bd)))).tolist()
        norm_ok = lifted_norm <= norm + EXACT_TOL
        supp_ok = bool((pairs[:, 0] == base).all()
                       and np.isin(pairs[:, 1], cols).all())
        contract = bd_norm <= 2.0 * lifted_norm + EXACT_TOL
        checks.append(Check(
            check="lift_round_trip", instance=i,
            ok=round_trip <= EXACT_TOL and norm_ok and supp_ok and contract,
            values={"max_violation": round_trip, "norm_ok": norm_ok,
                    "support_ok": supp_ok,
                    "boundary_contraction_ok": contract}))
    return _suite("pairing", checks)


def run_ses(space: FiniteMetricSpace, opts: VerifyOptions) -> dict:
    checks = []
    for i in range(opts.resolved_count(25)):
        _, v = random_zero_sum_vector(space,
                                      derive_seed(opts.seed, "ses-v", i))
        # pi of the inclusion of v, which is v itself
        drift = abs(csr_row_sums(np.array([0, len(v)]), v)[0].item())
        checks.append(Check(check="pi.iota=0", instance=i,
                            ok=drift <= EXACT_TOL,
                            values={"max_violation": drift}))
        lam = 0.5 + i
        # pi of the lift lam * delta_point, one entry
        got = csr_row_sums(np.array([0, 1]), np.array([lam]))[0].item()
        checks.append(Check(check="pi.lift_scalar=id", instance=i,
                            ok=abs(got - lam) <= EXACT_TOL,
                            values={"max_violation": abs(got - lam)}))
    for s in (1.0, 2.0):
        phi = random_unit_sum_cochain(space, s,
                                      derive_seed(opts.seed, "ses-fam", s))
        fam = normalize_to_prob(phi)
        indptr, cols, weights = family_rows(phi)
        supp_ok = (np.array_equal(fam.indptr, indptr)
                   and np.array_equal(fam.cols, cols))
        # the profile's pair scan over the rows of phi and of f
        phi_rows = ReiterFamily(space, s, indptr, cols, weights,
                                is_prob=False)
        for r, (nu_phi, _), (nu_f, _) in zip(
                opts.r_list, pair_scan(phi_rows, opts.r_list),
                pair_scan(fam, opts.r_list)):
            checks.append(Check(
                check="normalize_round_trip",
                ok=supp_ok and nu_f <= 2.0 * nu_phi + EXACT_TOL,
                values={"S": s, "R": r, "nu_f": nu_f, "nu_phi": nu_phi,
                        "supports_unchanged": supp_ok}))
    return _suite("ses", checks)


def run_counterexample(space: FiniteMetricSpace, opts: VerifyOptions) -> dict:
    return _suite("counterexample",
                  [counterexample_s_not_invariant(space, **opts.audit)])


_RUNNERS = {
    "complex-identities": run_complex_identities,
    "splitting": run_splitting,
    "johnson": run_johnson,
    "convolution": run_convolution,
    "defect-bound": run_defect_bound,
    "pairing": run_pairing,
    "ses": run_ses,
    "counterexample": run_counterexample,
}


def run_suite(name: str, space: FiniteMetricSpace,
              opts: VerifyOptions | None = None) -> dict:
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(SUITE_NAMES)}")
    return _RUNNERS[name](space, opts or VerifyOptions())


def run_suites(names, space: FiniteMetricSpace,
               opts: VerifyOptions | None = None) -> list[dict]:
    return [run_suite(name, space, opts) for name in names]
