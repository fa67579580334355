"""Acceptance suite: one test per headline guarantee.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line
per criterion.  Budgets are sized so the whole module stays well inside
its stated runtime ceilings on a laptop-class machine.
"""
import json
import time
from functools import lru_cache
from pathlib import Path

import coarsecohom as cc
from coarsecohom import L1, L1_ZERO
import numpy as np

from helpers import (csr_dicts, dict_gap, dict_norm, dict_total, family_dicts,
                     max_pair_variation_reference, one_value, pairs_reference)

CYCLE16 = cc.generate_family("cycle", {"size": 16})
PATH12 = cc.generate_family("path", {"size": 12})
TORUS8 = cc.generate_family("torus", {"dim": 2, "size": 8})
FREE22 = cc.generate_family("free_ball", {"rank": 2, "radius": 2})
RR32 = cc.generate_family("random_regular", {"n": 32, "k": 3}, seed=1)

SPACES = (CYCLE16, PATH12, TORUS8, FREE22, RR32)
CYCLE3 = cc.generate_family("cycle", {"size": 3})
PATH8 = cc.generate_family("path", {"size": 8})
CYCLE64 = cc.generate_family("cycle", {"size": 64})

R_LIST = (1.0, 2.0)
BUDGET = 2000
SAMPLE = 300


@lru_cache(maxsize=1)
def seeded_instances():
    """The 200 random cochains shared by criteria 1 and 2."""
    out = []
    for i in range(200):
        space = SPACES[i % len(SPACES)]
        p, q = cc.pick_bidegree(i)
        module = cc.pick_module(i)
        out.append(cc.random_cochain(space, p, q, module, seed=i))
    return out


def test_criterion_01_complex_identities_on_200_random_cochains():
    start = time.perf_counter()
    worst = 0.0
    for i, phi in enumerate(seeded_instances()):
        checks = cc.identity_checks_for(phi, R_LIST, BUDGET, SAMPLE,
                                        seed=i, tol=1e-10)
        for chk in checks:
            assert chk.ok, chk.to_json()
            worst = max(worst, chk["max_violation"])
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed <= 60.0, f"identity sweep took {elapsed:.1f}s"


def test_criterion_02_norm_bounds_never_violated():
    for i, phi in enumerate(seeded_instances()):
        for r in R_LIST:
            rep = cc.diff_D_norm_audit(phi, r, budget=BUDGET,
                                       sample_size=SAMPLE, seed=i)
            assert rep.ok, rep.to_json()
            rep = cc.diff_d_norm_audit(phi, r, budget=BUDGET,
                                       sample_size=SAMPLE, seed=i)
            assert rep.ok, rep.to_json()
            if phi.q >= 0:
                rep = cc.split_s_norm_audit(phi, r, budget=BUDGET,
                                            sample_size=SAMPLE, seed=i)
                assert rep.ok, rep.to_json()
    for i in range(50):
        space = SPACES[i % len(SPACES)]
        f = cc.random_cochain(space, 0, -1, L1, seed=1000 + i)
        theta = cc.random_cochain(space, 0, i % 2, cc.pick_module(i),
                                  seed=2000 + i)
        rep = cc.conv_norm_audit(f, theta, float(1 + i % 2), budget=BUDGET,
                                 sample_size=SAMPLE, seed=i)
        assert rep.ok, rep.to_json()


def test_criterion_03_johnson_suite_exact():
    for space in SPACES + (CYCLE3, PATH8, CYCLE64):
        j01, j10, hom = cc.johnson_cocycles(space)
        checks = [
            cc.audit_zero("D j01", cc.diff_D(j01), 1.0, budget=800,
                          tol=1e-12),
            cc.audit_zero("d j01", cc.diff_d(j01), 1.0, budget=800,
                          tol=1e-12),
            cc.audit_equal("D hom", cc.diff_D(hom),
                           cc.cochain_scale(j10, -1.0), 1.0, budget=800,
                           tol=1e-12),
            cc.audit_equal("d hom", cc.diff_d(hom), j01, 1.0, budget=800,
                           tol=1e-12),
        ]
        for rep in checks:
            assert rep.ok and rep["max_violation"] <= 1e-12, (
                space.n, rep.check)


def test_criterion_04_split_breaks_flatness_with_norm_two():
    for space in (CYCLE16, PATH8):
        cert = cc.counterexample_s_not_invariant(space, budget=4000)
        assert cert["passed"]
        assert cert["d_flat_max_violation"] <= 1e-12
        assert abs(cert["split_defect_seminorm"] - 2.0) <= 1e-12


def test_criterion_05_cycle64_profile_closed_form():
    start = time.perf_counter()
    schedule = list(range(1, 21))
    table = cc.variation_profile(CYCLE64, schedule, [1.0])
    for s in schedule:
        row = table.get(s, 1.0)
        assert row.exact
        assert abs(row.nu - 2 / (2 * s + 1)) <= 1e-12, s
    assert time.perf_counter() - start <= 5.0


def test_criterion_06_defect_bound_and_exact_instance():
    for i in range(100):
        space = SPACES[i % len(SPACES)]
        kind = i % 4
        if kind == 0:
            fam = cc.ball_average(space, float(1 + i % 2))
        elif kind == 1:
            fam = cc.random_prob_family(space, float(1 + i % 2), seed=i)
        elif kind == 2:
            fam = cc.lazy_walk_family(space, steps=1 + i % 2)
        else:
            fam = cc.dirac_family(space)
        q = (-1, 0, 1)[i % 3]
        phi = cc.random_cochain(space, 0, q, cc.pick_module(i), seed=i)
        # a failing bound or telescope comes back as ok False
        _, rep = cc.homotopy_defect(fam, phi, budget=1500, sample_size=250,
                                    seed=i)
        assert rep.ok, rep.to_json()
    _, rep = cc.homotopy_defect(cc.ball_average(CYCLE3, 1.0),
                                cc.dirac_family(CYCLE3).as_cochain())
    assert abs(rep["value"] - 4 / 3) <= 1e-12


def test_criterion_07_pairing_identity_and_lift_section():
    for i in range(20):
        space = SPACES[i % len(SPACES)]
        field = cc.random_pair_field(space, float(1 + i % 2), seed=i,
                                     lift_style=i % 2 == 1)
        theta = cc.random_cochain(space, 0, i % 2, cc.pick_module(i),
                                  seed=3000 + i)
        rep = cc.tf_identity(field, theta, budget=1500, sample_size=250,
                             seed=i)
        assert rep.ok, rep.to_json()
        assert rep["identity"]["max_violation"] <= 1e-12
    for i in range(100):
        space = SPACES[i % len(SPACES)]
        cols, weights = cc.random_zero_sum_vector(space, seed=i)
        h = dict(zip(cols.tolist(), weights.tolist()))
        base = i % space.n
        pairs, lifted = cc.lift_boundary(cols, weights, base)
        indptr = np.array([0, len(lifted)])
        back = csr_dicts(*cc.pair_boundary(space.n, (indptr, pairs,
                                                     lifted)))[0]
        assert dict_gap(back, h) <= 1e-12
        assert dict_norm(csr_dicts(indptr, pairs, lifted)[0]) <= (
            dict_norm(h) + 1e-12)


def test_criterion_08_golden_separation_reproduces():
    golden = json.loads((Path(__file__).parent / "data"
                         / "golden_separation.json").read_text())
    profiles = {}
    for name in ("torus12", "rr128"):
        entry = golden["instances"][name]
        space = cc.generate_family(entry["kind"], entry["params"],
                                   seed=entry["seed"])
        assert space.content_hash() == entry["space_hash"]
        table = cc.variation_profile(space, golden["schedule"], [golden["r"]])
        nus = [table.get(s, golden["r"]).nu for s in golden["schedule"]]
        assert nus == entry["nu"], name  # bit-identical under fixed seed
        profiles[name] = nus
    assert profiles["rr128"][-1] > profiles["torus12"][-1]


def test_criterion_09_ses_chain_level_checks():
    for i in range(50):
        space = SPACES[i % len(SPACES)]
        _, v = cc.random_zero_sum_vector(space, seed=i)
        # pi of the inclusion into l1, which keeps the entries
        assert abs(dict_total(dict(enumerate(v.tolist())))) <= 1e-12
    for i, lam in enumerate((0.0, 1.0, -2.5, 0.125, 7.0)):
        # the section lam * delta_i, as a family row
        row = csr_dicts(np.array([0, 1]), np.array([i]), np.array([lam]))[0]
        assert dict_total(row) == lam
    for space in SPACES:
        for s in (1.0, 2.0):
            phi = cc.random_unit_sum_cochain(space, s, seed=int(s))
            fam = cc.normalize_to_prob(phi)
            phi_vecs = [one_value(phi, (x,)) for x in range(space.n)]
            for r in (1.0, 2.0):
                pairs = pairs_reference(space, r)
                nu_phi = max_pair_variation_reference(phi_vecs, pairs)[0]
                nu_f = max_pair_variation_reference(family_dicts(fam),
                                                    pairs)[0]
                assert nu_f <= 2.0 * nu_phi + 1e-12, (space.n, s, r)
