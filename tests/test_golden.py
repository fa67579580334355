"""Frozen variation profiles for the torus/expander separation.

The stored values were produced once by this package and cross-checked
against an exact rational ball-average oracle; the suite demands
bit-identical reproduction so any drift in sampling, hashing, or float
evaluation order is caught immediately.
"""
import json
from pathlib import Path

import coarsecohom as cc
from coarsecohom.cli import main
from helpers import frac_ball_nu

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_separation.json").read_text())


def rebuild(entry):
    return cc.generate_family(entry["kind"], entry["params"],
                              seed=entry["seed"])


def test_spaces_rebuild_to_stored_hashes():
    for name in ("torus12", "rr128"):
        entry = GOLDEN["instances"][name]
        assert rebuild(entry).content_hash() == entry["space_hash"], name


def test_profiles_are_bit_identical():
    schedule = GOLDEN["schedule"]
    r = GOLDEN["r"]
    for name in ("torus12", "rr128"):
        entry = GOLDEN["instances"][name]
        table = cc.variation_profile(rebuild(entry), schedule, [r])
        got = [table.get(s, r).nu for s in schedule]
        assert got == entry["nu"], name  # float equality on purpose


def test_torus_decays_while_expander_stalls():
    torus = GOLDEN["instances"]["torus12"]["nu"]
    expander = GOLDEN["instances"]["rr128"]["nu"]
    assert expander[-1] > torus[-1]
    gap = expander[-1] - torus[-1]
    assert abs(gap - GOLDEN["separation_at_last_s"]) <= 1e-15
    assert cc.diagnose(torus, 1.0, GOLDEN["schedule"]).verdict == "decaying"
    assert cc.diagnose(expander, 1.0, GOLDEN["schedule"]).verdict == "stalled"


def test_golden_values_match_rational_oracle():
    for name in ("torus12", "rr128"):
        entry = GOLDEN["instances"][name]
        sp = rebuild(entry)
        for s, nu in zip(GOLDEN["schedule"], entry["nu"]):
            exact, _ = frac_ball_nu(sp, int(s), int(GOLDEN["r"]))
            assert nu == float(exact), (name, s)


def test_walk_profile_matches_golden_csv(tmp_path, capsys):
    """Walk rows of the sparse kernel on rr512 (S = 1..4 stay sparse), byte
    for byte."""
    prefix = tmp_path / "walk"
    assert main(["profile", "--family", "random_regular", "--n", "512",
                 "--k", "3", "--seed", "5", "--smax", "4", "--r", "1,2",
                 "--method", "walk", "--out", str(prefix)]) == 0
    got = (tmp_path / "walk.csv").read_bytes()
    assert got == (DATA / "walk_rr512_golden.csv").read_bytes()
