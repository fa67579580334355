import json
from fractions import Fraction
from pathlib import Path

import pytest

import coarsecohom as cc
from helpers import frac_ball_nu

CYCLE64 = cc.generate_family("cycle", {"size": 64})
CYCLE16 = cc.generate_family("cycle", {"size": 16})


def profile_values(space, schedule, family=cc.ball_average):
    table = cc.variation_profile(space, schedule, [1.0], family=family)
    return [table.get(s, 1.0).nu for s in schedule]


def test_reiter_decay_matches_closed_form():
    # ||D f_S||_1 on the cycle is exactly 2/(2S+1)
    schedule = [1, 2, 3, 4, 5, 6]
    values = profile_values(CYCLE64, schedule)
    for s, value in zip(schedule, values):
        assert abs(value - float(Fraction(2, 2 * s + 1))) <= 1e-12
    diag = cc.diagnose(values, 1.0, axis=schedule)
    assert diag.verdict == "decaying"
    assert diag.fitted_rate < -0.5


def test_dirac_family_stalls():
    values = profile_values(CYCLE16, [1, 2, 3, 4],
                            family=lambda sp, s: cc.dirac_family(sp))
    assert values == [2.0, 2.0, 2.0, 2.0]
    assert cc.diagnose(values, 1.0).verdict == "stalled"


def test_constant_family_is_flat():
    # S >= diameter makes every f(x) equal, so D f = 0 identically
    values = profile_values(CYCLE16, [8, 9, 10])
    assert values == [0.0, 0.0, 0.0]
    assert cc.diagnose(values, 1.0, axis=[8, 9, 10]).verdict == "decaying"


def d_reading(space, s, r):
    """||D f_S||_R of the ball family read as a (0, -1) cochain, over the
    whole radius-r domain."""
    rep = cc.seminorm(cc.diff_D(cc.ball_average(space, s).as_cochain()), r,
                      budget=space.n ** 2)
    assert rep.exact
    return rep["value"]


def golden_space(name):
    golden = json.loads((Path(__file__).parent / "data"
                         / "golden_separation.json").read_text())
    entry = golden["instances"][name]
    return cc.generate_family(entry["kind"], entry["params"],
                              seed=entry["seed"]), golden["schedule"]


def test_profile_is_the_d_reading_of_the_ball_family():
    # nu(S, R) is the Reiter seminorm ||D f_S||_R, and each cell is the
    # correctly rounded float of its exact rational. The D-reading adds the
    # |f(x1) - f(x0)| of the union in point order instead: it has at most
    # m = 2 * (largest ball) nonnegative terms, so it misses the exact value
    # by at most (m - 1) u of it, and nu by at most 2 (m - 1) u. On torus12
    # it is 1 ulp off at S = 2.
    for name in ("torus12", "rr128"):
        space, schedule = golden_space(name)
        for s, nu in zip(schedule, profile_values(space, schedule)):
            exact, _ = frac_ball_nu(space, s, 1.0)
            assert nu == float(exact), (name, s)
            m = 2 * int(space.near(s).sum(axis=1).max())
            assert abs(d_reading(space, s, 1.0) - nu) <= (
                2 * (m - 1) * 2.0 ** -53 * nu), (name, s)
    torus12, _ = golden_space("torus12")
    assert d_reading(torus12, 2, 1.0) == 0.7692307692307692
    assert profile_values(torus12, [2]) == [0.7692307692307693]


def test_verdict_thresholds():
    assert cc.diagnose([1.0, 0.5], 1.0).verdict == "decaying"  # boundary in
    assert cc.diagnose([1.0, 0.9, 0.85], 1.0).verdict == "stalled"
    assert cc.diagnose([1.0, 2.0, 4.0, 8.0], 1.0).verdict == "growing"
    assert cc.diagnose([1.0, 1e-15], 1.0).verdict == "decaying"  # zero floor
    with pytest.raises(ValueError):
        cc.diagnose([1.0], 1.0)


def test_verdict_scale_invariance():
    # scaling all values by a positive constant never changes the verdict
    base = [1.0, 0.6, 0.3, 0.2]
    want = cc.diagnose(base, 1.0).verdict
    for lam in (0.05, 0.5, 3.0, 40.0):
        assert cc.diagnose([lam * v for v in base], 1.0).verdict == want


def test_fit_log_rate():
    # exact power law n^-2 fits slope -2
    axis = [1, 2, 3, 4]
    values = [float(n) ** -2 for n in axis]
    assert abs(cc.fit_log_rate(axis, values) + 2.0) <= 1e-12
    assert cc.fit_log_rate([1, 2], [0.0, 0.0]) is None
    assert cc.fit_log_rate([3, 3], [1.0, 2.0]) is None  # no axis spread


@pytest.mark.parametrize("space", [CYCLE16, cc.generate_family("path", {"size": 8})])
def test_counterexample_certificate(space):
    out = cc.counterexample_s_not_invariant(space)
    assert out["passed"]
    assert out["d_flat_max_violation"] == 0.0
    assert abs(out["split_defect_seminorm"] - 2.0) <= 1e-12
    assert out["r_used"] == 1.0
    xs, ys = out["witness"]
    assert space.d(xs[0], xs[1]) <= 1.0 and xs[0] != xs[1]


def test_diagnostic_records_its_inputs():
    thresholds = cc.DecayThresholds(zero_tol=1e-3)
    got = cc.diagnose([1.0, 0.5, 1e-3, 0.0], 1.0,
                      thresholds=thresholds).to_json()
    assert got["thresholds"] == {"decay_ratio": 0.5, "decay_rate": -0.5,
                                 "growth_rate": 0.25, "zero_tol": 1e-3}
    # the two values at or below zero_tol are the ones the fit skipped
    assert got["dropped"] == 2
    assert got["fitted_rate"] == cc.fit_log_rate([1, 2], [1.0, 0.5])
    assert cc.diagnose([1.0, 0.5], 1.0).to_json()["dropped"] == 0


@pytest.mark.parametrize("axis, token", [([0, 1, 2], "0"),
                                          ([1.0, -2.0, 3.0], "-2.0"),
                                          ([1.0, float("nan")], "nan")])
def test_diagnose_names_a_scale_that_is_not_positive(axis, token):
    # log(S) needs S > 0: with a zero scale the fit used to fail with a
    # bare "math domain error" after the whole profile had run
    values = [0.5] * len(axis)
    with pytest.raises(ValueError,
                       match=f"^decay diagnostics need scales > 0, got "
                             f"{token}$"):
        cc.diagnose(values, 1.0, axis=axis)


def test_counterexample_needs_two_points():
    single = cc.FiniteMetricSpace([[0]], integer_metric=True)
    with pytest.raises(ValueError):
        cc.counterexample_s_not_invariant(single)
