from fractions import Fraction

import pytest

import coarsecohom as cc

CYCLE64 = cc.generate_family("cycle", {"size": 64})
CYCLE16 = cc.generate_family("cycle", {"size": 16})


def ball_sequence(space, s_values):
    terms = [cc.ball_average(space, s).as_cochain() for s in s_values]
    return cc.CochainSequence(terms, family_axis="S", schedule=list(s_values))


def test_reiter_decay_matches_closed_form():
    # ||D f_S||_1 on the cycle is exactly 2/(2S+1)
    seq = ball_sequence(CYCLE64, [1, 2, 3, 4, 5, 6])
    diags = cc.asymptotic_invariance(seq, [1.0])
    diag = diags[1.0]
    for s, value in zip([1, 2, 3, 4, 5, 6], diag.values):
        assert abs(value - float(Fraction(2, 2 * s + 1))) <= 1e-12
    assert diag.verdict == "decaying"
    assert diag.fitted_rate < -0.5


def test_dirac_family_stalls():
    terms = [cc.dirac_family(CYCLE16).as_cochain() for _ in range(4)]
    seq = cc.CochainSequence(terms)
    diag = cc.asymptotic_invariance(seq, [1.0])[1.0]
    assert diag.values == [2.0, 2.0, 2.0, 2.0]
    assert diag.verdict == "stalled"


def test_constant_family_is_flat():
    # S >= diameter makes every f(x) equal, so D f = 0 identically
    seq = ball_sequence(CYCLE16, [8, 9, 10])
    diag = cc.asymptotic_invariance(seq, [1.0])[1.0]
    assert diag.values == [0.0, 0.0, 0.0]
    assert diag.verdict == "decaying"


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


def test_sequence_validation():
    a = cc.random_cochain(CYCLE16, 0, 0, cc.L1, seed=1)
    b = cc.random_cochain(CYCLE16, 0, 1, cc.L1, seed=1)
    with pytest.raises(ValueError, match="bidegree"):
        cc.CochainSequence([a, b])
    with pytest.raises(ValueError, match="schedule length"):
        cc.CochainSequence([a, a], schedule=[1])
    with pytest.raises(ValueError, match="at least one"):
        cc.CochainSequence([])
    with pytest.raises(ValueError, match="at least two"):
        cc.asymptotic_invariance(cc.CochainSequence([a]), [1.0])


@pytest.mark.parametrize("space", [CYCLE16, cc.generate_family("path", {"size": 8})])
def test_counterexample_certificate(space):
    out = cc.counterexample_s_not_invariant(space)
    assert out["passed"]
    assert out["d_flat_max_violation"] == 0.0
    assert abs(out["split_defect_seminorm"] - 2.0) <= 1e-12
    assert out["r_used"] == 1.0
    xs, ys = out["witness"]
    assert space.d(xs[0], xs[1]) <= 1.0 and xs[0] != xs[1]


def test_counterexample_needs_two_points():
    single = cc.FiniteMetricSpace([[0]], integer_metric=True)
    with pytest.raises(ValueError):
        cc.counterexample_s_not_invariant(single)
