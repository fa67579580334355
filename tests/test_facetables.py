"""The face-table audits against the per-point scans of tests/helpers.py.

Every audit of the package evaluates its cochains as face tables
(coarsecohom.facetables). The references in tests/helpers.py scan the same
points one at a time through the Pointwise walker, which reads each
cochain's terms at one face. Reports must agree exactly: values, bounds
and witnesses, as dicts and as JSON text.
"""

import json
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coarsecohom as cc
from coarsecohom import L1, L1_ZERO, MODULES, SCALAR, facetables
from coarsecohom.coefficients import PRUNE_TOL, ZERO_SUM_TOL
from helpers import (GAMMA, MASK64, Pointwise, audit_equal_reference,
                     conv_norm_audit_reference, dicts_csr,
                     homotopy_defect_reference, lanes_hash, leaf_reference,
                     norm_audit_reference, one_value, ref_balls,
                     rule_cochain, seminorm_reference, spaces, splitmix64_mix,
                     table_dicts, tf_identity_reference)


@contextmanager
def patched(name, value):
    saved = getattr(facetables, name)
    setattr(facetables, name, value)
    try:
        yield
    finally:
        setattr(facetables, name, saved)


def chunk_bytes(size):
    return patched("_TABLE_CHUNK_BYTES", size)


def outcome(run):
    """The report of run() as (dict, JSON text), or its error."""
    try:
        rep = run()
    except (AssertionError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    payload = rep.to_json()
    return payload, json.dumps(payload)


def assert_same(got, want):
    assert outcome(got) == outcome(want)


# 8 bytes put one point (or face) in each chunk; 2048 a few; 2**40 all
_CHUNKS = st.sampled_from([8, 2048, 1 << 40])
_AUDIT = st.fixed_dictionaries({"budget": st.sampled_from([40, 300]),
                                "sample_size": st.sampled_from([25, 60]),
                                "seed": st.integers(0, 3)})


@settings(deadline=None, max_examples=40)
@given(spaces(), st.integers(0, 1), st.integers(-1, 1),
       st.sampled_from(MODULES), st.sampled_from([0.0, 1.0, 2.0]),
       st.integers(0, 10 ** 6), _AUDIT, _CHUNKS)
def test_identity_and_norm_audits_match_closure_scans(space, p, q, module, r,
                                                      seed, kw, chunk):
    phi = cc.random_cochain(space, p, q, module, seed)
    anti = cc.cochain_add(cc.diff_D(cc.diff_d(phi)),
                          cc.diff_d(cc.diff_D(phi)))
    if q >= 0:
        split = cc.cochain_add(cc.diff_d(cc.split_s(phi)),
                               cc.split_s(cc.diff_d(phi)))
    else:
        split = cc.split_s(cc.diff_d(phi))
    scaled = cc.cochain_scale(phi, -0.37)
    # one walker for every reference, so that each leaf value is read once
    value = Pointwise()
    with chunk_bytes(chunk):
        for name, lhs, rhs in (("DD=0", cc.diff_D(cc.diff_D(phi)), None),
                               ("dd=0", cc.diff_d(cc.diff_d(phi)), None),
                               ("Dd+dD=0", anti, None),
                               ("split", split, phi),
                               ("scale", scaled, cc.cochain_sub(phi, phi))):
            assert_same(lambda: cc.audit_equal(name, lhs, rhs, r, **kw),
                        lambda: audit_equal_reference(name, lhs, rhs, r,
                                                      value=value, **kw))
        kinds = [("D", cc.diff_D_norm_audit), ("d", cc.diff_d_norm_audit)]
        if q >= 0:
            kinds.append(("s", cc.split_s_norm_audit))
        for kind, audit in kinds:
            assert_same(lambda: audit(phi, r, **kw),
                        lambda: norm_audit_reference(kind, phi, r,
                                                     value=value, **kw))
        for c in (phi, cc.diff_D(phi), anti):
            assert_same(lambda: cc.seminorm(c, r, **kw),
                        lambda: seminorm_reference(c, r, value=value, **kw))
        # the same values from a closure called once per face
        bare = rule_cochain(space, p, q, module,
                            lambda xs, ys: value(phi, xs, ys))
        for wrap in (cc.diff_D, cc.diff_d):
            assert_same(lambda: cc.seminorm(wrap(bare), r, **kw),
                        lambda: cc.seminorm(wrap(phi), r, **kw))


@settings(deadline=None, max_examples=40)
@given(spaces(), st.integers(-1, 1), st.sampled_from(MODULES),
       st.sampled_from([0.0, 1.0, 2.0]), st.integers(0, 10 ** 6), _AUDIT,
       _CHUNKS, st.integers(0, 1), st.sampled_from([L1, L1_ZERO]))
def test_averaging_audits_match_closure_scans(space, q, module, r, seed, kw,
                                              chunk, fp, fmodule):
    theta = cc.random_cochain(space, 0, q, module, seed)
    f = cc.random_cochain(space, fp, -1, fmodule, seed + 1)
    conv = cc.convolve(f, theta)
    d_right = cc.convolve(f, cc.diff_d(theta))
    if fp % 2 == 1:
        d_right = cc.cochain_scale(d_right, -1.0)
    delta = cc.dirac_family(space).as_cochain()
    prob = cc.random_prob_family(space, 1.0 + seed % 2, seed)
    xind = cc.random_x_independent_cochain(space, q, module, seed)
    fams = [cc.ball_average(space, 1.0), prob, cc.dirac_family(space)]
    field = cc.random_pair_field(space, 1.0 + seed % 2, seed,
                                 lift_style=seed % 3 == 0)
    value = Pointwise()
    with chunk_bytes(chunk):
        for name, lhs, rhs in (
                ("delta", cc.convolve(delta, theta), theta),
                ("D(f*theta)", cc.diff_D(conv), cc.convolve(cc.diff_D(f),
                                                            theta)),
                ("d(f*theta)", cc.diff_d(conv), d_right),
                ("prob*xind", cc.convolve(prob.as_cochain(), xind), xind)):
            assert_same(lambda: cc.audit_equal(name, lhs, rhs, r, **kw),
                        lambda: audit_equal_reference(name, lhs, rhs, r,
                                                      value=value, **kw))
        for left in (f, cc.diff_D(f)):
            assert_same(lambda: cc.conv_norm_audit(left, theta, r, **kw),
                        lambda: conv_norm_audit_reference(
                            left, theta, r, value=value, **kw))
        for fam in fams:
            assert_same(lambda: cc.homotopy_defect(fam, theta, **kw)[1],
                        lambda: homotopy_defect_reference(
                            fam, theta, value=value, **kw))
        assert_same(lambda: cc.tf_identity(field, theta, **kw),
                    lambda: tf_identity_reference(field, theta, value=value,
                                                  **kw))


@pytest.mark.parametrize("chunk", [8, 1 << 40])
def test_johnson_ties_keep_the_first_witness(chunk):
    # ||j01|| is 2 wherever y0 != y1: every chunk ties, and only the first
    # point attaining 2 may be the witness
    space = cc.generate_family("cycle", {"size": 8})
    j01, j10, hom = cc.johnson_cocycles(space)
    kw = {"budget": 4000, "sample_size": 100, "seed": 1}
    with chunk_bytes(chunk):
        rep = cc.seminorm(j01, 2.0, **kw)
        assert_same(lambda: rep, lambda: seminorm_reference(j01, 2.0, **kw))
        assert rep["value"] == 2.0 and rep.witness == ((0,), (0, 1))
        for got in cc.johnson_relations(j01, j10, hom, 2.0, tol=1e-12, **kw):
            lhs = {"D(j01)=0": cc.diff_D(j01), "d(j01)=0": cc.diff_d(j01),
                   "D(hom)=-j10": cc.diff_D(hom),
                   "d(hom)=j01": cc.diff_d(hom)}[got.check]
            rhs = {"D(hom)=-j10": cc.cochain_scale(j10, -1.0),
                   "d(hom)=j01": j01}.get(got.check)
            assert_same(lambda: got, lambda: audit_equal_reference(
                got.check, lhs, rhs, 2.0, tol=1e-12, **kw))


@pytest.mark.parametrize("p, q, check", [(1, -1, "DD=0"), (0, 1, "dd=0")])
def test_scalar_roundoff_is_reported_not_pruned(p, q, check):
    # scalar values are never pruned, so DD=0 and dd=0 report the float
    # residue of the closures: 2.2e-16 and 4.4e-16, both below PRUNE_TOL
    space = cc.generate_family("cycle", {"size": 6})
    phi = cc.random_cochain(space, p, q, SCALAR, 0)
    twice = (cc.diff_D(cc.diff_D(phi)) if check == "DD=0"
             else cc.diff_d(cc.diff_d(phi)))
    kw = {"budget": 500, "sample_size": 80, "seed": 0}
    got = cc.audit_zero(check, twice, 1.0, **kw)
    want = audit_equal_reference(check, twice, None, 1.0, **kw)
    assert got["max_violation"] == want["max_violation"]
    assert 0.0 < got["max_violation"] < 1e-15
    assert got.witness == want.witness


def _bad_zero_sum(space, checked):
    """A user-written (0, 0) l1_0 rule whose values sum to 1 at (x, (x,)):
    its fill checks them (and raises) or keeps them as they come."""
    def rule(xs, ys):
        return {xs[0]: 1.0, ys[0]: -1.0} if xs[0] != ys[0] else {xs[0]: 1.0}
    return rule_cochain(space, 0, 0, L1_ZERO, rule, name="bad",
                        checked=checked)


@pytest.mark.parametrize("checked", [True, False])
def test_zero_sum_violation_raises_the_closure_error(checked):
    space = cc.generate_family("cycle", {"size": 5})
    bad = _bad_zero_sum(space, checked)
    lhs = cc.diff_D(bad)
    kw = {"budget": 4000, "sample_size": 50, "seed": 0}
    with pytest.raises(ValueError) as want:
        audit_equal_reference("D", lhs, None, 1.0, **kw)
    with pytest.raises(ValueError) as got:
        cc.audit_zero("D", lhs, 1.0, **kw)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("l1_0 entries must sum to 0, got ")


def test_distinct_groups_faces_in_code_order():
    # faces over few points are coded as one int64 each; over many points
    # (n ** k past 2**62) they are compared row by row; both give the same
    # groups. Which face of a group is its representative is unspecified.
    rng = np.random.default_rng(5)
    for k in (1, 2, 4):
        faces = rng.integers(0, 4, size=(300, k))
        first, inverse = facetables.distinct(faces, 4)
        groups = faces[first]
        assert np.array_equal(groups[inverse], faces)
        codes = groups @ 4 ** np.arange(k)[::-1]
        assert (np.diff(codes) > 0).all()       # distinct, ascending
        wide_first, wide_inverse = facetables.distinct(faces, 2 ** 62)
        assert np.array_equal(faces[wide_first], groups)
        assert np.array_equal(wide_inverse, inverse)
    empty = facetables.distinct(np.zeros((0, 3), dtype=np.int64), 4)
    assert [len(a) for a in empty] == [0, 0]


def test_rule_tables_follow_the_faces_order():
    # a cochain whose value at (xs, ys) is CSR row xs[0] gives its rows
    # back in the order of the faces asked, a repeated face too
    space = cc.generate_family("cycle", {"size": 8})
    rows = [{x: 1.0 + x, (x + 2) % 8: -0.5} for x in range(8)]
    phi = cc.Cochain(space, 0, 0, L1,
                     facetables.rows_fill(L1, 8, *dicts_csr(rows)))
    faces = np.array([[3, 1], [1, 2], [0, 5], [3, 1]])
    want = [dict(sorted(rows[x].items())) for x in (3, 1, 0, 3)]
    for part in (faces, faces[:3]):
        assert table_dicts(facetables.evaluate(phi, part)) == want[:len(part)]


def test_scatter_adds_in_the_order_given_then_finishes():
    # three terms into one cell: the running sum rounds 1e16 + 1.0 back to
    # 1e16, so only the order given decides whether the 1.0 survives
    for terms, want in (([1e16, 1.0, -1e16], 0.0), ([1e16, -1e16, 1.0], 1.0)):
        tab = facetables.scatter(SCALAR, 4, 2, np.zeros(3, dtype=np.int64),
                                 0, np.array(terms))
        assert table_dicts(tab) == [{"scalar": want}, {"scalar": 0.0}]
    # l1 entries below PRUNE_TOL are dropped
    tab = facetables.scatter(L1, 4, 2, np.array([0, 0, 1, 0]),
                             np.array([1, 2, 3, 1]),
                             np.array([0.5, PRUNE_TOL / 2, -0.25, 0.25]))
    assert table_dicts(tab) == [{1: 0.75}, {3: -0.25}]
    # and an l1_0 value that does not sum to zero raises the error every
    # value raises
    with pytest.raises(ValueError) as want:
        facetables.csr_add(L1_ZERO, 1, [0, 0], [0, 1], [1.0, -0.5], 4)
    with pytest.raises(ValueError) as got:
        facetables.scatter(L1_ZERO, 4, 1, 0, np.array([0, 1]),
                           np.array([1.0, -0.5]))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("module", MODULES)
def test_value_at_reads_back_the_rule_value(module):
    # one value is the table on a one-row face array: it gives the rule's
    # values back, entries, their order and the scalar, also at a
    # repeated face, and equals that row of the table on all the faces
    space = cc.generate_family("cycle", {"size": 8})

    def rule(xs, ys):
        x, y = xs[0], ys[0]
        if module == SCALAR:
            return {"scalar": 0.5 * x - y}
        w = 1.0 + 0.25 * x
        return dict(sorted({y: w, x: -w}.items())) if x != y else {}

    bare = rule_cochain(space, 0, 0, module, rule)
    faces = np.array([[3, 1], [1, 2], [0, 5], [4, 4], [3, 1]])
    whole = table_dicts(facetables.evaluate(bare, faces))
    for i, (x, y) in enumerate(faces.tolist()):
        got = one_value(bare, (x,), (y,))
        assert list(got.items()) == list(rule((x,), (y,)).items())
        assert list(whole[i].items()) == list(got.items())


def _ordered_norms(vals):
    """The l1 norm of each row added from left to right."""
    return np.cumsum(np.abs(vals), axis=1)[:, -1]


def _near_ties(rng, m, width):
    """Rows that each hold the same entries in another order, so that
    their sums differ only in the last bits."""
    entries = rng.random(width) * 10.0 ** rng.integers(-3, 3, size=width)
    return np.array([rng.permutation(entries) for _ in range(m)])


def _sparse(rng, m, width):
    scale = 10.0 ** rng.integers(-4, 4, size=(m, 1))
    vals = rng.normal(size=(m, width)) * scale
    vals[rng.random((m, width)) < 0.85] = 0.0
    return vals


def _with_nonfinite(rng, m, width):
    vals = _sparse(rng, m, width)
    vals[3, 5] = np.inf
    vals[7, 2] = np.nan
    return vals


@pytest.mark.parametrize("make", [
    _sparse,
    lambda rng, m, width: np.tile(rng.random(width), (m, 1)),
    _near_ties,
    lambda rng, m, width: np.zeros((0, width)),
    lambda rng, m, width: np.zeros((m, width)),
    _with_nonfinite,
], ids=["sparse", "all-equal", "near-ties", "empty", "zero", "inf-nan"])
def test_norms_keep_the_ordered_sup_and_its_first_row(make):
    # only the rows near the largest norm are added from left to right, so
    # the sup and the first row attaining it are those of ordered sums
    rng = np.random.default_rng(11)
    for width in (16, 64, 300):
        for _ in range(20):
            vals = make(rng, 200, width)
            want = _ordered_norms(vals)
            got = facetables.norms(facetables.Table(L1, vals.copy()))
            assert got.shape == want.shape
            if not len(want):
                continue
            assert np.array_equal(got.max(), want.max(), equal_nan=True)
            assert np.argmax(got) == np.argmax(want)
            assert facetables.sup_of(got, 0.5) == facetables.sup_of(want, 0.5)


def test_near_ties_do_differ_between_orders():
    # the near-tie case above is only a test if some fast sum (any order)
    # differs from the ordered one
    vals = _near_ties(np.random.default_rng(11), 200, 64)
    fast = np.abs(vals) @ np.ones(64)
    assert (fast != _ordered_norms(vals)).any()
    assert len(np.unique(_ordered_norms(vals))) > 1


def _straddling_rows(width=64, tries=2000):
    """Rows of l1_0-like entries of size about 1 whose ordered sum and
    matvec sum fall on opposite sides of ZERO_SUM_TOL: (ordered above,
    ordered at or below), one row each."""
    rng = np.random.default_rng(3)
    vals = rng.uniform(-1.0, 1.0, size=(tries, width))
    prefix = np.cumsum(vals[:, :-1], axis=1)[:, -1]
    # the last entry brings the ordered sum within a few ulps of the bound
    vals[:, -1] = ZERO_SUM_TOL - prefix
    vals[:, -1] += rng.integers(-40, 40, size=tries) * 2.0 ** -53
    ordered = np.cumsum(vals, axis=1)[:, -1]
    fast = vals @ np.ones(width)
    above = np.flatnonzero((ordered > ZERO_SUM_TOL) & (fast <= ZERO_SUM_TOL))
    below = np.flatnonzero((ordered <= ZERO_SUM_TOL) & (fast > ZERO_SUM_TOL))
    assert len(above) and len(below)
    return (vals[above[0]], ordered[above[0]].item()), vals[below[0]]


def test_zero_sum_check_judges_by_the_ordered_sum():
    (bad, total), good = _straddling_rows()
    with pytest.raises(ValueError) as err:
        facetables.finish(L1_ZERO, bad[None].copy())
    assert str(err.value) == f"l1_0 entries must sum to 0, got {total!r}"
    facetables.finish(L1_ZERO, good[None].copy())
    # large entries whose ordered sum is exactly zero pass as well, though
    # sums in other orders may miss zero by more than the bound
    rng = np.random.default_rng(4)
    big = rng.normal(size=(50, 64)) * 1e6
    big[:, -1] = -np.cumsum(big[:, :-1], axis=1)[:, -1]
    assert not np.cumsum(big, axis=1)[:, -1].any()
    facetables.finish(L1_ZERO, big)


@pytest.mark.parametrize("kind, params", [("cycle", {"size": 512}),
                                          ("torus", {"dim": 2, "size": 16})])
def test_wide_zero_sum_defects_match_closure_scans(kind, params):
    # with n in the hundreds the plain row sum leaves some l1_0 values of
    # D theta in doubt; those are added again from left to right
    space = cc.generate_family(kind, params)
    fam = cc.ball_average(space, 2.0)
    kw = {"budget": 4000, "sample_size": 300, "seed": 1}
    signed = []
    plain = facetables.row_sums

    def counted(terms):
        # norms pass |v|; only the zero-sum check passes signed entries
        signed.append(bool((terms < 0).any()))
        return plain(terms)

    with patched("row_sums", counted):
        for q in (0, 1):
            theta = cc.random_cochain(space, 0, q, L1_ZERO, 3)
            assert_same(lambda: cc.homotopy_defect(fam, theta, **kw)[1],
                        lambda: homotopy_defect_reference(fam, theta, **kw))
    assert True in signed


def test_empty_samples_match_closure_scans():
    # sample_size 0 on an over-budget domain leaves no points to audit
    space = cc.generate_family("cycle", {"size": 8})
    kw = {"budget": 10, "sample_size": 0, "seed": 0}
    theta = cc.random_cochain(space, 0, 1, L1_ZERO, 5)
    f = cc.random_cochain(space, 0, -1, L1, 6)
    fam = cc.ball_average(space, 1.0)
    field = cc.random_pair_field(space, 1.0, 7)
    twice = cc.diff_D(cc.diff_D(theta))
    points, exact = cc.audit_points(space, 3, 2, 2.0, **kw)
    assert points.shape == (0, 5) and not exact
    assert_same(lambda: cc.audit_zero("DD=0", twice, 2.0, **kw),
                lambda: audit_equal_reference("DD=0", twice, None, 2.0,
                                              **kw))
    assert_same(lambda: cc.seminorm(twice, 2.0, **kw),
                lambda: seminorm_reference(twice, 2.0, **kw))
    assert_same(lambda: cc.diff_D_norm_audit(theta, 2.0, **kw),
                lambda: norm_audit_reference("D", theta, 2.0, **kw))
    assert_same(lambda: cc.conv_norm_audit(f, theta, 2.0, **kw),
                lambda: conv_norm_audit_reference(f, theta, 2.0, **kw))
    assert_same(lambda: cc.homotopy_defect(fam, theta, **kw)[1],
                lambda: homotopy_defect_reference(fam, theta, **kw))
    assert_same(lambda: cc.tf_identity(field, theta, **kw),
                lambda: tf_identity_reference(field, theta, **kw))


# -- leaf fills, ragged sums and operand sorts --------------------------------

_LEAF_SPACES = (("cycle", {"size": 5}), ("free_ball", {"rank": 2, "radius": 1}))


def _dense_image(cochain, faces, value):
    """The table of the plain dicts value(xs, ys) on faces, one call per
    face, holding each entry and scalar exactly as value gives it, a -0.0
    too."""
    width = 1 if cochain.module == SCALAR else cochain.space.n
    dense = np.zeros((len(faces), width))
    xlen = cochain.p + 1
    for i, row in enumerate(faces.tolist()):
        for k, w in value(tuple(row[:xlen]), tuple(row[xlen:])).items():
            dense[i, 0 if k == "scalar" else k] = w
    return dense


def _leaf_cases(space, rng):
    """(cochain, faces, reference) for both leaf kinds over every
    (p, q, module), spread 1 and 2, and 1, 3 or 4 terms, where
    reference(xs, ys) is leaf_reference's (value, points per term) there.
    The faces repeat some rows."""
    n = space.n
    for p, q, module, spread, terms in product((0, 1), (-1, 0, 1), MODULES,
                                               (1, 2), (1, 3, 4)):
        faces = rng.integers(0, n, size=(160, p + q + 2))
        faces = np.concatenate((faces, faces[:20]))
        balls = ref_balls(space, spread)
        base = cc.derive_seed(7, "random-cochain", p, q, module, spread,
                              terms)

        def reference(xs, ys, base=base):
            # lanes (*xs, *ys), anchored at coords[h % len(coords)]
            coords = xs + ys
            return leaf_reference(module, balls, base, coords, terms,
                                  lambda h, t: coords[h % len(coords)])

        yield (cc.random_cochain(space, p, q, module, 7, spread, terms),
               faces, reference)
        if p == 0:
            base = cc.derive_seed(7, "x-indep-cochain", q, module, spread,
                                  terms)

            def reference(xs, ys, base=base):
                # lanes (*ys), anchored at ys[t % len(ys)], or at
                # (h >> 5) % n when ys is empty
                return leaf_reference(
                    module, balls, base, ys, terms,
                    lambda h, t: ys[t % len(ys)] if ys else (h >> 5) % n)

            yield (cc.random_x_independent_cochain(space, q, module, 7,
                                                   spread, terms),
                   faces, reference)


@pytest.mark.parametrize("kind, params", _LEAF_SPACES)
def test_leaf_fills_equal_the_rule_bit_for_bit(kind, params):
    # one fill adds every term of every face at once, and one value is the
    # fill on one face; both must equal the term-by-term reference on
    # Python ints, also where two terms share a cell or, for l1_0, where a
    # term's u is its anchor c
    space = cc.generate_family(kind, params)
    shared = same_anchor = 0
    for phi, faces, reference in _leaf_cases(space,
                                             np.random.default_rng(12)):
        want = _dense_image(phi, faces, lambda xs, ys: reference(xs, ys)[0])
        got = phi.fill(faces).vals
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), phi.name
        # one value runs the fill on its one face, at numpy's per-call
        # cost, so it is checked on the first rows only
        head = faces[:24]
        assert (_dense_image(phi, head, lambda xs, ys: one_value(
            phi, xs, ys)).tobytes() == want[:24].tobytes()), phi.name
        if phi.module == SCALAR:
            continue
        # the points each term writes, to show that the faces hold the
        # cases above
        xlen = phi.p + 1
        for row in faces.tolist():
            cells = reference(tuple(row[:xlen]), tuple(row[xlen:]))[1]
            same_anchor += sum(len(set(cell)) == 1 < len(cell)
                               for cell in cells)
            shared += any(set(a) & set(b) for i, a in enumerate(cells)
                          for b in cells[i + 1:])
    assert shared and same_anchor


def _rule_image(cochain, faces, value):
    """The table of the pointwise reference value of cochain on faces, one
    walk per face."""
    return _dense_image(cochain, faces,
                        lambda xs, ys: value(cochain, xs, ys))


def _combinations(space, p, q, module):
    """(name, cochain) for each linear operator on random (p, q)-cochains
    of the module: D, d, s (q >= 0), sums, differences and scalings; the
    convolution of a (0, q)-cochain with an l1 (p, -1)-cochain, and with a
    family that has an empty row (p = 0); the transfer of a (1, q)-cochain
    along a pair field with an empty value (p = 1)."""
    phi = cc.random_cochain(space, p, q, module, 3)
    psi = cc.random_cochain(space, p, q, module, 4)
    theta = cc.random_cochain(space, 0, q, module, 5)
    yield "convolve", cc.convolve(cc.random_cochain(space, p, -1, L1, 6),
                                  theta)
    if p == 0:
        rows = [{}] + [dict(sorted({x: 0.75, (x + 1) % space.n: -0.5}.items()))
                       for x in range(1, space.n)]
        gappy = cc.ReiterFamily(space, 1.0, *dicts_csr(rows), is_prob=False)
        yield "convolve-empty-row", cc.convolve(gappy.as_cochain(), theta)
    if p == 1:
        indptr, pairs, weights = cc.random_pair_field(space, 1.0, 7)
        # the row of point 2 emptied
        keep = np.r_[0:indptr[2], indptr[3]:len(weights)]
        indptr = indptr - np.clip(indptr - indptr[2], 0, indptr[3] - indptr[2])
        yield "transfer", cc.transfer_cochain(
            (indptr, pairs[keep], weights[keep]), phi)
    yield "D", cc.diff_D(phi)
    yield "d", cc.diff_d(phi)
    if q >= 0:
        yield "s", cc.split_s(phi)
    yield "add", cc.cochain_add(phi, psi)
    yield "sub", cc.cochain_sub(phi, psi)
    yield "sub-self", cc.cochain_sub(phi, phi)
    yield "scale", cc.cochain_scale(phi, -0.37)
    yield "scale-one", cc.cochain_scale(phi, 1.0)


@pytest.mark.parametrize("module", MODULES)
def test_combination_fills_equal_the_rule_bit_for_bit(module):
    # each linear operator keeps the terms its fill sums; the table must
    # hold the values the pointwise walk of those terms adds, byte for
    # byte, zeros' signs included, also on repeated faces
    space = cc.generate_family("cycle", {"size": 5})
    rng = np.random.default_rng(19)
    for p, q in product((0, 1, 2), (-1, 0, 1, 2)):
        # one walker for the combinations of the same leaves
        value = Pointwise()
        for name, c in _combinations(space, p, q, module):
            faces = rng.integers(0, space.n, size=(60, c.p + c.q + 2))
            faces = np.concatenate((faces, faces[:20]))
            got = c.fill(faces).vals
            assert got.tobytes() == _rule_image(c, faces, value).tobytes(), (
                name, p, q)


def test_leaf_mixer_known_answers():
    # splitmix64's first outputs from state 0 and from state 1234567
    # (output k is mix(state + k * GAMMA)); a changed constant or shift
    # in either mixer fails here
    from coarsecohom.randomgen import _leaf_hashes, _mix
    want = {0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
                0xF88BB8A8724C81EC],
            1234567: [6457827717110365317, 3203168211198807973,
                      9817491932198370423, 4593380528125082431]}
    for state, outputs in want.items():
        z = [(state + k * GAMMA) & MASK64 for k in range(1, 5)]
        assert [splitmix64_mix(v) for v in z] == outputs
        assert _mix(np.array(z, dtype=np.uint64)).tolist() == outputs
    # a leaf of base 0 and no lanes hashes only t: term 0 is output 1
    assert _leaf_hashes(0, np.zeros((1, 0), dtype=np.int64),
                        1).tolist() == [[want[0][0]]]
    rows = np.array([[0, 5, 2 ** 40], [7, 7, 1]])
    got = _leaf_hashes(MASK64, rows, 3)
    assert got.dtype == np.uint64 and got.shape == (3, 2)
    assert got.T.tolist() == [[lanes_hash(MASK64, (*row, t))
                               for t in range(3)] for row in rows.tolist()]


def _linear_reference(module, terms):
    """Each face's terms added in order, row by row, then pruned: a term
    (child, faces, coef) adds coef times row i at face i, and a ragged term
    (child, faces, coefs, lengths) adds the next lengths[i] rows, each
    times its coef."""
    m = len(terms[0][3] if len(terms[0]) == 4 else terms[0][1])
    out = None
    for term in terms:
        dense = term[0].fill(term[1]).vals
        if out is None:
            out = np.zeros((m, dense.shape[1]))
        if len(term) == 3:
            for i in range(m):
                out[i] += term[2] * dense[i]
            continue
        at = 0
        for i, length in enumerate(term[3].tolist()):
            for t in range(at, at + length):
                out[i] += term[2][t] * dense[t]
            at += length
    if module != SCALAR:
        out[np.abs(out) < PRUNE_TOL] = 0.0
    return out


@pytest.mark.parametrize("module", MODULES)
def test_weighted_and_linear_do_not_depend_on_chunks(module):
    # uneven term counts, zero-length faces at both ends and a run of them
    # in the middle: the short faces add 0.0 times row 0, which changes no
    # value; ragged terms alone, fixed terms alone, and both kinds of terms
    # of one shared operand in one call
    space = cc.generate_family("cycle", {"size": 7})
    child = cc.random_cochain(space, 0, 1, module, 4)
    other = cc.random_cochain(space, 0, 1, module, 5)
    rng = np.random.default_rng(3)
    lengths = rng.integers(0, 6, size=48)
    lengths[[0, 1, -1]] = 0
    lengths[20:26] = 0
    faces = rng.integers(0, 7, size=(int(lengths.sum()), 3))
    weights = rng.uniform(-1.0, 1.0, size=len(faces))
    m = 60
    picks = [rng.integers(0, len(faces), size=m) for _ in range(3)]
    terms = [(child, faces[picks[0]], 1.0), (other, faces[picks[1]], -0.5),
             (child, faces[picks[2]], -1.0)]
    ragged = [(child, faces, weights, lengths)]
    mixed = [(child, faces[picks[0][:48]], 1.0),
             (child, faces, weights, lengths),
             (other, faces[picks[1][:48]], -0.5),
             (child, faces[::-1], -weights, lengths)]
    tables = {}
    for chunk in (8, 1 << 40):
        with chunk_bytes(chunk):
            tables[chunk] = [facetables.linear(module, 7, t).vals
                             for t in (ragged, terms, mixed)]
    for got in tables.values():
        assert got[0].tobytes() == _linear_reference(module,
                                                     ragged).tobytes()
        assert got[1].tobytes() == tables[1 << 40][1].tobytes()
        assert got[2].tobytes() == _linear_reference(module, mixed).tobytes()
    # linear against its terms added in order
    dense = [c.fill(f).vals * coef for c, f, coef in terms]
    want = np.zeros_like(dense[0]) + dense[0] + dense[1] + dense[2]
    if module != SCALAR:
        want[np.abs(want) < PRUNE_TOL] = 0.0
    assert tables[8][1].tobytes() == want.tobytes()


def test_each_operand_is_sorted_once_however_many_pieces():
    # an 8-byte chunk puts one face in each piece; the pieces take their
    # faces from the one sort of the whole operand
    space = cc.generate_family("cycle", {"size": 9})
    phi = cc.random_cochain(space, 0, 1, L1_ZERO, 2)
    psi = cc.random_cochain(space, 0, 1, L1_ZERO, 3)
    rng = np.random.default_rng(1)
    faces = rng.integers(0, 9, size=(40, 3))
    calls, pieces = [], []
    plain, fill = facetables.distinct, phi.fill

    def counted(faces, n):
        calls.append(len(faces))
        return plain(faces, n)

    def filled(faces):
        pieces.append(len(faces))
        return fill(faces)

    phi.fill = filled
    with patched("distinct", counted), chunk_bytes(8):
        facetables.linear(L1_ZERO, 9, [(phi, faces, 1.0),
                                       (psi, faces[::-1], -1.0),
                                       (phi, faces[:, [1, 0, 2]], 0.5)])
        assert calls == [80, 40] and len(pieces) == 40
        calls.clear(), pieces.clear()
        lengths = np.array([0, 3, 1, 0, 4, 2] * 4)
        terms = int(lengths.sum())
        facetables.linear(L1_ZERO, 9, [(phi, faces[:terms],
                                        np.linspace(-1.0, 1.0, terms),
                                        lengths)])
        assert calls == [terms] and len(pieces) == 16


# -- the free list of table buffers ----------------------------------------------

def fresh_pool():
    return patched("_free", facetables._FreeList())


def test_a_slice_keeps_its_table_buffer_off_the_free_list():
    # numpy collapses a slice's base to the array that owns the memory, so
    # the buffer may come back only when the frombuffer array over it dies
    with fresh_pool():
        pool = facetables._free
        vals = facetables.table_buffer((512, 64))
        part = vals[10:20]
        del vals
        assert pool.buffers == []
        part[:] = 1.0
        other = facetables.table_buffer((512, 64))
        other[:] = 2.0
        assert (part == 1.0).all() and pool.misses == 2
        del part
        assert len(pool.buffers) == 1
        del other
        assert len(pool.buffers) == 2 and pool.nbytes == 2 * 512 * 64 * 8


def test_zeroed_buffers_read_zero_when_they_reuse_a_dirty_one():
    with fresh_pool():
        pool = facetables._free
        dirty = facetables.table_buffer((512, 64))
        dirty.fill(np.nan)
        del dirty
        clean = facetables.table_buffer((500, 64), zero=True)
        assert pool.misses == 1 and pool.buffers == []
        assert (clean == 0.0).all()
        assert clean.shape == (500, 64)


@pytest.mark.parametrize("module", MODULES)
def test_tables_do_not_read_what_dirty_buffers_held(module):
    # every array pooled and every free buffer full of NaN: the tables that
    # rely on zeros (leaf fills, the faces of a ragged term without terms,
    # csr and Dirac tables) must zero what they reuse
    space = cc.generate_family("cycle", {"size": 7})
    child = cc.random_cochain(space, 0, 1, module, 4)
    rng = np.random.default_rng(5)
    lengths = rng.integers(0, 4, size=40)
    lengths[:6] = 0
    lengths[20:30] = 0
    faces = rng.integers(0, 7, size=(int(lengths.sum()), 3))
    weights = rng.uniform(-1.0, 1.0, size=len(faces))
    indptr = np.array([0, 2, 2, 5])
    cols, csr_w = np.array([1, 4, 0, 2, 6]), np.arange(1.0, 6.0)

    def tables():
        return [facetables.linear(module, 7, [(child, faces, weights,
                                                lengths)]).vals,
                facetables.csr_table(L1, 7, indptr, cols, csr_w,
                                     np.arange(3)).vals,
                facetables.dirac_diff_table(7, faces[:, 1], faces[:, 2]).vals]

    with fresh_pool(), patched("_POOL_BYTES", 0):
        want = tables()
    with fresh_pool(), chunk_bytes(64), patched("_POOLED_MIN_BYTES", 8), \
            patched("_POOL_BYTES", 1 << 30):
        facetables._free.buffers.extend(np.full(1 << k, np.nan)
                                        for k in range(3, 12)
                                        for _ in range(20))
        facetables._free.nbytes = sum(
            b.nbytes for b in facetables._free.buffers)
        got = tables()
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_the_free_list_never_exceeds_its_bound():
    with fresh_pool():
        pool = facetables._free
        give, held = pool.give, []

        def counted(buf):
            give(buf)
            held.append((pool.nbytes, sum(b.nbytes for b in pool.buffers)))

        pool.give = counted
        tables = [facetables.table_buffer((512, 64 + k)) for k in range(12)]
        assert 12 * 512 * 64 * 8 > facetables._POOL_BYTES
        del tables
        assert len(held) == 12
        assert all(total == listed <= facetables._POOL_BYTES
                   for total, listed in held)
        sizes = [len(b) for b in pool.buffers]
        assert sizes == sorted(sizes)


def test_a_repeated_audit_takes_no_fresh_buffer():
    # the first audit leaves its dead tables' buffers on the free list, and
    # the same audit again finds a buffer for every table it makes
    space = cc.generate_family("free_ball", {"rank": 2, "radius": 3})
    lhs = cc.diff_D(cc.diff_D(cc.random_cochain(space, 0, 0, L1_ZERO, 3)))
    with fresh_pool():
        pool = facetables._free
        first = cc.audit_zero("DD", lhs, 1.0).to_json()
        assert pool.misses > 0
        misses = pool.misses
        assert cc.audit_zero("DD", lhs, 1.0).to_json() == first
        assert pool.misses == misses
