import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import coarsecohom as cc
from coarsecohom import averaging, cochains, facetables, space
from coarsecohom.cli import main


def test_gen_cycle_summary(capsys):
    assert main(["gen", "--family", "cycle", "--size", "64"]) == 0
    out = capsys.readouterr().out
    assert "kind=cycle n=64 diameter=32.0" in out
    assert "degrees=2/2/2" in out


def _refuse(n, edges):
    raise AssertionError("built the n x n distance matrix")


def _family_argv(kind, params, seed):
    argv = ["--family", kind, "--seed", str(seed)]
    for key, val in params.items():
        argv += [f"--{key}", str(val)]
    return argv


def test_gen_torus_diameter_builds_no_distance_matrix(capsys, monkeypatch):
    # the diameter of a Cayley graph is the farthest point from the identity
    torus = cc.generate_family("torus", {"dim": 2, "size": 48})
    dense = cc.build_graph_metric(torus.meta["edges"], torus.n).dist
    diameter = float(dense.max())
    monkeypatch.setattr(space, "_hop_distances", _refuse)
    assert main(["gen", "--family", "torus", "--size", "48"]) == 0
    out = capsys.readouterr().out
    assert f" diameter={diameter!r} " in out
    assert " diameter=48.0 " in out


@pytest.mark.parametrize("kind, params, seed, diameter", [
    ("random_regular", {"n": 512, "k": 3}, 5, 12.0),
    ("free_ball", {"rank": 2, "radius": 4}, 0, 8.0),
    ("path", {"size": 300}, 0, 299.0),
], ids=["random_regular", "free_ball", "path"])
def test_gen_diameter_builds_no_distance_matrix(kind, params, seed, diameter,
                                                capsys, monkeypatch):
    # the diameter of any graph space is the levels its balls take to fill
    # the graph, and gen prints what it printed from the matrix
    dense = cc.generate_family(kind, params, seed).dist
    monkeypatch.setattr(space, "_hop_distances", _refuse)
    assert main(["gen", *_family_argv(kind, params, seed)]) == 0
    out = capsys.readouterr().out
    assert f" diameter={float(dense.max())!r} " in out
    assert f" diameter={diameter!r} " in out


def test_gen_writes_loadable_space(tmp_path, capsys):
    target = tmp_path / "ball.json"
    rc = main(["gen", "--family", "free_ball", "--rank", "2", "--radius", "2",
               "--out", str(target)])
    assert rc == 0
    assert f"wrote {target}" in capsys.readouterr().out
    sp = cc.FiniteMetricSpace.from_json(json.loads(target.read_text()))
    assert sp.n == 17
    assert sp.label(0) == "e"


def test_gen_infeasible_degree_sequence(capsys):
    rc = main(["gen", "--family", "random_regular", "--n", "7", "--k", "3"])
    assert rc == 2
    assert "error: random_regular infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("argv, error", [
    (["--family", "cycle"], "--family cycle needs --size"),
    (["--family", "path", "--n", "4"], "--family path needs --size"),
    (["--family", "torus", "--dim", "3"], "--family torus needs --size"),
    (["--family", "complete", "--size", "5"], "--family complete needs --n"),
    (["--family", "free_ball", "--rank", "2"],
     "--family free_ball needs --rank and --radius"),
    (["--family", "random_regular", "--k", "3"],
     "--family random_regular needs --n and --k"),
])
def test_each_family_names_its_missing_flags(argv, error, capsys):
    assert main(["gen", *argv]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_family_flags_build_the_library_spaces(capsys):
    # the flags a kind reads, --dim at its default 2 included
    for argv, kind, params in (
            (["--size", "5"], "torus", {"size": 5, "dim": 2}),
            (["--n", "5", "--size", "9"], "complete", {"n": 5}),
            (["--rank", "2", "--radius", "1"], "free_ball",
             {"rank": 2, "radius": 1})):
        assert main(["gen", "--family", kind, *argv]) == 0
        want = cc.generate_family(kind, params).content_hash()[:16]
        assert f"hash={want}" in capsys.readouterr().out


def test_space_source_must_be_unique(tmp_path, capsys):
    assert main(["gen"]) == 2
    assert "exactly one of" in capsys.readouterr().err
    target = tmp_path / "c.json"
    main(["gen", "--family", "cycle", "--size", "4", "--out", str(target)])
    capsys.readouterr()
    rc = main(["gen", "--space", str(target), "--family", "cycle",
               "--size", "4"])
    assert rc == 2
    assert "exactly one of" in capsys.readouterr().err


def test_space_roundtrip_through_file(tmp_path, capsys):
    target = tmp_path / "t.json"
    main(["gen", "--family", "torus", "--size", "4", "--out", str(target)])
    first = capsys.readouterr().out.splitlines()[0]
    assert main(["gen", "--space", str(target)]) == 0
    again = capsys.readouterr().out.splitlines()[0]
    assert first.split("hash=")[1] == again.split("hash=")[1]


@pytest.mark.parametrize("payload, error", [
    ({"dist": [[0, 1], [1, 0]]}, "needs an integer 'n', got None"),
    ({"n": 2}, "needs 'dist' or 'edges'"),
    ([1, 2], "must be an object, got list"),
    ({"n": 2, "edges": [[0, "x"]]}, "'edges' entry 0 is not two integers"),
    ({"n": 3, "dist": [[0, 1], [1, 0]]}, "'dist' has 2 rows, but n is 3"),
], ids=["no-n", "no-metric", "not-an-object", "bad-edge", "n-disagrees"])
def test_malformed_space_file_is_a_usage_error(tmp_path, capsys, payload,
                                              error):
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(payload))
    assert main(["gen", "--space", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: space JSON ") and error in err


@pytest.mark.parametrize("text, error", [
    # a NaN is unequal to itself, so unless finiteness is checked first
    # this symmetric matrix reads as asymmetric
    ('{"n": 3, "dist": [[0, NaN, 1], [NaN, 0, 1], [1, 1, 0]]}',
     "distances must be finite: d(0,1) = nan"),
    ('{"n": 3, "dist": [[0, 1, 1], [1, 2, 1], [1, 1, 0]]}',
     "diagonal distances must be zero: d(1,1) = 2"),
], ids=["nan", "nonzero-diagonal"])
def test_non_metric_space_file_exits_2_naming_the_entry(tmp_path, capsys,
                                                       text, error):
    target = tmp_path / "bad.json"
    target.write_text(text)
    assert main(["gen", "--space", str(target)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_edges_import(tmp_path, capsys):
    edges = tmp_path / "square.txt"
    edges.write_text("0 1\n1 2\n2 3\n3 0\n")
    assert main(["gen", "--edges", str(edges)]) == 0
    out = capsys.readouterr().out
    assert "n=4 diameter=2.0" in out


def test_profile_matches_closed_form(tmp_path):
    pref = tmp_path / "prof"
    rc = main(["profile", "--family", "cycle", "--size", "64",
               "--smax", "5", "--r", "1", "--out", str(pref)])
    assert rc == 0
    lines = (tmp_path / "prof.csv").read_text().splitlines()
    assert lines[0] == "S,R,nu,x0,x1,exact"
    for s, line in enumerate(lines[1:], start=1):
        nu = float(line.split(",")[2])
        assert abs(nu - 2 / (2 * s + 1)) <= 1e-12
    verdict = json.loads((tmp_path / "prof.verdict.json").read_text())
    assert verdict["verdicts"]["1.0"]["verdict"] == "decaying"
    assert verdict["config"]["method"] == "ball"
    assert verdict["config"]["schedule"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert verdict["space"]["kind"] == "cycle"


def _verdict_without_timestamp(prefix):
    report = json.loads(Path(f"{prefix}.verdict.json").read_text())
    del report["generated_at"]
    return report


def test_routed_torus_profile_builds_no_distance_matrix(tmp_path,
                                                       monkeypatch):
    args = ["profile", "--smax", "4", "--r", "1,2", "--out"]
    torus = cc.generate_family("torus", {"dim": 2, "size": 48})
    saved = tmp_path / "torus48.json"
    saved.write_text(json.dumps(torus.to_json()))
    dense, routed = tmp_path / "dense", tmp_path / "routed"
    assert main(args + [str(dense), "--space", str(saved)]) == 0

    def refuse(n, edges):
        raise AssertionError("built the n x n distance matrix")

    monkeypatch.setattr(space, "_hop_distances", refuse)
    tracemalloc.start()
    try:
        code = main(args + [str(routed), "--family", "torus", "--size", "48"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < torus.n ** 2  # one compact n x n uint8 matrix
    assert (Path(f"{routed}.csv").read_bytes()
            == Path(f"{dense}.csv").read_bytes())
    assert (_verdict_without_timestamp(routed)
            == _verdict_without_timestamp(dense))
    assert torus.min_positive_distance() == 1.0 and torus._dist is None
    monkeypatch.undo()
    edges = np.array(torus.meta["edges"])
    assert np.array_equal(torus.dist, space._hop_distances(torus.n, edges))
    torus.validate()


@pytest.mark.parametrize("kind, params, seed", [
    ("random_regular", {"n": 256, "k": 3}, 4),
    ("free_ball", {"rank": 2, "radius": 4}, 0),
    ("path", {"size": 40}, 0),
], ids=["random_regular", "free_ball", "path"])
@pytest.mark.parametrize("method", ["ball", "walk"])
def test_graph_profile_builds_no_distance_matrix(kind, params, seed, method,
                                                 tmp_path, monkeypatch):
    # a generated graph's profile grows its balls and never builds `dist`,
    # and writes what the same space given as its matrix writes
    args = ["profile", "--smax", "4", "--r", "1,2", "--method", method,
            "--out"]
    payload = cc.generate_family(kind, params, seed).to_json()
    payload["dist"] = cc.build_graph_metric(payload.pop("edges"),
                                            payload["n"]).dist.tolist()
    saved = tmp_path / "dense.json"
    saved.write_text(json.dumps(payload))
    dense, routed = tmp_path / "dense", tmp_path / "routed"
    assert main(args + [str(dense), "--space", str(saved),
                        "--seed", str(seed)]) == 0
    monkeypatch.setattr(space, "_hop_distances", _refuse)
    assert main(args + [str(routed), *_family_argv(kind, params, seed)]) == 0
    assert (Path(f"{routed}.csv").read_bytes()
            == Path(f"{dense}.csv").read_bytes())
    got, want = (_verdict_without_timestamp(p) for p in (routed, dense))
    assert got["verdicts"] == want["verdicts"]
    assert got["config"] == want["config"]


@pytest.mark.parametrize("text, argv, payload, error", [
    ("0 1\n2 3\n", [], {"n": 4, "edges": [[0, 1], [2, 3]]},
     "graph is disconnected: vertex 2 is unreachable from vertex 0"),
    ("0 1\n1 1\n", [], {"n": 3, "edges": [[0, 1], [1, 1]]},
     "self-loop at vertex 1 is not allowed"),
    ("0 1\n1 2\n", ["--n", "2"], {"n": 2, "edges": [[0, 1], [1, 2]]},
     "edge (1,2) out of range for n=2"),
], ids=["disconnected", "self-loop", "out-of-range"])
def test_profile_rejects_bad_graphs_at_load(text, argv, payload, error,
                                            tmp_path, capsys):
    # the loaders raise, before anything reads the metric
    with pytest.raises(ValueError) as loaded:
        cc.load_edge_list(text, n=int(argv[1]) if argv else None)
    with pytest.raises(ValueError) as parsed:
        cc.FiniteMetricSpace.from_json(payload)
    assert str(loaded.value) == str(parsed.value) == error
    edges, saved = tmp_path / "bad.txt", tmp_path / "bad.json"
    edges.write_text(text)
    saved.write_text(json.dumps(payload))
    for source in (["--edges", str(edges), *argv], ["--space", str(saved)]):
        assert main(["profile", "--smax", "2", *source]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


def test_torus_from_a_file_takes_the_dense_path_with_the_same_bytes(
        tmp_path, capsys):
    saved, edges = tmp_path / "torus12.json", tmp_path / "torus12.txt"
    assert main(["gen", "--family", "torus", "--size", "12",
                 "--out", str(saved)]) == 0
    payload = json.loads(saved.read_text())
    edges.write_text("".join(f"{u} {v}\n" for u, v in payload["edges"]))
    assert cc.FiniteMetricSpace.from_json(payload).group is None
    assert cc.load_edge_list(edges.read_text()).group is None
    args = ["profile", "--smax", "5", "--r", "1,2", "--out"]
    assert main(args + [str(tmp_path / "family"),
                        "--family", "torus", "--size", "12"]) == 0
    with mock.patch.object(averaging, "_one_row_variation",
                           side_effect=AssertionError("routed")):
        assert main(args + [str(tmp_path / "space"),
                            "--space", str(saved)]) == 0
        assert main(args + [str(tmp_path / "edges"),
                            "--edges", str(edges)]) == 0
    csv = {src: (tmp_path / f"{src}.csv").read_bytes()
           for src in ("family", "space", "edges")}
    assert csv["space"] == csv["family"] and csv["edges"] == csv["family"]
    assert (_verdict_without_timestamp(tmp_path / "space")
            == _verdict_without_timestamp(tmp_path / "family"))


def test_profile_is_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for pref in (a, b):
        main(["profile", "--family", "torus", "--size", "6",
              "--schedule", "1,2", "--r", "1,2", "--out", str(pref)])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    va = json.loads((tmp_path / "a.verdict.json").read_text())
    vb = json.loads((tmp_path / "b.verdict.json").read_text())
    va.pop("generated_at"), vb.pop("generated_at")
    assert va == vb


def test_profile_complete_graph_is_flat(capsys):
    rc = main(["profile", "--family", "complete", "--n", "5",
               "--schedule", "1,2", "--r", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1.0,1.0,0.0," in out
    assert '"verdict": "decaying"' in out


def test_profile_needs_a_schedule(capsys):
    rc = main(["profile", "--family", "cycle", "--size", "8", "--r", "1"])
    assert rc == 2
    assert "--smax or --schedule" in capsys.readouterr().err


def test_profile_takes_smax_or_schedule_not_both(capsys):
    rc = main(["profile", "--family", "cycle", "--size", "8", "--r", "1",
               "--smax", "3", "--schedule", "1,2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--smax" in err and "--schedule" in err


def test_profile_walk_method(capsys):
    rc = main(["profile", "--family", "cycle", "--size", "16",
               "--schedule", "1,2,3", "--r", "1", "--method", "walk"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    nus = [float(line.split(",")[2]) for line in lines[1:4]]
    assert nus[0] > nus[1] > nus[2] > 0


@pytest.mark.parametrize("args,token,rule", [
    (["--schedule", "inf", "--method", "walk"], "--schedule value 'inf'",
     "finite and >= 0"),
    (["--schedule", "1", "--r", "1,nan"], "--r value 'nan'", "finite and >= 0"),
    (["--schedule", "1.5,2.5", "--method", "walk"], "--schedule value '1.5'",
     "a whole number of walk steps"),
    (["--schedule=-1"], "--schedule value '-1'", "finite and >= 0"),
    # the verdict fits log(S), which has no value at S = 0
    (["--schedule", "0,1,2", "--r", "1"], "--schedule value '0'",
     "larger than 0"),
    # an empty schedule: a header-only CSV and no verdicts
    (["--smax=-3"], "--smax", ">= 1, got -3"),
    (["--smax=0"], "--smax", ">= 1, got 0"),
    # repeats write identical rows, and the verdicts, keyed by R, collapse;
    # a decreasing schedule inverts "decaying"
    (["--schedule", "1,1", "--r", "1"], "--schedule value '1'",
     "larger than the value before it"),
    (["--schedule", "2,3,1"], "--schedule value '1'",
     "larger than the value before it"),
    (["--schedule", "1,2.0,2", "--method", "walk"], "--schedule value '2'",
     "larger than the value before it"),
    (["--schedule", "1,2", "--r", "1,2,1.0"], "--r value '1.0'",
     "distinct from the values before it"),
    # below the smallest positive distance (1.0 on a cycle) R admits no
    # pair: nu 0.0 at witness (0, 0) in every row, and a "decaying" verdict
    (["--smax", "3", "--r", "0"], "--r value '0'",
     "at least the smallest positive distance, 1.0"),
    (["--smax", "3", "--r", "0.5"], "--r value '0.5'",
     "at least the smallest positive distance, 1.0"),
    (["--schedule", "1,2", "--r", "2,0.999"], "--r value '0.999'",
     "at least the smallest positive distance, 1.0"),
], ids=["inf-walk", "nan-r", "fractional-walk", "negative", "zero-schedule",
        "negative-smax",
        "zero-smax", "repeated-schedule", "decreasing-schedule",
        "repeated-walk-steps", "repeated-r", "zero-r", "half-r",
        "r-below-after-valid"])
def test_profile_rejects_bad_scales_naming_the_token(capsys, args, token,
                                                     rule):
    rc = main(["profile", "--family", "cycle", "--size", "8", *args])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {token} must be {rule}\n"


def test_profile_walk_accepts_whole_float_steps(capsys):
    rc = main(["profile", "--family", "cycle", "--size", "8",
               "--schedule", "1.0,2.0", "--r", "1.0", "--method", "walk"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[:2] for line in lines[1:3]] == [
        ["1.0", "1.0"], ["2.0", "1.0"]]


def test_verify_johnson_suite(capsys):
    rc = main(["verify", "--family", "cycle", "--size", "8",
               "--suite", "johnson"])
    assert rc == 0
    assert "ok   johnson" in capsys.readouterr().out


def test_verify_summary_counts_exact_checks(tmp_path, capsys):
    # a check's own exact flag counts, a pairing check's identity flag
    # stands for it, and checks with no flag stay out of the denominator
    report = tmp_path / "report.json"
    for suite in ("johnson", "pairing", "ses"):
        assert main(["verify", "--family", "cycle", "--size", "8",
                     "--suite", suite, "--count", "3",
                     "--out", str(report)]) == 0
        out = capsys.readouterr().out.splitlines()
        checks = json.loads(report.read_text())["suites"][0]["checks"]
        flags = [c["exact"] if "exact" in c else c["identity"]["exact"]
                 for c in checks if "exact" in c or "identity" in c]
        assert out[0] == (
            f"ok   {suite}: {len(checks)}/{len(checks)} checks passed, "
            f"{sum(flags)}/{len(flags)} exact")
        assert len(flags) == {"johnson": len(checks), "pairing": 3,
                              "ses": 0}[suite]
    assert main(["verify", "--family", "cycle", "--size", "8",
                 "--suite", "johnson"]) == 0
    assert capsys.readouterr().out == (
        "ok   johnson: 10/10 checks passed, 8/10 exact\n")


def test_verify_reports_a_failing_defect_bound(tmp_path, capsys,
                                               monkeypatch):
    # with the family norm read as 0 every nonzero defect breaks its bound;
    # the check comes back failing with its numbers, and verify exits 1
    monkeypatch.setattr(cc.ReiterFamily, "sup_norm", property(lambda f: 0.0))
    report = tmp_path / "report.json"
    assert main(["verify", "--family", "cycle", "--size", "8",
                 "--suite", "defect-bound", "--count", "3",
                 "--out", str(report)]) == 1
    assert capsys.readouterr().out.startswith(
        "FAIL defect-bound: 1/3 checks passed, ")
    data = json.loads(report.read_text())
    assert data["passed"] is False
    checks = data["suites"][0]["checks"]
    assert [c["ok"] for c in checks] == [False, False, True]
    for check in checks[:2]:
        assert check["check"] == "homotopy_defect" and "error" not in check
        assert check["value"] > 0.0 and check["bound"] == 0.0
        assert check["family_norm"] == 0.0 and check["dphi_sup"] > 0.0
        assert check["telescope_gap"] <= 1e-12


def test_verify_small_run_all_suites(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = main(["verify", "--family", "free_ball", "--rank", "2",
               "--radius", "2", "--count", "4", "--budget", "1500",
               "--sample", "250", "--out", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    for name in cc.SUITE_NAMES:
        assert f"ok   {name}" in out
    data = json.loads(report.read_text())
    assert data["passed"] is True
    assert data["config"]["count"] == 4
    assert data["space"]["hash"] == cc.generate_family(
        "free_ball", {"rank": 2, "radius": 2}).content_hash()
    assert len(data["suites"]) == len(cc.SUITE_NAMES)


def test_verify_zero_tolerance_exposes_roundoff(capsys):
    # with tol forced to 0 the suite must report honest float residue
    rc = main(["verify", "--family", "cycle", "--size", "6",
               "--suite", "complex-identities", "--count", "6",
               "--budget", "2000", "--sample", "300", "--tol", "0"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL complex-identities" in out
    assert '"ok": false' in out


def test_verify_unknown_suite(capsys):
    rc = main(["verify", "--family", "cycle", "--size", "6",
               "--suite", "nonsense"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown suite" in err and "'all'" in err


@pytest.mark.parametrize("args,error", [
    (["--r=-1"], "--r value '-1' must be finite and >= 0"),
    (["--r", "nan"], "--r value 'nan' must be finite and >= 0"),
    (["--budget=-1"], "--budget must be >= 1, got -1"),
    (["--sample=-5"], "--sample must be >= 1, got -5"),
    (["--count=-2"], "--count must be >= 1, got -2"),
    (["--budget", "0"], "--budget must be >= 1, got 0"),
    (["--sample", "0"], "--sample must be >= 1, got 0"),
    (["--count", "0"], "--count must be >= 1, got 0"),
    (["--show-failures=-1"], "--show-failures must be >= 0, got -1"),
    (["--r", "2,1,2"],
     "--r value '2' must be distinct from the values before it"),
    (["--suite", "ses", "--r", "0"], "--r value '0' must be at least the "
     "smallest positive distance, 1.0"),
    (["--suite", "ses", "--r", "0.5"], "--r value '0.5' must be at least "
     "the smallest positive distance, 1.0"),
    (["--suite", "johnson,ses", "--r", "1,0.5"], "--r value '0.5' must be "
     "at least the smallest positive distance, 1.0"),
    (["--suite", "all", "--r", "0"], "--r value '0' must be at least the "
     "smallest positive distance, 1.0"),
    (["--suite", ","], "--suite is empty, got ','"),
    (["--suite", "complex-identities,complex-identities"],
     "--suite value 'complex-identities' must be distinct from the values "
     "before it"),
], ids=["negative-r", "nan-r", "negative-budget", "negative-sample",
        "negative-count", "zero-budget", "zero-sample", "zero-count",
        "negative-show-failures", "repeated-r", "ses-r0", "ses-r-half",
        "johnson-ses-r-half", "all-r0", "empty-suite", "repeated-suite"])
def test_verify_rejects_bad_domain_flags(capsys, args, error):
    # these leave no domain to audit, or no check to run, and an empty
    # audit reads exact and ok; a negative --show-failures slices failures
    # off the listing, and a repeated --r or --suite audits the same thing
    # twice. ses measures nu at each R, and below the smallest positive
    # distance (1.0 on a cycle) no pair is within R, so nu would read a
    # vacuous 0.0 (the last --suite given wins)
    rc = main(["verify", "--family", "cycle", "--size", "6",
               "--suite", "johnson", *args])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_verify_other_suites_keep_the_zero_radius(capsys):
    # R = 0 is a real audit domain for the other suites
    rc = main(["verify", "--family", "cycle", "--size", "6", "--suite",
               "splitting", "--count", "1", "--r", "0"])
    assert rc == 0
    assert "ok   splitting" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "-0.5"])
def test_verify_rejects_bad_tolerance(capsys, value):
    # --tol inf would pass every check, and --tol nan fail every one
    rc = main(["verify", "--family", "cycle", "--size", "6",
               "--suite", "complex-identities", "--count", "1",
               f"--tol={value}"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: --tol must be finite and >= 0, got {float(value)}\n")


def test_verify_rejects_non_numeric_tolerance(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "cycle", "--size", "6", "--tol", "tiny"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_verify_report_matches_golden(tmp_path, capsys):
    """The full verify report on cycle8, byte for byte, minus its timestamp.

    The budget and sample size put some audits in the exhaustive branch and
    the rest in the sampled one. The random cochains' values come from
    randomgen's splitmix64 mixer on integers, so the report does not depend
    on the interpreter.
    """
    target = tmp_path / "report.json"
    rc = main(["verify", "--family", "cycle", "--size", "8", "--suite", "all",
               "--count", "2", "--budget", "400", "--sample", "100",
               "--out", str(target)])
    assert rc == 0
    capsys.readouterr()
    got = "".join(line for line in target.read_text().splitlines(True)
                  if not line.startswith('  "generated_at": '))
    golden = Path(__file__).parent / "data" / "verify_cycle8_golden.json"
    assert got == golden.read_text()


def test_verify_free_ball_report_matches_golden(tmp_path, capsys):
    """The full verify report on free_ball(2,3), byte for byte, minus its
    timestamp. The space is not vertex-transitive (ball sizes differ), and
    the audits cover exact and sampled domains, all three modules and
    every suite. Like the cycle8 golden, it rests on randomgen's mixer."""
    target = tmp_path / "report.json"
    rc = main(["verify", "--family", "free_ball", "--rank", "2", "--radius",
               "3", "--suite", "all", "--count", "3", "--budget", "4000",
               "--sample", "200", "--out", str(target)])
    assert rc == 0
    capsys.readouterr()
    got = "".join(line for line in target.read_text().splitlines(True)
                  if not line.startswith('  "generated_at": '))
    golden = Path(__file__).parent / "data" / "verify_free_ball_golden.json"
    assert got == golden.read_text()


def test_counterexample_suite_honours_sample(tmp_path, capsys, monkeypatch):
    # --budget and --sample bound every audit domain, the counterexample's
    # two audits too: over budget, each draws exactly --sample points
    drawn = []

    def recording(*args, **kwargs):
        dom = real(*args, **kwargs)
        drawn.append(dom)
        return dom

    real = cochains.audit_points
    monkeypatch.setattr(cochains, "audit_points", recording)
    rc = main(["verify", "--family", "cycle", "--size", "16", "--suite",
               "counterexample", "--budget", "50", "--sample", "7",
               "--out", str(tmp_path / "report.json")])
    assert rc == 0
    capsys.readouterr()
    assert len(drawn) == 2
    assert [dom.requested for dom in drawn] == [7, 7]


def test_verify_report_does_not_depend_on_blas_threads(tmp_path):
    # norms and the zero-sum check sum rows by matrix-vector products,
    # whose order of adding may follow BLAS's blocking and threads; only
    # bounds are read from those sums, so the report stays the golden one
    golden = Path(__file__).parent / "data" / "verify_free_ball_golden.json"
    src = str(Path(cc.__file__).parent.parent)
    for threads in ("1", "2"):
        target = tmp_path / f"report{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "coarsecohom.cli", "verify",
                        "--family", "free_ball", "--rank", "2", "--radius",
                        "3", "--suite", "all", "--count", "3", "--budget",
                        "4000", "--sample", "200", "--out", str(target)],
                       check=True, capture_output=True, env=env)
        got = "".join(line for line in target.read_text().splitlines(True)
                      if not line.startswith('  "generated_at": '))
        assert got == golden.read_text()


def test_verify_report_does_not_depend_on_buffer_reuse(tmp_path, capsys,
                                                      monkeypatch):
    # with no free list every table buffer is fresh; the report is the
    # golden one either way, and the default run does reuse buffers
    target = tmp_path / "report.json"

    def report(bound):
        monkeypatch.setattr(facetables, "_POOL_BYTES", bound)
        monkeypatch.setattr(facetables, "_free", facetables._FreeList())
        rc = main(["verify", "--family", "free_ball", "--rank", "2",
                   "--radius", "3", "--suite", "all", "--count", "3",
                   "--budget", "4000", "--sample", "200", "--out",
                   str(target)])
        assert rc == 0
        capsys.readouterr()
        return facetables._free.misses, "".join(
            line for line in target.read_text().splitlines(True)
            if not line.startswith('  "generated_at": '))

    pooled_misses, pooled = report(facetables._POOL_BYTES)
    fresh_misses, fresh = report(0)
    golden = Path(__file__).parent / "data" / "verify_free_ball_golden.json"
    assert pooled == fresh == golden.read_text()
    assert pooled_misses < fresh_misses
