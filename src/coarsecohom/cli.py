"""Command line front end.

Three subcommands: `gen` builds and saves a test-family space, `profile`
tabulates averaging-family variation nu(S, R) with a decay verdict, and
`verify` runs named law suites. Exit codes: 0 success / all checks pass,
1 at least one check failed, 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

from .averaging import ball_average, lazy_walk_family, variation_profile
from .sequences import diagnose
from .space import (FAMILY_PARAMS, FiniteMetricSpace, generate_family,
                    load_edge_list)
from .verify import SUITE_NAMES, VerifyOptions, run_suites


def _add_space_args(sub: argparse.ArgumentParser) -> None:
    src = sub.add_argument_group("space source (pick one)")
    src.add_argument("--space", metavar="FILE",
                     help="load a space from its JSON serialization")
    src.add_argument("--edges", metavar="FILE",
                     help="load a graph from a 'u v' edge list")
    src.add_argument("--family", choices=tuple(FAMILY_PARAMS),
                     help="generate a named test family")
    fam = sub.add_argument_group("family parameters")
    fam.add_argument("--size", type=int, help="cycle/path/torus size")
    fam.add_argument("--dim", type=int, default=2, help="torus dimension")
    fam.add_argument("--rank", type=int, help="free_ball rank")
    fam.add_argument("--radius", type=int, help="free_ball radius")
    fam.add_argument("--n", type=int, help="complete/random_regular points")
    fam.add_argument("--k", type=int, help="random_regular degree")
    sub.add_argument("--seed", type=int, default=0,
                     help="master seed (default 0)")


def _space_from_args(args) -> FiniteMetricSpace:
    picked = [s for s in (args.space, args.edges, args.family) if s]
    if len(picked) != 1:
        raise ValueError("pick exactly one of --space, --edges, --family")
    if args.space:
        with open(args.space) as fh:
            return FiniteMetricSpace.from_json(json.load(fh))
    if args.edges:
        with open(args.edges) as fh:
            return load_edge_list(fh.read(), n=args.n)
    names = FAMILY_PARAMS[args.family]
    required = [key for key, default in names.items() if default is None]
    if any(getattr(args, key) is None for key in required):
        raise ValueError(f"--family {args.family} needs "
                         + " and ".join(f"--{key}" for key in required))
    params = {key: getattr(args, key) for key in names}
    return generate_family(args.family, params, seed=args.seed)


def _parse_scales(text: str, flag: str, whole: bool = False,
                  increasing: bool = False,
                  least: float = 0.0) -> list[float]:
    """Comma-separated scales or radii: finite, >= 0, at least `least` and
    never repeated, whole numbers when `whole`, and, when `increasing`,
    each larger than the one before and the first larger than 0; the error
    names the first token that is not."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    try:
        values = [float(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers, "
                         f"got {text!r}")
    if not values:
        raise ValueError(f"{flag} is empty")
    for k, (tok, value) in enumerate(zip(tokens, values)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{flag} value {tok!r} must be finite and >= 0")
        if value < least:
            raise ValueError(f"{flag} value {tok!r} must be at least the "
                             f"smallest positive distance, {least!r}")
        if whole and not value.is_integer():
            raise ValueError(f"{flag} value {tok!r} must be a whole number "
                             "of walk steps")
        if increasing and value <= (values[k - 1] if k else 0.0):
            raise ValueError(f"{flag} value {tok!r} must be larger than "
                             + ("the value before it" if k else "0"))
        if value in values[:k]:
            raise ValueError(f"{flag} value {tok!r} must be distinct from the "
                             "values before it")
    return values


def _space_summary(space: FiniteMetricSpace) -> str:
    degrees = None
    if "edges" in space.meta and space.n > 0:
        count = [0] * space.n
        for u, v in space.meta["edges"]:
            count[u] += 1
            count[v] += 1
        degrees = (min(count), sum(count) / space.n, max(count))
    parts = [f"kind={space.meta.get('kind', 'custom')}",
             f"n={space.n}",
             f"diameter={space.diameter()!r}"]
    if degrees:
        parts.append(f"degrees={degrees[0]}/{degrees[1]:.3g}/{degrees[2]}")
    parts.append(f"hash={space.content_hash()[:16]}")
    return " ".join(parts)


def _exact_flag(check: dict) -> bool | None:
    """Whether a check's audit was exhaustive, read from its own "exact" or
    from its nested identity's; None for a check that scanned no domain."""
    return check.get("exact", check.get("identity", {}).get("exact"))


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


# -- subcommands --------------------------------------------------------------

def _cmd_gen(args) -> int:
    space = _space_from_args(args)
    print(_space_summary(space))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(space.to_json(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_profile(args) -> int:
    space = _space_from_args(args)
    if args.smax is not None and args.schedule is not None:
        raise ValueError("give --smax or --schedule, not both")
    if args.smax is not None and args.smax < 1:
        raise ValueError(f"--smax must be >= 1, got {args.smax}")
    if args.schedule:
        schedule = _parse_scales(args.schedule, "--schedule",
                                 whole=args.method == "walk", increasing=True)
    elif args.smax is not None:
        schedule = [float(s) for s in range(1, args.smax + 1)]
    else:
        raise ValueError("profile needs --smax or --schedule")
    # below the smallest positive distance R admits no pair, and nu would
    # read a vacuous 0.0
    r_list = _parse_scales(args.r, "--r", least=(
        space.min_positive_distance() if space.n > 1 else 0.0))
    if args.method == "ball":
        family = ball_average
    elif args.method == "walk":
        family = lazy_walk_family
    else:
        raise ValueError(f"unknown profile method {args.method!r}")
    table = variation_profile(space, schedule, r_list, family=family)
    verdicts = {}
    for r in r_list:
        values = [table.get(s, r).nu for s in schedule]
        if len(values) >= 2:
            verdicts[repr(float(r))] = diagnose(values, r,
                                                axis=schedule).to_json()
    report = {
        "config": {
            "command": "profile",
            "method": args.method,
            "schedule": schedule,
            "r_list": r_list,
            "seed": args.seed,
        },
        "space": {"kind": space.meta.get("kind", "custom"), "n": space.n,
                  "hash": space.content_hash()},
        "generated_at": _timestamp(),
        "verdicts": verdicts,
    }
    csv_text = table.to_csv()
    if args.out:
        with open(args.out + ".csv", "w") as fh:
            fh.write(csv_text)
        with open(args.out + ".verdict.json", "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}.csv and {args.out}.verdict.json")
    else:
        sys.stdout.write(csv_text)
        json.dump(report, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    return 0


def _cmd_verify(args) -> int:
    space = _space_from_args(args)
    if args.suite == "all":
        names = list(SUITE_NAMES)
    else:
        names = [s.strip() for s in args.suite.split(",") if s.strip()]
        if not names:
            raise ValueError(f"--suite is empty, got {args.suite!r}")
        for k, name in enumerate(names):
            if name not in SUITE_NAMES:
                raise ValueError(f"unknown suite {name!r}; choose from "
                                 f"{', '.join(SUITE_NAMES)} or 'all'")
            if name in names[:k]:
                raise ValueError(f"--suite value {name!r} must be distinct "
                                 "from the values before it")
    # zero audit points, or zero instances, would pass every check vacuously
    for flag, value, least in (("--budget", args.budget, 1),
                               ("--sample", args.sample, 1),
                               ("--count", args.count, 1),
                               ("--show-failures", args.show_failures, 0)):
        if value is not None and value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")
    # ses measures nu at each R, and below the smallest positive distance R
    # admits no pair, so nu would read a vacuous 0.0; the other suites'
    # R = 0 domains are real audits
    least = (space.min_positive_distance()
             if "ses" in names and space.n > 1 else 0.0)
    opts = VerifyOptions(seed=args.seed, count=args.count,
                         r_list=tuple(_parse_scales(args.r, "--r",
                                                    least=least)),
                         budget=args.budget, sample_size=args.sample)
    if args.tol is not None:
        if not (math.isfinite(args.tol) and args.tol >= 0):
            raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
        opts.identity_tol = args.tol
    results = run_suites(names, space, opts)
    all_ok = True
    for suite in results:
        checks = suite["checks"]
        bad = [c for c in checks if not c.get("ok")]
        flags = [flag for flag in map(_exact_flag, checks) if flag is not None]
        status = "ok" if not bad else "FAIL"
        print(f"{status:4s} {suite['suite']}: "
              f"{len(checks) - len(bad)}/{len(checks)} checks passed, "
              f"{sum(flags)}/{len(flags)} exact")
        for c in bad[:args.show_failures]:
            print(f"     failed: {json.dumps(c, sort_keys=True)}")
        all_ok = all_ok and not bad
    if args.out:
        report = {
            "config": {
                "command": "verify",
                "suites": names,
                "seed": args.seed,
                "count": args.count,
                "r_list": list(opts.r_list),
                "budget": opts.budget,
                "sample_size": opts.sample_size,
                "identity_tol": opts.identity_tol,
            },
            "space": {"kind": space.meta.get("kind", "custom"), "n": space.n,
                      "hash": space.content_hash()},
            "generated_at": _timestamp(),
            "passed": all_ok,
            "suites": results,
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarsecohom",
        description="Desk-scale lab for controlled-support cochains on "
                    "finite metric spaces.")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a space and save its JSON")
    _add_space_args(gen)
    gen.add_argument("--out", metavar="FILE", help="where to write the JSON")
    gen.set_defaults(func=_cmd_gen)

    prof = subs.add_parser("profile",
                           help="tabulate averaging variation nu(S, R)")
    _add_space_args(prof)
    prof.add_argument("--smax", type=int,
                      help="profile S = 1..smax (alternative to --schedule)")
    prof.add_argument("--schedule", help="comma-separated S values")
    prof.add_argument("--r", default="1",
                      help="comma-separated R values (default 1)")
    prof.add_argument("--method", choices=("ball", "walk"), default="ball",
                      help="averaging family (default ball)")
    prof.add_argument("--out", metavar="PREFIX",
                      help="write PREFIX.csv and PREFIX.verdict.json")
    prof.set_defaults(func=_cmd_profile)

    ver = subs.add_parser("verify", help="run named law suites")
    _add_space_args(ver)
    ver.add_argument("--suite", default="all",
                     help="comma-separated suite names or 'all' "
                          f"(choices: {', '.join(SUITE_NAMES)})")
    ver.add_argument("--count", type=int, default=None,
                     help="instances per randomized suite (default per suite)")
    ver.add_argument("--budget", type=int, default=4000,
                     help="exhaustive audit budget per check (default 4000)")
    ver.add_argument("--sample", type=int, default=700,
                     help="sampled audit points per check when over budget")
    ver.add_argument("--r", default="1,2",
                     help="comma-separated audit radii (default 1,2)")
    ver.add_argument("--tol", type=float, default=None,
                     help="override the identity tolerance (finite, >= 0)")
    ver.add_argument("--show-failures", type=int, default=5,
                     help="failed checks to print per suite (default 5)")
    ver.add_argument("--out", metavar="FILE", help="write the JSON report")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
