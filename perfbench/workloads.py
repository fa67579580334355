"""The benchmark's two workloads as lists of `coarsecohom` command lines.

Every command builds its space from `--family` arguments, as a user's
invocation does, and takes the workload seed as `--seed`, which drives both
the random cochain draws and the `random_regular` graph. The golden
torus12/rr128 profiles keep the seed stored in the golden file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("verify", "profile-scale")

# Every suite some workload runs; the traced run reports each of them.
SUITES = ("complex-identities", "splitting", "convolution", "defect-bound",
          "pairing", "ses", "johnson", "counterexample")

# Audit domains stay pinned to today's CLI defaults, so a change of default
# cannot silently change the workload.
_AUDIT = ("--budget", "4000", "--sample", "700")
_IDENTITY_COUNT = "12"

# (family, parameters) of the verify reference spaces.
_IDENTITY_SPACES = (("cycle", {"size": 16}), ("torus", {"size": 8}),
                    ("free_ball", {"rank": 2, "radius": 3}),
                    ("random_regular", {"n": 64, "k": 3}))
_AVERAGING_SPACES = (("free_ball", {"rank": 2, "radius": 3}),
                     ("random_regular", {"n": 64, "k": 3}))

_FLAGS = {"size": "--size", "dim": "--dim", "rank": "--rank",
          "radius": "--radius", "n": "--n", "k": "--k"}


@dataclass
class Command:
    """One CLI invocation plus what the oracles need to know about it."""
    name: str
    argv: tuple
    family: str
    params: dict
    seed: int
    outputs: tuple          # files the command writes
    method: str = ""        # profile only
    schedule: tuple = ()    # profile only
    r_list: tuple = ()      # profile only
    golden: str = ""        # key in the golden file, if this is a golden run

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def cells(self) -> int:
        return len(self.schedule) * len(self.r_list)


def _space_args(family: str, params: dict, seed: int) -> list:
    out = ["--family", family]
    for key, val in params.items():
        out += [_FLAGS[key], str(val)]
    return out + ["--seed", str(seed)]


def _verify(name, family, params, seed, suites, outdir, count=None):
    report = str(outdir / f"{name}.json")
    argv = ["verify", *_space_args(family, params, seed),
            "--suite", ",".join(suites), *_AUDIT]
    if count is not None:
        argv += ["--count", count]
    return Command(name, tuple(argv + ["--out", report]), family, params,
                   seed, (report,))


def _profile(name, family, params, seed, schedule, r_list, outdir,
             method="ball", golden=""):
    prefix = str(outdir / name)
    argv = ["profile", *_space_args(family, params, seed),
            "--schedule", ",".join(repr(float(s)) for s in schedule),
            "--r", ",".join(repr(float(r)) for r in r_list),
            "--method", method, "--out", prefix]
    return Command(name, tuple(argv), family, params, seed,
                   (prefix + ".csv", prefix + ".verdict.json"), method,
                   tuple(float(s) for s in schedule),
                   tuple(float(r) for r in r_list), golden)


def commands(workload: str, seed: int, outdir: Path, golden: dict) -> list:
    """The workload's command sequence for one seed; outputs land in outdir."""
    if workload == "verify":
        # the D/d/s identity audits, then the convolution/averaging audits
        suites = ("convolution", "defect-bound", "pairing", "ses", "johnson",
                  "counterexample")
        return [_verify(f"ident-{family}", family, params, seed,
                        ("complex-identities", "splitting"), outdir,
                        count=_IDENTITY_COUNT)
                for family, params in _IDENTITY_SPACES] + [
                    _verify(f"avg-{family}", family, params, seed, suites,
                            outdir)
                    for family, params in _AVERAGING_SPACES]
    if workload == "profile-scale":
        smax4 = range(1, 5)
        rr2048 = {"n": 2048, "k": 3}
        cmds = [
            _profile("torus48-ball", "torus", {"size": 48, "dim": 2}, seed,
                     smax4, (1, 2), outdir),
            _profile("rr2048-ball", "random_regular", rr2048, seed, smax4,
                     (1, 2), outdir),
            _profile("rr2048-walk", "random_regular", rr2048, seed, smax4,
                     (1,), outdir, method="walk"),
        ]
        for key in ("torus12", "rr128"):
            entry = golden["instances"][key]
            cmds.append(_profile(f"golden-{key}", entry["kind"],
                                 entry["params"], entry["seed"],
                                 golden["schedule"], (golden["r"],), outdir,
                                 golden=key))
        return cmds
    raise ValueError(f"unknown workload {workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
