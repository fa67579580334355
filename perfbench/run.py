"""Benchmark of the coarsecohom command line, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Runs one workload (see workloads.py) as a closed loop with one client: each
command goes through `coarsecohom.cli.main(argv)` only after the previous one
returned. Before and after every command, outside its timed window, it
times a fixed reference kernel, and divides the pass's time by the kernel
times next to each command, weighted by the commands' times, so the time
metrics are in units of the machine's speed at that moment. With `--trace 0` it repeats the whole
command sequence for about T seconds (at least twice) and reports the
end-to-end metrics; with `--trace 1` it runs the sequence once untraced and
once under the tracer and reports the per-layer metrics. Each pass imports
the package afresh, so no state a module keeps carries from one pass to the
next. Either way it checks
every output against the oracles, checks that repeated passes, and the
newest earlier run with the same seed and sources, wrote byte-identical
files, and prints one JSON result as the last line of stdout. A run record
with the versions, thread cap, sample counts and output digests goes to
`.perfbench-out/records/`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import gc
import hashlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 11
# Two passes at least: the second must reproduce the first byte for byte.
MIN_PASSES = 2
# No further pass starts once the passes would run past this, so a run
# stays well inside its 180 s limit.
PASS_BUDGET_S = 120.0
# glibc's mallopt parameter number and default value of the mmap threshold
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 128 * 1024
# Sizes of the reference kernel's three parts; about 0.2 s in all on one
# core of a 2-core x86 VM.
REF_LOOP = 1_200_000
REF_DICT = 240_000
REF_ARRAY = 1 << 17
REF_ROUNDS = 320
_READY = "import coarsecohom.cli, sys; sys.stdout.write('ready\\n')"
_STAMP = re.compile(rb'\n *"generated_at": "[^"]*",?')


def cap_blas_threads() -> int:
    """Cap BLAS threads at the cores this process may use; returns the cap."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    return nproc


def pin_mmap_threshold() -> bool:
    """Fix glibc's mmap threshold at its default, which turns off its dynamic
    raising. Otherwise freed numpy arrays of up to 32 MiB can raise the
    threshold, so that later ones stay in the heap, and peak RSS flips
    between values 32 MB apart with the allocation history (it changed with
    how the process was started). Returns whether the C library accepted
    it."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        return bool(libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD))
    except (OSError, AttributeError):  # not glibc: nothing to pin
        return False


def measure_setup() -> float:
    """Seconds from starting a fresh interpreter until coarsecohom.cli is
    imported and ready."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", _READY], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        took = time.perf_counter() - start
        proc.wait(timeout=60)
    if line != b"ready\n" or proc.returncode:
        raise RuntimeError("importing coarsecohom.cli failed in a fresh "
                           f"interpreter (exit {proc.returncode})")
    return took


def reference_seconds() -> float:
    """Wall time of a fixed kernel of the kinds of work the workloads do: an
    integer loop, 16384 tuple keys counted in a dict, and elementwise numpy
    over 1 MiB, done in place so that it adds nothing to peak RSS. On a
    shared host the machine's speed drifts by more than 10 % over minutes,
    and this kernel's time tracks that drift. The garbage collector is off
    meanwhile, so the size of the program's heap does not enter it."""
    import numpy as np
    gc_was_on = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i * i
    counts: dict = {}
    for i in range(REF_DICT):
        key = (i & 127, (i >> 7) & 127)
        counts[key] = counts.get(key, 0) + i
    arr = np.arange(REF_ARRAY, dtype=float)
    for _ in range(REF_ROUNDS):
        np.multiply(arr, 1.0001, out=arr)
        np.add(arr, 1.0, out=arr)
        arr.sum()
    took = time.perf_counter() - start
    if gc_was_on:
        gc.enable()
    return took


def fresh_cli():
    """Drop every coarsecohom module and import coarsecohom.cli anew, as a
    new invocation of the command line would."""
    for name in [name for name in sys.modules
                 if name == "coarsecohom" or name.startswith("coarsecohom.")]:
        del sys.modules[name]
    return importlib.import_module("coarsecohom.cli")


def run_pass(cmds, tracer=None) -> dict:
    """Run the command sequence once on a freshly imported package, under
    `tracer` if one is given; returns its wall time, its time in reference
    kernels and its outputs."""
    cli = fresh_cli()
    for cmd in cmds:
        for path in cmd.outputs:
            Path(path).unlink(missing_ok=True)
    gc.collect()
    results, times = [], []
    wall = time.perf_counter()
    probes = [reference_seconds()]
    if tracer is not None:
        tracer.install()
    try:
        for cmd in cmds:
            stdout = io.StringIO()
            error = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(list(cmd.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash fails this command; the run goes on
                code, error = None, traceback.format_exc()
                print(error, file=sys.stderr)
            times.append(time.perf_counter() - start)
            results.append({"code": code, "stdout": stdout.getvalue(),
                             "error": error})
            probes.append(reference_seconds())
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - wall
    # the machine's speed over each command is the mean of the kernel times
    # just before and after it; the pass's is their mean weighted by the
    # commands' times, which uses every kernel run and lets no short command
    # count as much as a long one
    kernel = sum(t * (probes[i] + probes[i + 1]) / 2
                 for i, t in enumerate(times)) / sum(times)
    ref = sum(times) / kernel
    for cmd, res in zip(cmds, results):
        res["files"] = {path: Path(path).read_bytes()
                        for path in cmd.outputs if Path(path).exists()}
        # stdout names the scratch directory, which differs between runs
        stdout = res["stdout"].replace(str(Path(cmd.outputs[0]).parent), "")
        blob = hashlib.sha256(repr((res["code"], stdout)).encode())
        for path in cmd.outputs:
            blob.update(_STAMP.sub(b"", res["files"].get(path, b"<missing>")))
        res["digest"] = blob.hexdigest()
    return {"seconds": sum(times), "ref": ref, "times": times,
            "probes": probes, "wall": wall, "results": results}


def tree_sha256(top: Path) -> str:
    """Digest of the Python files under `top`, names included."""
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        digest.update(path.relative_to(top).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def earlier_digests(records: Path, record: dict):
    """Output digests of the newest earlier run of this workload and seed on
    the same sources and benchmark, traced or not; None if there is none."""
    newest, digests = -1, None
    for path in records.glob(f"{record['workload']}-seed{record['seed']}"
                             "-trace*-*.json"):
        stamp = int(path.stem.rsplit("-", 1)[1])
        if stamp <= newest:
            continue
        try:
            old = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if all(old.get(key) == record[key] for key in
               ("workload", "seed", "source_sha256", "bench_sha256")):
            newest, digests = stamp, old["digests"]
    return digests


def run_record(args, nproc: int, mmap_pinned: bool) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = got.stdout.strip() or None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "commit": commit,
            "source_sha256": tree_sha256(SRC / "coarsecohom"),
            "bench_sha256": tree_sha256(Path(__file__).resolve().parent),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": nproc, "blas_threads": {v: os.environ[v]
                                             for v in BLAS_VARS},
            "mmap_threshold": MMAP_THRESHOLD if mmap_pinned else None,
            "load": "closed loop, one client, in-process cli.main(argv)"}


def measure_untraced(cmds, seconds: float):
    """Passes for about `seconds` (at least MIN_PASSES), with set-up samples
    on both sides of them so one slow spell of the machine cannot hit all."""
    setup = [measure_setup() for _ in range(SETUP_SAMPLES // 2)]
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - start + passes[-1]["wall"]
            <= min(seconds, PASS_BUDGET_S)):
        passes.append(run_pass(cmds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += [measure_setup() for _ in range(SETUP_SAMPLES - len(setup))]
    return passes, setup, peak_rss_mb


def untraced_metrics(passes, tallies, setup, peak_rss_mb) -> dict:
    """End-to-end metrics; `tallies` has one score per pass."""
    ops = sum(t["ops"] for t in tallies)
    failed = sum(t["failed"] for t in tallies)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "run_ref": (statistics.median(p["ref"] for p in passes), "ref"),
        "ops_per_ref": (statistics.median((t["ops"] - t["failed"]) / p["ref"]
                                          for p, t in zip(passes, tallies)),
                        "1/ref"),
        "ok_frac": (1.0 - failed / ops, "ratio"),
        "exact_frac": (sum(t["exact"] for t in tallies)
                       / max(sum(t["flagged"] for t in tallies), 1), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    golden_path = ROOT / "tests" / "data" / "golden_separation.json"
    if not (SRC / "coarsecohom" / "cli.py").is_file() or not golden_path.is_file():
        print(f"perfbench: needs the coarsecohom sources under {SRC} and "
              f"{golden_path}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    mmap_pinned = pin_mmap_threshold()
    sys.path.insert(0, str(SRC))
    import workloads
    from oracles import Scorer
    from tracer import Tracer

    golden = json.loads(golden_path.read_text())
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        cmds = workloads.commands(args.workload, args.seed, scratch, golden)
        record = run_record(args, nproc, mmap_pinned)
        scorer = Scorer(cmds, golden)
        if args.trace:
            # one untraced pass, then one under the tracer, removed after
            tracer = Tracer()
            passes = [run_pass(cmds), run_pass(cmds, tracer)]
            if tracer.leftovers():
                scorer.problems.append(
                    f"tracer left wrappers: {tracer.leftovers()}")
        else:
            passes, setup, peak_rss_mb = measure_untraced(cmds, args.seconds)
        # the first pass is the reference every other pass, traced or not,
        # must reproduce byte for byte, as it must reproduce the newest
        # earlier run with the same seed and sources
        records = OUT / "records"
        records.mkdir(parents=True, exist_ok=True)
        scorer.set_reference(passes[0], earlier_digests(records, record))
        tallies = [scorer.score(p) for p in passes]
        if args.trace:
            metrics = tracer.metrics(workloads.SUITES)
            metrics["cli.report_bytes"] = (sum(
                len(data) for res in passes[1]["results"]
                for data in res["files"].values()), "bytes")
            metrics["cli.pass_s"] = (passes[0]["seconds"], "s")
            metrics["trace.overhead_frac"] = (
                passes[1]["ref"] / passes[0]["ref"] - 1.0, "ratio")
            record["samples"] = {"per_layer": 1}
        else:
            metrics = untraced_metrics(passes, tallies, setup, peak_rss_mb)
            record["samples"] = {"setup_s": len(setup),
                                 "run_ref": len(passes)}
            record["setup_seconds"] = setup
        attempted = sum(t["ops"] for t in tallies)
        failed = sum(t["failed"] for t in tallies)
        correct = failed == 0 and not scorer.problems
        record.update(pass_seconds=[p["seconds"] for p in passes],
                      pass_ref=[p["ref"] for p in passes],
                      command_seconds=[p["times"] for p in passes],
                      probe_seconds=[p["probes"] for p in passes],
                      problems=scorer.problems, correct=correct,
                      attempted=attempted, failed=failed,
                      metrics={k: v for k, (v, _) in metrics.items()},
                      digests={c.name: r["digest"] for c, r in
                               zip(cmds, passes[0]["results"])})
        (records / f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                   f"{time.time_ns()}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True))
        for problem in scorer.problems:
            print(f"perfbench: {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
