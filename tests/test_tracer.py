"""The benchmark's tracer still runs a traced `verify` pass.

perfbench/tracer.py wraps the package's functions from outside and reads
what they return, such as the (points, exact) pair of audit_points. This
runs it on a small verify command, so a change to what those functions
return cannot break the traced pass unseen. perfbench/ is only imported.
"""

import json
import sys
from pathlib import Path

from coarsecohom.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_verify_pass_counts_audit_points(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    monkeypatch.delitem(sys.modules, "oracles", raising=False)
    from tracer import Tracer

    out = tmp_path / "report.json"
    tracer = Tracer()
    tracer.install()
    try:
        rc = main(["verify", "--family", "cycle", "--size", "8",
                   "--suite", "all", "--count", "1", "--budget", "400",
                   "--sample", "100", "--out", str(out)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc == 0
    assert tracer.leftovers() == []
    suites = [suite["suite"] for suite in json.loads(out.read_text())["suites"]]
    metrics = tracer.metrics(suites)
    assert metrics["cochains.audit_points_n"][0] > 0
    assert metrics["cochains.audit_domains_exact"][0] > 0
    assert metrics["cochains.audit_domains_sampled"][0] > 0
    assert metrics["cochains.sample_shortfall"][0] == 0
