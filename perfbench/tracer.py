"""Outside-in tracer for one pass of a workload.

`Tracer.install()` wraps the public functions and methods of the package's
layers (`space`, `coefficients`, `randomgen`, `cochains`, `averaging`,
`sequences`, `verify`, `cli`) in every namespace that binds them, because
modules import each other's functions by name. A wrapper adds the call's
inclusive and self time to totals per name and reads only what the call
returns. Value-level calls made once per evaluation (the whole
`coefficients` layer and `Cochain.__call__`) are counted, not timed, and the
per-point distance queries, which no metric needs, stay unwrapped, to keep
the traced pass close to the untraced one. `uninstall()` puts every original
back and `leftovers()` proves that nothing wrapped remains.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import types
from collections import defaultdict
from time import perf_counter

from oracles import exact_flag

LAYERS = ("space", "coefficients", "randomgen", "cochains", "averaging",
          "sequences", "verify", "cli")
_MARK = "_perfbench_key"

# Dunder methods worth counting; other underscore names stay unwrapped.
_DUNDERS = {"cochains.Cochain.__call__", "coefficients.SupportedVector.__init__"}
_COUNTED = {"cochains.Cochain.__call__"}
# Per-point distance queries: no metric reads them, so they stay unwrapped.
_UNWRAPPED = {"space.FiniteMetricSpace.d", "space.FiniteMetricSpace.within",
              "space.FiniteMetricSpace.label"}
_RULE_KEY = "randomgen.rule"
_JSON_DUMP = "cli.json.dump"

# metric -> span names whose outermost calls add their inclusive time
_INCLUSIVE = {
    "space.build_s": {"space.generate_family", "space.build_graph_metric",
                      "space.load_edge_list"},
    "space.balls_s": {"space.FiniteMetricSpace.balls_list",
                      "space.FiniteMetricSpace.ball_sets",
                      "space.FiniteMetricSpace.ball"},
    "space.tuples_s": {"space.enumerate_tuples", "space.sample_tuples"},
    "cochains.audit_points_s": {"cochains.audit_points"},
    "averaging.family_s": {"averaging.ball_average",
                           "averaging.lazy_walk_family",
                           "averaging.dirac_family",
                           "averaging.normalize_to_prob"},
    "averaging.profile_s": {"averaging.variation_profile"},
    "sequences.diagnose_s": {"sequences.diagnose"},
    "sequences.counterexample_s": {"sequences.counterexample_s_not_invariant"},
    "cli.report_s": {"averaging.ProfileTable.to_csv", _JSON_DUMP},
}
# metric -> span names whose self time (minus child spans) adds up
_SELF = {
    "cochains.audit_s": {"cochains.audit_equal", "cochains.audit_zero",
                         "cochains.seminorm", "cochains.diff_D_norm_audit",
                         "cochains.diff_d_norm_audit",
                         "cochains.split_s_norm_audit"},
    "averaging.conv_audit_s": {"averaging.conv_norm_audit",
                               "averaging.homotopy_defect",
                               "averaging.tf_identity"},
}


def _matmuls(steps: int) -> int:
    """Matrix products numpy.linalg.matrix_power spends on `steps`."""
    if steps <= 3:
        return max(steps - 1, 0)
    count, squared, result = 0, False, False
    while steps > 0:
        count += squared
        squared = True
        steps, bit = divmod(steps, 2)
        if bit:
            count += result
            result = True
    return count


class Tracer:
    """Timers and counters for one traced pass; read them with metrics()."""

    def __init__(self):
        self.self_time: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.values: dict = defaultdict(float)
        self.suite_s: dict = defaultdict(float)
        self.suite_exact: dict = defaultdict(lambda: [0, 0])
        self._stack: list = []    # time spent in child spans, per open span
        self._depth: dict = defaultdict(int)
        self._groups: dict = defaultdict(list)
        for metric, names in _INCLUSIVE.items():
            for name in names:
                self._groups[name].append(metric)
        self._seen: dict = {}
        self._patches: list = []
        self._observers = {
            "space.generate_family": self._on_space,
            "space.build_graph_metric": self._on_space,
            "space.load_edge_list": self._on_space,
            "space.enumerate_tuples": self._on_tuple_domain,
            "space.sample_tuples": self._on_sample,
            "cochains.audit_points": self._on_audit_points,
            "averaging.lazy_walk_family": self._on_walk,
            "averaging.pairs_within": self._on_pairs,
            "verify.run_suite": self._on_suite,
        }

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        stack, self_time, depth = self._stack, self.self_time, self._depth
        groups = self._groups.get(name, ())
        observe = self._observers.get(name)
        if name.startswith("randomgen."):
            groups = list(groups) + ["randomgen.build_s"]
            observe = self._on_randomgen

        def wrapper(*args, **kwargs):
            outer = [g for g in groups if not depth[g]]
            for g in groups:
                depth[g] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                for g in groups:
                    depth[g] -= 1
                for g in outer:
                    self.values[g] += dur
                    if g == "averaging.family_s" and depth["averaging.profile_s"]:
                        self.values["averaging.family_in_profile_s"] += dur
                if stack:
                    stack[-1][0] += dur
                self_time[name] += dur - frame[0]
            if observe is not None:
                observe(fn, args, kwargs, result, dur)
            return result

        return self._mark(wrapper, fn, name)

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return self._mark(wrapper, fn, name)

    @staticmethod
    def _mark(wrapper, fn, name):
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, _MARK, name)
        return wrapper

    # -- install / uninstall ----------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if name == "coarsecohom" or name.startswith("coarsecohom.")]

    def _patch(self, namespace, attr, new):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, new)

    def install(self) -> None:
        layers = [importlib.import_module(f"coarsecohom.{layer}")
                  for layer in LAYERS]
        modules = self._modules()
        for layer, mod in zip(LAYERS, layers):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__",
                                                   None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", layer, obj)
                    for other in modules:
                        for name, val in list(vars(other).items()):
                            if val is obj:
                                self._patch(other, name, wrapped)
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        key = f"{layer}.{attr}.{mname}"
                        wanted = not mname.startswith("_") or key in _DUNDERS
                        if (inspect.isfunction(meth) and wanted
                                and key not in _UNWRAPPED):
                            self._patch(obj, mname,
                                        self._wrap(key, layer, meth))
        cli = sys.modules["coarsecohom.cli"]
        shim = types.SimpleNamespace(**{k: getattr(json, k) for k in dir(json)
                                        if not k.startswith("__")})
        shim.dump = self._span(_JSON_DUMP, json.dump)
        setattr(shim, _MARK, "cli.json")
        self._patch(cli, "json", shim)

    def _wrap(self, key, layer, fn):
        if layer == "coefficients" or key in _COUNTED:
            return self._counter(key, fn)
        return self._span(key, fn)

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def leftovers(self) -> list:
        """Names in the package that still hold a wrapper (want: none)."""
        found = []
        for mod in self._modules():
            for attr, obj in vars(mod).items():
                if hasattr(obj, _MARK):
                    found.append(f"{mod.__name__}.{attr}")
                if inspect.isclass(obj):
                    found += [f"{mod.__name__}.{attr}.{m}"
                              for m, v in vars(obj).items() if hasattr(v, _MARK)]
        return found

    # -- observers: they read only what the wrapped call returned -------------

    def _first_sight(self, obj) -> bool:
        # holds obj so its id cannot be reused within the pass
        if id(obj) in self._seen:
            return False
        self._seen[id(obj)] = obj
        return True

    def _on_space(self, fn, args, kwargs, space, dur):
        if not self._depth["space.build_s"]:
            self.counts["space.build_points"] += space.n
            self.counts["space.dist_bytes"] += space.dist.nbytes

    def _on_tuple_domain(self, fn, args, kwargs, dom, dur):
        if self._first_sight(dom):
            kind = "exact" if dom.exact else "sampled"
            self.counts[f"space.tuple_domains_{kind}"] += 1

    def _on_sample(self, fn, args, kwargs, result, dur):
        self.counts["space.sampler_attempts"] += result[1]

    def _on_audit_points(self, fn, args, kwargs, result, dur):
        points, exact = result
        self.counts["cochains.audit_points_n"] += len(points)
        if not self._first_sight(result):
            return
        self.counts["cochains.audit_domains_"
                    + ("exact" if exact else "sampled")] += 1
        if not exact:
            call = inspect.signature(fn).bind(*args, **kwargs)
            call.apply_defaults()
            want = min(call.arguments["sample_size"], call.arguments["budget"])
            self.counts["cochains.sample_shortfall"] += want - len(points)

    def _on_randomgen(self, fn, args, kwargs, result, dur):
        rule = getattr(result, "rule", None)
        if callable(rule) and not hasattr(rule, _MARK):
            result.rule = self._counter(_RULE_KEY, rule)

    def _on_walk(self, fn, args, kwargs, family, dur):
        call = inspect.signature(fn).bind(*args, **kwargs)
        n = call.arguments["space"].n
        self.counts["averaging.walk_matmul_flops"] += (
            _matmuls(int(call.arguments["steps"])) * 2 * n ** 3)

    def _on_pairs(self, fn, args, kwargs, pairs, dur):
        if self._depth["averaging.profile_s"]:
            self.counts["averaging.pairs"] += len(pairs)

    def _on_suite(self, fn, args, kwargs, result, dur):
        name = result["suite"]
        self.suite_s[name] += dur
        tally = self.suite_exact[name]
        for check in result["checks"]:
            flag = exact_flag(check)
            if flag is not None:
                tally[0] += flag
                tally[1] += 1

    # -- results --------------------------------------------------------------

    def metrics(self, suites) -> dict:
        """Per-layer metrics of the traced pass, as {name: (value, unit)}."""
        c, v = self.counts, self.values
        self_time = {metric: sum(self.self_time[name] for name in names)
                     for metric, names in _SELF.items()}
        evals = c["cochains.Cochain.__call__"]
        scan_s = v["averaging.profile_s"] - v["averaging.family_in_profile_s"]
        out = {
            "space.build_s": (v["space.build_s"], "s"),
            "space.build_points": (c["space.build_points"], "count"),
            "space.dist_bytes": (c["space.dist_bytes"], "bytes"),
            "space.balls_s": (v["space.balls_s"], "s"),
            "space.tuples_s": (v["space.tuples_s"], "s"),
            "space.tuple_domains_exact": (c["space.tuple_domains_exact"],
                                          "count"),
            "space.tuple_domains_sampled": (c["space.tuple_domains_sampled"],
                                            "count"),
            "space.sampler_attempts": (c["space.sampler_attempts"], "count"),
            "cochains.evals": (evals, "count"),
            "cochains.useful_eval_ratio": (c[_RULE_KEY] / evals if evals
                                           else 0.0, "ratio"),
            "cochains.audit_s": (self_time["cochains.audit_s"], "s"),
            "cochains.audit_points_s": (v["cochains.audit_points_s"], "s"),
            "cochains.audit_points_n": (c["cochains.audit_points_n"], "count"),
            "cochains.audit_domains_exact": (
                c["cochains.audit_domains_exact"], "count"),
            "cochains.audit_domains_sampled": (
                c["cochains.audit_domains_sampled"], "count"),
            "cochains.sample_shortfall": (c["cochains.sample_shortfall"],
                                          "count"),
            "randomgen.build_s": (v["randomgen.build_s"], "s"),
            "randomgen.rule_evals": (c[_RULE_KEY], "count"),
            "coefficients.vectors_built": (
                c["coefficients.SupportedVector.__init__"], "count"),
            "coefficients.entry_gap_calls": (c["coefficients.entry_gap"],
                                             "count"),
            "averaging.family_s": (v["averaging.family_s"], "s"),
            "averaging.scan_s": (scan_s, "s"),
            "averaging.pairs": (c["averaging.pairs"], "count"),
            "averaging.pairs_per_s": (c["averaging.pairs"] / scan_s if scan_s
                                      else 0.0, "1/s"),
            "averaging.walk_matmul_flops": (c["averaging.walk_matmul_flops"],
                                            "flop"),
            "averaging.conv_audit_s": (self_time["averaging.conv_audit_s"],
                                       "s"),
            "sequences.diagnose_s": (v["sequences.diagnose_s"], "s"),
            "sequences.counterexample_s": (v["sequences.counterexample_s"],
                                           "s"),
        }
        for suite in suites:
            exact, flagged = self.suite_exact.get(suite, (0, 0))
            ran = suite in self.suite_s
            out[f"verify.suite_s.{suite}"] = (self.suite_s.get(suite, 0.0), "s")
            out[f"verify.exact_frac.{suite}"] = (
                exact / flagged if flagged else float(ran), "ratio")
        out["cli.report_s"] = (v["cli.report_s"], "s")
        return out
