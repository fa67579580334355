"""Decay diagnostics for asymptotic invariance, and the certificate that
the splitting does not preserve invariance.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .cochains import (DEFAULT_SAMPLE_SIZE, EXACT_TOL, Check, _witness_json,
                       audit_zero, diff_D, johnson_cocycles, seminorm, split_s)
from .space import FiniteMetricSpace


@dataclass(frozen=True)
class DecayThresholds:
    """Verdict cutoffs; the verdict is a pure function of values + these."""
    decay_ratio: float = 0.5
    decay_rate: float = -0.5
    growth_rate: float = 0.25
    zero_tol: float = 1e-14


DEFAULT_THRESHOLDS = DecayThresholds()


@dataclass
class DecayDiagnostic:
    """A profile verdict and its inputs: the thresholds it was read with,
    and how many values at or below zero_tol the rate fit dropped."""
    r: float
    values: list[float]
    last: float
    fitted_rate: float | None
    verdict: str
    thresholds: DecayThresholds
    dropped: int

    def to_json(self) -> dict:
        return {"R": self.r, "values": self.values, "last": self.last,
                "fitted_rate": self.fitted_rate, "verdict": self.verdict,
                "thresholds": asdict(self.thresholds),
                "dropped": self.dropped}


def fit_log_rate(axis, values, zero_tol: float = 1e-14) -> float | None:
    """Least-squares slope of log(values) against log(axis).

    Entries at or below zero_tol are excluded (log of numerical zero carries
    no rate information); None when fewer than two informative points remain.
    """
    pts = [(math.log(a), math.log(v)) for a, v in zip(axis, values)
           if v > zero_tol]
    if len(pts) < 2:
        return None
    mean_x = sum(x for x, _ in pts) / len(pts)
    mean_y = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mean_x) ** 2 for x, _ in pts)
    if sxx == 0.0:
        return None
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in pts)
    return sxy / sxx


def verdict_of(values, rate: float | None,
               thresholds: DecayThresholds = DEFAULT_THRESHOLDS) -> str:
    first, last = values[0], values[-1]
    if last <= thresholds.zero_tol:
        return "decaying"
    if (rate is not None and last <= thresholds.decay_ratio * first
            and rate <= thresholds.decay_rate):
        return "decaying"
    if rate is not None and rate >= thresholds.growth_rate:
        return "growing"
    return "stalled"


def diagnose(values, r: float, axis=None,
             thresholds: DecayThresholds = DEFAULT_THRESHOLDS) -> DecayDiagnostic:
    values = [float(v) for v in values]
    if len(values) < 2:
        raise ValueError("decay diagnostics need at least two terms")
    if axis is None:
        axis = list(range(1, len(values) + 1))
    for scale in axis:
        if not scale > 0:
            raise ValueError(f"decay diagnostics need scales > 0, got "
                             f"{scale!r}")
    rate = fit_log_rate(axis, values, thresholds.zero_tol)
    dropped = sum(not v > thresholds.zero_tol for v in values)
    return DecayDiagnostic(float(r), values, values[-1], rate,
                           verdict_of(values, rate, thresholds), thresholds,
                           dropped)


def counterexample_s_not_invariant(space: FiniteMetricSpace,
                                   budget: int = 4000,
                                   sample_size: int = DEFAULT_SAMPLE_SIZE,
                                   seed: int = 0) -> Check:
    """Certificate that s can destroy asymptotic invariance.

    Take phi(x,(y0,y1)) = delta_y1 - delta_y0: it is D-flat (audited), yet
    D s phi ((x0,x1),(y0)) = delta_x0 - delta_x1 has seminorm exactly 2 at
    any radius admitting a distinct pair. Uses the smallest positive
    distance as that radius so the witness pair always exists. The
    "s_breaks_invariance" check carries the verdict twice, as "passed" and
    as "ok".
    """
    if space.n < 2:
        raise ValueError("need at least two points for the certificate")
    phi, _, _ = johnson_cocycles(space)
    r_used = max(1.0, space.min_positive_distance())
    audit = {"budget": budget, "sample_size": sample_size, "seed": seed}
    flat = audit_zero("D(j01)=0", diff_D(phi), r_used, tol=EXACT_TOL, **audit)
    ds = diff_D(split_s(phi))
    norm_report = seminorm(ds, r_used, **audit)
    passed = flat.ok and abs(norm_report["value"] - 2.0) <= EXACT_TOL
    return Check(check="s_breaks_invariance", ok=passed, values={
        "space_n": space.n,
        "r_used": r_used,
        "d_flat_max_violation": flat["max_violation"],
        "d_flat_exact": flat.exact,
        "split_defect_seminorm": norm_report["value"],
        "witness": _witness_json(norm_report.witness),
        "passed": passed,
    })
