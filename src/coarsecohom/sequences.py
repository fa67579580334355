"""Cochain sequences as finite prefixes, asymptotic-invariance diagnostics,
and the certificate that the splitting does not preserve invariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cochains import (EXACT_TOL, Cochain, audit_zero, diff_D,
                       johnson_cocycles, seminorm, split_s)
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
    r: float
    values: list[float]
    last: float
    fitted_rate: float | None
    verdict: str

    def to_json(self) -> dict:
        return {"R": self.r, "values": self.values, "last": self.last,
                "fitted_rate": self.fitted_rate, "verdict": self.verdict}


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
    rate = fit_log_rate(axis, values, thresholds.zero_tol)
    return DecayDiagnostic(float(r), values, values[-1], rate,
                           verdict_of(values, rate, thresholds))


class CochainSequence:
    """Terms n = 1..N of equal bidegree and module on one space.

    `schedule` is the numeric family axis (radii S_n, walk lengths, ...)
    used for rate fitting; defaults to 1..N. `family_axis` is a label only.
    """

    def __init__(self, terms: list[Cochain], family_axis: str = "n",
                 schedule=None):
        if not terms:
            raise ValueError("sequence needs at least one term")
        first = terms[0]
        for t in terms[1:]:
            if t.space is not first.space:
                raise ValueError("sequence terms must share their space")
            if (t.p, t.q, t.module) != (first.p, first.q, first.module):
                raise ValueError("sequence terms must share bidegree and module")
        self.terms = list(terms)
        self.family_axis = family_axis
        self.schedule = list(schedule) if schedule is not None else None
        if self.schedule is not None and len(self.schedule) != len(self.terms):
            raise ValueError("schedule length must match term count")

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def space(self) -> FiniteMetricSpace:
        return self.terms[0].space

    @property
    def bidegree(self):
        return (self.terms[0].p, self.terms[0].q)


def asymptotic_invariance(seq: CochainSequence, r_list,
                          thresholds: DecayThresholds = DEFAULT_THRESHOLDS,
                          budget: int = 20_000, sample_size: int = 10_000,
                          seed: int = 0) -> dict[float, DecayDiagnostic]:
    """||D phi_n||_R per term and radius, with a decay verdict per radius."""
    if len(seq) < 2:
        raise ValueError("asymptotic invariance needs at least two terms")
    diffs = [diff_D(t) for t in seq.terms]
    axis = seq.schedule if seq.schedule is not None else list(
        range(1, len(seq) + 1))
    out: dict[float, DecayDiagnostic] = {}
    for r in r_list:
        values = [seminorm(t, r, budget=budget, sample_size=sample_size,
                           seed=seed).value for t in diffs]
        out[float(r)] = diagnose(values, r, axis=axis, thresholds=thresholds)
    return out


def counterexample_s_not_invariant(space: FiniteMetricSpace,
                                   budget: int = 4000,
                                   seed: int = 0) -> dict:
    """Certificate that s can destroy asymptotic invariance.

    Take phi(x,(y0,y1)) = delta_y1 - delta_y0: it is D-flat (audited), yet
    D s phi ((x0,x1),(y0)) = delta_x0 - delta_x1 has seminorm exactly 2 at
    any radius admitting a distinct pair. Uses the smallest positive
    distance as that radius so the witness pair always exists.
    """
    if space.n < 2:
        raise ValueError("need at least two points for the certificate")
    phi, _, _ = johnson_cocycles(space, audit=False)
    r_used = max(1.0, space.min_positive_distance())
    flat = audit_zero("D(j01)=0", diff_D(phi), r_used, budget=budget,
                      seed=seed, tol=EXACT_TOL)
    ds = diff_D(split_s(phi))
    norm_report = seminorm(ds, r_used, budget=budget, seed=seed)
    passed = flat.ok and abs(norm_report.value - 2.0) <= EXACT_TOL
    return {
        "space_n": space.n,
        "r_used": r_used,
        "d_flat_max_violation": flat.max_violation,
        "d_flat_exact": flat.exact,
        "split_defect_seminorm": norm_report.value,
        "witness": norm_report.witness,
        "passed": passed,
    }
