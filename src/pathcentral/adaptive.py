"""Shared machinery for the adaptive sampling estimators.

All three estimators (betweenness, coverage, k-path) follow the same scheme:
draw cheap per-sample contributions bounded by a known fraction, keep a
running mean, and stop as soon as either a fallback sample budget is
exhausted or two concentration gap terms around the running mean both drop
below the requested tolerance. The budget alone guarantees the additive
error with half the failure probability; the two gap terms spend a quarter
each (``gap_term_risk``), so a run that stops early keeps the overall
guarantee.

Each estimator supplies only its draw, its budget, its contribution bound
and its gap terms; ``run_sampling_loop`` runs the draws, applies the stopping
rule and builds the ``Estimate``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "EstimatorConfig",
    "Estimate",
    "CompensatedSum",
    "compute_sample_budget",
    "gap_term_risk",
    "stopping_terms",
    "run_sampling_loop",
    "make_rng",
]


@dataclass(frozen=True)
class EstimatorConfig:
    """Accuracy target and run options for the pair-sampling estimators.

    ``tolerance`` is the additive error bound, ``failure_prob`` the total
    probability with which the bound may be missed. The failure budget is
    split as half for the fallback sample count and a quarter for each of
    the two adaptive gap terms; the split is fixed because the guarantee's
    union bound depends on it.

    ``mode="baseline"`` samples endpoints from all vertices except the root
    instead of the root's upstream/downstream sets; it exists for sample
    count comparisons, not for accuracy (its per-sample scaling follows the
    unrestricted convention, which normalizes by n-1 rather than n).

    ``fixed_samples`` disables the adaptive rule and runs exactly that many
    samples.
    """

    tolerance: float
    failure_prob: float
    seed: int | None = None
    mode: str = "restricted"
    fixed_samples: int | None = None

    def __post_init__(self):
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError("tolerance must be in (0, 1)")
        if not (0.0 < self.failure_prob < 1.0):
            raise ValueError("failure_prob must be in (0, 1)")
        if self.mode not in ("restricted", "baseline"):
            raise ValueError(f"mode must be 'restricted' or 'baseline', got {self.mode!r}")
        if self.fixed_samples is not None and self.fixed_samples < 1:
            raise ValueError("fixed_samples must be >= 1")


def gap_term_risk(failure_prob: float) -> float:
    """Share of the failure probability spent on each of the two gap terms."""
    return failure_prob / 4.0


@dataclass(frozen=True)
class Estimate:
    """Result of one estimator run.

    ``contribution_bound`` is the upper end of the per-sample contribution
    range (the pair fraction for betweenness/coverage, the source fraction
    for k-path), so ``0 <= value <= contribution_bound`` always holds.
    ``lower_conf``/``upper_conf`` are ``value`` minus/plus the final gap
    terms; they are None when the run had no gap terms to evaluate (fixed
    sample counts), and 0.0 for degenerate zeros. ``hits`` counts samples
    with nonzero contribution, a cheap diagnostic for how often the root
    was actually seen.
    """

    value: float
    samples: int
    sample_budget: int
    contribution_bound: float
    stop_reason: str
    lower_conf: float | None
    upper_conf: float | None
    seed: int
    wall_time: float
    hits: int


class CompensatedSum:
    """Neumaier-compensated accumulator for long streams of small terms."""

    __slots__ = ("_sum", "_comp")

    def __init__(self):
        self._sum = 0.0
        self._comp = 0.0

    def add(self, x: float) -> None:
        s = self._sum
        t = s + x
        if abs(s) >= abs(x):
            self._comp += (s - t) + x
        else:
            self._comp += (x - t) + s
        self._sum = t

    @property
    def value(self) -> float:
        return self._sum + self._comp


def compute_sample_budget(
    tolerance: float,
    failure_prob: float,
    diameter_vertex_bound: int,
) -> int:
    """Fallback sample count sufficient for the (tolerance, failure) target.

    Scales with the squared inverse tolerance and, weakly, with the number
    of BFS levels a shortest path can span (the floor-log term, clamped to
    zero for bounds below 4 where it would go negative).
    """
    vd = diameter_vertex_bound
    level_term = (vd - 2).bit_length() - 1 if vd >= 4 else 0
    raw = (0.5 / tolerance**2) * (level_term + 1 + math.log(2.0 / failure_prob))
    return math.ceil(raw)


def stopping_terms(
    mean: float,
    samples: int,
    budget: int,
    fraction: float,
    risk_lower: float,
    risk_upper: float,
) -> tuple[float, float]:
    """Concentration gap terms around the running mean after ``samples`` draws.

    The first term bounds how far the mean can sit above the true value,
    the second how far below, each with its own risk share. Both shrink as
    samples accumulate; the lower term is additionally damped through the
    ``budget * fraction`` product, which upper-bounds the total variance
    mass of the stream.
    """
    if samples < 1:
        raise ValueError("gap terms need at least one sample")
    mass = budget * fraction
    ratio = mass / samples
    log_lo = math.log(1.0 / risk_lower)
    log_hi = math.log(1.0 / risk_upper)
    inner_lo = 1.0 / 3.0 - ratio
    inner_hi = 1.0 / 3.0 + ratio
    a = (log_lo / samples) * (
        inner_lo + math.sqrt(inner_lo * inner_lo + 2.0 * mean * mass / log_lo)
    )
    b = (log_hi / samples) * (
        inner_hi + math.sqrt(inner_hi * inner_hi + 2.0 * mean * mass / log_hi)
    )
    return a, b


def make_rng(seed: int | None) -> tuple[np.random.Generator, int]:
    """Generator plus the concrete seed actually used (drawn when absent)."""
    if seed is None:
        seed = int(np.random.SeedSequence().entropy)
    return np.random.default_rng(seed), seed


# Relative slack on the tolerance when choosing which checks to skip. The
# gap formula loses a few ulps to rounding, and the running sum a few more;
# 1e-9 dwarfs both, so a skipped check never hides a pass of the real one.
_SKIP_MARGIN = 1e-9


def next_check(
    gap_terms: Callable[[float, int], tuple[float, float]],
    total: float,
    tau: int,
    upper: float,
    budget: int,
    tolerance: float,
) -> int:
    """First sample count after ``tau`` at which the stopping check can pass.

    ``total`` is the running sum and ``upper`` the upper gap term of a check
    that just failed at ``tau``. Returns the smallest t in (tau, budget] at
    which the upper gap for the same running sum, evaluated by ``gap_terms``,
    comes within the tolerance plus the margin; ``budget`` when none does
    before it. See ``run_sampling_loop`` for why every check before the
    returned count would fail.
    """
    limit = tolerance * (1.0 + _SKIP_MARGIN)
    if upper <= limit:
        return tau + 1
    lo, hi = tau, budget
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gap_terms(total / mid, mid)[1] <= limit:
            hi = mid
        else:
            lo = mid
    return hi


def run_sampling_loop(
    draw: Callable[[], float],
    budget: int,
    tolerance: float,
    gap_terms: Callable[[float, int], tuple[float, float]] | None,
    bound: float,
    seed: int,
    started: float,
) -> Estimate:
    """Drive one estimation run to its stopping point and report it.

    ``draw`` produces one per-sample contribution in ``[0, bound]``.
    ``gap_terms(mean, tau)`` evaluates the two adaptive gap terms, or is
    None when only the budget should stop the run (fixed sample counts);
    then ``lower_conf``/``upper_conf`` are None. ``seed`` is the concrete
    seed of the run's generator and ``started`` its ``time.perf_counter()``
    start, for ``wall_time``.

    The run stops before the first draw at which both gap terms, evaluated
    at the running mean, are at most the tolerance (``bounds-satisfied``),
    or when the budget is spent (``budget-reached``); only then are the gaps
    evaluated once more for the final mean. A ``bounds-satisfied`` stop
    reports the gaps that passed the check.

    The check is not made before every draw. After a check fails at sample
    count tau with running sum S, :func:`next_check` bisects for the first
    t' at which the upper term b(S, t') = gap_terms(S / t', t')[1] reaches
    the tolerance λ (plus a relative margin of 1e-9), and the checks at
    tau + 1 .. t' - 1 are skipped. None of them could pass, given two
    properties of the upper term that ``stopping_terms`` has:

    * a stop needs b <= λ;
    * for a fixed S, b does not increase with the sample count t: in
      ``stopping_terms`` the factor log(1/risk)/t, the term 1/3 + mass/t
      and the mean S/t all shrink as t grows, and mass = budget * bound is
      fixed for the run;
    * b does not decrease as S grows, since S enters only through the mean
      under a square root with a positive coefficient;
    * S never falls, because every contribution is at least 0.

    So at every skipped t the running sum S' >= S gives b(S', t) >= b(S, t)
    > λ. The margin absorbs float rounding in the formula and in the
    running sum, which could otherwise let the real check pass a hair
    earlier than the bisection's target. At t' the check is the same exact
    float evaluation as ever, so the stop, the sample count and every
    reported field are the same as with a check before every draw. Only the upper
    term is used, since the lower term can rise with t (it has a hump
    below the safe region); with the same risk for both terms it never
    exceeds the upper one anyway.
    """
    acc = CompensatedSum()
    tau = 0
    hits = 0
    stop_reason = "budget-reached"
    a = b = None
    check_at = 1 if gap_terms is not None else budget
    while tau < budget:
        if tau >= check_at:
            total = acc.value
            a, b = gap_terms(total / tau, tau)
            if a <= tolerance and b <= tolerance:
                stop_reason = "bounds-satisfied"
                break
            check_at = next_check(gap_terms, total, tau, b, budget, tolerance)
        c = draw()
        if c != 0.0:
            acc.add(c)
            hits += 1
        tau += 1
    mean = acc.value / tau if tau > 0 else 0.0
    if gap_terms is not None and tau > 0 and stop_reason == "budget-reached":
        a, b = gap_terms(mean, tau)
    return Estimate(
        value=mean,
        samples=tau,
        sample_budget=budget,
        contribution_bound=bound,
        stop_reason=stop_reason,
        lower_conf=None if a is None else mean - a,
        upper_conf=None if b is None else mean + b,
        seed=seed,
        wall_time=time.perf_counter() - started,
        hits=hits,
    )


def degenerate_estimate(seed: int, started: float) -> Estimate:
    """Zero-valued result for roots that cannot lie on any counted path."""
    return Estimate(
        value=0.0,
        samples=0,
        sample_budget=0,
        contribution_bound=0.0,
        stop_reason="degenerate-zero",
        lower_conf=0.0,
        upper_conf=0.0,
        seed=seed,
        wall_time=time.perf_counter() - started,
        hits=0,
    )
