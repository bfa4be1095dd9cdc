"""Correctness checks applied to every query the benchmark issues.

Each check returns a list of problems, empty when the output is sound, so a
run can count failed operations and still report what went wrong.

An estimate is only promised to lie within λ of the truth with probability
at least 1 − δ. A single estimate outside λ is therefore not a failure;
``check_misses`` fails a group of estimates only when more of them miss
than δ allows, with a false-alarm rate of at most ``ALPHA`` per group. An
error of more than 2λ fails at once.
"""

from __future__ import annotations

import math

__all__ = ["ALPHA", "DETERMINISTIC_FIELDS", "ROW_FIELDS", "allowed_misses", "check_estimate",
           "check_misses", "check_order", "check_row", "check_same", "check_same_row",
           "misses_tolerance", "order_excess"]

# Relative slack for float comparisons against bounds the estimators compute
# in the same arithmetic; far below any tolerance a query asks for.
_SLACK = 1e-9

# Chance that a sound estimator, missing λ with probability exactly δ, still
# trips check_misses for one group of estimates.
ALPHA = 1e-4

DETERMINISTIC_FIELDS = ("value", "samples", "hits", "stop_reason")
ROW_FIELDS = ("estimate", "samples", "stop_reason")


def _le(a: float, b: float) -> bool:
    return a <= b + _SLACK * max(1.0, abs(b))


def allowed_misses(trials: int, prob: float, alpha: float = ALPHA) -> int:
    """The smallest count c with P(Binomial(trials, prob) > c) <= alpha."""
    above = 1.0  # P(X > c), starting from c = -1
    for c in range(trials + 1):
        above -= math.comb(trials, c) * prob**c * (1.0 - prob) ** (trials - c)
        if above <= alpha:
            return c
    return trials


def check_misses(what: str, misses: int, trials: int, prob: float) -> list[str]:
    """More than ``prob`` of ``trials`` missed, beyond binomial chance."""
    allowed = allowed_misses(trials, prob)
    if misses <= allowed:
        return []
    return [f"{misses} of {trials} {what}; failure probability {prob} allows {allowed}"]


def check_estimate(est) -> list[str]:
    """Invariants every ``Estimate`` promises, whatever the seed."""
    problems = []
    if not (_le(0.0, est.value) and _le(est.value, est.contribution_bound)):
        problems.append(
            f"value {est.value!r} outside [0, contribution_bound={est.contribution_bound!r}]")
    if est.lower_conf is not None and not _le(est.lower_conf, est.value):
        problems.append(f"lower_conf {est.lower_conf!r} above value {est.value!r}")
    if est.upper_conf is not None and not _le(est.value, est.upper_conf):
        problems.append(f"upper_conf {est.upper_conf!r} below value {est.value!r}")
    if est.samples > est.sample_budget:
        problems.append(f"samples {est.samples} exceed sample_budget {est.sample_budget}")
    return problems


def order_excess(betweenness, coverage, tolerance: float) -> float:
    """How far betweenness exceeds coverage, in tolerances.

    Exact betweenness never exceeds coverage, so two estimates within λ
    each give at most 2; that holds with probability at least 1 − 2δ.
    """
    return (betweenness.value - coverage.value) / tolerance


def check_order(betweenness, coverage, tolerance: float) -> list[str]:
    """Betweenness above coverage by more than 4λ: one estimate is off by over 2λ."""
    if _le(order_excess(betweenness, coverage, tolerance), 4.0):
        return []
    return [f"betweenness {betweenness.value!r} exceeds coverage {coverage.value!r} "
            f"+ 4*{tolerance}"]


def check_same(first, again) -> list[str]:
    """Fields the package promises are bit-identical for a fixed seed."""
    return [f"{field} differs on rerun: {getattr(first, field)!r} != {getattr(again, field)!r}"
            for field in DETERMINISTIC_FIELDS if getattr(first, field) != getattr(again, field)]


def misses_tolerance(row: dict) -> bool:
    """A grid row with an exact reference, further than λ from it."""
    return row["exact"] is not None and abs(row["estimate"] - row["exact"]) > row["tolerance"]


def check_row(row: dict) -> list[str]:
    """A ``run_benchmark`` row: range, budget, and error against the oracle within 2λ."""
    if row["method"] == "kpath":
        bound = row["source_fraction"]
    elif row["method"] == "betweenness-baseline":
        bound = 1.0
    else:
        bound = row["pair_fraction"]
    problems = []
    if not (_le(0.0, row["estimate"]) and _le(row["estimate"], bound)):
        problems.append(f"estimate {row['estimate']!r} outside [0, {bound!r}]")
    if row["samples"] > row["sample_budget"]:
        problems.append(f"samples {row['samples']} exceed sample_budget {row['sample_budget']}")
    if row["exact"] is not None and abs(row["estimate"] - row["exact"]) > 2.0 * row["tolerance"]:
        problems.append(f"estimate {row['estimate']!r} off exact {row['exact']!r} "
                        f"by more than 2*{row['tolerance']}")
    return problems


def check_same_row(first: dict, again: dict) -> list[str]:
    """The same grid row from two ``run_benchmark`` calls with one config and seed."""
    return [f"{field} differs between grid calls: {first[field]!r} != {again[field]!r}"
            for field in ROW_FIELDS if first[field] != again[field]]
