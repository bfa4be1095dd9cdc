"""Shared machinery for the adaptive sampling estimators.

All three estimators (betweenness, coverage, k-path) follow the same scheme:
draw cheap per-sample contributions bounded by a known fraction, keep a
running mean, and stop as soon as either a fallback sample budget is
exhausted or two concentration gap terms around the running mean both drop
below the requested tolerance. The budget alone guarantees the additive
error with half the failure probability; the two gap terms spend a quarter
each (``gap_term_risk``), so a run that stops early keeps the overall
guarantee.

``run_sampling_loop`` owns the run: the clock, the seed, the degenerate
zero, fixed or adaptive length, the binding of the gap terms, the draws and
the ``Estimate``. Each estimator supplies a plan that returns its draws (a
block of contributions at a time, in stream order), its budget and its
contribution bound, or None for a root that cannot score.

The estimators draw through ``RawDraws``, which reads the generator's PCG64
stream in blocks of raw 64-bit words and turns them into exactly the values
``Generator.integers`` and ``Generator.bytes`` would return, at a fraction
of the cost of a scalar numpy call. ``RawDraws.pairs`` replays a whole
block of alternating bounded draws in numpy, for the estimator whose
samples draw nothing else. ``RawDraws.peek`` and ``RawDraws.skip`` give
the coming half-words as an array and then consume as many as were used,
for the k-path lane kernel.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from functools import partial
from operator import length_hint
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "EstimatorConfig",
    "check_count",
    "check_accuracy",
    "Estimate",
    "CompensatedSum",
    "compute_sample_budget",
    "gap_term_risk",
    "stopping_terms",
    "run_sampling_loop",
    "make_rng",
    "RawDraws",
]


def check_count(name: str, value) -> None:
    """Reject a count that is not an integer (a bool is not) or is below 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def check_accuracy(tolerance: float, failure_prob: float, fixed_samples: int | None) -> None:
    """Reject an accuracy target or run length that no estimator can honour."""
    if not (0.0 < tolerance < 1.0):
        raise ValueError("tolerance must be in (0, 1)")
    if not (0.0 < failure_prob < 1.0):
        raise ValueError("failure_prob must be in (0, 1)")
    if fixed_samples is not None:
        check_count("fixed_samples", fixed_samples)


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
        check_accuracy(self.tolerance, self.failure_prob, self.fixed_samples)
        if self.mode not in ("restricted", "baseline"):
            raise ValueError(f"mode must be 'restricted' or 'baseline', got {self.mode!r}")


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


def stopping_terms(mean: float, samples: int, mass: float, risk: float) -> tuple[float, float]:
    """Concentration gap terms around the running mean after ``samples`` draws.

    The first term bounds how far the mean can sit above the true value,
    the second how far below, each at probability ``risk`` of failing. Both
    shrink as samples accumulate. ``mass`` upper-bounds the total variance
    mass of the stream: the estimators pass their sample budget times their
    contribution bound. It damps the lower term and widens the upper one.
    """
    if samples < 1:
        raise ValueError("gap terms need at least one sample")
    ratio = mass / samples
    log_risk = math.log(1.0 / risk)
    inner_lo = 1.0 / 3.0 - ratio
    inner_hi = 1.0 / 3.0 + ratio
    a = (log_risk / samples) * (
        inner_lo + math.sqrt(inner_lo * inner_lo + 2.0 * mean * mass / log_risk)
    )
    b = (log_risk / samples) * (
        inner_hi + math.sqrt(inner_hi * inner_hi + 2.0 * mean * mass / log_risk)
    )
    return a, b


def make_rng(seed: int | None) -> tuple[np.random.Generator, int]:
    """Generator plus the concrete seed actually used (drawn when absent)."""
    if seed is None:
        seed = int(np.random.SeedSequence().entropy)
    return np.random.default_rng(seed), seed


_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_RAW_BLOCK = 1024


class RawDraws:
    """Bounded integer and byte draws replayed from a PCG64 generator's raw words.

    Returns, as Python ints, the values the wrapped ``Generator`` would give
    for the same calls, and leaves it advanced past them: once wrapped, the
    generator must not be drawn from directly. numpy's scalar ``integers(m)``
    uses Lemire's rejection method (*Fast Random Integer Generation in an
    Interval*, ACM TOMACS 2019):

    * m = 1 draws nothing;
    * m < 2**32 takes one 32-bit half-word, the low half of a fresh 64-bit
      word or the high half held back from the last one, and rejects it
      when its scaled remainder falls below (2**32 - m) mod m;
    * m = 2**32 returns a half-word as it is;
    * a larger m takes a fresh full word (the held-back half stays held)
      and applies the 64-bit form.

    ``integers(lo, hi)`` is lo plus a draw over hi - lo, and ``bytes(n)``
    joins ceil(n / 4) half-words, little-endian, cut to n bytes.

    Words are read from the generator ``_RAW_BLOCK`` at a time, and only
    when the next one is needed, whether by a scalar draw or a block.
    ``_buffer`` holds the words last read. When ``_listed`` is set,
    ``_words`` iterates over them as Python ints and its remaining length
    says how many are still unread; otherwise all of ``_buffer`` is unread,
    and it is listed only when a scalar draw needs a word, so that block
    draws, which read the array, make no Python int per word.
    """

    __slots__ = ("_bit_generator", "_buffer", "_words", "_listed", "_half")

    def __init__(self, rng: np.random.Generator):
        state = rng.bit_generator.state
        if state["bit_generator"] != "PCG64":
            raise TypeError(f"raw draws replay PCG64, got {state['bit_generator']}")
        self._bit_generator = rng.bit_generator
        self._buffer = np.empty(0, dtype=np.uint64)
        self._words = iter(())
        self._listed = True
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _word(self) -> int:
        word = next(self._words, None)
        if word is None:
            rest = self._rest()
            if not len(rest):
                rest = self._bit_generator.random_raw(_RAW_BLOCK)
            self._buffer = rest
            self._words = iter(rest.tolist())
            self._listed = True
            word = next(self._words)
        return word

    def _rest(self) -> np.ndarray:
        """The words read from the generator and not yet consumed."""
        if self._listed:
            return self._buffer[len(self._buffer) - length_hint(self._words):]
        return self._buffer

    def _unread(self, count: int) -> np.ndarray:
        """The next ``count`` words, left unread.

        Reads whole ``_RAW_BLOCK`` blocks from the generator only when the
        buffer holds fewer than ``count``.
        """
        rest = self._rest()
        if len(rest) < count:
            blocks = -(-(count - len(rest)) // _RAW_BLOCK)
            rest = np.concatenate([rest, self._bit_generator.random_raw(blocks * _RAW_BLOCK)])
            self._buffer = rest
            self._words = iter(())
            self._listed = False
        return rest[:count]

    def peek(self, count: int) -> np.ndarray:
        """The next ``count`` half-words, in draw order, as uint64, left unread.

        A draw with a bound in [2, 2**32) takes the first of them unless
        Lemire's test rejects it. The array is the caller's own: later draws
        do not change it.
        """
        held = self._half is not None
        words = self._unread((count - held + 1) // 2)
        halves = np.empty(held + 2 * len(words), dtype=np.uint64)
        if held:
            halves[0] = self._half
        halves[held::2] = words & _MASK32
        halves[held + 1::2] = words >> 32
        return halves[:count]

    def skip(self, count: int) -> None:
        """Consume the next ``count`` half-words; a ``peek`` since the last
        draw must have covered them."""
        if count and self._half is not None:
            self._half = None
            count -= 1
        if count:
            words = (count + 1) // 2
            rest = self._rest()
            if count % 2:
                # only the low half of the last word was taken
                self._half = int(rest[words - 1]) >> 32
            self._buffer = rest[words:]
            self._words = iter(())
            self._listed = False

    def _half_word(self) -> int:
        half = self._half
        if half is None:
            word = self._word()
            self._half = word >> 32
            return word & _MASK32
        self._half = None
        return half

    def integers(self, low: int, high: int | None = None) -> int:
        """Uniform int in [low, high), or in [0, low) when ``high`` is None."""
        if high is None:
            low, high = 0, low
        m = high - low
        if m < 2:
            if m == 1:
                return low
            raise ValueError(f"empty range [{low}, {high})")
        if m < 0x100000000:
            # _half_word inlined: this is the draw every sample makes
            half = self._half
            if half is None:
                word = self._word()
                self._half = word >> 32
                half = word & _MASK32
            else:
                self._half = None
            x = half * m
            if x & _MASK32 < m:
                threshold = (0x100000000 - m) % m
                while x & _MASK32 < threshold:
                    x = self._half_word() * m
            return low + (x >> 32)
        if m == 0x100000000:
            return low + self._half_word()
        x = self._word() * m
        if x & _MASK64 < m:
            threshold = ((1 << 64) - m) % m
            while x & _MASK64 < threshold:
                x = self._word() * m
        return low + (x >> 64)

    def pairs(self, first: int, second: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """``count`` pairs ``(integers(first), integers(second))``, drawn in turn.

        Returns the pairs' first and second values as two int64 arrays:
        the values that ``count`` alternating scalar calls would return,
        with the stream left where they would leave it. When both bounds
        lie in [2, 2**32), a draw takes one half-word unless Lemire's test
        rejects it. So the block is replayed in numpy: the next half-words
        are scaled by their lanes' bounds, the lanes before the first
        rejected one are taken at once, and the rejected lane is finished
        on the scalar path, which draws past the rejection; then the rest
        of the block goes on the same way. Other bounds take the scalar
        path for the whole block.
        """
        out = np.empty(2 * count, dtype=np.int64)
        if not (2 <= first < 0x100000000 and 2 <= second < 0x100000000):
            out[:] = [self.integers(m) for _ in range(count) for m in (first, second)]
            return out[0::2], out[1::2]
        lane_bound = np.tile(np.array([first, second], dtype=np.uint64), count)
        # a scaled half-word whose low half falls below this is rejected
        lane_floor = np.tile(np.array([(0x100000000 - first) % first,
                                       (0x100000000 - second) % second], dtype=np.uint64), count)
        done = 0
        while done < 2 * count:
            x = self.peek(2 * count - done) * lane_bound[done:]
            rejected = np.flatnonzero(x & _MASK32 < lane_floor[done:])
            take = int(rejected[0]) if len(rejected) else len(x)
            out[done:done + take] = x[:take] >> 32
            self.skip(take)
            done += take
            if done < 2 * count:
                out[done] = self.integers(int(lane_bound[done]))
                done += 1
        return out[0::2], out[1::2]

    def bytes(self, length: int) -> bytes:
        """``length`` random bytes, as ``Generator.bytes`` gives them."""
        halves = [self._half_word() for _ in range((length + 3) // 4)]
        return b"".join(h.to_bytes(4, "little") for h in halves)[:length]


# Most samples one ``draws`` call is asked for: bounds the memory a block
# takes without costing the loop more than a call per 4,096 samples.
_DRAW_BLOCK = 4096

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
    cfg,
    terms: Callable[..., tuple[float, float]],
    plan: Callable[[RawDraws], tuple[Callable[[int], Sequence[float]], int, float] | None],
) -> Estimate:
    """Drive one estimation run to its stopping point and report it.

    ``cfg`` is the estimator's config: its ``tolerance``, ``failure_prob``,
    ``seed`` and ``fixed_samples`` are read. ``terms`` is ``stopping_terms``
    as the calling module looks it up, so a patch there sees every call.
    ``plan(rng)`` gets the run's ``RawDraws``, seeded through ``make_rng``
    (``seed`` reports the seed used), and returns ``(draws, budget, bound)``:
    ``draws(count)`` returns the next ``count`` contributions of the run,
    each in ``[0, bound]``, in the order of the random stream, and
    ``budget`` is the fallback sample count for half the failure
    probability.

    * A plan that returns None (a root that cannot score) gives a
      ``degenerate-zero``: all counts zero, ``lower_conf == upper_conf == 0.0``.
    * A set ``cfg.fixed_samples`` runs exactly that many draws and reports
      it as ``sample_budget``, with no gap terms; the confidence ends are None.
    * Otherwise the gap terms are ``terms(mean, tau, mass=budget * bound,
      risk=gap_term_risk(cfg.failure_prob))``, a quarter of the failure
      probability each.

    The run stops before the first draw at which both gap terms, evaluated
    at the running mean, are at most the tolerance (``bounds-satisfied``),
    or when the budget is spent (``budget-reached``); only then are the gaps
    evaluated once more for the final mean. A ``bounds-satisfied`` stop
    reports the gaps that passed the check.

    The check is not made before every draw. After a check fails at sample
    count tau with running sum S, :func:`next_check` bisects for the first
    t' at which the upper gap term b(S, t'), evaluated at the mean S / t',
    reaches the tolerance λ (plus a relative margin of 1e-9), and the checks at
    tau + 1 .. t' - 1 are skipped. None of them could pass, given four
    facts about the stop and the upper term of ``stopping_terms``:

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
    below the safe region); with one risk for both terms it never exceeds
    the upper one anyway.

    The samples between two checks are asked for in one ``draws`` call:
    exactly as many as lie up to the next check (or the budget), at most
    ``_DRAW_BLOCK`` at a time, and summed in stream order. So no sample is
    drawn past the one at which the run stops, the generator is read as
    far as draw-by-draw sampling would read it, and the running sum, the
    checks and the stop are those of a loop that draws one sample at a
    time. A plan may draw a block at once, as coverage does, or one sample
    after another, as betweenness and k-path do.
    """
    started = time.perf_counter()
    generator, seed = make_rng(cfg.seed)
    setup = plan(RawDraws(generator))
    if setup is None:
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
    draws, budget, bound = setup
    tolerance = cfg.tolerance
    if cfg.fixed_samples is not None:
        budget = cfg.fixed_samples
        gap_terms = None
    else:
        gap_terms = partial(terms, mass=budget * bound, risk=gap_term_risk(cfg.failure_prob))

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
        count = min(check_at, budget, tau + _DRAW_BLOCK) - tau
        for c in draws(count):
            if c != 0.0:
                acc.add(c)
                hits += 1
        tau += count
    # tau contributions of at most ``bound`` each, summed and divided by tau,
    # can round one ulp above ``bound``; the true mean cannot exceed it.
    mean = min(acc.value / tau, bound) if tau > 0 else 0.0
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
