import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pathcentral.adaptive import (
    CompensatedSum,
    Estimate,
    EstimatorConfig,
    RawDraws,
    compute_sample_budget,
    gap_term_risk,
    make_rng,
    next_check,
    run_sampling_loop,
    stopping_terms,
)
from pathcentral.adaptive import _DRAW_BLOCK

import oracles


class TestSampleBudget:
    def test_frozen_values(self):
        assert compute_sample_budget(0.1, 0.1, 4) == oracles.BUDGET_TOL01_FAIL01_VD4
        assert compute_sample_budget(0.1, 0.1, 3) == oracles.BUDGET_TOL01_FAIL01_VD3
        # below 4 the level term clamps to zero, so 2 behaves like 3
        assert compute_sample_budget(0.1, 0.1, 2) == oracles.BUDGET_TOL01_FAIL01_VD3

    def test_matches_direct_formula(self):
        for vd in range(4, 40):
            for tol, fail in [(0.1, 0.1), (0.05, 0.1), (0.02, 0.01), (0.3, 0.5)]:
                level = math.floor(math.log2(vd - 2))
                raw = (0.5 / tol**2) * (level + 1 + math.log(2 / fail))
                assert compute_sample_budget(tol, fail, vd) == math.ceil(raw)

    def test_growth_directions(self):
        base = compute_sample_budget(0.1, 0.1, 6)
        assert compute_sample_budget(0.05, 0.1, 6) > base
        assert compute_sample_budget(0.1, 0.05, 6) > base
        assert compute_sample_budget(0.1, 0.1, 60) > base


class TestStoppingTerms:
    def test_frozen_reference_point(self):
        args = oracles.GAP_REFERENCE_ARGS
        a, b = stopping_terms(
            args["mean"], args["samples"], args["budget"] * args["fraction"], args["risk"],
        )
        assert abs(a - oracles.GAP_LOWER_REFERENCE) < 1e-6
        assert abs(b - oracles.GAP_UPPER_REFERENCE) < 1e-6

    def test_zero_fraction_collapses(self):
        for tau in (1, 7, 100, 5000):
            for risk in (0.025, 0.2):
                a, b = stopping_terms(0.3, tau, 0.0, risk)
                closed_form = (2.0 / (3.0 * tau)) * math.log(1.0 / risk)
                assert math.isclose(a, closed_form, rel_tol=1e-12)
                assert math.isclose(b, closed_form, rel_tol=1e-12)

    def test_upper_term_shrinks_from_the_start(self):
        # the upper term is monotone in the sample count everywhere
        for mass in (0.5, 10, 400):
            tau = 1
            _, prev = stopping_terms(0.05, tau, mass, 0.025)
            for _ in range(14):
                tau *= 2
                _, cur = stopping_terms(0.05, tau, mass, 0.025)
                assert cur <= prev
                prev = cur

    def test_lower_term_shrinks_past_the_hump(self):
        # the lower term is only guaranteed monotone once the sample count
        # clears a multiple of the variance mass; start doubling there
        for budget, fraction in [(10**5, 1e-3), (1000, 0.3), (400, 1.0)]:
            mass = budget * fraction
            tau = max(1, math.ceil(6 * mass))
            for mean in (0.0, 0.01, 0.4):
                prev, _ = stopping_terms(mean, tau, mass, 0.025)
                t = tau
                for _ in range(12):
                    t *= 2
                    cur, _ = stopping_terms(mean, t, mass, 0.025)
                    assert cur <= prev
                    prev = cur

    def test_lower_term_hump_exists_below_the_safe_region(self):
        # documents why the doubling check above cannot start at one sample:
        # with few samples relative to the mass, the lower term can grow
        a_small, _ = stopping_terms(0.01, 50, 100.0, 0.025)
        a_big, _ = stopping_terms(0.01, 100, 100.0, 0.025)
        assert a_small < a_big

    def test_needs_a_sample(self):
        with pytest.raises(ValueError):
            stopping_terms(0.0, 0, 10.0, 0.025)


class TestConfig:
    def test_gap_risk_is_a_quarter(self):
        assert gap_term_risk(0.2) == 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tolerance=0.0, failure_prob=0.1),
            dict(tolerance=1.0, failure_prob=0.1),
            dict(tolerance=0.05, failure_prob=0.0),
            dict(tolerance=0.05, failure_prob=1.5),
            dict(tolerance=0.05, failure_prob=0.1, mode="turbo"),
            dict(tolerance=0.05, failure_prob=0.1, fixed_samples=0),
            dict(tolerance=0.05, failure_prob=0.1, fixed_samples=2.5),
            dict(tolerance=0.05, failure_prob=0.1, fixed_samples=True),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            EstimatorConfig(**kwargs)


class TestCompensatedSum:
    def test_catastrophic_cancellation_survives(self):
        acc = CompensatedSum()
        for x in [1e16, 1.0, -1e16]:
            acc.add(x)
        assert acc.value == 1.0
        assert sum([1e16, 1.0, -1e16]) != 1.0

    def test_matches_fsum_on_long_small_stream(self):
        xs = [1 / 6] * 10_000 + [1e-9] * 10_000
        acc = CompensatedSum()
        for x in xs:
            acc.add(x)
        assert acc.value == math.fsum(xs)


class TestRng:
    def test_seeded_reproducibility(self):
        g1, s1 = make_rng(1234)
        g2, s2 = make_rng(1234)
        assert s1 == s2 == 1234
        assert g1.integers(10**9) == g2.integers(10**9)

    def test_unseeded_reports_concrete_seed(self):
        g1, s1 = make_rng(None)
        g2, s2 = make_rng(None)
        assert isinstance(s1, int)
        assert s1 != s2
        replay, _ = make_rng(s1)
        assert replay.integers(10**9) == g1.integers(10**9)


class TestRawDraws:
    # both sides of the 32-bit and 64-bit paths and their boundaries
    BOUNDS = (1, 2, 7, 1000, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**63 - 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_numpy_over_interleaved_calls(self, seed):
        numpy_side = np.random.default_rng(seed)
        raw = RawDraws(np.random.default_rng(seed))
        pick = random.Random(seed)
        for _ in range(5000):
            kind = pick.randrange(5)
            if kind == 0:
                args = (pick.choice(self.BOUNDS),)
            elif kind == 1:
                args = (pick.randrange(1, 2 ** pick.randrange(1, 64)),)
            elif kind == 2:
                low = pick.randrange(-2**40, 2**40)
                args = (low, low + pick.randrange(1, 2 ** pick.randrange(1, 40)))
            elif kind == 3:
                n = pick.randrange(1, 20)
                assert raw.bytes(n) == numpy_side.bytes(n)
                continue
            else:
                # a bound of 1 takes no word: the next draw still matches
                assert raw.integers(1) == 0
                continue
            value = raw.integers(*args)
            assert type(value) is int
            assert value == numpy_side.integers(*args)

    def test_picks_up_a_held_half_word(self):
        used = np.random.default_rng(5)
        reference = np.random.default_rng(5)
        assert used.integers(10) == reference.integers(10)
        raw = RawDraws(used)
        assert [raw.integers(10) for _ in range(5)] == [reference.integers(10) for _ in range(5)]

    # 3 * 2**30 rejects a quarter of its half-words, 2**31 + 1 almost half
    PAIR_BOUNDS = st.sampled_from([1, 2, 3, 20_000, 2**31 + 1, 3 * 2**30, 2**32 - 1,
                                   2**32, 2**32 + 1]) | st.integers(1, 2**33)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        words=st.integers(0, 1100),
        before=st.lists(PAIR_BOUNDS, max_size=3),
        blocks=st.lists(st.tuples(PAIR_BOUNDS, PAIR_BOUNDS, st.integers(0, 1400)),
                        min_size=1, max_size=3),
        after=st.lists(PAIR_BOUNDS, min_size=1, max_size=3),
    )
    def test_pairs_equal_alternating_scalar_draws(self, seed, words, before, blocks, after):
        raw = RawDraws(np.random.default_rng(seed))
        scalar = RawDraws(np.random.default_rng(seed))
        # full words first, so that blocks start anywhere in the 1,024-word
        # refill; an odd number of half-word draws before a block leaves a
        # half-word held on entry
        for m in [2**40] * words + before:
            assert raw.integers(m) == scalar.integers(m)
        for first, second, count in blocks:
            got_first, got_second = raw.pairs(first, second, count)
            expected = [scalar.integers(m) for _ in range(count) for m in (first, second)]
            assert got_first.tolist() == expected[0::2]
            assert got_second.tolist() == expected[1::2]
            assert raw._half == scalar._half
        assert [raw.integers(m) for m in after] == [scalar.integers(m) for m in after]
        assert raw.bytes(5) == scalar.bytes(5)
        assert raw._bit_generator.state == scalar._bit_generator.state

    def test_pairs_replay_rejections(self):
        # a quarter of the lanes at 3 * 2**30 reject their first half-word
        raw = RawDraws(np.random.default_rng(4))
        scalar = RawDraws(np.random.default_rng(4))
        first, second = raw.pairs(3 * 2**30, 5, 3000)
        expected = [scalar.integers(m) for _ in range(3000) for m in (3 * 2**30, 5)]
        assert first.tolist() == expected[0::2] and second.tolist() == expected[1::2]
        assert [raw.integers(9) for _ in range(4)] == [scalar.integers(9) for _ in range(4)]

    def test_refusals(self):
        raw = RawDraws(np.random.default_rng(0))
        for args in [(0,), (-3,), (5, 5), (5, 4)]:
            with pytest.raises(ValueError):
                raw.integers(*args)
        with pytest.raises(TypeError):
            RawDraws(np.random.Generator(np.random.MT19937(0)))


def run_loop(draw, budget, gap_terms, bound=1.0):
    """Run at tolerance 0.05 with the plan's ``budget`` and ``bound``, and
    draws that call ``draw()`` once per sample.

    ``gap_terms(mean, tau)`` stands in for the bound gap terms; None makes
    the run fixed at ``budget`` samples.
    """
    cfg = EstimatorConfig(tolerance=0.05, failure_prob=0.1, seed=0,
                          fixed_samples=budget if gap_terms is None else None)
    return run_sampling_loop(cfg, lambda mean, tau, mass, risk: gap_terms(mean, tau),
                             lambda rng: (lambda count: [draw() for _ in range(count)],
                                          budget, bound))


class TestSamplingLoop:
    def test_fixed_budget_runs_to_the_end(self):
        draws = iter([0.5, 0.0, 0.5, 0.5, 0.0])
        est = run_loop(lambda: next(draws), 5, None)
        assert est.samples == 5
        assert est.hits == 3
        assert est.stop_reason == "budget-reached"
        assert est.lower_conf is None and est.upper_conf is None
        assert math.isclose(est.value, 0.3)
        assert (est.sample_budget, est.contribution_bound, est.seed) == (5, 1.0, 0)

    def test_immediate_stop_when_gaps_are_tight(self):
        est = run_loop(lambda: 1.0, 1000, lambda m, t: (0.0, 0.0))
        assert est.stop_reason == "bounds-satisfied"
        assert est.samples == 1
        assert (est.lower_conf, est.upper_conf) == (est.value - 0.0, est.value + 0.0)

    def test_final_gaps_reevaluated_at_exit(self):
        calls = []
        draws = []

        def gaps(mean, tau):
            calls.append((tau, len(draws)))
            return (1.0 / tau, 2.0 / tau)

        est = run_loop(lambda: draws.append(0) or 0.0, 7, gaps)
        assert est.stop_reason == "budget-reached"
        assert est.samples == 7
        assert (est.lower_conf, est.upper_conf) == (est.value - 1.0 / 7, est.value + 2.0 / 7)
        # the gaps for the final mean are evaluated once, after the last draw
        assert [c for c in calls if c[1] == 7] == [(7, 7)]

    def test_mean_never_rounds_above_the_bound(self):
        # 11 hits of this bound sum and divide to one ulp above it
        bound = 0.007575757575757576
        est = run_loop(lambda: bound, 11, None, bound)
        assert est.value == bound

    def test_zero_budget_never_draws(self):
        # a fixed run has at least one sample, so only a plan's budget can be 0
        def gaps(mean, tau):
            raise AssertionError("no gap terms without a sample")

        est = run_loop(lambda: 1.0, 0, gaps)
        assert (est.value, est.samples, est.hits) == (0.0, 0, 0)
        assert est.stop_reason == "budget-reached"

    def test_plan_without_a_draw_is_a_degenerate_zero(self):
        drawn = []

        def plan(rng):
            drawn.append(rng.integers(2**32))
            return None

        cfg = EstimatorConfig(tolerance=0.05, failure_prob=0.1, seed=None)
        est = run_sampling_loop(cfg, stopping_terms, plan)
        assert est.stop_reason == "degenerate-zero"
        assert est.lower_conf == est.upper_conf == 0.0
        assert (est.value, est.samples, est.sample_budget, est.contribution_bound,
                est.hits) == (0.0, 0, 0, 0.0, 0)
        # the reported seed is the one the plan's draws came from
        assert drawn == [RawDraws(np.random.default_rng(est.seed)).integers(2**32)]

    def test_fixed_run_reports_its_own_length(self):
        def gaps(mean, tau, mass, risk):
            raise AssertionError("a fixed run has no gap terms")

        cfg = EstimatorConfig(tolerance=0.05, failure_prob=0.1, seed=3, fixed_samples=7)
        est = run_sampling_loop(cfg, gaps, lambda rng: (lambda count: [0.5] * count, 400, 0.5))
        assert (est.samples, est.sample_budget, est.stop_reason) == (7, 7, "budget-reached")
        assert est.lower_conf is None and est.upper_conf is None

    def test_stop_requires_both_gaps(self):
        calls = []
        draws = []

        def gaps(mean, tau):
            calls.append((tau, len(draws)))
            return (0.0, 0.06) if tau < 3 else (0.0, 0.0)

        est = run_loop(lambda: draws.append(0) or 0.5, 100, gaps)
        assert est.stop_reason == "bounds-satisfied"
        assert est.samples == 3
        # the gaps that passed are the ones reported: no second evaluation
        # once the third draw is in
        assert [c for c in calls if c[1] == 3] == [(3, 3)]


class TestDrawBlocks:
    def test_fixed_run_asks_for_whole_blocks(self):
        asked = []

        def draws(count):
            asked.append(count)
            return [0.25] * count

        cfg = EstimatorConfig(tolerance=0.05, failure_prob=0.1, seed=0, fixed_samples=10_000)
        est = run_sampling_loop(cfg, stopping_terms, lambda rng: (draws, 400, 0.5))
        assert asked == [_DRAW_BLOCK, _DRAW_BLOCK, 10_000 - 2 * _DRAW_BLOCK]
        assert (est.samples, est.hits) == (10_000, 10_000)

    @pytest.mark.parametrize("hit_every", [1, 3, 50])
    def test_blocks_end_at_the_checks_and_the_stop(self, hit_every):
        # every block but the last ends where a check is made, nothing is
        # drawn past the stop, and the run is the one a check before every
        # draw gives
        def contribution(i):
            return 0.1 if i % hit_every == 0 else 0.0

        asked = []
        checks = []

        def gaps(mean, tau, mass, risk):
            checks.append(tau)
            return stopping_terms(mean, tau, mass, risk)

        def draws(count):
            start = sum(asked)
            asked.append(count)
            return [contribution(i) for i in range(start, start + count)]

        cfg = EstimatorConfig(tolerance=0.01, failure_prob=0.1, seed=0)
        budget = 10**5
        est = run_sampling_loop(cfg, gaps, lambda rng: (draws, budget, 0.1))
        assert sum(asked) == est.samples
        ends = [sum(asked[:i + 1]) for i in range(len(asked))]
        assert set(ends[:-1]) <= set(checks)

        acc = CompensatedSum()
        tau = hits = 0
        risk = gap_term_risk(cfg.failure_prob)
        while tau < budget:
            if tau and max(stopping_terms(acc.value / tau, tau, budget * 0.1, risk)) <= 0.01:
                break
            if contribution(tau):
                acc.add(contribution(tau))
                hits += 1
            tau += 1
        assert (est.samples, est.hits, est.value) == (tau, hits, acc.value / tau)
        assert est.stop_reason == "bounds-satisfied"


class TestSkippedChecks:
    @settings(max_examples=150, deadline=None)
    @given(
        budget=st.integers(2, 4000),
        tau_frac=st.floats(0.0, 1.0),
        hit_frac=st.floats(0.0, 1.0),
        bound=st.floats(1e-4, 1.0),
        tolerance=st.floats(1e-3, 0.5),
        failure_prob=st.floats(1e-3, 0.9),
        growth=st.floats(0.0, 1.0),
    )
    def test_no_skipped_check_would_pass(
        self, budget, tau_frac, hit_frac, bound, tolerance, failure_prob, growth
    ):
        tau = 1 + int(tau_frac * (budget - 2))
        total = int(hit_frac * tau) * bound
        risk = gap_term_risk(failure_prob)

        def gaps(mean, t):
            return stopping_terms(mean, t, budget * bound, risk)

        def passes(s, t):
            a, b = gaps(s / t, t)
            return a <= tolerance and b <= tolerance

        a, b = gaps(total / tau, tau)
        assume(not (a <= tolerance and b <= tolerance))
        target = next_check(gaps, total, tau, b, budget, tolerance)
        assert tau < target <= budget
        for t in range(tau + 1, target):
            # the running sum can only have grown since the failed check
            grown = total + int(growth * (t - tau)) * bound
            assert not passes(total, t)
            assert not passes(grown, t)

    def test_skip_lands_on_the_first_pass(self):
        # hits at every draw: the target is where the check first passes
        budget, bound, risk = 5000, 0.01, gap_term_risk(0.1)

        def gaps(mean, t):
            return stopping_terms(mean, t, budget * bound, risk)

        first = next(t for t in range(1, budget) if max(gaps(bound, t)) <= 0.02)
        a, b = gaps(bound, 1)
        target = next_check(gaps, bound * 1, 1, b, budget, 0.02)
        assert target <= first
        assert all(max(gaps(bound, t)) > 0.02 for t in range(2, target))

    def test_checks_are_skipped(self):
        calls = []
        draws = iter(range(10**6))

        def gaps(mean, tau, mass, risk):
            # budget 10**5 times bound 0.1, and a quarter of 0.1
            assert (mass, risk) == (1e4, 0.025)
            calls.append(tau)
            return stopping_terms(mean, tau, mass, risk)

        cfg = EstimatorConfig(tolerance=0.01, failure_prob=0.1, seed=0)
        est = run_sampling_loop(
            cfg, gaps,
            lambda rng: (lambda count: [0.1 if next(draws) % 3 == 0 else 0.0
                                        for _ in range(count)], 10**5, 0.1))
        assert est.stop_reason == "bounds-satisfied"
        assert len(calls) < est.samples // 10


def test_estimate_is_frozen():
    est = Estimate(
        value=0.1, samples=5, sample_budget=10, contribution_bound=0.2,
        stop_reason="budget-reached", lower_conf=0.05, upper_conf=0.15,
        seed=1, wall_time=0.0, hits=3,
    )
    with pytest.raises(AttributeError):
        est.value = 0.2
