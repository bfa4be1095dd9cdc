import dataclasses
import math
from fractions import Fraction

import pytest

import pathcentral.betweenness
import pathcentral.kpath
from pathcentral.adaptive import EstimatorConfig
from pathcentral.betweenness import estimate_betweenness, estimate_coverage
from pathcentral.exact import brandes_betweenness, exact_coverage
from pathcentral.generate import hub_digraph, random_digraph
from pathcentral.graph import loads_edge_list
from pathcentral.kpath import KPathConfig, estimate_kpath_centrality
from pathcentral.reachability import compute_reachability


def cfg(**kwargs):
    kwargs.setdefault("tolerance", 0.05)
    kwargs.setdefault("failure_prob", 0.1)
    kwargs.setdefault("seed", 99)
    return EstimatorConfig(**kwargs)


class TestBetweennessEstimates:
    def test_every_draw_hits_on_a_path(self, three_path):
        b = three_path.id_of("b")
        est = estimate_betweenness(three_path, b, cfg())
        assert est.hits == est.samples
        assert abs(est.value - 1 / 6) < 1e-12
        assert est.stop_reason == "bounds-satisfied"
        assert est.samples <= est.sample_budget
        assert est.contribution_bound == float(Fraction(1, 6))
        assert est.lower_conf <= est.value <= est.upper_conf

    def test_degenerate_endpoints(self, three_path):
        for label in ("a", "c"):
            est = estimate_betweenness(three_path, three_path.id_of(label), cfg())
            assert est.stop_reason == "degenerate-zero"
            assert est.value == 0.0
            assert est.samples == 0

    def test_fixed_sample_count_honored(self, diamond):
        a = diamond.id_of("a")
        est = estimate_betweenness(diamond, a, cfg(fixed_samples=500))
        assert est.samples == 500
        assert est.sample_budget == 500
        assert est.stop_reason == "budget-reached"
        assert est.lower_conf is None and est.upper_conf is None

    def test_fixed_sample_mean_within_noise(self, diamond):
        a = diamond.id_of("a")
        exact = float(brandes_betweenness(diamond, a))
        alpha = 1 / 12
        tau = 20_000
        est = estimate_betweenness(diamond, a, cfg(seed=5, fixed_samples=tau))
        se = math.sqrt((alpha * exact - exact**2) / tau)
        assert abs(est.value - exact) <= 3 * se

    def test_hit_counter_rebuilds_the_mean(self, diamond):
        a = diamond.id_of("a")
        est = estimate_betweenness(diamond, a, cfg(seed=17, fixed_samples=3000))
        assert math.isclose(est.value, est.hits * (1 / 12) / 3000, rel_tol=1e-9)

    def test_off_path_root_never_builds_a_path_structure(self, shortcut, monkeypatch):
        # b lies on no shortest path of (a, c) or (a, d): the distance test
        # rejects every pair before the path structure is built.
        builds = []
        real = pathcentral.betweenness.build_shortest_path_dag

        def counting(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(pathcentral.betweenness, "build_shortest_path_dag", counting)
        est = estimate_betweenness(shortcut, shortcut.id_of("b"), cfg(fixed_samples=200))
        assert est.samples == 200
        assert est.hits == 0 and est.value == 0.0
        assert builds == []

    def test_same_seed_reproduces(self, diamond):
        a = diamond.id_of("a")
        one = estimate_betweenness(diamond, a, cfg(seed=123))
        two = estimate_betweenness(diamond, a, cfg(seed=123))
        assert (one.value, one.samples, one.hits, one.stop_reason) == (
            two.value, two.samples, two.hits, two.stop_reason
        )

    def test_different_seeds_differ(self, diamond):
        a = diamond.id_of("a")
        runs = {
            estimate_betweenness(diamond, a, cfg(seed=s, fixed_samples=200)).hits
            for s in range(8)
        }
        assert len(runs) > 1

    def test_unseeded_run_reports_usable_seed(self, diamond):
        a = diamond.id_of("a")
        est = estimate_betweenness(diamond, a, cfg(seed=None, fixed_samples=100))
        replay = estimate_betweenness(diamond, a, cfg(seed=est.seed, fixed_samples=100))
        assert replay.value == est.value

    def test_adaptive_never_exceeds_budget(self):
        g = random_digraph(30, 0.1, seed=2)
        for v in range(0, 30, 5):
            est = estimate_betweenness(g, v, cfg(tolerance=0.02, seed=v))
            assert est.samples <= est.sample_budget
            assert 0.0 <= est.value <= est.contribution_bound + 1e-12


class TestBaselineMode:
    @pytest.mark.parametrize("estimate", [estimate_betweenness, estimate_coverage],
                             ids=["betweenness", "coverage"])
    def test_baseline_scales_by_the_pair_fraction(self, three_cycle, estimate):
        # on a strongly connected graph both modes draw the same endpoint
        # sequence; contributions differ by exactly the pair fraction
        a = three_cycle.id_of("a")
        alpha = float(compute_reachability(three_cycle, a).pair_fraction)
        restricted = estimate(three_cycle, a, cfg(seed=77, fixed_samples=4000))
        baseline = estimate(three_cycle, a, cfg(seed=77, fixed_samples=4000, mode="baseline"))
        assert baseline.hits == restricted.hits
        assert math.isclose(baseline.value * alpha, restricted.value, rel_tol=1e-9)
        assert baseline.contribution_bound == 1.0

    def test_baseline_counts_unreachable_pairs_as_misses(self, three_path):
        b = three_path.id_of("b")
        est = estimate_betweenness(three_path, b, cfg(seed=3, fixed_samples=2000, mode="baseline"))
        # only the ordered pair (a, c) hits; (c, a) and equal draws miss
        assert 0 < est.value < 1
        assert est.hits < est.samples


class TestCoverageEstimates:
    def test_every_draw_hits_through_the_split(self, diamond):
        a = diamond.id_of("a")
        est = estimate_coverage(diamond, a, cfg())
        assert est.hits == est.samples
        assert abs(est.value - 1 / 12) < 1e-12

    def test_deterministic_two_source_case(self, shortcut):
        c = shortcut.id_of("c")
        est = estimate_coverage(shortcut, c, cfg(seed=8))
        exact = float(exact_coverage(shortcut, c))
        assert abs(est.value - exact) < 1e-12

    def test_fixed_sample_mean_within_noise(self):
        g = random_digraph(14, 0.18, seed=31)
        v = max(g.vertices(), key=lambda u: exact_coverage(g, u))
        exact = float(exact_coverage(g, v))
        alpha = float(compute_reachability(g, v).pair_fraction)
        tau = 20_000
        est = estimate_coverage(g, v, cfg(seed=13, fixed_samples=tau))
        se = math.sqrt(max(alpha * exact - exact**2, 1e-18) / tau)
        assert abs(est.value - exact) <= 3 * se

    def test_degenerate_when_nothing_flows(self, three_path):
        est = estimate_coverage(three_path, three_path.id_of("a"), cfg())
        assert est.stop_reason == "degenerate-zero"

    def test_same_seed_reproduces(self, shortcut):
        c = shortcut.id_of("c")
        one = estimate_coverage(shortcut, c, cfg(seed=55))
        two = estimate_coverage(shortcut, c, cfg(seed=55))
        assert (one.value, one.samples, one.stop_reason) == (
            two.value, two.samples, two.stop_reason
        )


def _outputs(est) -> tuple:
    return tuple(getattr(est, f.name) for f in dataclasses.fields(est) if f.name != "wall_time")


class TestOnePairStream:
    @pytest.mark.parametrize("mode", ["restricted", "baseline"])
    def test_betweenness_hits_are_a_subset_of_coverage_hits(self, mode):
        # one seed, one pair stream: a betweenness hit is a coverage hit on
        # the same pair, whatever the path draws read
        for g, roots in ((random_digraph(30, 0.1, seed=2), (22, 3, 11)),
                         (hub_digraph(150, seed=4), (4, 0, 9))):
            for root in roots:
                for seed in (7, 21, 404):
                    config = cfg(seed=seed, mode=mode, fixed_samples=700)
                    bc = estimate_betweenness(g, root, config)
                    cov = estimate_coverage(g, root, config)
                    assert bc.hits <= cov.hits
                    assert bc.value <= cov.value

    @pytest.mark.parametrize("extra", [{}, {"mode": "baseline"}, {"fixed_samples": 2000}],
                             ids=["adaptive", "baseline", "fixed"])
    def test_betweenness_does_not_depend_on_the_block_size(self, monkeypatch, extra):
        g = hub_digraph(150, seed=4)
        config = cfg(seed=7, **extra)
        whole = _outputs(estimate_betweenness(g, 4, config))
        monkeypatch.setattr("pathcentral.adaptive._DRAW_BLOCK", 7)
        assert _outputs(estimate_betweenness(g, 4, config)) == whole


# (value, samples, hits, stop_reason, lower_conf, upper_conf) for vertex 22,
# the top-betweenness vertex of random_digraph(30, 0.1, seed=2), at
# tolerance 0.05, failure_prob 0.1, seed 7 (k-path: k=4, original weights).
# "betweenness-hub" is vertex 4, the top in-degree x out-degree vertex of
# hub_digraph(150, seed=4), at the same settings; its pairs often meet at
# several vertices, and their vertices often have several parents, so the
# order of the meeting set and of each vertex's parent links shows in the
# drawn paths. They move only when a sampler's random stream or stopping
# rule changes; a refactor of the sampling machinery must reproduce them bit
# for bit. The betweenness entries were recorded again when its path draws
# moved from the pair stream to a second stream.
SEEDED_OUTPUTS = {
    "betweenness": (0.230765468329665, 846, 337, "bounds-satisfied",
                    0.18948411746687455, 0.28068239867116784),
    "coverage": (0.23485554520037283, 851, 345, "bounds-satisfied",
                 0.1934092886469018, 0.2848338619757754),
    "betweenness-hub": (0.1763761801016703, 918, 163, "bounds-satisfied",
                        0.13717754080882713, 0.22633364627061212),
    "betweenness-baseline": (0.22263109475620976, 1087, 242, "bounds-satisfied",
                             0.18163657950382373, 0.27259025032607254),
    "betweenness-fixed": (0.24331034482758626, 300, 126, "budget-reached", None, None),
    "kpath-adaptive": (0.11183241252302026, 362, 58, "budget-reached",
                       0.07545145447122345, 0.16367003875980718),
    "kpath-fixed": (0.10694444444444443, 300, 46, "budget-reached", None, None),
}


def _seeded_run(name: str):
    if name == "betweenness-hub":
        return estimate_betweenness(hub_digraph(150, seed=4), 4, cfg(seed=7))
    g = random_digraph(30, 0.1, seed=2)
    if name.startswith("kpath-"):
        stopping = name.split("-", 1)[1]
        return estimate_kpath_centrality(g, 22, KPathConfig(
            k=4, tolerance=0.05, failure_prob=0.1, seed=7, stopping=stopping,
            fixed_samples=300 if stopping == "fixed" else None,
        ))
    fn = estimate_coverage if name == "coverage" else estimate_betweenness
    extra = {"betweenness-baseline": dict(mode="baseline"),
             "betweenness-fixed": dict(fixed_samples=300)}.get(name, {})
    return fn(g, 22, cfg(seed=7, **extra))


@pytest.mark.parametrize("name", sorted(SEEDED_OUTPUTS))
def test_seeded_outputs_are_pinned(name):
    est = _seeded_run(name)
    got = (est.value, est.samples, est.hits, est.stop_reason, est.lower_conf, est.upper_conf)
    assert got == SEEDED_OUTPUTS[name]


@pytest.mark.parametrize(
    "module, estimate, config",
    [
        (pathcentral.betweenness, estimate_betweenness, cfg()),
        (pathcentral.betweenness, estimate_coverage, cfg()),
        (pathcentral.kpath, estimate_kpath_centrality, KPathConfig(k=2, seed=99)),
    ],
    ids=["betweenness", "coverage", "kpath"],
)
def test_gap_terms_are_looked_up_in_the_estimator_module(
    monkeypatch, diamond, module, estimate, config
):
    # a span tracer times stopping_terms by patching the name each
    # estimator module imports, so adaptive runs must call it through there
    real = module.stopping_terms
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "stopping_terms", counting)
    est = estimate(diamond, diamond.id_of("a"), config)
    assert est.lower_conf is not None
    assert len(calls) > 0
    # the δ split: the budget's mass, and a quarter of δ for each gap term
    mass = est.sample_budget * est.contribution_bound
    assert all(c == {"mass": mass, "risk": config.failure_prob / 4} for c in calls)


@pytest.mark.parametrize(
    "module, estimate, config",
    [
        (pathcentral.betweenness, estimate_betweenness, cfg(fixed_samples=300)),
        (pathcentral.betweenness, estimate_coverage, cfg(fixed_samples=300)),
        (pathcentral.betweenness, estimate_coverage, cfg(mode="baseline")),
        (pathcentral.kpath, estimate_kpath_centrality, KPathConfig(k=3, seed=99)),
    ],
    ids=["betweenness", "coverage", "coverage-baseline", "kpath"],
)
def test_estimators_read_only_the_flat_reachability_fields(monkeypatch, module, estimate, config):
    # the set views and the distance maps are for callers that ask for them
    g = random_digraph(30, 0.1, seed=2)
    made = []

    def keeping(*args):
        made.append(compute_reachability(*args))
        return made[-1]

    monkeypatch.setattr(module, "compute_reachability", keeping)
    estimate(g, 22, config)
    (reach,) = made
    assert not {"upstream", "downstream", "domain"} & set(vars(reach))
    assert reach.dist_to_root._dict is None and reach.dist_from_root._dict is None

