"""Query planner tests: estimator monotonicity, plan resolution and
override precedence, workload regret vs the best manual variant, and
planner-vs-manual result equality across all six drivers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity import planar_vertex_connectivity
from repro.engine import ColdArtifacts, TargetSession
from repro.engine.planner import (
    MODES,
    CostModel,
    QueryPlan,
    QueryStats,
    apply_plan,
    gather_stats,
    plan_query,
    resolve_plan,
)
from repro.graphs import Graph, grid_graph, triangulated_grid, wheel_graph
from repro.isomorphism import (
    count_occurrences_exact,
    cycle_pattern,
    decide_subgraph_isomorphism,
    diamond,
    list_occurrences,
    path_pattern,
    star_pattern,
    triangle,
)
from repro.isomorphism.disconnected import decide_disconnected
from repro.isomorphism.pattern import Pattern
from repro.planar import embed_geometric
from repro.separating.driver import decide_separating_isomorphism

PROCESSORS = 256


def _grid(rows, cols):
    gg = grid_graph(rows, cols)
    emb, _ = embed_geometric(gg)
    return gg.graph, emb


def _stats(n, k, d, sub, mode="decide", rounds=8):
    width = 2 * d + 1
    bits = k * max(1, math.ceil(math.log2(width + 2)))
    return QueryStats(
        n=n, m=3 * n, k=k, d=d, subpatterns=sub, mode=mode,
        rounds=rounds, packed_bits=bits, overflow_risk=False,
    )


class TestEstimatorMonotonicity:
    @given(
        n=st.integers(16, 100_000),
        delta=st.integers(1, 100_000),
        engine=st.sampled_from(["parallel", "sequential"]),
    )
    @settings(max_examples=60)
    def test_monotone_in_n(self, n, delta, engine):
        model = CostModel()
        lo = model.estimate(_stats(n, 4, 2, 13), engine, warm=False)
        hi = model.estimate(_stats(n + delta, 4, 2, 13), engine, warm=False)
        assert hi.work >= lo.work
        assert hi.depth >= lo.depth

    @given(
        k=st.integers(2, 7),
        engine=st.sampled_from(["parallel", "sequential"]),
    )
    @settings(max_examples=30)
    def test_monotone_in_pattern_size(self, k, engine):
        model = CostModel()

        def est(kk):
            pat = path_pattern(kk)
            return model.estimate(
                _stats(
                    1024, kk, pat.diameter(),
                    pat.connected_subpattern_count(),
                ),
                engine,
                warm=False,
            )

        assert est(k + 1).work >= est(k).work


class TestGatherStats:
    def test_cold_stats(self):
        graph, emb = _grid(6, 6)
        stats = gather_stats(
            ColdArtifacts(graph, emb), cycle_pattern(4), "decide", rounds=3
        )
        assert stats.n == 36 and stats.k == 4 and stats.d == 2
        assert stats.subpatterns == 13  # |C(C4)|
        assert stats.rounds == 3
        assert stats.warm_cover_rounds == 0
        assert not stats.warm_piece_kinds

    def test_warm_stats_see_cached_artifacts(self):
        graph, emb = _grid(6, 6)
        session = TargetSession(graph, emb)
        session.decide(cycle_pattern(4), seed=0, rounds=2)
        stats = gather_stats(
            session, cycle_pattern(4), "decide", seed=0, rounds=2
        )
        # The positive query may exit before exhausting its rounds, so at
        # least one cover (not necessarily all) is warm.
        assert stats.warm_cover_rounds >= 1
        assert stats.cluster_width is not None
        assert any(eng == "parallel" for eng, _ in stats.warm_piece_kinds)

    def test_unknown_mode_rejected(self):
        graph, emb = _grid(4, 4)
        with pytest.raises(ValueError, match="unknown query mode"):
            gather_stats(ColdArtifacts(graph, emb), triangle(), "nope")


class TestPlanResolution:
    def test_manual_and_none_mean_no_plan(self):
        graph, emb = _grid(4, 4)
        provider = ColdArtifacts(graph, emb)
        for spec in (None, "manual"):
            assert resolve_plan(spec, provider, triangle(), "decide") is None

    def test_bad_plan_spec_rejected(self):
        graph, emb = _grid(4, 4)
        with pytest.raises(ValueError, match="plan must be"):
            resolve_plan(
                "fastest", ColdArtifacts(graph, emb), triangle(), "decide"
            )

    def test_auto_builds_explainable_plan(self):
        graph, emb = _grid(8, 8)
        plan = plan_query(
            ColdArtifacts(graph, emb), cycle_pattern(4), "decide",
            processors=PROCESSORS,
        )
        assert isinstance(plan, QueryPlan)
        assert plan.engine in ("parallel", "sequential")
        assert plan.kernel == "packed"
        assert plan.cover == MODES["decide"] == "kd"
        assert plan.predicted.work > 0
        assert plan.predicted_time >= plan.predicted.depth
        assert plan.alternatives  # the rejected engine is reported
        text = plan.explain()
        assert "variant=" in text and "predicted cost" in text
        assert set(plan.predicted_phases) == {"embed", "cover", "dp"}

    def test_overflow_risk_selects_reference_kernel(self):
        graph, emb = _grid(8, 8)
        # A star with many leaves has diameter 2 but enough vertices to
        # blow the 60-bit packed budget (k * ceil(log2(w+2)) bits).
        plan = plan_query(
            ColdArtifacts(graph, emb), star_pattern(24), "decide"
        )
        assert plan.stats.overflow_risk
        assert plan.kernel == "reference"

    def test_large_predicted_work_plans_serial_on_many_cores(
        self, monkeypatch
    ):
        # The threads backend runs pieces under the GIL, so neither the
        # core count nor the predicted work makes the planner pick it.
        from repro.exec import backends

        monkeypatch.setattr(backends, "available_cores", lambda: 4)
        gg = triangulated_grid(8, 8)
        emb, _ = embed_geometric(gg)
        plan = plan_query(
            TargetSession(gg.graph, emb), path_pattern(3), "count"
        )
        assert plan.predicted.work >= 5_000_000
        assert plan.backend == "serial"

    def test_explicit_arguments_override_plan(self):
        graph, emb = _grid(6, 6)
        provider = ColdArtifacts(graph, emb)
        plan = plan_query(provider, cycle_pattern(4), "decide")
        other = (
            "sequential" if plan.engine == "parallel" else "parallel"
        )
        plan_obj, engine, kernel, backend = apply_plan(
            plan, provider, cycle_pattern(4), "decide", 0, None,
            other, None, None,
        )
        assert plan_obj is plan
        assert engine == other  # explicit wins
        assert kernel == plan.kernel  # unset falls back to the plan
        assert backend == plan.backend

    def test_no_plan_falls_back_to_driver_defaults(self):
        graph, emb = _grid(6, 6)
        provider = ColdArtifacts(graph, emb)
        plan_obj, engine, kernel, backend = apply_plan(
            None, provider, cycle_pattern(4), "decide", 0, None,
            None, None, None, default_engine="sequential",
        )
        assert plan_obj is None
        assert engine == "sequential"
        assert kernel == "packed"
        assert backend == "serial"


class TestCalibration:
    def test_observation_scales_future_estimates(self):
        model = CostModel()
        stats = _stats(256, 4, 2, 13)
        before = model.estimate(stats, "sequential", warm=False)
        model.observe(
            stats, "sequential", False,
            actual=type(before)(before.work * 2, before.depth * 2),
        )
        after = model.estimate(stats, "sequential", warm=False)
        assert after.work > before.work
        assert model.observations == 1
        snap = model.calibration()
        assert snap["work_ratio"]["decide/sequential"] > 1.0

    def test_ratio_band_clamps_outliers(self):
        model = CostModel()
        stats = _stats(256, 4, 2, 13)
        before = model.estimate(stats, "sequential", warm=False)
        model.observe(
            stats, "sequential", False,
            actual=type(before)(before.work * 1000, before.depth),
        )
        after = model.estimate(stats, "sequential", warm=False)
        assert after.work <= before.work * model.ratio_band[1] + 1

    def test_record_actual_feeds_model_and_error(self):
        graph, emb = _grid(8, 8)
        provider = ColdArtifacts(graph, emb)
        result = decide_subgraph_isomorphism(
            graph, emb, cycle_pattern(4), seed=0, rounds=2,
            artifacts=provider, plan="auto",
        )
        assert result.plan is not None
        assert result.plan.actual == result.cost
        assert result.plan.prediction_error is not None
        assert provider.cost_model.observations >= 1
        as_dict = result.plan.as_dict()
        assert as_dict["actual_work"] == result.cost.work


#: The 8 patterns of the regret workload (k = 3..6, found and not found).
REGRET_PATTERNS = [
    cycle_pattern(4), path_pattern(4), diamond(), triangle(),
    cycle_pattern(6), path_pattern(5), star_pattern(3),
    cycle_pattern(5),
]


@pytest.fixture(scope="module")
def regret_workload():
    """The 16-query regret workload (the 8 patterns twice, query i with
    seed i on a 16x16 grid), run once for both regret tests: per query the
    manual engines' Brent times, and the ``plan="auto"`` results on one
    provider with the default (committed-prior) cost model."""
    graph, emb = _grid(16, 16)
    patterns = REGRET_PATTERNS * 2
    provider = ColdArtifacts(graph, emb)
    assert provider.cost_model.observations == 0
    manual, auto = [], []
    for i, pattern in enumerate(patterns):
        times = {}
        for engine in ("parallel", "sequential"):
            res = decide_subgraph_isomorphism(
                graph, emb, pattern, seed=i, rounds=2, engine=engine,
            )
            times[engine] = res.cost.brent_time(PROCESSORS)
        manual.append(times)
        auto.append(decide_subgraph_isomorphism(
            graph, emb, pattern, seed=i, rounds=2,
            artifacts=provider, plan="auto",
        ))
    return {
        "graph": graph, "emb": emb, "patterns": patterns,
        "provider": provider, "manual": manual, "auto": auto,
    }


class TestWorkloadRegret:
    def test_auto_within_1_2x_of_best_manual(self, regret_workload):
        """Mixed 16-query workload: the planner's charged trace-cost at
        P=256 stays within 1.2x of the best manual engine in aggregate,
        and per query once the online calibration has warmed up (the
        first half of the workload is the cold-start transient where the
        EMA corrections are still settling)."""
        patterns = regret_workload["patterns"]
        auto_provider = regret_workload["provider"]
        auto_total = 0
        best_total = 0
        for i, pattern in enumerate(patterns):
            manual = regret_workload["manual"][i]
            auto = regret_workload["auto"][i]
            best = min(manual.values())
            t_auto = auto.cost.brent_time(PROCESSORS)
            auto_total += t_auto
            best_total += best
            if i >= len(patterns) // 2:
                assert t_auto <= 1.25 * best, (
                    f"warmed-up query {i} ({pattern.k}-vertex): auto "
                    f"chose {auto.plan.engine} with T_P={t_auto} vs best "
                    f"manual {best} ({manual})"
                )
        assert auto_total <= 1.2 * best_total, (
            f"workload regret {auto_total / best_total:.3f}x > 1.2x"
        )
        assert auto_provider.cost_model.observations == len(patterns)

    def test_committed_priors_tighten_cold_start_regret(
        self, regret_workload
    ):
        """A fresh CostModel seeded from the committed BENCH_PR7 priors
        starts in the converged regime, so the cold half of the workload
        — previously a documented transient where the planner explores
        the parallel engine at 1.4-1.8x regret — must come out strictly
        cheaper than with a deliberately uncalibrated model, and the
        very first query's regret must be no worse.  The seeded run is
        the workload's first 8 ``plan="auto"`` queries: a default
        provider's cost model is seeded from the committed priors."""
        graph, emb = regret_workload["graph"], regret_workload["emb"]
        patterns = REGRET_PATTERNS
        best = [min(regret_workload["manual"][i].values())
                for i in range(len(patterns))]
        outcomes = {"seeded": [
            regret_workload["auto"][i].cost.brent_time(PROCESSORS) / best[i]
            for i in range(len(patterns))
        ]}
        provider = ColdArtifacts(graph, emb)
        provider.cost_model = CostModel(priors={})
        assert provider.cost_model.observations == 0
        regrets = []
        for i, pattern in enumerate(patterns):
            auto = decide_subgraph_isomorphism(
                graph, emb, pattern, seed=i, rounds=2,
                artifacts=provider, plan="auto",
            )
            regrets.append(auto.cost.brent_time(PROCESSORS) / best[i])
        outcomes["uncalibrated"] = regrets
        assert outcomes["seeded"][0] <= outcomes["uncalibrated"][0], (
            f"priors worsened first-query regret: {outcomes}"
        )
        assert sum(outcomes["seeded"]) < sum(outcomes["uncalibrated"]), (
            f"priors did not tighten cold-start regret: {outcomes}"
        )
        # The seeded cold half never pays an exploration spike.
        assert max(outcomes["seeded"]) <= 1.25, (
            f"seeded cold-start regret spike: {outcomes['seeded']}"
        )

    def test_prior_seeding_scales_each_engine_by_its_own_ratio(self):
        """Each committed (mode, engine) prior seeds that engine's own
        correction, and an engine absent from the priors still inherits
        the mode-level mean through ``_mode_prior``."""
        from repro.engine.planner import DEFAULT_PRIORS

        seeded = CostModel()
        bare = CostModel(priors={})
        stats = _stats(1024, 4, 2, 13)
        for engine in ("parallel", "sequential"):
            w_prior, _ = DEFAULT_PRIORS[("decide", engine)]
            est_seeded = seeded.estimate(stats, engine, warm=False)
            est_bare = bare.estimate(stats, engine, warm=False)
            assert est_seeded.work == pytest.approx(
                int(est_bare.work * w_prior), rel=0.01
            )
        # An engine left out of the committed priors projects the mean.
        partial = CostModel(priors={("decide", "sequential"): (1.5, 1.0)})
        est_partial = partial.estimate(stats, "parallel", warm=False)
        est_bare = bare.estimate(stats, "parallel", warm=False)
        assert est_partial.work == pytest.approx(
            int(est_bare.work * 1.5), rel=0.01
        )


class TestPlannerVsManualEquality:
    """plan='auto' must agree with the manual default run for every
    driver (identical seed schedule; engines are verdict-equivalent)."""

    def test_decide(self):
        graph, emb = _grid(8, 8)
        for pattern in (cycle_pattern(4), cycle_pattern(5), diamond()):
            manual = decide_subgraph_isomorphism(
                graph, emb, pattern, seed=1, rounds=4
            )
            auto = decide_subgraph_isomorphism(
                graph, emb, pattern, seed=1, rounds=4, plan="auto"
            )
            assert auto.found == manual.found
            assert auto.rounds_used == manual.rounds_used

    def test_list(self):
        graph, emb = _grid(4, 4)
        pattern = cycle_pattern(4)
        manual = list_occurrences(graph, emb, pattern, seed=2)
        auto = list_occurrences(graph, emb, pattern, seed=2, plan="auto")
        assert auto.occurrences == manual.occurrences

    def test_count_exact(self):
        graph, emb = _grid(5, 5)
        pattern = cycle_pattern(4)
        manual = count_occurrences_exact(graph, emb, pattern)
        auto = count_occurrences_exact(graph, emb, pattern, plan="auto")
        assert auto.isomorphisms == manual.isomorphisms
        assert auto.plan is not None and auto.plan.mode == "count"

    def test_separating(self):
        graph, emb = _grid(6, 6)
        marked = np.zeros(graph.n, dtype=bool)
        marked[0] = marked[graph.n - 1] = True
        pattern = cycle_pattern(4)
        manual = decide_separating_isomorphism(
            graph, emb, marked, pattern, seed=3, rounds=4
        )
        auto = decide_separating_isomorphism(
            graph, emb, marked, pattern, seed=3, rounds=4, plan="auto"
        )
        assert auto.found == manual.found
        assert auto.plan is not None and auto.plan.cover == "separating"

    def test_vc(self):
        gg = wheel_graph(6)
        emb, _ = embed_geometric(gg)
        manual = planar_vertex_connectivity(gg.graph, emb, rounds=2)
        auto = planar_vertex_connectivity(
            gg.graph, emb, rounds=2, plan="auto"
        )
        assert auto.connectivity == manual.connectivity
        assert auto.plan is not None and auto.plan.mode == "vc"

    def test_disconnected(self):
        graph, emb = _grid(5, 5)
        two_edges = Pattern(Graph(4, [(0, 1), (2, 3)]))
        manual = decide_disconnected(
            graph, emb, two_edges, seed=4, colorings=8
        )
        auto = decide_disconnected(
            graph, emb, two_edges, seed=4, colorings=8, plan="auto"
        )
        assert auto.found == manual.found
        assert auto.plan is not None
