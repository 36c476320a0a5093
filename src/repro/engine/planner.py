"""Cost-based query planning: predict, choose, explain, calibrate.

The library exposes the paper's Table-1 variant space — parallel
(Section 3.3) vs sequential (Section 3.2) engines, packed vs reference DP
kernels, k-d vs separating covers, cold vs session-warm providers — and
until now every caller hard-coded the choice.  This module turns the
executable Cost model into a *planner*:

1. :class:`QueryStats` gathers cheap statistics about one (target,
   pattern, mode) query: ``n``, ``m``, pattern size/diameter, the
   connected-subpattern count ``|C(H)|`` (Eppstein's state-richness bound,
   computed from the precomputed adjacency bitmasks), the packed-code bit
   demand (overflow risk), and — when the provider is a caching session —
   which artifacts are already warm.

2. :class:`CostModel` predicts a per-phase ``Cost`` (embed / cover / dp)
   for every variant from closed-form bases fitted against recorded
   ``trace.cost`` totals of the existing drivers, and *calibrates itself
   online*: every executed plan feeds its actual charged cost back through
   :meth:`CostModel.observe`, which maintains an EMA correction ratio per
   (mode, engine) pair.  The model lives on the artifact provider (one per
   session / per cold driver invocation), never in module globals.

3. :func:`plan_query` enumerates the variants, scores each by Brent time
   ``ceil(W/P) + D`` at the plan's processor count, and returns an
   explainable :class:`QueryPlan` — chosen variant, predicted cost,
   per-phase breakdown, scored alternatives and human-readable rationale.
   All six drivers accept it via ``plan=`` (or build one with
   ``plan="auto"``); explicit ``engine=`` / ``kernel=`` / ``backend=``
   arguments always override the plan's choice.

Fitted bases (n=256..4096 grids, C4/C5/P4, both engines; see
``benchmarks/bench_planner.py`` for the predicted-vs-actual error report):

* ``W_dp(seq)  ~ c * rounds * n * k * |C(H)| * (w+1)`` with ``c ~ 6``
* ``W_dp(par)  ~ 10 * (k/4) * W_dp(seq)`` (measured 9–11x at k=4,
  ~21x at the vc 8-cycle probes)
* ``D_dp(seq)  ~ rounds * W_round / pieces``, ``pieces ~ 2.5 * sqrt(n)``
* ``D_dp(par)  ~ 1.5 * rounds * k * log2(n)^2``
* ``W_cover    ~ 7 * rounds * (n + m) * log2(n)``, polylog depth
* embed: exactly :func:`~repro.planar.geometric.embedding_cost`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..pram import Cost
from ..pram.cost import log2_ceil

__all__ = [
    "QueryStats",
    "CostModel",
    "DEFAULT_PRIORS",
    "QueryPlan",
    "plan_query",
    "resolve_plan",
    "MODES",
]

#: Query modes the planner understands, with their cover family.
MODES: Dict[str, str] = {
    "decide": "kd",
    "witness": "kd",
    "list": "kd",
    "count": "window",
    "separating": "separating",
    "vc": "separating",
}

# Work multipliers on top of the decide base for the heavier modes
# (listing adds enumeration sweeps; exact counting runs the window DP per
# window; vertex connectivity runs O(1) separating probes on G').  These
# are starting points — the EMA calibration refines them per provider.
_MODE_WORK_FACTOR = {
    "decide": 1.0,
    "witness": 1.15,
    "list": 1.6,
    "count": 2.5,
    "separating": 1.25,
    "vc": 8.0,
}

# Packed int64 codes spend ~log2(w+2) bits per pattern vertex (base-
# (|bag|+2) digits), plus one side bit per vertex for the separating
# kernels' side sets.  Above this usable budget the packed kernels would
# warn and fall back — plan the reference kernel outright instead.
_PACKED_BIT_BUDGET = 60

#: Committed calibration priors: actual/predicted (work, depth) EMA
#: ratios per (mode, engine), taken from the state the BENCH_PR7 regret
#: workload (16 mixed decide queries) converges to.  The sequential
#: ratios agree within ~10% across the bench scales (16x16 and 24x24
#: grids; BENCH_PR7.json records the 24x24 run).  The parallel ratios
#: come from the 16x16 run, the only scale whose cold-start transient
#: explores the parallel engine: its work ratio folds the exploration
#: overruns into a standing handicap that encodes what the closed forms
#: underpredict — at P=256 the sequential engine actually beats parallel
#: by 1.4-1.8x on the cyclic patterns — and thereby keeps the engine
#: ordering stable.  A fresh :class:`CostModel` seeds its corrections
#: from these, so a fresh server plans its first queries from the
#: converged regime instead of re-paying the exploration regret
#: (previously the first half of any workload was a documented
#: cold-start transient).  ``_mode_prior`` still projects onto engines
#: absent from the priors, and :meth:`CostModel.observe` keeps refining
#: online exactly as before.
DEFAULT_PRIORS: Dict[Tuple[str, str], Tuple[float, float]] = {
    ("decide", "sequential"): (1.10, 1.25),
    ("decide", "parallel"): (1.91, 0.58),
}


@dataclass(frozen=True)
class QueryStats:
    """Cheap statistics the estimator consumes (no cover is built)."""

    n: int
    m: int
    k: int
    d: int
    subpatterns: int  # |C(H)|
    mode: str
    rounds: int
    packed_bits: int
    overflow_risk: bool
    warm_cover_rounds: int = 0  # covers already cached for this (k, d, seed..)
    warm_piece_kinds: Tuple[Tuple[str, str], ...] = ()  # (engine, kernel)
    cluster_width: Optional[int] = None  # achieved width, if a cover is warm

    @property
    def width_estimate(self) -> int:
        """Achieved EST cluster width when a warm cover recorded one,
        else the Theorem 2.4 heuristic ``~2d + 1``."""
        if self.cluster_width is not None:
            return self.cluster_width
        return 2 * self.d + 1


def gather_stats(
    provider,
    pattern,
    mode: str,
    seed: int = 0,
    rounds: Optional[int] = None,
) -> QueryStats:
    """Collect :class:`QueryStats` for one query against ``provider``.

    Only O(n) / O(2^k) facts are touched: graph sizes, the memoized
    pattern statistics, and (for caching sessions) a scan of the cache
    keyspace for warm covers and per-piece DP solutions of this pattern.
    """
    if mode not in MODES:
        raise ValueError(f"unknown query mode {mode!r}")
    graph = provider.graph
    n = int(graph.n)
    m = int(graph.m)
    k = pattern.k
    d = pattern.diameter()
    sub = pattern.connected_subpattern_count()
    if rounds is None:
        rounds = max(1, math.ceil(2.0 * math.log2(max(n, 2))))
    width_guess = 2 * d + 1
    packed_bits = k * max(1, math.ceil(math.log2(width_guess + 2)))
    if MODES[mode] == "separating":
        packed_bits += k  # side-set high bits
    warm_rounds = 0
    warm_kinds: List[Tuple[str, str]] = []
    cluster_width: Optional[int] = None
    if getattr(provider, "caching", False):
        from .keys import graph_fingerprint

        cache = provider._cache
        for r in range(rounds):
            entry = cache.get(
                ("cover", provider.target_key, k, d, seed + r)
            )
            if entry is not None:
                warm_rounds += 1
                if cluster_width is None:
                    cluster_width = max(
                        (p.decomposition.width() for p in entry.value.pieces),
                        default=width_guess,
                    )
        pattern_fp = graph_fingerprint(pattern.graph)
        for key in cache:
            if key[0] == "piece-dp" and key[3] == pattern_fp:
                kind = (key[4], key[5])
                if kind not in warm_kinds:
                    warm_kinds.append(kind)
    return QueryStats(
        n=n,
        m=m,
        k=k,
        d=d,
        subpatterns=sub,
        mode=mode,
        rounds=int(rounds),
        packed_bits=packed_bits,
        overflow_risk=packed_bits > _PACKED_BIT_BUDGET,
        warm_cover_rounds=warm_rounds,
        warm_piece_kinds=tuple(warm_kinds),
        cluster_width=cluster_width,
    )


class CostModel:
    """Closed-form per-phase Cost predictor with EMA online calibration.

    One instance per artifact provider (``provider.cost_model``): cold
    providers calibrate within a single driver invocation, sessions
    accumulate calibration across their whole query stream.  Never stored
    in module globals (the PR-5 leaky-state rule).
    """

    #: EMA smoothing for observed/predicted correction ratios.
    alpha = 0.5
    #: Correction ratios are clamped to this band so one pathological
    #: observation cannot invert the engine ordering.
    ratio_band = (0.2, 5.0)

    def __init__(
        self,
        priors: Optional[Dict[Tuple[str, str], Tuple[float, float]]] = None,
    ) -> None:
        self.coeffs: Dict[str, float] = {
            "dp_seq": 3.0,
            "par_ratio": 10.0,
            "cover": 7.0,
            "pieces_per_sqrt_n": 2.5,
            "par_depth": 1.5,
        }
        # (mode, engine) -> EMA of actual/predicted charged work, seeded
        # from the committed priors (pass ``priors={}`` for a deliberately
        # uncalibrated model, e.g. to measure the cold-start transient).
        if priors is None:
            priors = DEFAULT_PRIORS
        self._work_ratio: Dict[Tuple[str, str], float] = {
            key: work for key, (work, _depth) in priors.items()
        }
        self._depth_ratio: Dict[Tuple[str, str], float] = {
            key: depth for key, (_work, depth) in priors.items()
        }
        self.observations = 0

    # -- prediction --------------------------------------------------------

    def estimate_phases(
        self, stats: QueryStats, engine: str, warm: bool
    ) -> Dict[str, Cost]:
        """Predicted per-phase Cost for one (engine, warm/cold) variant.

        The kernel does not appear: packed and reference kernels charge
        identical Cost by construction (PR 2) — only wall-clock differs.
        """
        from ..planar.geometric import embedding_cost

        n, m, k = stats.n, stats.m, stats.k
        rounds = stats.rounds
        w = stats.width_estimate
        lg = max(1, log2_ceil(max(n, 2)))
        c = self.coeffs

        embed = embedding_cost(n) if not warm else Cost.zero()

        cold_cover_rounds = rounds - (
            stats.warm_cover_rounds if warm else 0
        )
        cold_cover_rounds = max(0, cold_cover_rounds)
        cover_work = int(c["cover"] * cold_cover_rounds * (n + m) * lg)
        cover_depth = min(cover_work, cold_cover_rounds * 6 * lg * lg)
        cover = Cost(cover_work, cover_depth)

        dp_warm = warm and any(
            eng == engine for (eng, _kern) in stats.warm_piece_kinds
        )
        if dp_warm:
            dp = Cost.zero()
        else:
            seq_round = int(
                c["dp_seq"] * n * k * stats.subpatterns * (w + 1)
            )
            if engine == "parallel":
                # The parallel engine's candidate enumeration realizes
                # the full state bound, so its work ratio over the
                # sequential reachable-state walk grows with k: measured
                # ~10x at k=4 and ~21x at k=8 (the vc 8-cycle probes).
                ratio = c["par_ratio"] * max(1.0, k / 4.0)
                round_work = int(seq_round * ratio)
                round_depth = int(c["par_depth"] * k * lg * lg)
            else:
                round_work = seq_round
                pieces = max(1.0, c["pieces_per_sqrt_n"] * math.sqrt(n))
                round_depth = int(round_work / pieces)
            factor = _MODE_WORK_FACTOR[stats.mode]
            dp_work = int(rounds * round_work * factor)
            dp_depth = min(dp_work, int(rounds * round_depth * factor))
            dp = Cost(dp_work, dp_depth)

        key = (stats.mode, engine)
        wr = self._work_ratio.get(
            key, self._mode_prior(self._work_ratio, stats.mode)
        )
        dr = self._depth_ratio.get(
            key, self._mode_prior(self._depth_ratio, stats.mode)
        )
        if wr is not None or dr is not None:
            scaled = {}
            for name, cost in (
                ("embed", embed), ("cover", cover), ("dp", dp)
            ):
                work = int(cost.work * (wr if wr is not None else 1.0))
                depth = int(cost.depth * (dr if dr is not None else 1.0))
                scaled[name] = Cost(work, min(work, depth))
            return scaled
        return {"embed": embed, "cover": cover, "dp": dp}

    def estimate(
        self, stats: QueryStats, engine: str, warm: bool
    ) -> Cost:
        """Total predicted Cost (sequential phase composition)."""
        total = Cost.zero()
        for cost in self.estimate_phases(stats, engine, warm).values():
            total = total + cost
        return total

    @staticmethod
    def _mode_prior(
        ratios: Dict[Tuple[str, str], float], mode: str
    ) -> Optional[float]:
        """Fallback correction for an engine with no observations yet:
        the mean ratio over the *other* engines of the same mode.

        The systematic part of a prediction error (round-count effects
        like early exit, mode-factor misfit) is engine-independent, so an
        uncorrected engine would otherwise look ever cheaper as its
        rival's EMA climbs — and the planner would flip to it mid-stream
        for no real reason (observed as 1.7x regret spikes late in mixed
        workloads).  Sharing the mode-level prior keeps the engine
        ordering stable until the engine earns its own correction.
        """
        same_mode = [r for (m, _e), r in ratios.items() if m == mode]
        if not same_mode:
            return None
        return sum(same_mode) / len(same_mode)

    # -- calibration -------------------------------------------------------

    def observe(self, stats: QueryStats, engine: str, warm: bool,
                actual: Cost) -> None:
        """Fold one executed query's actual charged cost into the EMA
        correction for its (mode, engine) pair."""
        predicted = self.estimate(stats, engine, warm)
        key = (stats.mode, engine)
        lo, hi = self.ratio_band
        if predicted.work > 0 and actual.work > 0:
            ratio = min(hi, max(lo, actual.work / predicted.work))
            prev = self._work_ratio.get(key)
            self._work_ratio[key] = (
                ratio if prev is None
                else (1 - self.alpha) * prev + self.alpha * ratio
            )
        if predicted.depth > 0 and actual.depth > 0:
            ratio = min(hi, max(lo, actual.depth / predicted.depth))
            prev = self._depth_ratio.get(key)
            self._depth_ratio[key] = (
                ratio if prev is None
                else (1 - self.alpha) * prev + self.alpha * ratio
            )
        self.observations += 1

    def calibration(self) -> dict:
        """JSON-serializable snapshot of the learned corrections."""
        return {
            "observations": self.observations,
            "work_ratio": {
                f"{m}/{e}": round(r, 4)
                for (m, e), r in sorted(self._work_ratio.items())
            },
            "depth_ratio": {
                f"{m}/{e}": round(r, 4)
                for (m, e), r in sorted(self._depth_ratio.items())
            },
        }


@dataclass
class QueryPlan:
    """An explainable plan for one query: the chosen variant, why, and —
    once executed — what it actually cost.

    Drivers consume the variant fields (``engine`` / ``kernel`` /
    ``backend``); explicit keyword arguments override them.  After the
    driver runs it calls :meth:`record_actual`, which both fills the
    predicted-vs-actual report and feeds the provider's
    :class:`CostModel` calibration.
    """

    mode: str
    cover: str
    engine: str
    kernel: str
    backend: str
    warm: bool
    rounds: int
    processors: int
    predicted: Cost
    predicted_phases: Dict[str, Cost]
    predicted_time: int
    stats: QueryStats
    alternatives: List[Tuple[str, int]] = field(default_factory=list)
    rationale: List[str] = field(default_factory=list)
    shared: bool = False
    actual: Optional[Cost] = None
    _model: Optional[CostModel] = field(
        default=None, repr=False, compare=False
    )

    @property
    def variant(self) -> str:
        return f"{self.engine}/{self.kernel}/{self.cover}" + (
            "/warm" if self.warm else "/cold"
        )

    def record_actual(self, actual: Cost) -> None:
        """Report the executed query's charged cost back to the model."""
        self.actual = actual
        if self._model is not None:
            self._model.observe(self.stats, self.engine, self.warm, actual)

    @property
    def prediction_error(self) -> Optional[float]:
        """Relative work error |predicted - actual| / actual, when known."""
        if self.actual is None or self.actual.work == 0:
            return None
        return abs(self.predicted.work - self.actual.work) / self.actual.work

    def explain(self) -> str:
        """Human-readable plan report (the CLI's ``--explain``)."""
        lines = [
            f"plan: mode={self.mode} variant={self.variant} "
            f"backend={self.backend} rounds={self.rounds} "
            f"P={self.processors}",
            f"  predicted cost: work={self.predicted.work:,} "
            f"depth={self.predicted.depth:,} "
            f"T_P={self.predicted_time:,}",
        ]
        for name, cost in self.predicted_phases.items():
            lines.append(
                f"    {name:<8} work={cost.work:>14,} depth={cost.depth:>10,}"
            )
        for text in self.rationale:
            lines.append(f"  - {text}")
        if self.alternatives:
            alts = ", ".join(
                f"{name}: T_P={t:,}" for name, t in self.alternatives
            )
            lines.append(f"  rejected: {alts}")
        if self.actual is not None:
            err = self.prediction_error
            err_s = f" ({err:.0%} off)" if err is not None else ""
            lines.append(
                f"  actual cost: work={self.actual.work:,} "
                f"depth={self.actual.depth:,}{err_s}"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-serializable form (benchmarks, ``--explain`` consumers)."""
        out = {
            "mode": self.mode,
            "variant": self.variant,
            "engine": self.engine,
            "kernel": self.kernel,
            "backend": self.backend,
            "warm": self.warm,
            "rounds": self.rounds,
            "processors": self.processors,
            "predicted_work": self.predicted.work,
            "predicted_depth": self.predicted.depth,
            "predicted_time": self.predicted_time,
            "alternatives": dict(self.alternatives),
            "rationale": list(self.rationale),
        }
        if self.actual is not None:
            out["actual_work"] = self.actual.work
            out["actual_depth"] = self.actual.depth
            out["prediction_error"] = self.prediction_error
        return out


def _choose_backend() -> str:
    """The plan's execution backend: ``serial``, whatever the predicted
    work or the core count.

    The ``threads`` backend runs piece tasks under the GIL, so it adds
    dispatch and waiting without running anything in parallel: the warm
    exact count of a path of 3 on a 256-vertex triangulated grid took
    1.05 s on ``threads`` and 0.54 s serial on a 2-core host (medians of
    six alternating runs), at equal charged work.  Picking ``processes``
    needs measured dispatch overhead on the host, which the planner does
    not have yet.
    """
    return "serial"


def plan_query(
    provider,
    pattern,
    mode: str = "decide",
    seed: int = 0,
    rounds: Optional[int] = None,
    processors: int = 256,
) -> QueryPlan:
    """Choose the cheapest variant for one query by predicted Brent time.

    Parameters
    ----------
    provider:
        An artifact provider bound to the target —
        :class:`~repro.engine.session.TargetSession` (plans exploit warm
        artifacts and calibrate across queries) or
        :class:`~repro.engine.artifacts.ColdArtifacts`.
    mode:
        One of ``decide | witness | list | count | separating | vc``.
    processors:
        The simulated machine size the plan optimizes ``ceil(W/P) + D``
        for.  Engine choice genuinely depends on it: the parallel engine
        charges ~10x the work at ~100x less depth, so it wins only past
        the crossover (P in the hundreds on the benchmark grids).
    """
    stats = gather_stats(provider, pattern, mode, seed=seed, rounds=rounds)
    model = getattr(provider, "cost_model", None)
    if model is None:
        model = CostModel()
    warm = bool(getattr(provider, "caching", False)) and (
        stats.warm_cover_rounds > 0 or bool(stats.warm_piece_kinds)
    )
    rationale: List[str] = []
    scored: List[Tuple[str, int, Cost, Dict[str, Cost]]] = []
    for engine in ("parallel", "sequential"):
        phases = model.estimate_phases(stats, engine, warm)
        total = Cost.zero()
        for cost in phases.values():
            total = total + cost
        t_p = total.brent_time(processors) if total.work else 0
        scored.append((engine, t_p, total, phases))
    scored.sort(key=lambda item: (item[1], item[2].work))
    engine, t_p, predicted, phases = scored[0]
    rationale.append(
        f"engine={engine}: lowest predicted T_P at P={processors} "
        f"(parallel charges ~{model.coeffs['par_ratio']:.0f}x work at "
        f"polylog depth)"
    )
    if stats.overflow_risk:
        kernel = "reference"
        rationale.append(
            f"kernel=reference: packed codes need ~{stats.packed_bits} bits "
            f"> {_PACKED_BIT_BUDGET} budget (overflow risk)"
        )
    else:
        kernel = "packed"
        rationale.append(
            f"kernel=packed: ~{stats.packed_bits} code bits fit int64; "
            f"identical charged cost, lower wall-clock"
        )
    if warm:
        rationale.append(
            f"warm session: {stats.warm_cover_rounds}/{stats.rounds} cover "
            f"rounds cached, piece-DP warm for "
            f"{[f'{e}/{k}' for e, k in stats.warm_piece_kinds] or 'none'}"
        )
        warm_engines = {e for e, _ in stats.warm_piece_kinds}
        if warm_engines and engine not in warm_engines:
            # A cached DP for the "wrong" engine beats rebuilding with the
            # nominally cheaper one: re-score with warm awareness.
            for alt_engine in warm_engines:
                alt_phases = model.estimate_phases(stats, alt_engine, warm)
                alt_total = Cost.zero()
                for cost in alt_phases.values():
                    alt_total = alt_total + cost
                alt_t = (
                    alt_total.brent_time(processors) if alt_total.work else 0
                )
                if alt_t <= t_p:
                    engine, t_p = alt_engine, alt_t
                    predicted, phases = alt_total, alt_phases
                    rationale.append(
                        f"engine switched to {alt_engine}: cached piece-DP "
                        f"solutions make it free"
                    )
    backend = _choose_backend()
    alternatives = [
        (f"{e}/{kernel}", t) for e, t, _, _ in scored if e != engine
    ]
    return QueryPlan(
        mode=mode,
        cover=MODES[mode],
        engine=engine,
        kernel=kernel,
        backend=backend,
        warm=warm,
        rounds=stats.rounds,
        processors=processors,
        predicted=predicted,
        predicted_phases=phases,
        predicted_time=t_p,
        stats=stats,
        alternatives=alternatives,
        rationale=rationale,
        _model=model,
    )


def resolve_plan(
    plan,
    provider,
    pattern,
    mode: str,
    seed: int = 0,
    rounds: Optional[int] = None,
) -> Optional[QueryPlan]:
    """Normalize a driver's ``plan=`` argument.

    ``None`` / ``"manual"`` -> no plan (the driver's own defaults apply);
    ``"auto"`` -> :func:`plan_query` against ``provider``; a
    :class:`QueryPlan` instance passes through unchanged.
    """
    if plan is None or plan == "manual":
        return None
    if plan == "auto":
        return plan_query(
            provider, pattern, mode=mode, seed=seed, rounds=rounds
        )
    if isinstance(plan, QueryPlan):
        return plan
    raise ValueError(
        f"plan must be None, 'manual', 'auto' or a QueryPlan, got {plan!r}"
    )


def apply_plan(
    plan,
    provider,
    pattern,
    mode: str,
    seed: int,
    rounds: Optional[int],
    engine: Optional[str],
    kernel: Optional[str],
    backend,
    default_engine: str = "parallel",
    default_kernel: str = "packed",
    default_backend: str = "serial",
) -> Tuple[Optional[QueryPlan], str, str, object]:
    """Driver-side plan resolution: explicit arguments win, then the
    plan's variant, then the driver's historical defaults.

    Returns ``(plan_or_None, engine, kernel, backend)``; every driver
    funnels its ``engine= / kernel= / backend= / plan=`` keywords through
    here so override precedence is uniform across all six entry points.
    """
    plan_obj = resolve_plan(
        plan, provider, pattern, mode, seed=seed, rounds=rounds
    )
    if plan_obj is not None:
        engine = engine if engine is not None else plan_obj.engine
        kernel = kernel if kernel is not None else plan_obj.kernel
        backend = backend if backend is not None else plan_obj.backend
    else:
        engine = engine if engine is not None else default_engine
        kernel = kernel if kernel is not None else default_kernel
        backend = backend if backend is not None else default_backend
    return plan_obj, engine, kernel, backend
