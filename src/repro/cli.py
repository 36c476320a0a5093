"""Command-line interface.

Examples
--------
::

    python -m repro decide  --target trigrid:12x12 --pattern triangle
    python -m repro decide  --target trigrid:24x24 --pattern cycle:4 \
        --backend processes --processors 4
    python -m repro decide  --target grid:16x16 --pattern cycle:4 \
        --plan auto --explain
    python -m repro count   --target grid:8x8 --pattern cycle:4 --exact
    python -m repro list    --target grid:6x6 --pattern cycle:4
    python -m repro vc      --target antiprism:4
    python -m repro vc      --target delaunay:200:7 --rounds 2
    python -m repro batch   --target grid:16x16 \
        --patterns cycle:4,path:4,star:3 --session-stats
    python -m repro batch   --target trigrid:12x12 \
        --patterns-file patterns.txt --session-stats
    python -m repro profile --target trigrid:12x12 --pattern cycle:4 \
        --processors 1,4,16,64 --chrome-trace decide.json --metrics decide.prom
    python -m repro profile --target trigrid:16x16 --pattern cycle:4 \
        --processors 1,2,4 --measure
    python -m repro lint src/repro --format json --output lint.json

``batch`` answers every pattern against one :class:`repro.engine.TargetSession`
(covers, clusterings and per-piece decompositions are built once and served
from cache afterwards); ``--session-stats`` prints the cache hit/miss table
and the saved (amortized) cost, and ``--metrics PATH`` exports the same
counters (plus the last query's trace) in Prometheus text format.

``profile`` runs one decide query, *executes* its span tree under the
greedy list scheduler (``repro.pram.schedule``) for each ``--processors``
count, and prints the simulated makespans against the scalar Brent bound;
``--chrome-trace PATH`` writes a Chrome trace-event/Perfetto JSON timeline
of the widest schedule and ``--metrics PATH`` the Prometheus gauges.

Every command accepts ``--trace`` to print the hierarchical per-phase
work/depth table (the span tree recorded by ``repro.pram.trace``) and
``--trace-json PATH`` to dump the same tree as JSON::

    python -m repro decide --target trigrid:12x12 --pattern triangle --trace
    python -m repro vc --target wheel:6 --rounds 2 --trace-json vc-trace.json

Target specs: ``grid:RxC``, ``trigrid:RxC``, ``delaunay:N[:SEED]``,
``cycle:N``, ``path:N``, ``wheel:RIM``, ``antiprism:K``, ``icosahedron``,
``tree:N[:SEED]``, ``outerplanar:N[:SEED]``.

Pattern specs: ``triangle``, ``path:K``, ``cycle:K``, ``star:LEAVES``,
``clique:K``, ``diamond``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Tuple

from .graphs.csr import Graph
from .planar.embedding import PlanarEmbedding

__all__ = ["main", "parse_target", "parse_target_spec", "parse_pattern"]


def parse_target_spec(spec: str) -> Tuple[str, Tuple[int, ...]]:
    """Check a target spec's syntax: its family and integer arguments.

    Builds nothing, so it is cheap enough to validate every request with;
    :func:`parse_target` builds the graph.  Raises ``SystemExit`` on an
    unknown family or a malformed argument (the argparse contract).
    """
    name, *args = spec.split(":")
    try:
        if name in ("grid", "trigrid"):
            r, c = args[0].split("x")
            return name, (int(r), int(c))
        if name in ("delaunay", "tree", "outerplanar"):
            seed = int(args[1]) if len(args) > 1 else 0
            return name, (int(args[0]), seed)
        if name in ("cycle", "path", "wheel", "antiprism"):
            return name, (int(args[0]),)
        if name == "icosahedron":
            return name, ()
        raise ValueError(f"unknown target family {name!r}")
    except (IndexError, ValueError) as exc:
        raise SystemExit(f"bad target spec {spec!r}: {exc}") from exc


def parse_target(spec: str) -> Tuple[Graph, PlanarEmbedding]:
    """Build the target graph + embedding from a CLI spec string.

    Raises ``SystemExit`` on a malformed spec (see
    :func:`parse_target_spec`) and on arguments the family's generator
    rejects (``grid:0x0``).
    """
    from . import graphs
    from .planar import embed_geometric, embed_planar

    name, args = parse_target_spec(spec)
    try:
        if name == "icosahedron":
            g = graphs.icosahedron_graph().graph
            return g, embed_planar(g)
        if name == "tree":
            g = graphs.random_tree(*args)
            return g, embed_planar(g)
        build = {
            "grid": graphs.grid_graph,
            "trigrid": graphs.triangulated_grid,
            "delaunay": graphs.delaunay_graph,
            "cycle": graphs.cycle_graph,
            "path": graphs.path_graph,
            "wheel": graphs.wheel_graph,
            "antiprism": graphs.antiprism_graph,
            "outerplanar": graphs.outerplanar_graph,
        }[name]
        gg = build(*args)
    except (IndexError, ValueError) as exc:
        raise SystemExit(f"bad target spec {spec!r}: {exc}") from exc
    emb, _ = embed_geometric(gg)
    return gg.graph, emb


def parse_pattern(spec: str):
    """Build the pattern from a CLI spec string."""
    from . import isomorphism as iso

    name, *args = spec.split(":")
    try:
        if name == "triangle":
            return iso.triangle()
        if name == "path":
            return iso.path_pattern(int(args[0]))
        if name == "cycle":
            return iso.cycle_pattern(int(args[0]))
        if name == "star":
            return iso.star_pattern(int(args[0]))
        if name == "clique":
            return iso.clique_pattern(int(args[0]))
        if name == "diamond":
            return iso.diamond()
        raise ValueError(f"unknown pattern family {name!r}")
    except (IndexError, ValueError) as exc:
        raise SystemExit(f"bad pattern spec {spec!r}: {exc}") from exc


def _cost_summary(cost) -> str:
    return (
        f"work={cost.work:,} depth={cost.depth:,} "
        f"parallelism={cost.parallelism():,.0f} "
        f"T(64 procs)={cost.brent_time(64):,}"
    )


def _emit_plan(args, plan) -> None:
    """Print the executed plan per --explain."""
    if not getattr(args, "explain", False):
        return
    if plan is None:
        print("(no plan recorded: pass --plan auto)")
        return
    print(plan.explain())


def _emit_trace(args, trace) -> None:
    """Print and/or dump the result's span tree per --trace/--trace-json."""
    if trace is None:
        if args.trace or args.trace_json:
            print("(no trace recorded for this command)")
        return
    if args.trace:
        from .pram import format_trace

        print(format_trace(trace))
    if args.trace_json:
        import json

        try:
            with open(args.trace_json, "w", encoding="utf-8") as fh:
                json.dump(trace.to_dict(), fh, indent=2)
        except OSError as exc:
            raise SystemExit(
                f"cannot write trace to {args.trace_json!r}: {exc}"
            ) from exc
        print(f"trace written to {args.trace_json}")


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel planar subgraph isomorphism & vertex "
        "connectivity (SPAA 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pattern=True, workers=True):
        p.add_argument("--target", required=True, help="target graph spec")
        if pattern:
            p.add_argument(
                "--pattern", required=True, help="pattern spec"
            )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--rounds", type=int, default=None)
        p.add_argument(
            "--engine", choices=["parallel", "sequential"],
            default=None,
        )
        p.add_argument(
            "--backend", choices=["serial", "threads", "processes"],
            default=None,
            help="piece-solve execution backend (repro.exec); results "
            "and traces are backend-independent (default: serial, or "
            "the plan's choice under --plan auto)",
        )
        p.add_argument(
            "--plan", choices=["auto", "manual"], default=None,
            help="query planning: 'auto' picks engine/kernel/backend by "
            "predicted cost (repro.engine.planner); explicit --engine/"
            "--backend still override the plan (default: manual)",
        )
        p.add_argument(
            "--explain", action="store_true",
            help="print the executed query plan (chosen variant, "
            "predicted vs actual cost); pairs with --plan auto",
        )
        if workers:
            p.add_argument(
                "--processors", type=int, default=None, metavar="N",
                help="worker count for non-serial backends "
                "(default: all cores)",
            )
        p.add_argument(
            "--trace", action="store_true",
            help="print the hierarchical per-phase work/depth table",
        )
        p.add_argument(
            "--trace-json", metavar="PATH", default=None,
            help="write the span tree as JSON to PATH",
        )

    common(sub.add_parser("decide", help="decide occurrence (Thm 2.1)"))
    count_p = sub.add_parser("count", help="count occurrences")
    common(count_p)
    count_p.add_argument(
        "--exact", action="store_true",
        help="deterministic exact counting (window inclusion-exclusion)",
    )
    common(sub.add_parser("list", help="list all occurrences (Thm 4.2)"))
    common(sub.add_parser("vc", help="vertex connectivity (Lemma 5.2)"),
           pattern=False)
    batch_p = sub.add_parser(
        "batch",
        help="decide many patterns over one cached target session",
    )
    common(batch_p, pattern=False)
    batch_p.add_argument(
        "--patterns", default=None,
        help="comma-separated pattern specs (e.g. cycle:4,path:4,star:3)",
    )
    batch_p.add_argument(
        "--patterns-file", metavar="PATH", default=None,
        help="file with one pattern spec per line ('#' comments allowed)",
    )
    batch_p.add_argument(
        "--session-stats", action="store_true",
        help="print the session cache hit/miss table and amortized cost",
    )
    batch_p.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write cache stats + last query's trace as Prometheus text",
    )
    profile_p = sub.add_parser(
        "profile",
        help="simulate Brent schedules of one decide query's span tree",
    )
    common(profile_p, workers=False)
    profile_p.add_argument(
        "--processors", default="1,2,4,8,16,64",
        help="comma-separated simulated processor counts "
        "(default: 1,2,4,8,16,64)",
    )
    profile_p.add_argument(
        "--measure", action="store_true",
        help="also run the query for real at each --processors count "
        "(processes backend unless --backend threads) and print "
        "measured wall-clock against the simulated T_P and the Brent "
        "sandwich",
    )
    profile_p.add_argument(
        "--chrome-trace", metavar="PATH", default=None,
        help="write a Chrome trace-event JSON timeline of the schedule at "
        "the largest processor count (open in Perfetto / chrome://tracing)",
    )
    profile_p.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write trace + schedule gauges in Prometheus text format",
    )
    serve_p = sub.add_parser(
        "serve",
        help="run the HTTP/JSON query daemon (multi-tenant warm "
        "session pool; POST /v1/decide|count|list|connectivity|batch, "
        "GET /healthz, GET /metrics)",
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_p.add_argument(
        "--port", type=int, default=8722,
        help="bind port (0 = pick an ephemeral port; the chosen port "
        "is printed on startup)",
    )
    serve_p.add_argument(
        "--cache-budget-mb", type=float, default=256.0, metavar="MB",
        help="session-pool residency budget; least-recently-used "
        "target sessions are invalidated past it (default: 256)",
    )
    serve_p.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="query executor threads (default: 4)",
    )
    serve_p.add_argument(
        "--backend", choices=["serial", "threads", "processes"],
        default=None,
        help="piece-solve execution backend shared by every query "
        "(default: serial, or the plan's choice)",
    )
    serve_p.add_argument(
        "--processors", type=int, default=None, metavar="N",
        help="worker count for a non-serial --backend",
    )
    lint_p = sub.add_parser(
        "lint",
        help="cost-soundness analyzer (uncharged work, depth hazards, "
        "nondeterminism, unsafe spans, cost contracts, static CREW, "
        "task purity)",
    )
    lint_p.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint_p.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="findings output format",
    )
    lint_p.add_argument(
        "--output", metavar="PATH", default=None,
        help="write findings to PATH instead of stdout",
    )
    lint_p.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="baseline file freezing known findings "
        "(default: src/repro/analysis/baseline.json)",
    )
    lint_p.add_argument(
        "--no-baseline", action="store_true",
        help="report every finding, ignoring the baseline",
    )
    lint_p.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    lint_p.add_argument(
        "--ratchet", action="store_true",
        help="also fail on stale baseline entries that no longer fire "
        "(committed debt must only shrink)",
    )

    args = parser.parse_args(argv)
    if args.command == "serve":
        from .serve import serve_main

        return serve_main(args)
    if args.command == "lint":
        from .analysis import run as lint_run

        return lint_run(
            args.paths or ["src/repro"],
            format=args.format,
            output=args.output,
            baseline=args.baseline,
            no_baseline=args.no_baseline,
            write_baseline=args.write_baseline,
            ratchet=args.ratchet,
        )
    graph, embedding = parse_target(args.target)
    print(f"target: {args.target} (n={graph.n}, m={graph.m})")
    t0 = time.perf_counter()

    # One resolved backend serves every query of the command (the process
    # pool spins up once); profile builds its own per --measure count.
    executor = None
    if args.command != "profile" and args.backend is not None:
        from .exec import resolve_backend

        executor = resolve_backend(
            args.backend, max_workers=args.processors
        )

    if args.command == "decide":
        from .isomorphism import find_occurrence

        pattern = parse_pattern(args.pattern)
        result = find_occurrence(
            graph, embedding, pattern, seed=args.seed,
            engine=args.engine, rounds=args.rounds,
            backend=executor, plan=args.plan,
        )
        print(f"found: {result.found}")
        if result.witness:
            print(f"witness: {result.witness}")
        print(_cost_summary(result.cost))
        _emit_plan(args, result.plan)
        _emit_trace(args, result.trace)
    elif args.command == "count":
        pattern = parse_pattern(args.pattern)
        if args.exact:
            from .isomorphism import count_occurrences_exact

            result = count_occurrences_exact(
                graph, embedding, pattern, backend=executor,
                plan=args.plan,
            )
            print(f"isomorphisms (exact, deterministic): "
                  f"{result.isomorphisms}")
            print(_cost_summary(result.cost))
            _emit_plan(args, result.plan)
            _emit_trace(args, result.trace)
        else:
            from .isomorphism import list_occurrences

            listing = list_occurrences(
                graph, embedding, pattern, seed=args.seed,
                engine=args.engine, backend=executor, plan=args.plan,
            )
            print(f"isomorphisms (w.h.p.): {len(listing.witnesses)}")
            print(f"distinct occurrences:  {len(listing.occurrences)}")
            print(_cost_summary(listing.cost))
            _emit_plan(args, listing.plan)
            _emit_trace(args, listing.trace)
    elif args.command == "list":
        from .isomorphism import list_occurrences

        pattern = parse_pattern(args.pattern)
        listing = list_occurrences(
            graph, embedding, pattern, seed=args.seed,
            engine=args.engine, backend=executor, plan=args.plan,
        )
        print(f"occurrences: {len(listing.occurrences)} "
              f"({listing.iterations} iterations)")
        for image in sorted(listing.occurrences, key=sorted)[:20]:
            print(f"  {sorted(image)}")
        if len(listing.occurrences) > 20:
            print(f"  ... and {len(listing.occurrences) - 20} more")
        print(_cost_summary(listing.cost))
        _emit_plan(args, listing.plan)
        _emit_trace(args, listing.trace)
    elif args.command == "vc":
        from .connectivity import planar_vertex_connectivity

        result = planar_vertex_connectivity(
            graph, embedding, seed=args.seed, rounds=args.rounds,
            engine=args.engine, backend=executor, plan=args.plan,
        )
        print(f"vertex connectivity: {result.connectivity}")
        print(_cost_summary(result.cost))
        _emit_plan(args, result.plan)
        _emit_trace(args, result.trace)
    elif args.command == "batch":
        from .engine import TargetSession

        specs: list = []
        if args.patterns:
            specs.extend(s.strip() for s in args.patterns.split(",") if s.strip())
        if args.patterns_file:
            try:
                with open(args.patterns_file, encoding="utf-8") as fh:
                    for line in fh:
                        line = line.split("#", 1)[0].strip()
                        if line:
                            specs.append(line)
            except OSError as exc:
                raise SystemExit(
                    f"cannot read {args.patterns_file!r}: {exc}"
                ) from exc
        if not specs:
            raise SystemExit(
                "batch needs --patterns and/or --patterns-file"
            )
        patterns = [parse_pattern(s) for s in specs]
        session = TargetSession(graph, embedding)
        kwargs = {"backend": executor}
        if args.engine:
            kwargs["engine"] = args.engine
        if args.rounds is not None:
            kwargs["rounds"] = args.rounds
        batch = session.decide_batch(
            patterns, seed=args.seed, plan=args.plan, **kwargs
        )
        for spec, result in zip(specs, batch.results):
            suffix = " (amortized)" if result.amortized else ""
            print(
                f"  {spec:<16} found={result.found!s:<5} "
                f"rounds={result.rounds_used}{suffix}"
            )
        print(f"queries: {len(specs)}  "
              f"amortized: {batch.amortized_queries}  "
              f"deduped: {batch.deduped_queries}"
              + ("  [shared-subpattern plan]" if batch.shared else ""))
        if args.explain:
            if batch.shared:
                print(
                    "plan: shared-subpattern batch — one (k_max, d_max) "
                    "cover per round, occurrence tables computed once per "
                    "canonical subpattern and shared across patterns"
                )
            else:
                for spec, result in zip(specs, batch.results):
                    if getattr(result, "plan", None) is not None:
                        print(f"-- {spec}")
                        print(result.plan.explain())
        print("charged:         " + _cost_summary(batch.cost))
        print("cold equivalent: " + _cost_summary(batch.cold_equivalent_cost))
        if args.session_stats:
            print(session.stats.format())
        if args.metrics:
            from .pram import write_prometheus

            last_trace = batch.results[-1].trace if batch.results else None
            try:
                write_prometheus(
                    args.metrics, trace=last_trace,
                    cache_stats=session.stats,
                )
            except OSError as exc:
                raise SystemExit(
                    f"cannot write metrics to {args.metrics!r}: {exc}"
                ) from exc
            print(f"metrics written to {args.metrics}")
        _emit_trace(args, batch.results[-1].trace if batch.results else None)
    elif args.command == "profile":
        from .isomorphism import find_occurrence
        from .pram import (
            simulate_schedule,
            write_chrome_trace,
            write_prometheus,
        )

        pattern = parse_pattern(args.pattern)
        result = find_occurrence(
            graph, embedding, pattern, seed=args.seed,
            engine=args.engine, rounds=args.rounds, plan=args.plan,
        )
        print(f"found: {result.found}")
        print(_cost_summary(result.cost))
        _emit_plan(args, result.plan)
        try:
            procs = sorted({
                int(s) for s in args.processors.split(",") if s.strip()
            })
        except ValueError as exc:
            raise SystemExit(
                f"bad --processors {args.processors!r}: {exc}"
            ) from exc
        if not procs or procs[0] < 1:
            raise SystemExit("--processors needs positive integers")
        schedules = [simulate_schedule(result.trace, p) for p in procs]
        header = (
            f"{'P':>6} {'T_P (sim)':>14} {'speedup':>9} {'util':>7} "
            f"{'Brent bound':>14}"
        )
        print(header)
        print("-" * len(header))
        for s in schedules:
            print(
                f"{s.processors:>6} {s.makespan:>14,} {s.speedup:>9.2f} "
                f"{s.utilization:>7.1%} {s.brent_bound():>14,}"
            )
        widest = schedules[-1]
        longest = sorted(
            widest.critical_path, key=lambda sp: sp.duration, reverse=True
        )[:3]
        print(f"critical path at P={widest.processors}: "
              f"{len(widest.critical_path)} spans; longest:")
        for sp in longest:
            print(f"  {sp.name:<24} [{sp.start:,}, {sp.finish:,}) "
                  f"work={sp.work:,}")
        if args.measure:
            from .exec import resolve_backend
            from .exec.backends import available_cores
            from .pram import compare_measured, format_measured

            bk_name = (
                "threads" if args.backend == "threads" else "processes"
            )
            cores = available_cores()
            over = [p for p in procs if p > cores]
            note = (
                f"; P={','.join(map(str, over))} oversubscribe — "
                f"measured speedups above {cores}x are not expected"
                if over else ""
            )
            print(f"physical cores available: {cores}{note}")
            measurements = {}
            for p in procs:
                with resolve_backend(bk_name, max_workers=p) as mexec:
                    m0 = time.perf_counter()
                    find_occurrence(
                        graph, embedding, pattern, seed=args.seed,
                        engine=args.engine,
                        rounds=args.rounds, backend=mexec,
                    )
                    measurements[p] = time.perf_counter() - m0
            print(format_measured(
                compare_measured(result.trace, measurements),
                title=f"measured ({bk_name}) vs simulated:",
            ))
        try:
            if args.chrome_trace:
                write_chrome_trace(args.chrome_trace, widest)
                print(f"chrome trace (P={widest.processors}) written to "
                      f"{args.chrome_trace}")
            if args.metrics:
                write_prometheus(
                    args.metrics, trace=result.trace, schedules=schedules
                )
                print(f"metrics written to {args.metrics}")
        except OSError as exc:
            raise SystemExit(f"cannot write telemetry: {exc}") from exc
        _emit_trace(args, result.trace)

    if executor is not None:
        executor.close()
    print(f"(host time: {time.perf_counter() - t0:.2f}s)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
