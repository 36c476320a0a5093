#!/usr/bin/env python3
"""Wall-time benchmark of the planar subgraph isomorphism / connectivity
system: one command, three workloads, answers checked apart from the program.

    python3 perfbench/run.py --workload oneshot|session|serve \
        [--seed N] [--seconds S] [--trace 0|1]

Workloads (see README.md for the make-up and why each was chosen):

* ``oneshot`` — cold one-shot library calls with the library defaults;
* ``session`` — per pass, one fresh ``TargetSession`` and a query stream;
* ``serve``   — a ``python -m repro serve`` daemon, warmed at set-up, and
  one closed-loop keep-alive client.

Timing: every operation runs once per pass, and whole passes repeat
until ``--seconds`` have passed.  Each sample is scaled by a fixed
reference loop timed beside it (pure Python + NumPy, nothing of the
program), and an operation's time is the mean of its faster half of
scaled passes.  The one cold set-up of a run is timed the same way, as
scaled segments from the process's start.  Reported seconds are seconds
at the reference loop's nominal speed ``REF_NOMINAL_S``.  On ``oneshot``
and ``serve`` ``--seed`` shuffles the order of the stream; on
``session``, where the order is part of the workload, it relabels each
pattern's vertices.  Targets, patterns and the library's own seeds are
fixed (README, *Workloads and inputs*).

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` wrappers from ``tracing.py`` record spans around each
layer and the line holds the per-layer metrics instead.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: Time of one reference loop at nominal speed (the faster of this host's
#: vCPU speed regimes; README, *Timing method*).
REF_NOMINAL_S = 0.002

#: Every Monte Carlo call runs this many cover rounds.
ROUNDS = 1

_REF_ARRAY = np.arange(1 << 16, dtype=np.int64)


def ref_loop() -> int:
    """Fixed CPU work: a pure-Python loop and a NumPy sort."""
    acc = 0
    for i in range(16000):
        acc = (acc + i * i) % 1000003
    return acc + int(np.sort(_REF_ARRAY ^ 0x5BD1)[::8192].sum())


def ref_time() -> float:
    """Best of three reference loops (one may catch an interrupt)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        ref_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def pin_to_one_cpu() -> None:
    """Run on the last CPU of this process's set, so that the reference
    loop and the operations it scales run on the same vCPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class SetupClock:
    """The cold set-up of one run, from the process's start, as a sum of
    segments each scaled by the reference loop timed at its ends (the
    reference loops themselves are left out)."""

    def __init__(self):
        self.mark = T_START
        self.ref = None
        self.total = 0.0

    def lap(self):
        elapsed = time.perf_counter() - self.mark
        ref = ref_time()
        speed = ref if self.ref is None else (self.ref + ref) / 2
        self.total += elapsed * REF_NOMINAL_S / speed
        self.ref = ref
        self.mark = time.perf_counter()


class Op:
    """One timed operation of a pass.

    ``run()`` returns the program's output; ``answer(out)`` reduces it to
    a JSON-able canonical answer, which must repeat in every pass and for
    every op of the same ``name``; ``checks(out)`` gives the reference
    checks of the first pass; ``verify(out)`` an error message or None for
    every pass; ``work(out)`` the charged PRAM work.
    """

    def __init__(self, name, run, answer, checks=None, work=None,
                 verify=None):
        self.name = name
        self.run = run
        self.answer = answer
        self.checks = checks or (lambda out: [])
        self.work = work or (lambda out: int(out.cost.work))
        self.verify = verify or (lambda out: None)


# -- inputs -----------------------------------------------------------------

def edge_list(graph):
    return {"n": int(graph.n), "edges": [[int(u), int(v)]
                                         for u, v in graph.edges()]}


def patterns_by_spec(specs, rng=None):
    """Patterns by spec; with ``rng``, each one's vertices are relabeled
    by a random permutation (an isomorphic pattern, a different input)."""
    from repro import cli
    from repro.graphs import Graph
    from repro.isomorphism import Pattern

    out = {}
    for spec in sorted(specs):
        pattern = cli.parse_pattern(spec)
        if rng is not None:
            perm = list(range(pattern.k))
            rng.shuffle(perm)
            pattern = Pattern(Graph(pattern.k, [
                (perm[u], perm[v]) for u, v in pattern.graph.edges()]))
        out[spec] = pattern
    return out


def decide_answer(out):
    witness = out.witness
    return [bool(out.found),
            None if witness is None else sorted(
                [int(p), int(v)] for p, v in witness.items())]


def decide_checks(target, pattern, want_witness):
    def checks(out):
        return [{"kind": "decide", "target": target, "pattern": pattern,
                 "found": bool(out.found), "want_witness": want_witness,
                 "witness": None if out.witness is None else
                 {str(p): int(v) for p, v in out.witness.items()}}]
    return checks


def grid_c4_images(spec):
    """Closed form: an r x c grid has (r-1)(c-1) 4-cycles."""
    if spec.startswith("grid:"):
        r, c = map(int, spec.split(":")[1].split("x"))
        return (r - 1) * (c - 1)
    return None


# -- workload: oneshot --------------------------------------------------------

#: (target spec, pattern spec, mode, library seed).  Targets carry
#: coordinates, so their embeddings are built at set-up.
ONESHOT_SI = [
    ("grid:5x5", "triangle", "decide", 0),
    ("grid:5x5", "cycle:4", "find", 0),
    ("trigrid:4x4", "path:5", "find", 0),
    ("trigrid:4x4", "clique:4", "decide", 0),
    ("grid:4x4", "cycle:6", "find", 0),
    ("delaunay:30:1", "triangle", "find", 0),
    ("grid:3x4", "cycle:4", "list", 0),
    ("grid:5x5", "cycle:4", "count", 0),
    ("trigrid:4x4", "triangle", "count", 0),
    ("delaunay:30:1", "path:3", "count", 0),
    ("trigrid:4x4", "triangle+edge", "disconnected", 0),
]

#: (target spec, library seed) for planar vertex connectivity, kappa 2..5.
ONESHOT_VC = [
    ("grid:4x4", 2),
    ("wheel:6", 2),
    ("antiprism:4", 2),
    ("icosahedron", 2),
]


def _disconnected_pattern():
    from repro.graphs import Graph
    from repro.isomorphism import Pattern

    return Pattern(Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)]))


def setup_oneshot(rng, trace_path, clock):
    pin_to_one_cpu()
    from repro import cli
    from repro import isomorphism as iso
    from repro.connectivity import planar_vertex_connectivity

    clock.lap()
    targets = {}
    for spec in {t for t, *_ in ONESHOT_SI} | {t for t, _ in ONESHOT_VC}:
        targets[spec] = cli.parse_target(spec)
    pats = patterns_by_spec(
        {p for _, p, *_ in ONESHOT_SI if p != "triangle+edge"})
    pats["triangle+edge"] = _disconnected_pattern()
    ops = []
    for target, pattern, mode, seed in ONESHOT_SI:
        graph, emb = targets[target]
        pat = pats[pattern]
        name = f"{mode}:{target}:{pattern}"
        if mode in ("decide", "find"):
            fn = (iso.find_occurrence if mode == "find"
                  else iso.decide_subgraph_isomorphism)
            ops.append(Op(
                name,
                lambda fn=fn, g=graph, e=emb, p=pat, s=seed:
                    fn(g, e, p, s, rounds=ROUNDS),
                decide_answer,
                decide_checks(target, pattern, mode == "find"),
            ))
        elif mode == "disconnected":
            ops.append(Op(
                name,
                lambda g=graph, e=emb, p=pat, s=seed: iso.decide_disconnected(
                    g, e, p, s, rounds_per_component=ROUNDS,
                    want_witness=True),
                decide_answer,
                decide_checks(target, pattern, True),
            ))
        elif mode == "list":
            ops.append(Op(
                name,
                lambda g=graph, e=emb, p=pat, s=seed:
                    iso.list_occurrences(g, e, p, s),
                list_answer,
                list_checks(target, pattern),
            ))
        elif mode == "count":
            ops.append(Op(
                name,
                lambda g=graph, e=emb, p=pat:
                    iso.count_occurrences_exact(g, e, p),
                lambda out: int(out.isomorphisms),
                count_checks(target, pattern),
            ))
    for target, seed in ONESHOT_VC:
        graph, emb = targets[target]
        ops.append(Op(
            f"vc:{target}",
            lambda g=graph, e=emb, s=seed: planar_vertex_connectivity(
                g, e, seed=s, rounds=ROUNDS),
            lambda out: int(out.connectivity),
            lambda out, t=target: [{"kind": "vc", "target": t,
                                    "kappa": int(out.connectivity)}],
        ))
    rng.shuffle(ops)

    def reference():
        return {
            "targets": {k: edge_list(g) for k, (g, _) in targets.items()},
            "patterns": {k: edge_list(p.graph) for k, p in pats.items()},
        }
    return ops, reference, None


def list_answer(out):
    return sorted(sorted(int(v) for v in occ) for occ in out.occurrences)


def list_checks(target, pattern):
    def checks(out):
        return [{"kind": "list", "target": target, "pattern": pattern,
                 "isomorphisms": len(out.witnesses),
                 "occurrences": list_answer(out),
                 "witnesses": [[[int(p), int(v)] for p, v in w]
                               for w in sorted(out.witnesses)],
                 "closed_form_images": grid_c4_images(target)
                 if pattern == "cycle:4" else None}]
    return checks


def count_checks(target, pattern):
    def checks(out):
        return [{"kind": "count", "target": target, "pattern": pattern,
                 "isomorphisms": int(out.isomorphisms),
                 "closed_form_images": grid_c4_images(target)
                 if pattern == "cycle:4" else None}]
    return checks


# -- workload: session --------------------------------------------------------

#: The session target, given without coordinates: set-up embeds it with
#: the program's own planarity embedder.  At 256 vertices the embedding is
#: a third to a half of set-up, while a pass still fits four times in a run.
SESSION_TARGET = "trigrid:16x16"

#: (mode, pattern spec(s)); "decide" is a witness query under plan="auto".
SESSION_STREAM = [
    ("decide", "triangle"),
    ("decide", "clique:4"),
    ("decide", "triangle"),
    ("decide", "clique:4"),
    ("batch", ("triangle", "star:3", "path:3", "diamond")),
    ("count", "triangle"),
    ("count", "path:3"),
    ("count", "triangle"),
]


def setup_session(rng, trace_path, clock):
    from repro import graphs
    from repro.engine.session import TargetSession
    from repro.planar import embed_planar

    clock.lap()
    r, c = map(int, SESSION_TARGET.split(":")[1].split("x"))
    graph = graphs.triangulated_grid(r, c).graph
    embedding = embed_planar(graph)
    specs = set()
    for _, spec in SESSION_STREAM:
        specs.update(spec if isinstance(spec, tuple) else (spec,))
    pats = patterns_by_spec(specs, rng)
    holder = {}

    def new_session():
        holder["session"] = TargetSession(graph, embedding)
        return holder["session"]

    ops = []
    for mode, spec in SESSION_STREAM:
        name = f"{mode}:{spec if isinstance(spec, str) else ','.join(spec)}"
        if mode == "decide":
            ops.append(Op(
                name,
                lambda p=pats[spec]: holder["session"].find_occurrence(
                    p, seed=0, rounds=ROUNDS, plan="auto"),
                decide_answer,
                decide_checks("target", spec, True),
            ))
        elif mode == "count":
            ops.append(Op(
                name,
                lambda p=pats[spec]: holder["session"].count_exact(
                    p, plan="auto"),
                lambda out: int(out.isomorphisms),
                count_checks("target", spec),
            ))
        elif mode == "batch":
            ops.append(Op(
                name,
                lambda ps=[pats[s] for s in spec]:
                    holder["session"].decide_batch(
                        ps, seed=0, rounds=ROUNDS, plan="auto"),
                lambda out: [bool(r.found) for r in out.results],
                lambda out, spec=spec: [
                    {"kind": "decide", "target": "target", "pattern": s,
                     "found": bool(r.found), "witness": None}
                    for s, r in zip(spec, out.results)],
            ))
    ops.insert(0, Op("session.new", new_session, lambda out: None,
                     work=lambda out: 0))

    def reference():
        return {
            "targets": {"target": edge_list(graph)},
            "patterns": {k: edge_list(p.graph) for k, p in pats.items()},
        }
    return ops, reference, None


# -- workload: serve ----------------------------------------------------------

#: (endpoint, request body).  Every request is sent once while warming.
SERVE_REQUESTS = [
    ("decide", {"target": "grid:4x4", "pattern": "cycle:4"}),
    ("decide", {"target": "trigrid:5x5", "pattern": "triangle"}),
    ("decide", {"target": "delaunay:40:1", "pattern": "diamond"}),
    ("decide", {"target": "grid:4x4", "pattern": "triangle"}),
    ("decide", {"target": "trigrid:5x5", "pattern": "path:4"}),
    ("count", {"target": "grid:4x4", "pattern": "cycle:4"}),
    ("count", {"target": "trigrid:5x5", "pattern": "triangle"}),
    ("list", {"target": "grid:4x4", "pattern": "cycle:4"}),
    ("connectivity", {"target": "grid:4x4"}),
    ("batch", {"target": "delaunay:40:1",
               "patterns": ["triangle", "cycle:4", "path:3"]}),
]


class Daemon:
    """``repro serve`` subprocess on an ephemeral port, pinned to one CPU
    together with this client (the reference loop then runs on the CPU
    the daemon runs on)."""

    def __init__(self, trace_path=None):
        self.trace_path = trace_path
        self.proc = None
        self.port = None
        self.shm_before = set(os.listdir("/dev/shm"))
        self.children = set()

    def start(self):
        pin_to_one_cpu()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        args = ["serve", "--host", "127.0.0.1", "--port", "0"]
        if self.trace_path is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "daemon_boot.py"),
                   str(self.trace_path), *args]
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = {}
        reader = threading.Thread(
            target=lambda: line.setdefault("v", self.proc.stdout.readline()),
            daemon=True,
        )
        reader.start()
        reader.join(60)
        text = line.get("v", "")
        if "listening on" not in text:
            raise RuntimeError(f"daemon did not start: {text!r}")
        self.port = int(text.split("listening on", 1)[1].split()[0]
                        .rsplit(":", 1)[1])

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for row in fh:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def _child_pids(self):
        pids = set()
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == self.proc.pid:
                pids.add(int(entry))
        return pids

    def stop(self):
        """SIGTERM, kill as fallback; returns a list of hygiene faults."""
        faults = []
        if self.proc is None:
            return faults
        try:
            self.children = self._child_pids()
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                code = self.proc.wait(60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                code = self.proc.wait(30)
                faults.append("daemon ignored SIGTERM and was killed")
            if code != 0:
                faults.append(f"daemon exited with {code}")
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(30)
            self.proc.stdout.close()
        alive = [pid for pid in self.children
                 if os.path.exists(f"/proc/{pid}")]
        if alive:
            faults.append(f"daemon left processes {alive}")
        leaked = set(os.listdir("/dev/shm")) - self.shm_before
        if leaked:
            faults.append(f"daemon left /dev/shm segments {sorted(leaked)}")
        return faults


class Client:
    """One keep-alive HTTP/1.1 connection, closed loop."""

    def __init__(self, port):
        import http.client

        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=120)

    def request(self, method, path, body=None):
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type":
                                           "application/json"}
        self.conn.request(method, path, body=payload, headers=headers)
        resp = self.conn.getresponse()
        data = resp.read()
        if resp.status != 200:
            raise RuntimeError(f"{path}: HTTP {resp.status}: {data[:200]!r}")
        return data

    def close(self):
        self.conn.close()


def serve_answer(endpoint, out):
    if endpoint == "decide":
        return [out["found"], out["witness"]]
    if endpoint == "count":
        return out["isomorphisms"]
    if endpoint == "list":
        return out["occurrences"]
    if endpoint == "connectivity":
        return out["connectivity"]
    return [r["found"] for r in out["results"]]


def serve_checks(endpoint, body):
    target = body["target"]

    def checks(out):
        if endpoint == "decide":
            return [{"kind": "decide", "target": target,
                     "pattern": body["pattern"], "found": out["found"],
                     "want_witness": True, "witness": out["witness"]}]
        if endpoint == "count":
            return [{"kind": "count", "target": target,
                     "pattern": body["pattern"],
                     "isomorphisms": out["isomorphisms"],
                     "closed_form_images": grid_c4_images(target)
                     if body["pattern"] == "cycle:4" else None}]
        if endpoint == "list":
            return [{"kind": "list", "target": target,
                     "pattern": body["pattern"],
                     "isomorphisms": out["isomorphisms"],
                     "occurrences": out["occurrences"], "witnesses": [],
                     "closed_form_images": None}]
        if endpoint == "connectivity":
            return [{"kind": "vc", "target": target,
                     "kappa": out["connectivity"]}]
        return [{"kind": "decide", "target": target, "pattern": r["pattern"],
                 "found": r["found"], "want_witness": False,
                 "witness": r["witness"]} for r in out["results"]]
    return checks


def serve_amortized(endpoint, out):
    if endpoint == "batch":
        return all(r["amortized"] for r in out["results"])
    return bool(out["amortized"])


def setup_serve(rng, trace_path, clock):
    from repro import cli

    clock.lap()
    daemon = Daemon(trace_path)
    try:
        daemon.start()
        client = Client(daemon.port)
        deadline = time.monotonic() + 60
        while json.loads(client.request("GET", "/healthz"))["status"] != "ok":
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.05)
        clock.lap()
        ops = []
        for endpoint, body in SERVE_REQUESTS:
            path = f"/v1/{endpoint}"
            payload = dict(body, rounds=ROUNDS) if endpoint in (
                "decide", "connectivity", "batch") else dict(body)

            client.request("POST", path, payload)  # warm
            clock.lap()
            ops.append(Op(
                f"{endpoint}:{body['target']}:"
                f"{body.get('pattern') or ','.join(body.get('patterns', []))}",
                lambda path=path, payload=payload: json.loads(
                    client.request("POST", path, payload)),
                lambda out, e=endpoint: serve_answer(e, out),
                serve_checks(endpoint, body),
                work=lambda out: int(out["cost"]["work"]),
                verify=lambda out, e=endpoint: None if serve_amortized(
                    e, out) else "warm answer is not flagged amortized",
            ))
    except BaseException:
        for fault in daemon.stop():
            print(f"perfbench: {fault}", file=sys.stderr)
        raise
    rng.shuffle(ops)

    def reference():
        specs = {b["target"] for _, b in SERVE_REQUESTS}
        pspecs = set()
        for _, b in SERVE_REQUESTS:
            pspecs.update(b.get("patterns", [b.get("pattern")]))
        pspecs.discard(None)
        return {
            "targets": {s: edge_list(cli.parse_target(s)[0]) for s in specs},
            "patterns": {s: edge_list(cli.parse_pattern(s).graph)
                         for s in pspecs},
        }
    return ops, reference, (daemon, client)


# -- measurement --------------------------------------------------------------

def better_half(values):
    """Mean of the faster half of an operation's samples (at least one)."""
    if not values:
        return math.inf
    values = sorted(values)
    return statistics.fmean(values[:max(1, len(values) // 2)])


def estimators(result):
    """The other estimators of the timing-method trial, for the record:
    best scaled pass and best unscaled pass."""
    out = {}
    for label, series in (("min_scaled", result["samples"]),
                          ("min_raw", result["raw"])):
        best = [min(v) for v in series if v]
        out[f"{label}_stream_s"] = sum(best)
        out[f"{label}_p50_ms"] = statistics.median(best) * 1000.0
    return out


def measure(ops, seconds):
    """Run whole passes, at least two, until ``seconds`` have passed."""
    samples = [[] for _ in ops]  # scaled seconds, one per pass
    raw = [[] for _ in ops]  # unscaled seconds
    answers = [None] * len(ops)
    first_out = [None] * len(ops)
    errors = []
    failed = attempted = passes = 0
    work = 0
    latencies = []
    begin = time.perf_counter()
    ref_prev = ref_time()
    while True:
        for i, op in enumerate(ops):
            attempted += 1
            # Every op starts from the same collector state, whatever ran
            # before it in this seed's order.
            gc.collect()
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # noqa: BLE001 - counted as failed
                failed += 1
                errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
                ref_prev = ref_time()
                continue
            dt = time.perf_counter() - t0
            latencies.append((t0, dt))
            ref_next = ref_time()
            scaled = dt * REF_NOMINAL_S / ((ref_prev + ref_next) / 2)
            ref_prev = ref_next
            samples[i].append(scaled)
            raw[i].append(dt)
            message = op.verify(out)
            if message is not None:
                errors.append(f"{op.name}: {message}")
            answer = op.answer(out)
            if passes == 0:
                first_out[i] = out
                work += op.work(out)
                answers[i] = answer
            elif answer != answers[i]:
                errors.append(f"{op.name}: pass {passes} answered "
                              f"{answer!r}, first pass {answers[i]!r}")
        passes += 1
        if passes >= 2 and time.perf_counter() - begin >= seconds:
            break
    end = time.perf_counter()
    first_answer = {}
    for op, answer in zip(ops, answers):
        first = first_answer.setdefault(op.name, answer)
        if answer != first:
            errors.append(f"{op.name}: repeated query answered {answer!r}, "
                          f"its first instance {first!r}")
    return {
        "best": [better_half(v) for v in samples],
        "samples": samples, "raw": raw, "first_out": first_out,
        "errors": errors,
        "failed": failed, "attempted": attempted, "passes": passes,
        "work": work, "window": (begin, end), "latencies": latencies,
    }


def reference_check(reference, ops, first_out):
    checks = []
    for op, out in zip(ops, first_out):
        if out is None:
            continue
        for check in op.checks(out):
            checks.append(dict(check, op=op.name))
    doc = json.dumps(dict(reference(), checks=checks))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "reference.py")],
        input=doc, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        return [f"reference checker failed: {proc.stderr[-500:]}"]
    return json.loads(proc.stdout.strip().splitlines()[-1])["errors"]


# -- per-layer metrics --------------------------------------------------------

SERVER_SPANS = ("serve.parse", "serve.acquire", "serve.query",
                "serve.serialize", "serve.touch")


def layer_metrics(spans, events, in_pass, passes, extra):
    """Per-layer values for one run: set-up plus one pass (the mean of
    the timed passes).  The metrics and their units are those that
    BENCHMARK.json lists under ``per_layer``; a time is the self time of
    the spans named like the metric without its ``_s``, a count the
    total of the events of the metric's name."""
    from tracing import event_totals, self_times

    with open(ROOT / "BENCHMARK.json") as fh:
        per_layer = [(m["name"], m["unit"])
                     for m in json.load(fh)["per_layer"]]
    setup_t = self_times(spans, lambda s: not in_pass(s[1]))
    pass_t = self_times(spans, lambda s: in_pass(s[1]))
    setup_c = event_totals(events, lambda e: not in_pass(e[1]))
    pass_c = event_totals(events, lambda e: in_pass(e[1]))
    values = dict(extra)
    for name, unit in per_layer:
        if name in values:
            continue
        if unit == "s":
            key = name[:-2]
            values[name] = setup_t.get(key, 0.0) + pass_t.get(key, 0.0) / passes
        else:
            values[name] = setup_c.get(name, 0) + pass_c.get(name, 0) / passes
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer}


def scrape_pool_bytes(client) -> int:
    text = client.request("GET", "/metrics").decode()
    for row in text.splitlines():
        if row.startswith("repro_pool_bytes_resident "):
            return int(float(row.split()[1]))
    raise RuntimeError("no repro_pool_bytes_resident in /metrics")


# -- main -----------------------------------------------------------------------

WORKLOADS = {"oneshot": setup_oneshot, "session": setup_session,
             "serve": setup_serve}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    recorder = None
    trace_path = None
    if args.trace:
        import tracing

        OUT_DIR.mkdir(exist_ok=True)
        if args.workload == "serve":
            trace_path = OUT_DIR / f"serve-trace-{os.getpid()}.json"
        else:
            recorder = tracing.SpanRecorder()
            tracing.install(recorder)

    clock = SetupClock()
    try:
        ops, reference, handles = WORKLOADS[args.workload](
            random.Random(args.seed), trace_path, clock)
    except Exception:  # noqa: BLE001 - no timed operation can run
        traceback.print_exc()
        print("perfbench: set-up failed", file=sys.stderr)
        return 1
    clock.lap()
    setup_s = clock.total

    # The daemon is stopped, and its hygiene checked, however the timed
    # passes end; its faults make the run incorrect.
    faults = []
    peak_rss = 0.0  # stays 0 only if it could not be read (a fault)
    pool_bytes = 0
    try:
        result = measure(ops, args.seconds)
        if handles is None:
            peak_rss = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            daemon, client = handles
            try:
                peak_rss = daemon.peak_rss_mib()
                if args.trace:
                    pool_bytes = scrape_pool_bytes(client)
            except (OSError, RuntimeError) as exc:
                faults.append(f"after the timed passes: {exc}")
            client.close()
    finally:
        if handles is not None:
            faults += handles[0].stop()
            for fault in faults:
                print(f"perfbench: {fault}", file=sys.stderr)
    errors = result["errors"] + reference_check(
        reference, ops, result["first_out"])
    for message in errors:
        print(f"perfbench: {message}", file=sys.stderr)
    errors += faults
    print(f"perfbench: {args.workload} seed={args.seed} "
          f"passes={result['passes']} ops={len(ops)} "
          + " ".join(f"{name}={value:.4f}"
                     for name, value in estimators(result).items()) + " "
          + " ".join(f"{op.name}={b:.4f}"
                     for op, b in zip(ops, result["best"])), file=sys.stderr)

    best = [b for b in result["best"] if b < math.inf]
    if args.trace:
        passes = result["passes"]
        begin, end = result["window"]
        extra = {"pram.charged_work": result["work"]}
        if args.workload == "serve":
            try:
                with open(trace_path) as fh:
                    trace = json.load(fh)
            except (OSError, ValueError) as exc:
                errors.append(f"no span dump from the daemon: {exc}")
                print(f"perfbench: {errors[-1]}", file=sys.stderr)
                trace = {"spans": [], "events": []}
            spans, events = trace["spans"], trace["events"]
            window = [s for s in spans if begin <= s[1] < end]
            server = sum(s[2] - s[1] for s in window
                         if s[0] in SERVER_SPANS and s[3] < 0)
            client_total = sum(dt for _, dt in result["latencies"])
            extra["serve.http_s"] = (client_total - server) / passes
            extra["serve.pool_bytes"] = pool_bytes
        else:
            spans, events = recorder.spans, recorder.events
        metrics = layer_metrics(
            spans, events, lambda t: begin <= t < end, passes, extra)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "stream_s": {"value": sum(best), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(best) * 1000.0
                          if best else 0.0, "unit": "ms"},
            "peak_rss_mib": {"value": peak_rss, "unit": "MiB"},
        }
    print(json.dumps({
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
