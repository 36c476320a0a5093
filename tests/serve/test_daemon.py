"""End-to-end daemon tests: real sockets against an ephemeral port.

Covers the tentpole's observable contract — verdict parity with the
library drivers, request coalescing (one cold build, N responses), LRU
eviction under a small byte budget, the strict ``/metrics`` exposition,
HTTP error mapping, and a SIGTERM drain of the real ``python -m repro
serve`` subprocess with zero leaked shared-memory segments.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import cli
from repro.engine.session import TargetSession
from repro.serve.metrics import parse_prometheus_text
from repro.serve.pool import SessionPool

from .conftest import request, running_server


def test_healthz_on_ephemeral_port(server):
    assert server.port != 0
    status, body = request(server.port, "GET", "/healthz")
    assert status == 200
    assert body == {"status": "ok", "sessions": 0, "inflight": 0}


def test_decide_matches_direct_driver(server):
    status, body = request(
        server.port,
        "POST",
        "/v1/decide",
        {"target": "grid:8x8", "pattern": "cycle:4", "seed": 3},
    )
    assert status == 200

    graph, embedding = cli.parse_target("grid:8x8")
    session = TargetSession(graph, embedding)
    direct = session.find_occurrence(
        cli.parse_pattern("cycle:4"), seed=3, plan="auto"
    )
    assert body["found"] is direct.found
    assert body["rounds_used"] == direct.rounds_used
    assert body["witness"] == {
        str(k): int(v) for k, v in sorted(direct.witness.items())
    }
    assert body["cost"] == {
        "work": direct.cost.work, "depth": direct.cost.depth
    }


def test_count_list_connectivity_parity(server):
    graph, embedding = cli.parse_target("grid:5x5")
    session = TargetSession(graph, embedding)

    status, body = request(
        server.port, "POST", "/v1/count",
        {"target": "grid:5x5", "pattern": "cycle:4"},
    )
    direct = session.count_exact(cli.parse_pattern("cycle:4"), plan="auto")
    assert status == 200
    assert body["isomorphisms"] == direct.isomorphisms

    status, body = request(
        server.port, "POST", "/v1/list",
        {"target": "grid:5x5", "pattern": "cycle:4", "seed": 1},
    )
    direct = session.list_occurrences(
        cli.parse_pattern("cycle:4"), seed=1, plan="auto"
    )
    assert status == 200
    assert body["occurrences"] == sorted(
        sorted(int(v) for v in occ) for occ in direct.occurrences
    )

    status, body = request(
        server.port, "POST", "/v1/connectivity", {"target": "wheel:6"}
    )
    assert status == 200
    assert body["connectivity"] == 3


def test_second_query_is_amortized_and_explain_echoes_plan(server):
    payload = {"target": "grid:6x6", "pattern": "cycle:4"}
    status, cold = request(server.port, "POST", "/v1/decide", payload)
    assert status == 200
    assert cold["amortized"] is False
    assert "plan" not in cold

    status, warm = request(
        server.port, "POST", "/v1/decide",
        {**payload, "seed": 1, "explain": True},
    )
    assert status == 200
    assert warm["amortized"] is True
    assert warm["plan"]["mode"] == "witness"
    assert isinstance(warm["explain"], str) and warm["explain"]


def test_batch_dedups_and_reports_sharing(server):
    status, body = request(
        server.port, "POST", "/v1/batch",
        {
            "target": "grid:6x6",
            "patterns": ["cycle:4", "path:3", "cycle:4"],
        },
    )
    assert status == 200
    assert body["queries"] == 3
    assert body["deduped_queries"] == 1
    assert [r["pattern"] for r in body["results"]] == [
        "cycle:4", "path:3", "cycle:4"
    ]
    assert body["results"][0]["found"] == body["results"][2]["found"]


def test_coalescing_one_cold_build_n_responses():
    with running_server() as server:
        n = 4
        barrier = threading.Barrier(n)
        results = [None] * n

        def fire(i):
            barrier.wait()
            results[i] = request(
                server.port, "POST", "/v1/decide",
                {"target": "grid:16x16", "pattern": "cycle:6"},
            )

        threads = [
            threading.Thread(target=fire, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        statuses = {status for status, _ in results}
        assert statuses == {200}
        bodies = [json.dumps(body, sort_keys=True) for _, body in results]
        assert len(set(bodies)) == 1  # one execution, shared verbatim
        assert server.pool.session_builds == 1
        assert server.coalesced_total == n - 1
        assert results[0][1]["found"] is True


def test_lru_eviction_under_small_budget_shows_in_metrics():
    # ~1 MiB holds one warm session's artifacts but not three.
    with running_server(pool=SessionPool(max_bytes=1 << 20)) as server:
        for spec in ("grid:6x6", "grid:7x7", "grid:8x8"):
            status, _ = request(
                server.port, "POST", "/v1/decide",
                {"target": spec, "pattern": "cycle:4"},
            )
            assert status == 200
        status, text = request(server.port, "GET", "/metrics")
        assert status == 200
        families = parse_prometheus_text(text)
        resident = families["repro_pool_sessions_resident"][0][1]
        evicted = families["repro_pool_sessions_evicted_total"][0][1]
        assert resident < 3
        assert evicted >= 1
        assert resident + evicted == 3
        assert families["repro_pool_evicted_artifacts_total"][0][1] > 0


def test_metrics_exposition_is_strict_and_labeled(server):
    for spec in ("grid:5x5", "grid:6x6"):
        request(
            server.port, "POST", "/v1/decide",
            {"target": spec, "pattern": "cycle:4"},
        )
    status, text = request(server.port, "GET", "/metrics")
    assert status == 200
    families = parse_prometheus_text(text)  # would raise on any dup
    # Per-session cache families carry a session label per resident
    # session under ONE header pair (the satellite-3 exposition shape).
    misses = families["repro_cache_misses_total"]
    sessions = {labels["session"] for labels, _ in misses}
    assert len(sessions) == 2
    assert all(len(s) == 12 for s in sessions)
    assert families["repro_pool_sessions_resident"][0][1] == 2
    routes = {
        labels["route"]: value
        for labels, value in families["repro_server_requests_total"]
    }
    assert routes["decide"] == 2
    assert families["repro_server_draining"][0][1] == 0


def test_http_error_mapping(server):
    status, body = request(server.port, "GET", "/v1/nope")
    assert status == 404
    status, body = request(server.port, "GET", "/v1/decide")
    assert status == 405
    conn_status, body = request(
        server.port, "POST", "/v1/decide", {"target": "grid:4x4"}
    )
    assert conn_status == 400
    assert body["error"]["code"] == "bad-request"
    assert "pattern" in body["error"]["message"]
    status, body = request(
        server.port, "POST", "/v1/decide",
        {"target": "nope:3", "pattern": "cycle:4"},
    )
    assert status == 400
    assert "nope" in body["error"]["message"]


def test_rounds_on_list_and_count_is_a_400(server):
    for mode in ("list", "count"):
        status, body = request(
            server.port, "POST", f"/v1/{mode}",
            {"target": "grid:4x4", "pattern": "cycle:4", "rounds": 1},
        )
        assert status == 400, body
        assert "'rounds'" in body["error"]["message"]


def test_spec_rejected_at_build_time_is_a_400(server):
    status, body = request(
        server.port, "POST", "/v1/decide",
        {"target": "grid:0x0", "pattern": "cycle:4"},
    )
    assert status == 400, body
    assert "grid:0x0" in body["error"]["message"]
    status, body = request(server.port, "GET", "/healthz")
    assert status == 200
    assert body["status"] == "ok"


def test_warm_list_count_connectivity_are_cache_hits(server):
    for path, payload in (
        ("/v1/list", {"target": "grid:4x4", "pattern": "cycle:4"}),
        ("/v1/count", {"target": "grid:4x4", "pattern": "cycle:4"}),
        ("/v1/connectivity", {"target": "grid:4x4", "rounds": 1}),
    ):
        status, cold = request(server.port, "POST", path, payload)
        assert status == 200
        status, warm = request(server.port, "POST", path, payload)
        assert status == 200
        assert warm["amortized"] is True
        assert warm["cost"] == {"work": 0, "depth": 0}
        assert warm["cold_equivalent_cost"] == cold["cold_equivalent_cost"]
        for field in ("occurrences", "isomorphisms", "connectivity"):
            assert warm.get(field) == cold.get(field)
    assert server.pool.session_builds == 1


@pytest.mark.slow
def test_sigterm_drains_and_leaks_no_shm_segments(tmp_path):
    """The real subprocess: SIGTERM mid-request → in-flight completes,
    clean exit, and /dev/shm gains nothing (processes backend)."""
    shm_dir = "/dev/shm"
    before = set(os.listdir(shm_dir)) if os.path.isdir(shm_dir) else None
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--backend", "processes", "--processors", "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    )
    try:
        line = proc.stdout.readline()
        assert "repro serve: listening on" in line, line
        port = int(line.split(" (")[0].rsplit(":", 1)[1])

        outcome = {}

        def fire():
            outcome["response"] = request(
                port, "POST", "/v1/decide",
                {"target": "grid:16x16", "pattern": "cycle:6"},
                timeout=180,
            )

        thread = threading.Thread(target=fire)
        thread.start()
        time.sleep(0.3)  # let the request reach the executor
        proc.send_signal(signal.SIGTERM)
        thread.join(180)
        assert not thread.is_alive()
        status, body = outcome["response"]
        assert status == 200
        assert body["found"] is True

        proc.wait(timeout=120)
        assert proc.returncode == 0
        assert "drained and stopped" in proc.stderr.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if before is not None:
        leaked = set(os.listdir(shm_dir)) - before
        assert not leaked, f"leaked shm segments: {leaked}"
