"""The query daemon: a hand-rolled asyncio HTTP/1.1 JSON service.

``python -m repro serve`` starts one process that owns a
:class:`~repro.serve.pool.SessionPool` and answers:

* ``POST /v1/decide`` — find an occurrence (Theorem 2.1)
* ``POST /v1/count`` — deterministic exact counting
* ``POST /v1/list`` — list all occurrences (Theorem 4.2)
* ``POST /v1/connectivity`` — planar vertex connectivity (Lemma 5.2)
* ``POST /v1/batch`` — many patterns over one warm session
* ``GET /healthz`` / ``GET /metrics`` — liveness and Prometheus text

Stdlib only — the HTTP/1.1 framing (request line, headers,
Content-Length bodies, keep-alive) is parsed by hand over asyncio
streams, so the daemon adds no runtime dependency.

Three behaviors carry the design:

* **Planning by default** — every query runs ``plan="auto"`` unless the
  request opts out, so the daemon's engine/kernel/backend choices come
  from the cost model, which keeps calibrating across the whole served
  workload (one :class:`CostModel` per resident session).
* **Request coalescing** — identical in-flight queries (same canonical
  form, see :meth:`QueryRequest.canonical`) share one execution: the
  first request computes, the rest await the same task and serialize
  the shared result with their own ``explain`` flag.
* **Graceful shutdown** — SIGTERM/SIGINT flip the daemon into draining
  (new queries get 503, ``/healthz`` reports it), in-flight work
  completes, then the pool, the executor, the optional piece backend
  and any still-registered shared-memory segments are torn down.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from .errors import (
    MethodNotAllowed,
    NotFound,
    PayloadTooLarge,
    ServeError,
    ShuttingDown,
)
from .pool import SessionPool
from .protocol import (
    QueryRequest,
    batch_to_dict,
    parse_body,
    parse_query,
    result_to_dict,
)

__all__ = ["QueryServer", "serve_main"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Request bodies above this are refused with 413 before being read.
MAX_BODY_BYTES = 1 << 20

_QUERY_ROUTES = {
    "/v1/decide": "decide",
    "/v1/count": "count",
    "/v1/list": "list",
    "/v1/connectivity": "connectivity",
    "/v1/batch": "batch",
}


class QueryServer:
    """One daemon instance: listener, pool, executor, in-flight registry."""

    def __init__(
        self,
        pool: Optional[SessionPool] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        backend=None,
        workers: int = 4,
    ) -> None:
        self.pool = pool if pool is not None else SessionPool()
        self.host = host
        self.port = port  # 0 = ephemeral; updated by start()
        self.backend = backend
        self.draining = False
        self.inflight = 0
        self.coalesced_total = 0
        self.requests_total: Dict[str, int] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="repro-serve"
        )
        self._inflight_queries: Dict[str, asyncio.Task] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        self._shutdown_task: Optional[asyncio.Task] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener; ``self.port`` reflects the bound port."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until :meth:`request_shutdown` completes the drain."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    def request_shutdown(self) -> None:
        """Signal-handler entry: begin the graceful drain (idempotent)."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.ensure_future(self.shutdown())

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight queries, release resources."""
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._idle.wait()
        self._executor.shutdown(wait=True)
        if self.backend is not None:
            self.backend.close()
        self.pool.close()
        from ..exec.shm import cleanup_segments

        cleanup_segments()
        self._stopped.set()

    # -- HTTP framing ------------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request_line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._respond(
                        writer, 400,
                        {"error": {"code": "bad-request",
                                   "message": "request line too long"}},
                        keep_alive=False,
                    )
                    return
                if not request_line:
                    return
                parts = request_line.decode("latin-1").strip().split()
                if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
                    await self._respond(
                        writer, 400,
                        {"error": {"code": "bad-request",
                                   "message": "malformed request line"}},
                        keep_alive=False,
                    )
                    return
                method, path = parts[0].upper(), parts[1]
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                    and not self.draining
                )
                try:
                    length = int(headers.get("content-length") or 0)
                except ValueError:
                    length = -1
                if length < 0:
                    await self._respond(
                        writer, 400,
                        {"error": {"code": "bad-request",
                                   "message": "bad Content-Length"}},
                        keep_alive=False,
                    )
                    return
                if length > MAX_BODY_BYTES:
                    await self._respond(
                        writer, 413,
                        PayloadTooLarge(
                            f"body of {length} bytes exceeds the "
                            f"{MAX_BODY_BYTES} byte limit"
                        ).as_dict(),
                        keep_alive=False,
                    )
                    return
                body = await reader.readexactly(length) if length else b""
                status, payload, text = await self._route(method, path, body)
                keep_alive = keep_alive and not self.draining
                await self._respond(
                    writer, status, payload, keep_alive=keep_alive, text=text
                )
                if not keep_alive:
                    return
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _respond(
        self, writer, status: int, payload, keep_alive: bool,
        text: Optional[str] = None,
    ) -> None:
        if text is not None:
            body = text.encode("utf-8")
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode()
            ctype = "application/json"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- routing -----------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, object, Optional[str]]:
        """(status, json_payload, text_payload) for one request."""
        route = _QUERY_ROUTES.get(path, path)
        self.requests_total[route] = self.requests_total.get(route, 0) + 1
        try:
            if path == "/healthz":
                if method != "GET":
                    raise MethodNotAllowed("/healthz is GET-only")
                return 200, {
                    "status": "draining" if self.draining else "ok",
                    "sessions": len(self.pool),
                    "inflight": self.inflight,
                }, None
            if path == "/metrics":
                if method != "GET":
                    raise MethodNotAllowed("/metrics is GET-only")
                from .metrics import render_metrics

                return 200, None, render_metrics(self.pool, self)
            mode = _QUERY_ROUTES.get(path)
            if mode is None:
                raise NotFound(f"no route {path!r}")
            if method != "POST":
                raise MethodNotAllowed(f"{path} is POST-only")
            if self.draining:
                raise ShuttingDown("daemon is draining; retry elsewhere")
            request = parse_query(
                mode, parse_body(body), batch=(mode == "batch")
            )
            payload = await self._answer(request)
            return 200, payload, None
        except ServeError as exc:
            return exc.status, exc.as_dict(), None
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            return 500, {
                "error": {
                    "code": type(exc).__name__,
                    "message": str(exc),
                }
            }, None

    # -- query execution ---------------------------------------------------

    async def _answer(self, request: QueryRequest) -> dict:
        """Execute (or coalesce onto) one query; serialize per-request."""
        self.inflight += 1
        self._idle.clear()
        try:
            key = request.canonical()
            task = self._inflight_queries.get(key)
            if task is None:
                task = asyncio.ensure_future(self._execute(request))
                self._inflight_queries[key] = task
                task.add_done_callback(
                    lambda _t: self._inflight_queries.pop(key, None)
                )
            else:
                self.coalesced_total += 1
            result = await asyncio.shield(task)
        finally:
            self.inflight -= 1
            if self.inflight == 0:
                self._idle.set()
        if request.mode == "batch":
            return batch_to_dict(
                result, request.patterns, explain=request.explain
            )
        return result_to_dict(request.mode, result, explain=request.explain)

    async def _execute(self, request: QueryRequest):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self._run_blocking, request
        )

    def _run_blocking(self, request: QueryRequest):
        """Executor-thread body: acquire the session, run the driver.
        The touch runs whatever the query does, so the session never
        stays in flight (unevictable) after its request."""
        pooled = self.pool.acquire(request.target)
        try:
            with pooled.lock:
                return self._dispatch_query(pooled.session, request)
        finally:
            self.pool.touch(pooled)

    def _dispatch_query(self, session, request: QueryRequest):
        from .. import cli

        kwargs: Dict[str, object] = {"plan": request.plan}
        if request.engine is not None:
            kwargs["engine"] = request.engine
        if request.rounds is not None:
            kwargs["rounds"] = request.rounds
        if self.backend is not None:
            kwargs["backend"] = self.backend
        if request.mode == "batch":
            patterns = [cli.parse_pattern(s) for s in request.patterns]
            return session.decide_batch(
                patterns, seed=request.seed, **kwargs
            )
        if request.mode == "connectivity":
            return session.vertex_connectivity(seed=request.seed, **kwargs)
        pattern = cli.parse_pattern(request.patterns[0])
        if request.mode == "decide":
            return session.find_occurrence(
                pattern, seed=request.seed, **kwargs
            )
        if request.mode == "list":
            return session.list_occurrences(
                pattern, seed=request.seed, **kwargs
            )
        # count: the deterministic window DP takes no seed.
        return session.count_exact(pattern, **kwargs)


def serve_main(args) -> int:
    """CLI entry for ``python -m repro serve``."""
    backend = None
    if args.backend is not None:
        from ..exec import resolve_backend

        backend = resolve_backend(args.backend, max_workers=args.processors)
    pool = SessionPool(
        max_bytes=int(args.cache_budget_mb * 1024 * 1024)
    )
    server = QueryServer(
        pool=pool,
        host=args.host,
        port=args.port,
        backend=backend,
        workers=args.workers,
    )

    async def _run() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        print(
            f"repro serve: listening on {server.host}:{server.port} "
            f"(budget {pool.max_bytes // (1024 * 1024)} MiB, "
            f"workers {server._executor._max_workers})",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        pass
    print("repro serve: drained and stopped", file=sys.stderr)
    return 0
