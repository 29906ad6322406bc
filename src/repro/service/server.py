"""The analysis server: stdlib asyncio HTTP in front of the broker.

A deliberately small HTTP/1.1 implementation over
:func:`asyncio.start_server` — request line, headers,
``Content-Length`` bodies, keep-alive — because the container ships no
web framework and the service needs exactly six routes
(docs/service.md):

========================  ====================================================
route                     behaviour
========================  ====================================================
``POST /v1/analyze``      one workload under one config, via the broker
``POST /v1/sweep``        a config sweep fanned out to per-job submissions
``GET /v1/workloads``     the workload suite catalogue
``GET /healthz``          liveness (always 200 while the process runs)
``GET /readyz``           readiness + broker load stats (503 while draining)
``GET /metrics``          Prometheus exposition of the process recorder
========================  ====================================================

Error mapping: :exc:`~repro.service.protocol.ProtocolError` → 400,
:exc:`~repro.service.broker.Overloaded` → 429 with ``Retry-After``,
:exc:`~repro.service.broker.BrokerClosed` → 503,
:exc:`~repro.service.broker.JobError` → 500 with the failure detail.

Shutdown is a **drain**, not a stop: SIGTERM/SIGINT close the
listener, every in-flight request finishes and is answered, the
broker finishes every admitted job (published through the runner),
and only then does :func:`run_server` return 0.  Chaos sites
``service.accept`` (drop a fresh connection) and ``service.handler``
(500 an otherwise-fine request) plug the service into the fault plans
of docs/robustness.md.

:class:`BackgroundServer` hosts the whole stack on a daemon thread
with an ephemeral port — the harness the tests and
``benchmarks/bench_service.py`` drive.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import threading

from repro.obs import Recorder, get_recorder, set_recorder
from repro.obs.export import to_prometheus
from repro.runner import ResultStore, TraceStore, default_store, \
    default_trace_store
from repro.runner.faults import maybe_fault
from repro.service.broker import (
    AnalysisBroker,
    BrokerClosed,
    BrokerConfig,
    JobError,
    Overloaded,
)
from repro.service.protocol import (
    ProtocolError,
    parse_analyze_request,
    parse_sweep_request,
    parse_tenant_header,
)
from repro.workloads import SUITE

__all__ = ["BackgroundServer", "MAX_BODY", "ServiceServer", "run_server"]

_log = logging.getLogger(__name__)

#: Request-body cap; anything larger is refused with HTTP 413.
MAX_BODY = 1 << 20

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """Internal: a request that dies before reaching a route."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Conn:
    """Per-connection state the drain logic needs.

    ``busy`` is True from the moment a request is fully parsed until
    its response is written; drain closes idle connections immediately
    and waits for busy ones — that is the zero-dropped-requests rule.
    """

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.busy = False


async def _read_request(reader: asyncio.StreamReader, max_body: int):
    """Parse one request: ``(method, path, headers, body)`` or None.

    None means the peer closed the connection between requests (the
    normal end of a keep-alive session).
    """
    try:
        line = await reader.readline()
    except (ValueError, asyncio.LimitOverrunError):
        raise _HttpError(400, "request line too long") from None
    if not line:
        return None
    try:
        method, path, _version = line.decode("ascii").split(None, 2)
    except (UnicodeDecodeError, ValueError):
        raise _HttpError(400, "malformed request line") from None
    headers: dict[str, str] = {}
    while True:
        try:
            line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise _HttpError(400, "header line too long") from None
        if line in (b"\r\n", b"\n", b""):
            break
        if len(headers) > 100:
            raise _HttpError(400, "too many headers")
        try:
            name, __, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:
            raise _HttpError(400, "malformed header") from None
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    try:
        length = int(length)
    except ValueError:
        raise _HttpError(400, "malformed Content-Length") from None
    if length < 0:
        raise _HttpError(400, "malformed Content-Length")
    if length > max_body:
        raise _HttpError(413, f"body exceeds {max_body} bytes")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            return None
    return method, path, headers, body


def _encode_response(status: int, body: bytes, content_type: str,
                     keep_alive: bool,
                     extra: dict[str, str] | None = None) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class ServiceServer:
    """The HTTP front of one :class:`AnalysisBroker`."""

    def __init__(self, broker: AnalysisBroker, host: str = "127.0.0.1",
                 port: int = 0, max_body: int = MAX_BODY):
        self.broker = broker
        self.host = host
        self._requested_port = port
        self.max_body = max_body
        self._server: asyncio.Server | None = None
        self._conns: set[_Conn] = set()
        self._draining = False

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral one)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self.broker.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port
        )

    async def shutdown(self) -> None:
        """Drain: close the listener, finish in-flight, drain broker."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Idle keep-alive connections are parked in readline with no
        # request pending — close them; busy ones finish their
        # response (the handler sends Connection: close and exits).
        while self._conns:
            for conn in list(self._conns):
                if not conn.busy:
                    conn.writer.close()
            await asyncio.sleep(0.01)
        await self.broker.drain()

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        if maybe_fault("service.accept"):
            writer.close()
            return
        conn = _Conn(writer)
        self._conns.add(conn)
        try:
            while not self._draining:
                try:
                    request = await _read_request(reader, self.max_body)
                except _HttpError as error:
                    conn.busy = True
                    await self._respond(writer, error.status,
                                        {"error": str(error)},
                                        keep_alive=False)
                    return
                if request is None:
                    return
                conn.busy = True
                method, path, headers, body = request
                status, payload, content_type, extra = (
                    await self._dispatch(method, path, headers, body)
                )
                keep_alive = (
                    not self._draining
                    and headers.get("connection", "").lower() != "close"
                    and status != 503
                )
                await self._respond(writer, status, payload,
                                    keep_alive=keep_alive,
                                    content_type=content_type,
                                    extra=extra)
                conn.busy = False
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        finally:
            self._conns.discard(conn)
            writer.close()

    async def _respond(self, writer, status: int, payload,
                       keep_alive: bool,
                       content_type: str = "application/json",
                       extra: dict | None = None) -> None:
        if isinstance(payload, (dict, list)):
            body = json.dumps(payload).encode()
        elif isinstance(payload, str):
            body = payload.encode()
        else:
            body = payload
        get_recorder().count(f"service.http.{status // 100}xx", 1)
        writer.write(_encode_response(status, body, content_type,
                                      keep_alive, extra))
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing.
    # ------------------------------------------------------------------

    async def _dispatch(self, method: str, path: str,
                        headers: dict[str, str], body: bytes):
        """Route one request: ``(status, payload, content_type, extra)``.

        ``headers`` arrive lower-cased from :func:`_read_request`; the
        only one consulted here is ``x-repro-tenant``, validated at
        this trust boundary into the tenant the broker bills.
        """
        try:
            if maybe_fault("service.handler"):
                raise _HttpError(500, "injected fault at service.handler")
            if path == "/healthz":
                self._require(method, "GET")
                return 200, {"status": "ok"}, "application/json", None
            if path == "/readyz":
                self._require(method, "GET")
                stats = self.broker.stats()
                ready = not self._draining and not self.broker.draining
                stats["ready"] = ready
                return ((200 if ready else 503), stats,
                        "application/json", None)
            if path == "/metrics":
                self._require(method, "GET")
                text = to_prometheus(get_recorder().snapshot())
                return (200, text,
                        "text/plain; version=0.0.4; charset=utf-8", None)
            if path == "/v1/workloads":
                self._require(method, "GET")
                catalogue = [
                    {"name": w.name, "kind": w.kind,
                     "description": w.description}
                    for w in SUITE
                ]
                return (200, {"workloads": catalogue},
                        "application/json", None)
            if path == "/v1/analyze":
                self._require(method, "POST")
                tenant = parse_tenant_header(headers.get("x-repro-tenant"))
                name, config = parse_analyze_request(self._json(body))
                payload, status = await self.broker.submit(
                    name, config, tenant=tenant
                )
                return (200, {"workload": name, "status": status,
                              "result": payload}, "application/json", None)
            if path == "/v1/sweep":
                self._require(method, "POST")
                tenant = parse_tenant_header(headers.get("x-repro-tenant"))
                pairs = parse_sweep_request(self._json(body))
                return await self._sweep(pairs, tenant)
            raise _HttpError(404, f"no route for {path}")
        except _HttpError as error:
            return (error.status, {"error": str(error)},
                    "application/json", None)
        except ProtocolError as error:
            return 400, {"error": str(error)}, "application/json", None
        except Overloaded as error:
            return (429, {"error": str(error),
                          "retry_after": error.retry_after},
                    "application/json",
                    {"Retry-After": str(error.retry_after)})
        except BrokerClosed:
            return (503, {"error": "server is draining"},
                    "application/json", None)
        except JobError as error:
            return (500, {"error": str(error), "detail": error.detail},
                    "application/json", None)
        except Exception as error:  # noqa: BLE001 — a 500, not a crash
            _log.exception("unhandled error serving %s %s", method, path)
            return (500, {"error": f"{type(error).__name__}: {error}"},
                    "application/json", None)

    async def _sweep(self, pairs, tenant=None):
        """Fan a sweep out to per-job submissions; per-job outcomes.

        Submissions race together, so cold same-workload jobs land in
        one broker batch and share a single simulation.  The response
        reports every job; the HTTP status is 200 only when all
        succeeded (429 when every failure was load shedding, 500
        otherwise).
        """
        outcomes = await asyncio.gather(
            *(self.broker.submit(name, config, tenant=tenant)
              for name, config in pairs),
            return_exceptions=True,
        )
        jobs, failures = [], []
        for (name, __), outcome in zip(pairs, outcomes):
            if isinstance(outcome, Exception):
                failures.append(outcome)
                entry = {"workload": name, "error": str(outcome)}
                if isinstance(outcome, JobError):
                    entry["detail"] = outcome.detail
                jobs.append(entry)
            else:
                payload, status = outcome
                jobs.append({"workload": name, "status": status,
                             "result": payload})
        body = {"jobs": jobs, "failed": len(failures)}
        if not failures:
            return 200, body, "application/json", None
        if all(isinstance(f, Overloaded) for f in failures):
            retry = max(f.retry_after for f in failures)
            body["retry_after"] = retry
            return (429, body, "application/json",
                    {"Retry-After": str(retry)})
        if all(isinstance(f, BrokerClosed) for f in failures):
            return 503, body, "application/json", None
        return 500, body, "application/json", None

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected}")

    @staticmethod
    def _json(body: bytes):
        try:
            return json.loads(body or b"null")
        except json.JSONDecodeError as error:
            raise ProtocolError(f"request body is not JSON: {error}")


# ----------------------------------------------------------------------
# Entry points.
# ----------------------------------------------------------------------

async def serve(host: str, port: int,
                broker_config: BrokerConfig | None = None,
                store: ResultStore | None = None,
                trace_store: TraceStore | None = None,
                ready=None, stop: asyncio.Event | None = None,
                use_default_stores: bool = True) -> int:
    """Serve until ``stop`` (or SIGTERM/SIGINT), drain, return 0.

    ``ready(port)`` is called once the listener is bound — how
    :class:`BackgroundServer` and the CLI learn the ephemeral port.
    ``use_default_stores`` pulls the environment-configured cache
    tiers when no stores are passed; tests pass explicit (or no)
    stores instead.
    """
    if store is None and trace_store is None and use_default_stores:
        store, trace_store = default_store(), default_trace_store()
    # A service without counters has a useless /metrics endpoint:
    # install an enabled recorder for the server's lifetime unless
    # the caller already runs one (then theirs keeps ownership).
    restore = None
    if not get_recorder().enabled:
        restore = set_recorder(Recorder())
    broker = AnalysisBroker(store=store, trace_store=trace_store,
                            config=broker_config)
    server = ServiceServer(broker, host=host, port=port)
    stop = stop or asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or platform without signal support
    await server.start()
    _log.info("repro service listening on %s:%d", host, server.port)
    if ready is not None:
        ready(server.port)
    try:
        await stop.wait()
        _log.info("repro service draining")
        await server.shutdown()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        if restore is not None:
            set_recorder(restore)
    _log.info("repro service drained cleanly")
    return 0


def run_server(host: str = "127.0.0.1", port: int = 8642,
               broker_config: BrokerConfig | None = None,
               store: ResultStore | None = None,
               trace_store: TraceStore | None = None) -> int:
    """Blocking entry point behind ``python -m repro serve``."""
    return asyncio.run(serve(host, port, broker_config=broker_config,
                             store=store, trace_store=trace_store))


class BackgroundServer:
    """A full service stack on a daemon thread (tests, benchmarks).

    ::

        with BackgroundServer(store=store) as server:
            client = ServiceClient(port=server.port)
            ...

    ``port=0`` (the default) binds an ephemeral port; ``port``
    resolves once ``__enter__`` returns.  ``stop()`` triggers the
    same drain path as SIGTERM and joins the thread.
    """

    def __init__(self, store: ResultStore | None = None,
                 trace_store: TraceStore | None = None,
                 broker_config: BrokerConfig | None = None,
                 host: str = "127.0.0.1", port: int = 0):
        self._store = store
        self._trace_store = trace_store
        self._broker_config = broker_config
        self._host = host
        self.port = port
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self.exit_code: int | None = None
        self._error: BaseException | None = None

    def _main(self) -> None:
        async def body() -> int:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            return await serve(
                self._host, self.port,
                broker_config=self._broker_config,
                store=self._store, trace_store=self._trace_store,
                ready=self._on_ready, stop=self._stop,
                use_default_stores=False,
            )

        try:
            self.exit_code = asyncio.run(body())
        except BaseException as error:  # noqa: BLE001 — surfaced in stop()
            self._error = error
            self._ready.set()

    def _on_ready(self, port: int) -> None:
        self.port = port
        self._ready.set()

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._main, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service failed to start within 30s")
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error
        return self

    def stop(self) -> int | None:
        """Drain and join; returns the serve loop's exit code."""
        if self._thread is None:
            return self.exit_code
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already gone
        self._thread.join(timeout=60)
        self._thread = None
        if self._error is not None:
            raise RuntimeError("service died") from self._error
        return self.exit_code

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
