"""Threaded HTTP JSON server.

Equivalent of the paper's Undertow-based simulation server: JSON request
bodies, JSON responses, optional gzip content-encoding (which the paper
measured at +40 % throughput), and a configurable per-request overhead used
to emulate the Docker deployment rows of Table I on machines without
Docker.

Every request goes through :meth:`Api.handle` (the protocol's route
table); the reply picks the writer.  A dict goes out as buffered JSON
(optionally gzipped), a string as ``text/plain`` (the Prometheus scrape,
``GET /metrics?format=prometheus``), and an event iterator (a ``stream``
route: ``GET /explore/stream``) as chunked NDJSON — one event per chunk,
flushed as it happens, so ``repro-sim explore --follow`` renders sweep
progress live instead of polling ``/explore/status``.  This module
compares no paths of its own.

Replies go out as they are written: connections run with Nagle's
algorithm off (``TCP_NODELAY``), so a JSON reply's body, written after
its headers, does not wait for the client to acknowledge them (a delayed
ACK holds it ~40 ms).  Closing drains the server: :meth:`SimServer.
server_close` shuts the read side of every open connection, so an idle
keep-alive connection reads end-of-file and ends at once while a request
in progress still writes its reply, then joins every connection's
thread.  ``serve()`` therefore returns only after every request it took
has been answered.
"""

from __future__ import annotations

import argparse
import gzip
import json
import socket
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.server.protocol import Api, ApiError
from repro.sim.state import dumps_raw

#: responses smaller than this are not worth compressing
_GZIP_THRESHOLD = 256
#: longest wait for the rest of a request body; a client that declares
#: more bytes than it sends gets a 408 instead of pinning the thread
BODY_READ_TIMEOUT_S = 10.0
#: largest request body, as sent and (gzip bodies) as inflated: a larger
#: one gets a 413, and a declared length past it is not read at all
MAX_BODY_BYTES = 16 * 1024 * 1024


def _gunzip(data: bytes) -> bytes:
    """Inflate every member of a gzip body, refusing (with a 413) to
    produce more than :data:`MAX_BODY_BYTES`."""
    out = bytearray()
    while data:
        inflater = zlib.decompressobj(16 + zlib.MAX_WBITS)
        out += inflater.decompress(data, MAX_BODY_BYTES + 1 - len(out))
        if len(out) > MAX_BODY_BYTES:
            raise ApiError(f"gzip request body inflates past "
                           f"{MAX_BODY_BYTES} bytes", status=413)
        if not inflater.eof:
            raise EOFError("gzip request body ends mid-stream")
        data = inflater.unused_data
    return bytes(out)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-sim/1.0"
    disable_nagle_algorithm = True

    # quiet by default; the load test would otherwise spam the console
    def log_message(self, fmt, *args):  # pragma: no cover - logging
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    # ------------------------------------------------------------------
    def _read_body(self) -> Optional[dict]:
        if self.headers.get("Transfer-Encoding"):
            # only Content-Length bodies are read: the unread chunks would
            # be parsed as the next request, so answer and hang up
            self.close_connection = True
            raise ApiError("chunked request bodies are not supported: "
                           "send a Content-Length", status=411)
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0:
            # the body's extent is unknown, so it cannot be skipped: this
            # connection cannot carry another request
            self.close_connection = True
            raise ApiError("invalid Content-Length header")
        if length == 0:
            return None
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # the body stays unread
            raise ApiError(f"request body of {length} bytes exceeds "
                           f"{MAX_BODY_BYTES}", status=413)
        # bound the body read only: the idle wait for the next request on
        # a keep-alive connection keeps the socket's own timeout
        idle_timeout = self.connection.gettimeout()
        self.connection.settimeout(BODY_READ_TIMEOUT_S)
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            self.close_connection = True
            raise ApiError(f"request body incomplete after "
                           f"{BODY_READ_TIMEOUT_S:g} s: fewer bytes than "
                           f"Content-Length {length}", status=408) from None
        finally:
            self.connection.settimeout(idle_timeout)
        try:
            if self.headers.get("Content-Encoding", "") == "gzip":
                raw = _gunzip(raw)
            # UnicodeDecodeError and JSONDecodeError are ValueErrors; a
            # corrupt gzip stream raises zlib.error, a truncated one EOFError
            payload = json.loads(raw.decode("utf-8")) if raw else None
        except (ValueError, EOFError, zlib.error) as exc:
            raise ApiError(f"invalid request body: {exc}") from exc
        if payload is not None and not isinstance(payload, dict):
            raise ApiError("request body must be a JSON object")
        return payload

    def _send(self, status: int, payload: dict) -> None:
        # dumps_raw splices pre-serialized state fragments (RawJson) the
        # protocol layer embeds; plain payloads hit the C encoder directly
        body = dumps_raw(payload).encode("utf-8")
        accept = self.headers.get("Accept-Encoding", "")
        use_gzip = (self.server.enable_gzip and "gzip" in accept
                    and len(body) >= _GZIP_THRESHOLD)
        if use_gzip:
            body = gzip.compress(body, compresslevel=1)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        if use_gzip:
            self.send_header("Content-Encoding", "gzip")
        if self.close_connection:
            self.send_header("Connection", "close")
        self.send_header("Content-Length", str(len(body)))
        try:
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            # the client hung up (say, a dispatcher that gave up on a
            # timed-out job): nothing more can reach it, so end the
            # connection without an error reply or a traceback
            self.close_connection = True

    def _send_text(self, text: str) -> None:
        # the only text reply is the Prometheus exposition format
        body = text.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        try:
            self.end_headers()
            self.wfile.write(body)
        except OSError:             # the client hung up, as in _send
            self.close_connection = True

    def _send_stream(self, events) -> None:
        """Chunked NDJSON: one event per chunk, flushed immediately.  The
        stream ends (with the terminating zero chunk) when the iterator
        does — after the sweep's terminal event — so a client can simply
        iterate lines until EOF."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            for event in events:
                chunk = (json.dumps(event) + "\n").encode("utf-8")
                self.wfile.write(f"{len(chunk):x}\r\n".encode("ascii")
                                 + chunk + b"\r\n")
                self.wfile.flush()
            self.wfile.write(b"0\r\n\r\n")
        except Exception as exc:  # noqa: BLE001 - headers are out: hang up
            # the client went away (or the producer failed) mid-stream:
            # the chunked body cannot be finished, so end the connection;
            # the generator holds no locks between yields
            self.close_connection = True
            self.log_error("NDJSON stream aborted: %r", exc)

    def _dispatch(self, method: str) -> None:
        # simulated Docker virtualization overhead (Table I "Docker" rows)
        if self.server.overhead_ms > 0:
            time.sleep(self.server.overhead_ms / 1000.0)
        try:
            payload = self._read_body()
            reply = self.server.api.handle(method, self.path, payload)
            if isinstance(reply, dict):
                self._send(200, reply)
            elif isinstance(reply, str):
                self._send_text(reply)
            else:
                self._send_stream(reply)
        except ApiError as exc:
            self._send(exc.status, exc.to_json())
        except Exception as exc:  # noqa: BLE001 - server must not die
            self._send(500, {"error": f"internal error: {exc}", "status": 500})

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")


class SimServer(ThreadingHTTPServer):
    """The simulation server (one thread per connection).

    Each request runs to completion on its connection's thread, session
    simulation included (a session's requests serialize on its lock);
    design-space sweeps run on the explore manager's workers (see
    :mod:`repro.server.protocol`).  The threads are daemons, so a server
    nobody closes does not hold its process up; :meth:`server_close`
    waits for them instead.
    """

    def __init__(self, address: Tuple[str, int] = ("127.0.0.1", 0),
                 api: Optional[Api] = None, enable_gzip: bool = True,
                 overhead_ms: float = 0.0, verbose: bool = False):
        #: open connection -> the thread serving it (set before binding:
        #: a bind failure calls server_close() from TCPServer.__init__)
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._connections_lock = threading.Lock()
        super().__init__(address, _Handler)
        self.api = api or Api()
        self.enable_gzip = enable_gzip
        self.overhead_ms = overhead_ms
        self.verbose = verbose

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start_background(self) -> threading.Thread:
        """Serve on a daemon thread; returns the thread."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(target=self.process_request_thread,
                                  args=(request, client_address), daemon=True)
        with self._connections_lock:
            self._connections[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        # forget the connection before it is closed, so server_close()
        # only ever shuts a socket that is still open
        with self._connections_lock:
            self._connections.pop(request, None)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        # drain: an idle keep-alive connection reads EOF and ends, a
        # request in progress still writes its reply (the write side
        # stays open); then wait for every connection's thread
        with self._connections_lock:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:     # the client already hung up
                    pass
            threads = list(self._connections.values())
        for thread in threads:
            thread.join()
        # bind failures call server_close() from TCPServer.__init__
        # before __init__ here ever assigned self.api
        api = getattr(self, "api", None)
        if api is not None:
            api.close()


def serve(host: str = "127.0.0.1", port: int = 8045,
          enable_gzip: bool = True, overhead_ms: float = 0.0,
          verbose: bool = True, explore_workers: Optional[int] = None,
          role: str = "simulation server",
          register_with: Optional[str] = None,
          advertise: Optional[str] = None) -> None:
    """Run the server in the foreground (``repro-server`` entry point).

    *role* only changes the banner: a distributed-sweep worker
    (``repro-sim worker``) is a full repro-server whose expected traffic
    is the ``/worker/execute`` endpoint, so fleet operators can tell the
    two apart in process listings and logs.

    *register_with* (``host:port`` of a fleet frontend) starts a
    heartbeat thread announcing this server to that frontend's worker
    registry — the ``repro-sim worker --register`` mode.  *advertise*
    overrides the URL the frontend should dial back (defaults to
    ``host:port`` as bound, which is wrong behind NAT/containers).  The
    worker advertises capacity 1 and beats at the interval the frontend
    suggests.
    """
    from repro.explore.service import ExploreManager
    api = Api(explore=ExploreManager(workers=explore_workers))
    server = SimServer((host, port), api=api, enable_gzip=enable_gzip,
                       overhead_ms=overhead_ms, verbose=verbose)
    heartbeater = None
    if register_with:
        from repro.fleet.registry import Heartbeater
        heartbeater = Heartbeater(
            register_with, advertise or f"{host}:{server.port}",
            cache_stats_fn=api.artifacts.stats)
        heartbeater.start()
    print(f"repro {role} listening on http://{host}:{server.port}"
          f" (gzip={'on' if enable_gzip else 'off'},"
          f" overhead={overhead_ms}ms,"
          f" explore workers={api.explore.workers}"
          + (f", fleet frontend={register_with}" if register_with else "")
          + ")", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        print("shutting down")
        server.shutdown()
    finally:
        if heartbeater is not None:
            heartbeater.stop()
        server.server_close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="repro superscalar RISC-V simulation server")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8045)
    parser.add_argument("--no-gzip", action="store_true",
                        help="disable gzip content-encoding")
    parser.add_argument("--overhead-ms", type=float, default=0.0,
                        help="per-request overhead emulating Docker deployment")
    parser.add_argument("--explore-workers", type=int, default=None,
                        help="worker processes for /explore sweeps")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    serve(args.host, args.port, enable_gzip=not args.no_gzip,
          overhead_ms=args.overhead_ms, verbose=not args.quiet,
          explore_workers=args.explore_workers)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
