"""Start the simulation server through ``repro.server.httpd.main``.

    python -m benchmarks.e2e.serverboot [--spans FILE] -- SERVER-ARGS

Without ``--spans`` this is exactly ``httpd.main(SERVER-ARGS)``.  With it,
timing wrappers are bound around the server's layer boundaries before the
server starts, every request's spans are kept in memory, and the records
are written to FILE when the server shuts down (SIGINT).  Each record is
tagged with the client's port and the request's sequence number on that
connection, which is how the load generator joins its own measurements to
the server's.
"""

from __future__ import annotations

import argparse
import sys

#: the compiler driver's phase functions and the spans that time them
COMPILER_PHASES = (("parse_c", "compiler.parse"), ("check", "compiler.sema"),
                   ("lower", "compiler.irgen"), ("optimize", "compiler.opt"),
                   ("generate", "compiler.codegen"))


def wrap_toolchain(recorder) -> None:
    """Bind the compiler, assembler and batch-simulation span wrappers
    (shared by the server and the in-process sweep pass)."""
    import repro.compiler.driver as driver
    from repro.asm.parser import Assembler
    from repro.sim.simulation import Simulation

    for attr, name in COMPILER_PHASES:
        recorder.wrap(driver, attr, name)
    recorder.wrap(Assembler, "assemble", "asm.assemble")
    recorder.wrap(Simulation, "__init__", "simulation.build")
    recorder.wrap(Simulation, "run", "simulation.run")


def install(recorder) -> None:
    """Bind the server-side span wrappers (see README's layer map)."""
    import repro.server.httpd as httpd
    from repro.explore.pool import KeyedThreadPool
    from repro.server.protocol import Api
    from repro.server.session import Session, SessionManager
    from repro.sim.simulation import Simulation

    def request_tags(handler, *_args):
        handler.bench_seq = getattr(handler, "bench_seq", -1) + 1
        return {"port": handler.client_address[1], "seq": handler.bench_seq,
                "route": handler.path.partition("?")[0]}

    handler = httpd._Handler
    recorder.wrap_root(handler, "do_POST", "httpd.request", request_tags)
    recorder.wrap_root(handler, "do_GET", "httpd.request", request_tags)
    recorder.wrap(handler, "_read_body", "httpd.read")
    recorder.wrap(handler, "_send", "httpd.write")
    encode = httpd.dumps_raw

    def dumps_counted(payload):
        with recorder.span("state.encode"):
            text = encode(payload)
        recorder.count("response_chars", len(text))
        return text

    recorder.replace(httpd, "dumps_raw", dumps_counted)
    recorder.replace(httpd, "gzip", recorder.gzip_shim("httpd.gzip", "gzip"))
    recorder.wrap(Api, "handle", "protocol.handle")
    recorder.wrap_pool(KeyedThreadPool)
    recorder.wrap(SessionManager, "create", "session.create")
    for attr in ("serve_state", "serve_delta", "serve_delta_json"):
        recorder.wrap(Session, attr, "session.snapshot")
    recorder.wrap(Simulation, "step", "simulation.step")
    recorder.wrap(Simulation, "step_back", "simulation.step_back")
    recorder.wrap(Simulation, "seek", "simulation.seek")
    recorder.wrap(Simulation, "snapshot", "state.snapshot")
    wrap_toolchain(recorder)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="write per-request spans here")
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    server_args = args.server_args
    if server_args[:1] == ["--"]:
        server_args = server_args[1:]
    from repro.server import httpd
    if not args.spans:
        return httpd.main(server_args)
    from .spans import Recorder
    recorder = Recorder()
    install(recorder)
    try:
        return httpd.main(server_args)
    finally:
        recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
