"""Client-server mode: JSON/HTTP API, sessions, gzip, load testing.

The paper's deployment (Sec. III) is a Java simulation server behind an
HTTP JSON API, consumed by a web client and a CLI.  This package provides
the same server in Python: a protocol layer (pure request/response
handlers), a session manager for interactive step/step-back simulation, a
threaded HTTP server with gzip content-encoding, and a client library.
"""

from repro.server.protocol import ApiError
from repro.server.session import SessionManager
from repro.server.httpd import SimServer, serve
from repro.server.client import SimClient

__all__ = ["ApiError", "SessionManager", "SimServer", "serve",
           "SimClient"]
