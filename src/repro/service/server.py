"""The stdlib HTTP shell around :class:`~repro.service.app.ServiceApp`.

``http.server.ThreadingHTTPServer`` + one handler that parses the
request, calls ``app.handle``, and writes the response back.  Two
deliberate choices keep SSE simple on the stdlib:

* streamed responses advertise ``Connection: close`` and are delimited
  by the connection ending (no chunked encoding to hand-roll) — every
  SSE client, including the browser ``EventSource``, handles this;
* ``daemon_threads`` is on, so long-lived event streams never block
  server shutdown.

Request bodies are bounded before they are read: a malformed or
negative ``Content-Length`` is answered 400 and one above
:data:`MAX_BODY_BYTES` 413, both without reading the body.

:func:`serve` is the blocking entry point behind ``repro serve``.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Union
from urllib.parse import parse_qsl, urlsplit

from repro.service.app import Request, Response, ServiceApp

#: Largest request body the server reads (1 MiB); a longer declared
#: ``Content-Length`` is answered 413 without reading the body.
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """Parse -> ``app.handle`` -> write; no logic of its own."""

    server_version = "repro-service"
    protocol_version = "HTTP/1.1"

    def _dispatch(self) -> None:
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            self._refuse(400, "malformed Content-Length")
            return
        length = int(raw)
        if length > MAX_BODY_BYTES:
            self._refuse(
                413, f"request body over {MAX_BODY_BYTES} bytes: {length}"
            )
            return
        body = self.rfile.read(length) if length else b""
        parts = urlsplit(self.path)
        request = Request(
            method=self.command,
            path=parts.path,
            query=dict(parse_qsl(parts.query)),
            body=body,
        )
        response = self.server.app.handle(request)  # type: ignore
        if response.stream is None:
            self._send(response)
            return
        # Streaming (SSE): connection-close delimited.
        self.close_connection = True
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        for key, value in response.headers.items():
            self.send_header(key, value)
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            for chunk in response.stream:
                self.wfile.write(chunk)
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; the generator cleans up below
        finally:
            close = getattr(response.stream, "close", None)
            if close is not None:
                close()

    def _send(self, response: Response) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for key, value in response.headers.items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(response.body)

    def _refuse(self, status: int, message: str) -> None:
        """Answer ``status`` without reading the body, and close the
        connection: the unread body must not be parsed as a request."""
        self.close_connection = True
        response = Response.error(status, message)
        response.headers["Connection"] = "close"
        self._send(response)

    do_GET = _dispatch
    do_POST = _dispatch
    do_DELETE = _dispatch

    def log_message(self, format: str, *args) -> None:
        pass  # the service is quiet; metrics live at /metrics


class ServiceServer:
    """Socket lifecycle around one :class:`ServiceApp`.

    ``port=0`` binds an ephemeral port (tests, CI smoke); read the
    bound address back from :attr:`url`.  ``start()`` recovers
    interrupted runs, then serves in a background thread;
    ``serve_forever()`` does the same on the calling thread.
    """

    def __init__(
        self,
        app: ServiceApp,
        *,
        host: str = "127.0.0.1",
        port: int = 8765,
    ) -> None:
        self.app = app
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.app = app  # type: ignore[attr-defined]
        self._thread = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        self.app.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="service-http",
            daemon=True,
        )
        self._thread.start()

    def serve_forever(self) -> None:
        self.app.start()
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.app.close()


def serve(
    data_dir: Union[str, Path],
    *,
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: Optional[int] = None,
    checkpoint_every: int = 50,
) -> None:
    """Blocking server entry point (the CLI's ``repro serve``)."""
    app = ServiceApp(
        data_dir, workers=workers, checkpoint_every=checkpoint_every
    )
    server = ServiceServer(app, host=host, port=port)
    try:
        server.serve_forever()
    finally:
        server.shutdown()
