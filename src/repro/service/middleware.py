"""Framework-free ASGI and WSGI middleware over a TrafficController.

Both adapters are plain callables with zero framework dependencies —
ASGI and WSGI are calling conventions, not libraries — so the same
:class:`~repro.service.facade.TrafficController` drops into FastAPI/
Starlette/Django-async (ASGI) or Flask/Django (WSGI) unchanged.

Per request: the client address is read from the transport (``scope
["client"]`` / ``REMOTE_ADDR``), passed to ``controller.allow`` (which
checks an IPv4-mapped ``::ffff:a.b.c.d`` peer as its IPv4 address), and a
refused request is answered locally — 403 for a pipeline drop (the
owner's installed filters rejected the flow), 429 for an admission-
bucket rejection — without ever reaching the wrapped application.
"""

from __future__ import annotations

from typing import Optional

from repro.service.facade import TrafficController, Verdict

__all__ = ["AsgiTrafficMiddleware", "WsgiTrafficMiddleware",
           "blocked_status"]

_BLOCKED_BODY = b"blocked by traffic control service\n"


def blocked_status(verdict: Verdict) -> int:
    """HTTP status for a refused request: 429 for admission-rate refusal,
    403 for an ownership-pipeline drop."""
    return 429 if verdict.reason == "admission" else 403


class WsgiTrafficMiddleware:
    """WSGI adapter: ``app = WsgiTrafficMiddleware(app, controller)``."""

    def __init__(self, app, controller: TrafficController, *,
                 blocked_body: bytes = _BLOCKED_BODY) -> None:
        self.app = app
        self.controller = controller
        self.blocked_body = blocked_body

    def __call__(self, environ, start_response):
        client = environ.get("REMOTE_ADDR") or "0.0.0.0"
        verdict = self.controller.allow(client)
        if verdict.allowed:
            return self.app(environ, start_response)
        status = blocked_status(verdict)
        phrase = "Too Many Requests" if status == 429 else "Forbidden"
        start_response(f"{status} {phrase}", [
            ("Content-Type", "text/plain"),
            ("Content-Length", str(len(self.blocked_body))),
            ("X-TCS-Verdict", verdict.reason),
        ])
        return [self.blocked_body]


class AsgiTrafficMiddleware:
    """ASGI adapter: ``app = AsgiTrafficMiddleware(app, controller)``.

    Non-HTTP scopes (websocket, lifespan) pass through untouched.
    """

    def __init__(self, app, controller: TrafficController, *,
                 blocked_body: bytes = _BLOCKED_BODY) -> None:
        self.app = app
        self.controller = controller
        self.blocked_body = blocked_body

    async def __call__(self, scope, receive, send):
        if scope.get("type") != "http":
            await self.app(scope, receive, send)
            return
        client: Optional[tuple] = scope.get("client")
        verdict = self.controller.allow(client[0] if client else "0.0.0.0")
        if verdict.allowed:
            await self.app(scope, receive, send)
            return
        await send({
            "type": "http.response.start",
            "status": blocked_status(verdict),
            "headers": [
                (b"content-type", b"text/plain"),
                (b"content-length", str(len(self.blocked_body)).encode()),
                (b"x-tcs-verdict", verdict.reason.encode()),
            ],
        })
        await send({"type": "http.response.body", "body": self.blocked_body})
