"""Tests for the ASGI/WSGI middleware adapters."""

import asyncio

from repro.core import ComponentGraph, NetworkUser
from repro.core.components import PrefixBlacklist
from repro.net import Prefix
from repro.service import (
    AsgiTrafficMiddleware,
    ManualClock,
    ServiceFacade,
    TrafficController,
    WsgiTrafficMiddleware,
)
from repro.service.facade import DROP_ADMISSION, PASS_DIRECT, Verdict
from repro.service.middleware import blocked_status
from repro.util import TokenBucket


#: peers no registered IPv4 prefix can own: IPv6, a unix socket, empty,
#: and an IPv4-mapped form whose IPv4 part is malformed
NON_IPV4_PEERS = ("::1", "2001:db8::7", "unix:/tmp/s", "", "::ffff:999.1.1.1")

#: how a dual-stack (``::``) listener reports the blacklisted 203.0.113.9
MAPPED_BLACKLISTED_PEERS = ("::ffff:203.0.113.9", "::FFFF:203.0.113.9",
                            "0:0:0:0:0:ffff:203.0.113.9", "::ffff:cb00:7109")


def make_controller(admission=None):
    facade = ServiceFacade(clock=ManualClock())
    user = NetworkUser("acme", prefixes=[Prefix.parse("10.1.0.0/16")])
    graph = ComponentGraph("blk")
    graph.chain(PrefixBlacklist("b", [Prefix.parse("203.0.113.0/24")]))
    facade.subscribe(user, dst_graph=graph)
    return TrafficController(facade, "10.1.0.5", admission=admission)


class TestNonIpv4Clients:
    def test_allow_passes_them_directly(self):
        controller = make_controller()
        for peer in NON_IPV4_PEERS:
            assert controller.allow(peer) is PASS_DIRECT

    def test_ipv4_mapped_peer_is_checked_as_its_ipv4_address(self):
        controller = make_controller()
        assert controller.allow("203.0.113.9").reason == "filtered"
        for peer in MAPPED_BLACKLISTED_PEERS:
            assert controller.allow(peer).reason == "filtered"
        assert controller.allow("::ffff:198.51.100.7").reason == "processed"

    def test_admission_bucket_still_applies(self):
        controller = make_controller(admission=TokenBucket(rate=0.0, burst=1.0))
        assert controller.allow("::1") is PASS_DIRECT
        assert controller.allow("::1") is DROP_ADMISSION


class TestBlockedStatus:
    def test_admission_maps_to_429(self):
        assert blocked_status(DROP_ADMISSION) == 429

    def test_pipeline_drop_maps_to_403(self):
        filtered = Verdict(allowed=False, redirected=True, reason="filtered")
        assert blocked_status(filtered) == 403


def demo_wsgi_app(environ, start_response):
    start_response("200 OK", [("Content-Type", "text/plain")])
    return [b"hello\n"]


def call_wsgi(app, remote_addr):
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = dict(headers)

    body = b"".join(app({"REMOTE_ADDR": remote_addr}, start_response))
    return captured["status"], captured["headers"], body


class TestWsgi:
    def test_allowed_request_reaches_the_app(self):
        app = WsgiTrafficMiddleware(demo_wsgi_app, make_controller())
        status, _headers, body = call_wsgi(app, "198.51.100.7")
        assert status == "200 OK"
        assert body == b"hello\n"

    def test_blacklisted_client_gets_403(self):
        app = WsgiTrafficMiddleware(demo_wsgi_app, make_controller())
        status, headers, body = call_wsgi(app, "203.0.113.9")
        assert status == "403 Forbidden"
        assert headers["X-TCS-Verdict"] == "filtered"
        assert body == b"blocked by traffic control service\n"
        assert headers["Content-Length"] == str(len(body))

    def test_admission_rejection_gets_429(self):
        controller = make_controller(admission=TokenBucket(rate=0.0, burst=1.0))
        app = WsgiTrafficMiddleware(demo_wsgi_app, controller)
        assert call_wsgi(app, "198.51.100.7")[0] == "200 OK"
        status, headers, _ = call_wsgi(app, "198.51.100.7")
        assert status == "429 Too Many Requests"
        assert headers["X-TCS-Verdict"] == "admission"

    def test_custom_blocked_body(self):
        app = WsgiTrafficMiddleware(demo_wsgi_app, make_controller(),
                                    blocked_body=b"nope")
        _, headers, body = call_wsgi(app, "203.0.113.9")
        assert body == b"nope"
        assert headers["Content-Length"] == "4"

    def test_non_ipv4_peer_reaches_the_app(self):
        app = WsgiTrafficMiddleware(demo_wsgi_app, make_controller())
        for peer in NON_IPV4_PEERS:
            status, _headers, body = call_wsgi(app, peer)
            assert status == "200 OK"
            assert body == b"hello\n"

    def test_ipv4_mapped_blacklisted_peer_gets_403(self):
        app = WsgiTrafficMiddleware(demo_wsgi_app, make_controller())
        for peer in MAPPED_BLACKLISTED_PEERS:
            status, headers, _body = call_wsgi(app, peer)
            assert status == "403 Forbidden"
            assert headers["X-TCS-Verdict"] == "filtered"

    def test_missing_remote_addr_fails_safe(self):
        app = WsgiTrafficMiddleware(demo_wsgi_app, make_controller())
        captured = {}

        def start_response(status, headers):
            captured["status"] = status

        body = b"".join(app({}, start_response))
        # 0.0.0.0 is unowned -> direct pass
        assert captured["status"] == "200 OK"
        assert body == b"hello\n"


async def demo_asgi_app(scope, receive, send):
    await send({"type": "http.response.start", "status": 200,
                "headers": [(b"content-type", b"text/plain")]})
    await send({"type": "http.response.body", "body": b"hello\n"})


def call_asgi(app, client_host, scope_type="http"):
    scope = {"type": scope_type, "client": (client_host, 1234)}
    sent = []

    async def send(message):
        sent.append(message)

    async def receive():  # pragma: no cover - never awaited in these tests
        return {"type": "http.request"}

    asyncio.run(app(scope, receive, send))
    return sent


class TestAsgi:
    def test_allowed_request_reaches_the_app(self):
        app = AsgiTrafficMiddleware(demo_asgi_app, make_controller())
        sent = call_asgi(app, "198.51.100.7")
        assert sent[0]["status"] == 200
        assert sent[1]["body"] == b"hello\n"

    def test_blacklisted_client_gets_403(self):
        app = AsgiTrafficMiddleware(demo_asgi_app, make_controller())
        sent = call_asgi(app, "203.0.113.9")
        assert sent[0]["status"] == 403
        headers = dict(sent[0]["headers"])
        assert headers[b"x-tcs-verdict"] == b"filtered"
        assert sent[1]["body"] == b"blocked by traffic control service\n"

    def test_admission_rejection_gets_429(self):
        controller = make_controller(admission=TokenBucket(rate=0.0, burst=1.0))
        app = AsgiTrafficMiddleware(demo_asgi_app, controller)
        assert call_asgi(app, "198.51.100.7")[0]["status"] == 200
        assert call_asgi(app, "198.51.100.7")[0]["status"] == 429

    def test_non_http_scope_passes_through(self):
        seen = []

        async def lifespan_app(scope, receive, send):
            seen.append(scope["type"])

        app = AsgiTrafficMiddleware(lifespan_app, make_controller())
        call_asgi(app, "203.0.113.9", scope_type="lifespan")
        assert seen == ["lifespan"]

    def test_non_ipv4_peer_reaches_the_app(self):
        app = AsgiTrafficMiddleware(demo_asgi_app, make_controller())
        for peer in NON_IPV4_PEERS:
            sent = call_asgi(app, peer)
            assert sent[0]["status"] == 200
            assert sent[1]["body"] == b"hello\n"

    def test_ipv4_mapped_blacklisted_peer_gets_403(self):
        app = AsgiTrafficMiddleware(demo_asgi_app, make_controller())
        for peer in MAPPED_BLACKLISTED_PEERS:
            sent = call_asgi(app, peer)
            assert sent[0]["status"] == 403
            assert dict(sent[0]["headers"])[b"x-tcs-verdict"] == b"filtered"

    def test_missing_client_fails_safe(self):
        app = AsgiTrafficMiddleware(demo_asgi_app, make_controller())
        sent = []

        async def send(message):
            sent.append(message)

        asyncio.run(app({"type": "http"}, None, send))
        assert sent[0]["status"] == 200
