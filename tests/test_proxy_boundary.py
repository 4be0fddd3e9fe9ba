"""Proxy answers to hostile input: body lengths, kept-alive connections, ids.

Every request the proxy reads must get an HTTP answer, and a refused
request must not leave bytes in the socket that the next request on the
same connection would be parsed from.
"""

from __future__ import annotations

import json
import socket
import string
from pathlib import Path

import pytest
import requests
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iotdq.workflow.proxy import CONTENT_KINDS, PUT_SCOPES, ROLES, ProxyServer
from iotdq.workflow.sealing import KeyPair, seal

CAP = 512  # max_object_bytes of the test proxy; a sealed payload fits
ANSWERS = {200, 201, 204, 400, 403, 404, 409, 413}


@pytest.fixture
def proxy(tmp_path: Path):
    server = ProxyServer(str(tmp_path / "store"), max_object_bytes=CAP)
    server.start()
    yield server
    server.stop()


def _auth(proxy: ProxyServer, role: str) -> dict[str, str]:
    return {"Authorization": f"Bearer {proxy.token_for(role)}"}


def _put(proxy: ProxyServer, session: requests.Session, kind: str) -> str:
    """Upload one sealed object of kind as its uploader; returns its id."""
    response = session.put(
        f"{proxy.base_url}/objects",
        data=seal(b"payload", KeyPair.generate().public_bytes),
        headers={
            **_auth(proxy, next(iter(PUT_SCOPES[kind]))),
            "X-Content-Kind": kind,
        },
        timeout=5,
    )
    assert response.status_code == 201
    return response.json()["object_id"]


def _raw(proxy: ProxyServer, request: bytes) -> bytes:
    """Send raw request bytes; returns everything the proxy answers."""
    host, port = proxy.server_address[:2]
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):  # the proxy closes the connection
            chunks.append(chunk)
    return b"".join(chunks)


def _post_head(proxy: ProxyServer, length: bytes) -> bytes:
    return (
        b"POST /assessments HTTP/1.1\r\nHost: proxy\r\n"
        + f"Authorization: Bearer {proxy.token_for('assessor')}\r\n".encode()
        + b"Content-Length: " + length + b"\r\n\r\n"
    )


class TestContentLength:
    @pytest.mark.parametrize("length", [b"-1", b"abc", b"+5", b""])
    def test_unusable_length_answers_400_and_closes(self, proxy, length) -> None:
        answer = _raw(proxy, _post_head(proxy, length) + b"{}")
        head = answer.split(b"\r\n\r\n", 1)[0]
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head

    def test_length_over_the_cap_answers_413_and_closes(self, proxy) -> None:
        answer = _raw(proxy, _post_head(proxy, str(CAP + 1).encode()))
        head = answer.split(b"\r\n\r\n", 1)[0]
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"\r\nConnection: close" in head

    def test_chunked_body_answers_400_and_closes(self, proxy) -> None:
        request = (
            b"PUT /objects HTTP/1.1\r\nHost: proxy\r\n"
            + f"Authorization: Bearer {proxy.token_for('assessee')}\r\n".encode()
            + b"X-Content-Kind: dataset\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"5\r\nhello\r\n0\r\n\r\n"
        )
        head = _raw(proxy, request).split(b"\r\n\r\n", 1)[0]
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head


class TestKeptAliveConnection:
    def test_out_of_scope_post_leaves_no_bytes_behind(self, proxy) -> None:
        with requests.Session() as session:
            refused = session.post(
                f"{proxy.base_url}/assessments",
                json={"dataset_id": "x", "schema_id": "y", "config_id": "z"},
                headers=_auth(proxy, "assessee"),
                timeout=5,
            )
            assert refused.status_code == 403
            assert refused.headers["Connection"] == "close"
            after = session.get(
                f"{proxy.base_url}/assessments/ghost",
                headers=_auth(proxy, "assessee"),
                timeout=5,
            )
            assert after.status_code == 404
            assert after.json() == {"error": "no such assessment"}

    def test_unknown_kind_put_leaves_no_bytes_behind(self, proxy) -> None:
        envelope = seal(b"x", KeyPair.generate().public_bytes)
        with requests.Session() as session:
            for kind, expected in (("diary", 400), ("dataset", 201)):
                response = session.put(
                    f"{proxy.base_url}/objects",
                    data=envelope,
                    headers={**_auth(proxy, "assessee"), "X-Content-Kind": kind},
                    timeout=5,
                )
                assert response.status_code == expected, kind

    def test_read_body_keeps_the_connection(self, proxy) -> None:
        with requests.Session() as session:
            response = session.post(
                f"{proxy.base_url}/assessments",
                data=b"not json",
                headers=_auth(proxy, "assessor"),
                timeout=5,
            )
            assert response.status_code == 400
            assert "Connection" not in response.headers


class TestJsonBody:
    def test_deeply_nested_json_body_answers_400(self, tmp_path) -> None:
        server = ProxyServer(str(tmp_path / "uncapped"))
        server.start()
        try:
            response = requests.post(
                f"{server.base_url}/assessments",
                data=b"[" * 100_000,
                headers=_auth(server, "assessor"),
                timeout=5,
            )
            assert response.status_code == 400
        finally:
            server.stop()


class TestUnissuedIds:
    LONG = "a" * 300

    def test_long_id_in_path_answers_404(self, proxy) -> None:
        response = requests.get(
            f"{proxy.base_url}/objects/{self.LONG}",
            headers=_auth(proxy, "enclave"),
            timeout=5,
        )
        assert response.status_code == 404

    @pytest.mark.parametrize("value", [LONG, ["x"], {"a": 1}, 7, "F" * 32])
    def test_unissued_id_in_assessment_body_answers_404(self, proxy, value) -> None:
        with requests.Session() as session:
            doc = {
                f"{kind}_id": _put(proxy, session, kind)
                for kind in ("dataset", "schema", "config")
            }
        doc["dataset_id"] = value
        response = requests.post(
            f"{proxy.base_url}/assessments",
            json=doc,
            headers=_auth(proxy, "assessor"),
            timeout=5,
        )
        assert response.status_code == 404


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
_PATH_ID = st.text(
    string.ascii_letters + string.digits + "-_.~", min_size=1, max_size=300
)


def test_proxy_answers_every_request(tmp_path: Path) -> None:
    """Arbitrary bodies and ids on every route as every role, one session."""
    server = ProxyServer(str(tmp_path / "store"), max_object_bytes=CAP)
    server.start()
    session = requests.Session()
    try:
        ids = {kind: _put(server, session, kind) for kind in CONTENT_KINDS}
        issued = st.sampled_from(sorted(ids.values()))
        unissued = st.from_regex(r"[0-9a-f]{32}", fullmatch=True)
        any_id = issued | unissued | _PATH_ID
        json_doc = st.fixed_dictionaries(
            {},
            optional={
                "dataset_id": any_id | _JSON,
                "schema_id": any_id | _JSON,
                "config_id": any_id | _JSON,
                "domain": st.text(max_size=8) | _JSON,
                "state": st.sampled_from(["done", "failed", "running"]) | _JSON,
                "report_id": any_id | _JSON,
            },
        )
        body = (
            st.binary(max_size=CAP + 64)
            | _JSON.map(lambda doc: json.dumps(doc).encode())
            | json_doc.map(lambda doc: json.dumps(doc).encode())
        )
        route = st.sampled_from(
            [
                ("PUT", "/objects"),
                ("GET", "/objects/{}"),
                ("GET", "/attestation"),
                ("POST", "/attestation"),
                ("POST", "/assessments"),
                ("GET", "/assessments/{}"),
                ("POST", "/assessments/claim"),
                ("POST", "/assessments/{}/complete"),
                ("GET", "/{}"),
            ]
        )

        @settings(
            max_examples=60,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(
            role=st.sampled_from(ROLES),
            method_path=route,
            path_id=any_id,
            payload=st.none() | body,
            kind=st.sampled_from(CONTENT_KINDS) | st.text(string.ascii_letters),
        )
        def check(role, method_path, path_id, payload, kind) -> None:
            method, path = method_path
            response = session.request(
                method,
                server.base_url + path.format(path_id),
                data=payload,
                headers={**_auth(server, role), "X-Content-Kind": kind},
                timeout=5,
            )
            assert response.status_code in ANSWERS, (method, path, response.text)
            follow_up = session.get(
                f"{server.base_url}/objects/{ids['report']}",
                headers=_auth(server, "assessee"),
                timeout=5,
            )
            assert follow_up.status_code == 200
            assert follow_up.headers["X-Content-Kind"] == "report"

        check()
    finally:
        session.close()
        server.stop()
