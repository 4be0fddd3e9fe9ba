"""Party clients for the proxy: assessee submit/fetch, assessor request."""

from __future__ import annotations

import base64
import http.client
import json
import os
import select
import ssl
from dataclasses import dataclass
from typing import Any
from urllib.parse import unquote, urlsplit
from urllib.request import getproxies_environment, proxy_bypass_environment

from .attestation import AttestationStub
from .sealing import KeyPair, seal, unseal
from ..errors import AttestationError, ReportNotReady, WorkflowError, load_json
from ..model import QualityReport
from ..report import deserialize_report

__all__ = [
    "ProxyClient",
    "SubmitResult",
    "fetch_attestation",
    "assessee_submit",
    "assessor_request",
    "assessment_status",
    "assessee_fetch_report",
]

_REQUEST_TIMEOUT = 30.0  # seconds to connect, and between bytes of an answer


@dataclass(frozen=True, slots=True)
class _Answer:
    """One answer of the proxy, read whole."""

    status_code: int
    headers: http.client.HTTPMessage
    content: bytes


class ProxyClient:
    """HTTP/1.1 client of the proxy over one kept-alive connection.

    The environment is read once, when the client is made: HTTP_PROXY,
    HTTPS_PROXY, ALL_PROXY and NO_PROXY choose a forward proxy, and
    REQUESTS_CA_BUNDLE or CURL_CA_BUNDLE names the CA file for https.
    ~/.netrc is never read, so an entry for the proxy's host cannot
    replace the bearer token. One thread at a time may use a client;
    close it, or use it in a with block, when done.
    """

    def __init__(self, base_url: str, token: str) -> None:
        self.base_url = base_url.rstrip("/")
        try:
            self._conn, self._prefix, proxy_auth = _connection(self.base_url)
        except (OSError, ValueError, http.client.HTTPException) as exc:
            raise WorkflowError(f"proxy unreachable: {exc}") from exc
        self._headers = {"Authorization": f"Bearer {token}", **proxy_auth}

    def __enter__(self) -> "ProxyClient":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def close(self) -> None:
        self._conn.close()

    def request(
        self,
        method: str,
        path: str,
        body: "bytes | None" = None,
        headers: "dict[str, str] | None" = None,
    ) -> _Answer:
        """Send one request and read its answer whole.

        Nothing is ever sent twice: a request that fails is not retried,
        because the proxy may already have acted on it.
        """
        conn = self._conn
        if conn.sock is not None and _readable(conn.sock):
            # An idle kept-alive socket that is readable was closed by the
            # proxy (or holds bytes nobody asked for): start a new one.
            conn.close()
        try:
            try:
                conn.request(
                    method,
                    self._prefix + path,
                    body,
                    {**self._headers, **(headers or {})},
                )
            except (BrokenPipeError, ConnectionResetError):
                # The proxy may refuse a body before it has read all of it
                # (413) and close the connection: read the answer it sent.
                if conn.sock is None:
                    raise
            response = conn.getresponse()
            content = response.read()
        # ValueError: a header value that HTTP cannot carry, refused before
        # anything is sent.
        except (OSError, ValueError, http.client.HTTPException) as exc:
            conn.close()
            raise WorkflowError(f"proxy unreachable: {exc}") from exc
        return _Answer(response.status, response.headers, content)

    def expect(
        self,
        method: str,
        path: str,
        expected: tuple[int, ...],
        body: "bytes | None" = None,
        headers: "dict[str, str] | None" = None,
    ) -> _Answer:
        response = self.request(method, path, body=body, headers=headers)
        if response.status_code not in expected:
            text = response.content.decode("utf-8", "replace")
            raise WorkflowError(
                f"{method} {path} answered {response.status_code}: {text[:200]}"
            )
        return response

    def put_object(
        self, kind: str, envelope: bytes, domain: str = "", reply_key: str = ""
    ) -> str:
        headers = {"X-Content-Kind": kind}
        if domain:
            headers["X-Domain"] = domain
        if reply_key:
            headers["X-Reply-Key"] = reply_key
        response = self.expect("PUT", "/objects", (201,), envelope, headers)
        return answer_fields(response, "object_id")["object_id"]

    def get_object(self, object_id: str) -> tuple[bytes, dict[str, str]]:
        response = self.expect("GET", f"/objects/{object_id}", (200,))
        meta = {
            "content_kind": response.headers.get("X-Content-Kind", ""),
            "domain": response.headers.get("X-Domain", ""),
            "reply_public_key": response.headers.get("X-Reply-Key", ""),
        }
        return response.content, meta


def _connection(
    base_url: str,
) -> tuple[http.client.HTTPConnection, str, dict[str, str]]:
    """A connection for base_url, what goes before each request path on it,
    and the headers each request adds.

    A forward proxy named by the environment takes an http request in
    absolute form, so the prefix is the target's scheme and host; an https
    connection goes through it with CONNECT.
    """
    target = urlsplit(base_url)
    if target.scheme not in ("http", "https") or not target.hostname:
        raise ValueError(f"{base_url!r} is not an http or https URL")
    https = target.scheme == "https"
    port = target.port or (443 if https else 80)
    host, host_port, auth = target.hostname, port, {}
    proxies = getproxies_environment()
    forward = None
    if not proxy_bypass_environment(f"{target.hostname}:{port}", proxies):
        forward = proxies.get(target.scheme) or proxies.get("all")
    if forward:
        via = urlsplit(forward if "://" in forward else f"http://{forward}")
        if via.scheme != "http" or not via.hostname:
            raise ValueError(f"forward proxy {forward!r} is not an http URL")
        if via.username is not None:
            user = f"{unquote(via.username)}:{unquote(via.password or '')}".encode()
            auth["Proxy-Authorization"] = "Basic " + base64.b64encode(user).decode()
        host, host_port = via.hostname, via.port or 80
    if not https:
        conn = http.client.HTTPConnection(host, host_port, timeout=_REQUEST_TIMEOUT)
        return conn, f"http://{target.netloc}" if forward else "", auth
    context = ssl.create_default_context(
        cafile=os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    )
    conn = http.client.HTTPSConnection(
        host, host_port, timeout=_REQUEST_TIMEOUT, context=context
    )
    if forward:
        conn.set_tunnel(target.hostname, port, headers=auth)
    return conn, "", {}


def _readable(sock: Any) -> bool:
    """True when sock has bytes to read (or end of file) right now."""
    if hasattr(select, "poll"):  # select() refuses descriptors past 1023
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def answer_fields(response: _Answer, *keys: str) -> dict[str, Any]:
    """The proxy's answer as a JSON object holding a string under each of
    keys; raises WorkflowError on any other answer."""
    doc = load_json(response.content, WorkflowError, "proxy answer")
    for key in keys:
        if not isinstance(doc.get(key), str):
            raise WorkflowError(f"proxy answer has no string {key!r}")
    return doc


@dataclass(frozen=True, slots=True)
class SubmitResult:
    dataset_id: str
    schema_id: str


def fetch_attestation(proxy_addr: str, token: str) -> AttestationStub:
    with ProxyClient(proxy_addr, token) as client:
        return _attestation(client)


def _attestation(client: ProxyClient) -> AttestationStub:
    response = client.expect("GET", "/attestation", (200,))
    return AttestationStub.from_json(response.content)


def assessee_submit(
    data: "bytes | str",
    schema: "bytes | str",
    proxy_addr: str,
    token: str,
    *,
    domain: str,
    expected_code_hash: str,
    reply_keypair: KeyPair,
) -> SubmitResult:
    """Seal dataset and schema to the attested enclave key and upload.

    Refuses to seal anything when the enclave's published code hash does
    not match the pinned expectation. Paths are read as binary files;
    bytes are used as-is.
    """
    with ProxyClient(proxy_addr, token) as client:
        stub = _attestation(client)
        if stub.code_hash != expected_code_hash:
            raise AttestationError(
                "enclave code hash "
                f"{stub.code_hash[:16]}... does not match the pinned expectation"
            )
        data_bytes = _read_binary(data)
        schema_bytes = _read_binary(schema)
        reply_key = base64.b64encode(reply_keypair.public_bytes).decode("ascii")
        dataset_id = client.put_object(
            "dataset",
            seal(data_bytes, stub.enclave_public_key),
            domain=domain,
            reply_key=reply_key,
        )
        schema_id = client.put_object(
            "schema", seal(schema_bytes, stub.enclave_public_key), domain=domain
        )
    return SubmitResult(dataset_id=dataset_id, schema_id=schema_id)


def assessor_request(
    config: "bytes | str",
    dataset_id: str,
    schema_id: str,
    proxy_addr: str,
    token: str,
    *,
    domain: str,
) -> str:
    """Seal the config to the enclave and enqueue an assessment request."""
    with ProxyClient(proxy_addr, token) as client:
        stub = _attestation(client)
        config_id = client.put_object(
            "config", seal(_read_binary(config), stub.enclave_public_key), domain=domain
        )
        body = json.dumps(
            {
                "dataset_id": dataset_id,
                "schema_id": schema_id,
                "config_id": config_id,
                "domain": domain,
            }
        ).encode("utf-8")
        response = client.expect("POST", "/assessments", (201,), body)
    return answer_fields(response, "assessment_id")["assessment_id"]


def assessment_status(
    assessment_id: str, proxy_addr: str, token: str
) -> dict[str, Any]:
    with ProxyClient(proxy_addr, token) as client:
        return _status(client, assessment_id)


def _status(client: ProxyClient, assessment_id: str) -> dict[str, Any]:
    response = client.expect("GET", f"/assessments/{assessment_id}", (200,))
    return answer_fields(response, "state")


def assessee_fetch_report(
    assessment_id: str,
    proxy_addr: str,
    token: str,
    keypair: KeyPair,
) -> QualityReport:
    """Fetch, unseal, and verify the finished report.

    Raises ReportNotReady while the assessment is still queued or
    running, and WorkflowError when it failed.
    """
    with ProxyClient(proxy_addr, token) as client:
        status = _status(client, assessment_id)
        state = status.get("state")
        if state in ("pending", "running"):
            raise ReportNotReady(f"assessment is {state}")
        if state != "done" or not status.get("report_id"):
            raise WorkflowError(f"assessment ended in state {state!r}")
        envelope, _meta = client.get_object(status["report_id"])
    return deserialize_report(unseal(envelope, keypair))


def _read_binary(source: "bytes | str") -> bytes:
    if isinstance(source, bytes):
        return source
    with open(source, "rb") as fh:
        return fh.read()
