"""Zero-trust proxy: ciphertext-only object store plus assessment queue.

The proxy never sees plaintext payloads; it stores sealed envelopes,
their non-sensitive routing metadata (content kind, domain label, reply
key), and the assessment queue. Every request is authenticated by a
bearer token bound to one role and then answered by _Handler._dispatch
from ROUTES, the one table of routes and the roles each admits; the
object routes admit roles per content kind, from PUT_SCOPES and
GET_SCOPES. A (role, route) pair outside those tables answers 403.
"""

from __future__ import annotations

import json
import logging
import os
import re
import secrets
import threading
import time
from dataclasses import asdict, dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, NamedTuple

from .sealing import envelope_key_ids
from ..errors import SealingError

__all__ = [
    "CONTENT_KINDS",
    "ROLES",
    "ROUTES",
    "AccessToken",
    "SealedObject",
    "ProxyServer",
    "proxy_serve",
]

logger = logging.getLogger(__name__)

CONTENT_KINDS = ("dataset", "schema", "config", "report")
ROLES = ("assessee", "assessor", "enclave")

PUT_SCOPES: dict[str, frozenset[str]] = {
    "dataset": frozenset({"assessee"}),
    "schema": frozenset({"assessee"}),
    "config": frozenset({"assessor"}),
    "report": frozenset({"enclave"}),
}
GET_SCOPES: dict[str, frozenset[str]] = {
    "dataset": frozenset({"enclave"}),
    "schema": frozenset({"enclave"}),
    "config": frozenset({"enclave"}),
    "report": frozenset({"assessee"}),
}


class _Route(NamedTuple):
    method: str
    pattern: tuple[str, ...]  # path segments; "{id}" matches any one segment
    handler: str  # _Handler method, called with the token and the ids
    roles: frozenset[str]


_ANY_ROLE = frozenset(ROLES)
_ENCLAVE = frozenset({"enclave"})

ROUTES = (
    # The two object routes check PUT_SCOPES / GET_SCOPES per content kind.
    _Route("PUT", ("objects",), "_put_object", _ANY_ROLE),
    _Route("GET", ("objects", "{id}"), "_get_object", _ANY_ROLE),
    _Route("GET", ("attestation",), "_get_attestation", _ANY_ROLE),
    _Route("POST", ("attestation",), "_post_attestation", _ENCLAVE),
    _Route("POST", ("assessments",), "_post_assessment", frozenset({"assessor"})),
    _Route(
        "GET", ("assessments", "{id}"), "_get_assessment",
        frozenset({"assessor", "assessee"}),
    ),
    _Route("POST", ("assessments", "claim"), "_claim", _ENCLAVE),
    _Route("POST", ("assessments", "{id}", "complete"), "_complete", _ENCLAVE),
)

DEFAULT_MAX_OBJECT_BYTES = 1 << 30  # dataset size cap
_SOCKET_TIMEOUT = 30.0  # seconds a connection may stall; enclaves poll every 0.2 s
_WRITE_SLICE = 1 << 16  # bytes of a response body sent under one timeout
_TOKEN_TTL = 24 * 3600.0
_OBJECT_ID = re.compile(r"[0-9a-f]{32}")  # secrets.token_hex(16)


@dataclass(frozen=True, slots=True)
class AccessToken:
    """Bearer credential bound to one role."""

    token: str
    principal: str
    expiry: float

    @property
    def expired(self) -> bool:
        return time.time() >= self.expiry


@dataclass(frozen=True, slots=True)
class SealedObject:
    """Stored ciphertext plus its routing metadata."""

    object_id: str
    ciphertext: bytes
    recipient_key_id: str
    sender_key_id: str
    content_kind: str
    created_at: float
    domain: str = ""
    reply_public_key: str = ""


def _is_object_id(value: Any) -> bool:
    """Whether value has the form of an id that _Store.put_object issues."""
    return isinstance(value, str) and _OBJECT_ID.fullmatch(value) is not None


class _Store:
    """Disk-backed object store and in-memory assessment queue."""

    def __init__(self, store_dir: str) -> None:
        self.root = Path(store_dir)
        self.objects_dir = self.root / "objects"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._assessments: dict[str, dict[str, Any]] = {}
        self._queue: list[str] = []
        self._attestation: "bytes | None" = None

    def _write_atomic(self, path: Path, data: bytes) -> None:
        tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def put_object(
        self, kind: str, envelope: bytes, domain: str, reply_public_key: str
    ) -> SealedObject:
        recipient, sender = envelope_key_ids(envelope)
        obj = SealedObject(
            object_id=secrets.token_hex(16),
            ciphertext=envelope,
            recipient_key_id=recipient,
            sender_key_id=sender,
            content_kind=kind,
            created_at=time.time(),
            domain=domain,
            reply_public_key=reply_public_key,
        )
        meta = asdict(obj)
        del meta["ciphertext"]
        with self._lock:
            self._write_atomic(
                self.objects_dir / f"{obj.object_id}.bin", obj.ciphertext
            )
            self._write_atomic(
                self.objects_dir / f"{obj.object_id}.json",
                json.dumps(meta, sort_keys=True).encode("utf-8"),
            )
        return obj

    def object_meta(self, object_id: Any) -> "dict[str, Any] | None":
        """A stored object's fields but the ciphertext, which is not read;
        None for any id this store never issued."""
        if not _is_object_id(object_id):  # before the id names a file
            return None
        meta_path = self.objects_dir / f"{object_id}.json"
        bin_path = self.objects_dir / f"{object_id}.bin"
        if not meta_path.exists() or not bin_path.exists():
            return None
        return json.loads(meta_path.read_bytes())

    def get_object(self, object_id: Any) -> "SealedObject | None":
        """The stored object, or None for any id this store never issued."""
        meta = self.object_meta(object_id)
        if meta is None:
            return None
        ciphertext = (self.objects_dir / f"{object_id}.bin").read_bytes()
        return SealedObject(ciphertext=ciphertext, **meta)

    def set_attestation(self, stub: bytes) -> None:
        with self._lock:
            self._attestation = stub
            self._write_atomic(self.root / "attestation.json", stub)

    def get_attestation(self) -> "bytes | None":
        return self._attestation

    def create_assessment(
        self, dataset_id: str, schema_id: str, config_id: str, domain: str
    ) -> dict[str, Any]:
        record = {
            "assessment_id": secrets.token_hex(16),
            "dataset_id": dataset_id,
            "schema_id": schema_id,
            "config_id": config_id,
            "domain": domain,
            "state": "pending",
            "report_id": None,
            "created_at": time.time(),
        }
        with self._lock:
            self._assessments[record["assessment_id"]] = record
            self._queue.append(record["assessment_id"])
            self._persist_assessments()
        return dict(record)

    def get_assessment(self, assessment_id: str) -> "dict[str, Any] | None":
        with self._lock:
            record = self._assessments.get(assessment_id)
            return dict(record) if record else None

    def claim_assessment(self) -> "dict[str, Any] | None":
        with self._lock:
            while self._queue:
                assessment_id = self._queue.pop(0)
                record = self._assessments.get(assessment_id)
                if record and record["state"] == "pending":
                    record["state"] = "running"
                    self._persist_assessments()
                    return dict(record)
            return None

    def complete_assessment(
        self, assessment_id: str, state: str, report_id: "str | None"
    ) -> bool:
        with self._lock:
            record = self._assessments.get(assessment_id)
            if record is None or record["state"] != "running":
                return False
            record["state"] = state
            record["report_id"] = report_id
            record["completed_at"] = time.time()
            self._persist_assessments()
            return True

    def _persist_assessments(self) -> None:
        self._write_atomic(
            self.root / "assessments.json",
            json.dumps(self._assessments, sort_keys=True).encode("utf-8"),
        )


class _Refusal(Exception):
    """An error answer (status, message); raised by any step, sent by _dispatch."""


def _admit(token: AccessToken, roles: frozenset[str]) -> None:
    if token.principal not in roles:
        raise _Refusal(403, "out of scope")


def _match(method: str, path: str) -> tuple[_Route, list[str]]:
    parts = [p for p in path.split("/") if p]
    for route in ROUTES:
        if route.method == method and len(route.pattern) == len(parts):
            if all(p in ("{id}", q) for p, q in zip(route.pattern, parts)):
                ids = [q for p, q in zip(route.pattern, parts) if p == "{id}"]
                return route, ids
    raise _Refusal(404, "no such route")


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # A read, or a write of one body slice, stalled this long raises
    # TimeoutError, on which handle_one_request closes the connection.
    timeout = _SOCKET_TIMEOUT
    # TCP_NODELAY: _send writes the headers and then the body, and with
    # Nagle on the body waits for the client's delayed ACK (about 40 ms).
    disable_nagle_algorithm = True
    server: "ProxyServer"
    _unread = False  # a request body is still in the socket

    def log_message(self, format: str, *args: Any) -> None:
        logger.debug("%s %s", self.address_string(), format % args)

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._dispatch()

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch()

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch()

    def _dispatch(self) -> None:
        self._unread = (
            self.headers.get("Content-Length", "0") != "0"
            or "Transfer-Encoding" in self.headers
        )
        try:
            token = self._authenticate()
            route, ids = _match(self.command, self.path)
            _admit(token, route.roles)
            getattr(self, route.handler)(token, *ids)
        except _Refusal as refusal:
            status, message = refusal.args
            self._send_json(status, {"error": message})

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        if self._unread:
            # The next request on this connection would be parsed from the
            # body's bytes; sending this header also ends the connection.
            self.send_header("Connection", "close")
        self.end_headers()
        # The socket timeout bounds each sendall, so the body goes out in
        # slices: a client that stops reading is dropped, a slow one is not.
        view = memoryview(body)
        for start in range(0, len(view), _WRITE_SLICE):
            self.wfile.write(view[start : start + _WRITE_SLICE])

    def _send_json(self, status: int, doc: dict) -> None:
        self._send(status, json.dumps(doc, sort_keys=True).encode("utf-8"))

    def _authenticate(self) -> AccessToken:
        header = self.headers.get("Authorization", "")
        if header.startswith("Bearer "):
            token = self.server.lookup_token(header[7:].strip())
            if token is not None and not token.expired:
                return token
        raise _Refusal(401, "invalid or expired token")

    def _body(self) -> bytes:
        length = self.headers.get("Content-Length", "0")
        if not (length.isascii() and length.isdigit()) or (
            "Transfer-Encoding" in self.headers
        ):
            raise _Refusal(400, "a body needs a decimal Content-Length")
        if int(length) > self.server.max_object_bytes:
            raise _Refusal(413, "object exceeds the size cap")
        body = self.rfile.read(int(length))
        self._unread = False
        return body

    def _json_body(self, *keys: str) -> dict[str, Any]:
        """The body as a JSON object holding every one of keys, else 400."""
        try:
            doc = json.loads(self._body())
        except (ValueError, RecursionError):
            doc = None
        if not isinstance(doc, dict) or not all(key in doc for key in keys):
            raise _Refusal(400, f"body must be a JSON object with {', '.join(keys)}")
        return doc

    def _put_object(self, token: AccessToken) -> None:
        kind = self.headers.get("X-Content-Kind", "")
        if kind not in CONTENT_KINDS:
            raise _Refusal(400, "unknown content kind")
        _admit(token, PUT_SCOPES[kind])
        try:
            obj = self.server.store.put_object(
                kind,
                self._body(),
                domain=self.headers.get("X-Domain", ""),
                reply_public_key=self.headers.get("X-Reply-Key", ""),
            )
        except SealingError as exc:
            raise _Refusal(400, str(exc)) from None
        self._send_json(201, {"object_id": obj.object_id})

    def _get_object(self, token: AccessToken, object_id: str) -> None:
        obj = self.server.store.get_object(object_id)
        if obj is None:
            raise _Refusal(404, "no such object")
        _admit(token, GET_SCOPES[obj.content_kind])
        self._send(
            200,
            obj.ciphertext,
            "application/octet-stream",
            (
                ("X-Content-Kind", obj.content_kind),
                ("X-Domain", obj.domain),
                ("X-Reply-Key", obj.reply_public_key),
            ),
        )

    def _get_attestation(self, _token: AccessToken) -> None:
        stub = self.server.store.get_attestation()
        if stub is None:
            raise _Refusal(404, "no attestation registered")
        self._send(200, stub)

    def _post_attestation(self, _token: AccessToken) -> None:
        self.server.store.set_attestation(self._body())
        self._send_json(200, {"status": "registered"})

    def _post_assessment(self, _token: AccessToken) -> None:
        keys = ("dataset_id", "schema_id", "config_id")
        doc = self._json_body(*keys)
        store = self.server.store
        dataset, schema, config = (store.object_meta(doc[key]) for key in keys)
        if dataset is None or schema is None or config is None:
            raise _Refusal(404, "referenced object not found")
        domain = doc.get("domain", "")
        if dataset["domain"] != domain:
            raise _Refusal(409, "config domain does not match the dataset")
        record = store.create_assessment(*(doc[key] for key in keys), domain)
        self._send_json(201, record)

    def _get_assessment(self, _token: AccessToken, assessment_id: str) -> None:
        record = self.server.store.get_assessment(assessment_id)
        if record is None:
            raise _Refusal(404, "no such assessment")
        self._send_json(200, record)

    def _claim(self, _token: AccessToken) -> None:
        record = self.server.store.claim_assessment()
        if record is None:
            self._send(204, b"", "text/plain")
        else:
            self._send_json(200, record)

    def _complete(self, _token: AccessToken, assessment_id: str) -> None:
        doc = self._json_body("state")
        state, report_id = doc["state"], doc.get("report_id")
        if state not in ("done", "failed"):
            raise _Refusal(400, "state must be done or failed")
        if report_id is not None and not _is_object_id(report_id):
            raise _Refusal(404, "no such object")
        if not self.server.store.complete_assessment(assessment_id, state, report_id):
            raise _Refusal(404, "no running assessment with that id")
        self._send_json(200, {"status": "recorded"})


class ProxyServer(ThreadingHTTPServer):
    """Embeddable proxy; issues one bearer token per role at startup."""

    daemon_threads = True

    def __init__(
        self,
        store_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        max_object_bytes: int = DEFAULT_MAX_OBJECT_BYTES,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.store = _Store(store_dir)
        self.max_object_bytes = max_object_bytes
        expiry = time.time() + _TOKEN_TTL
        # Hex, so that no token starts with "-": `--token TOKEN` would take
        # such a token for an option.
        self._tokens = {
            role: AccessToken(
                token=secrets.token_hex(24), principal=role, expiry=expiry
            )
            for role in ROLES
        }
        self._by_secret = {t.token: t for t in self._tokens.values()}
        self._thread: "threading.Thread | None" = None
        credentials = {role: t.token for role, t in self._tokens.items()}
        # Bearer tokens, so owner-only; fchmod also narrows an existing file.
        path = self.store.root / "credentials.json"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        os.fchmod(fd, 0o600)
        with os.fdopen(fd, "wb") as fh:
            fh.write(json.dumps(credentials, sort_keys=True).encode("utf-8"))

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def token_for(self, role: str) -> str:
        return self._tokens[role].token

    def lookup_token(self, secret: str) -> "AccessToken | None":
        return self._by_secret.get(secret)

    def start(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.server_close()


def proxy_serve(
    store_dir: str,
    bind_addr: str = "127.0.0.1:0",
    max_object_bytes: int = DEFAULT_MAX_OBJECT_BYTES,
) -> None:
    """Run the proxy in the foreground; prints the per-role tokens."""
    host, _, port_text = bind_addr.partition(":")
    server = ProxyServer(
        store_dir,
        host=host or "127.0.0.1",
        port=int(port_text or "0"),
        max_object_bytes=max_object_bytes,
    )
    print(f"proxy listening on {server.base_url}")
    for role in ROLES:
        print(f"token[{role}] = {server.token_for(role)}")
    print(f"credentials written to {server.store.root / 'credentials.json'}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
