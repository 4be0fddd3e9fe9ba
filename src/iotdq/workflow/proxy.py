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

import contextlib
import json
import logging
import math
import os
import re
import secrets
import socket
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, NamedTuple

from .attestation import AttestationStub
from .sealing import envelope_key_ids, write_private
from ..errors import AttestationError, SealingError, WorkflowError, load_json

__all__ = [
    "CONTENT_KINDS",
    "ROLES",
    "ROUTES",
    "AccessToken",
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
_TOKEN = re.compile(r"[0-9a-f]{48}")  # secrets.token_hex(24)
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


def _is_object_id(value: Any) -> bool:
    """Whether value has the form of an id that _Store.put_object issues."""
    return isinstance(value, str) and _OBJECT_ID.fullmatch(value) is not None


_META_KEYS = ("content_kind", "domain", "reply_public_key")  # what handlers read


class _Store:
    """Envelopes as objects/<id>.bin, and every other fact a line appended to
    journal.jsonl; the tables in memory are only that journal applied."""

    def __init__(self, store_dir: str) -> None:
        self.root = Path(store_dir)
        self.objects_dir = self.root / "objects"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._objects: dict[str, tuple[str, ...]] = {}  # values in _META_KEYS order
        self._assessments: dict[str, dict[str, Any]] = {}
        self._attestation: "bytes | None" = None
        path = self.root / "journal.jsonl"
        journal = path.read_bytes() if path.exists() else b""
        for number, line in enumerate(journal.splitlines(), 1):
            try:
                self._apply(load_json(line, WorkflowError, "journal line"))
            except WorkflowError:  # such as a line torn by a crash
                logger.warning("journal line %d is unreadable; skipped", number)
        pending = [k for k, r in self._assessments.items() if r["state"] == "pending"]
        self._pending = deque(pending)  # oldest first: a dict keeps creation order
        self.journal = open(path, "ab")
        if not journal.endswith(b"\n") and journal:
            self.journal.write(b"\n")  # a torn line ends before the next fact

    def _apply(self, fact: dict[str, Any]) -> None:
        if "assessment" in fact:  # the whole record, in each state it enters
            self._assessments[fact["assessment"]["assessment_id"]] = fact["assessment"]
        elif "object" in fact:
            meta = fact["object"]
            self._objects[meta["object_id"]] = tuple(meta[k] for k in _META_KEYS)
        else:  # latin-1, so that the stub's exact bytes survive
            self._attestation = fact["attestation"].encode("latin-1")

    def _record(self, fact: dict[str, Any]) -> None:
        """Append fact to the journal, then apply it; the caller holds the lock."""
        self.journal.write(json.dumps(fact, sort_keys=True).encode("utf-8") + b"\n")
        self.journal.flush()
        self._apply(fact)

    def put_object(
        self, kind: str, envelope: bytes, domain: str, reply_public_key: str
    ) -> str:
        recipient, sender = envelope_key_ids(envelope)
        object_id = secrets.token_hex(16)
        path = self.objects_dir / f"{object_id}.bin"  # written outside the lock
        path.with_suffix(".tmp").write_bytes(envelope)
        os.replace(path.with_suffix(".tmp"), path)
        meta = dict(
            object_id=object_id, recipient_key_id=recipient, sender_key_id=sender,
            content_kind=kind, created_at=time.time(), domain=domain,
            reply_public_key=reply_public_key,
        )
        with self._lock:  # journaled, and so found, once its file is whole
            self._record({"object": meta})
        return object_id

    def object_meta(self, object_id: Any) -> "dict[str, str] | None":
        """A stored object's _META_KEYS; None for any id this store never issued."""
        # An id checked first: an unhashable one from a JSON body is never looked up.
        meta = self._objects.get(object_id) if _is_object_id(object_id) else None
        return None if meta is None else dict(zip(_META_KEYS, meta))

    def get_object(self, object_id: Any) -> "tuple[bytes, dict[str, str]] | None":
        """The stored (envelope, metadata); None for an id never issued or
        whose file is gone."""
        meta = self.object_meta(object_id)  # before the id names a file
        with contextlib.suppress(FileNotFoundError):
            if meta is not None:
                return (self.objects_dir / f"{object_id}.bin").read_bytes(), meta
        return None

    def set_attestation(self, stub: bytes) -> None:
        with self._lock:
            self._record({"attestation": stub.decode("latin-1")})

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
            self._record({"assessment": record})
            self._pending.append(record["assessment_id"])
        return dict(record)

    def get_assessment(self, assessment_id: str) -> "dict[str, Any] | None":
        record = self._assessments.get(assessment_id)  # replaced whole, never changed
        return dict(record) if record else None

    def claim_assessment(self) -> "dict[str, Any] | None":
        with self._lock:
            if not self._pending:
                return None
            record = dict(self._assessments[self._pending.popleft()], state="running")
            self._record({"assessment": record})
            return dict(record)

    def complete_assessment(
        self, assessment_id: str, state: str, report_id: "str | None"
    ) -> bool:
        with self._lock:
            record = self._assessments.get(assessment_id)
            if record is None or record["state"] != "running":
                return False
            record = dict(record, state=state, report_id=report_id)
            self._record({"assessment": dict(record, completed_at=time.time())})
            return True


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
            doc = load_json(self._body(), WorkflowError, "body")
        except WorkflowError:
            doc = {}
        if not all(key in doc for key in keys):
            raise _Refusal(400, f"body must be a JSON object with {', '.join(keys)}")
        return doc

    def _put_object(self, token: AccessToken) -> None:
        kind = self.headers.get("X-Content-Kind", "")
        if kind not in CONTENT_KINDS:
            raise _Refusal(400, "unknown content kind")
        _admit(token, PUT_SCOPES[kind])
        try:
            object_id = self.server.store.put_object(
                kind,
                self._body(),
                domain=self.headers.get("X-Domain", ""),
                reply_public_key=self.headers.get("X-Reply-Key", ""),
            )
        except SealingError as exc:
            raise _Refusal(400, str(exc)) from None
        self._send_json(201, {"object_id": object_id})

    def _get_object(self, token: AccessToken, object_id: str) -> None:
        stored = self.server.store.get_object(object_id)
        if stored is None:
            raise _Refusal(404, "no such object")
        envelope, meta = stored
        _admit(token, GET_SCOPES[meta["content_kind"]])
        self._send(
            200,
            envelope,
            "application/octet-stream",
            (
                ("X-Content-Kind", meta["content_kind"]),
                ("X-Domain", meta["domain"]),
                ("X-Reply-Key", meta["reply_public_key"]),
            ),
        )

    def _get_attestation(self, _token: AccessToken) -> None:
        stub = self.server.store.get_attestation()
        if stub is None:
            raise _Refusal(404, "no attestation registered")
        self._send(200, stub)

    def _post_attestation(self, _token: AccessToken) -> None:
        body = self._body()
        try:
            AttestationStub.from_json(body)
        except AttestationError as exc:
            raise _Refusal(400, str(exc)) from None
        self.server.store.set_attestation(body)
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
        if report_id is not None:
            meta = self.server.store.object_meta(report_id)
            if meta is None or meta["content_kind"] != "report":
                raise _Refusal(404, "no such report")
        if not self.server.store.complete_assessment(assessment_id, state, report_id):
            raise _Refusal(404, "no running assessment with that id")
        self._send_json(200, {"status": "recorded"})


def _saved_tokens(path: Path) -> "dict[str, AccessToken] | None":
    """The per-role tokens that the credentials file at path holds, or None
    when it is missing, unreadable or expired."""
    try:
        saved = load_json(path.read_bytes(), WorkflowError, "credentials file")
    except (OSError, WorkflowError):
        return None
    expiry = saved.get("expires_at")
    if type(expiry) not in (int, float) or not time.time() < expiry < math.inf:
        return None
    tokens = [saved.get(role) for role in ROLES]
    if not all(isinstance(t, str) and _TOKEN.fullmatch(t) for t in tokens):
        return None
    if len(set(tokens)) < len(ROLES):  # a token names one role
        return None
    return {
        role: AccessToken(token=token, principal=role, expiry=float(expiry))
        for role, token in zip(ROLES, tokens)
    }


class ProxyServer(ThreadingHTTPServer):
    """Embeddable proxy. Its per-role bearer tokens are those in its store's
    credentials.json while they are unexpired, so that a restart keeps them
    (reused_tokens is then True); otherwise it issues new ones at startup
    and writes them there."""

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
        credentials = self.store.root / "credentials.json"
        tokens = _saved_tokens(credentials)
        self.reused_tokens = tokens is not None
        if tokens is None:
            expiry = time.time() + _TOKEN_TTL
            # Hex, so that no token starts with "-": `--token TOKEN` would take
            # such a token for an option.
            tokens = {
                role: AccessToken(
                    token=secrets.token_hex(24), principal=role, expiry=expiry
                )
                for role in ROLES
            }
            saved: dict[str, Any] = {role: t.token for role, t in tokens.items()}
            saved["expires_at"] = expiry
            write_private(credentials, json.dumps(saved, sort_keys=True).encode())
        self._tokens = tokens
        self._by_secret = {t.token: t for t in tokens.values()}
        self._thread: "threading.Thread | None" = None
        self._open: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def token_for(self, role: str) -> str:
        return self._tokens[role].token

    def lookup_token(self, secret: str) -> "AccessToken | None":
        return self._by_secret.get(secret)

    def process_request(self, request: Any, client_address: Any) -> None:
        self._open.add(request)
        super().process_request(request, client_address)

    def start(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop accepting, and end every kept-alive connection unanswered."""
        self.shutdown()
        for request in tuple(self._open):
            with contextlib.suppress(OSError):  # closed by its handler meanwhile
                request.shutdown(socket.SHUT_RDWR)
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.server_close()

    def server_close(self) -> None:
        super().server_close()
        self.store.journal.close()


def proxy_serve(
    store_dir: str,
    bind_addr: str = "127.0.0.1:0",
    max_object_bytes: int = DEFAULT_MAX_OBJECT_BYTES,
) -> None:
    """Run the proxy in the foreground; prints its URL and where the per-role
    tokens are written, or reused from, never a token."""
    host, _, port_text = bind_addr.partition(":")
    port_text = port_text or "0"
    if not (port_text.isascii() and port_text.isdigit()) or int(port_text) > 65535:
        raise WorkflowError(f"bind address {bind_addr!r} needs a port of 0-65535")
    server = ProxyServer(
        store_dir,
        host=host or "127.0.0.1",
        port=int(port_text),
        max_object_bytes=max_object_bytes,
    )
    print(f"proxy listening on {server.base_url}")
    done = "reused from" if server.reused_tokens else "written to"
    print(f"credentials {done} {server.store.root / 'credentials.json'}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
