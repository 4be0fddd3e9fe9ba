"""Party clients and the enclave read proxy answers through the JSON loader.

A stub HTTP server stands in for the proxy and answers each request with
canned bytes. An answer that is not a JSON object holding the string the
caller needs must raise WorkflowError, never KeyError or TypeError, and
the enclave must keep claiming after a malformed claim.

The transport is held to the same rule: a refused connection, a dropped
one, or an answer that is not HTTP raises WorkflowError, never OSError or
http.client.HTTPException. A client keeps one connection alive across
requests and opens a new one when the server has closed the old.
"""

from __future__ import annotations

import base64
import json
import os
import socket
import subprocess
import sys
import threading
import time
from contextlib import closing, contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest

import iotdq
from iotdq.cli import main
from iotdq.errors import WorkflowError
from iotdq.model import AssessmentConfig
from iotdq.schema import parse_schema
from iotdq.synthgen import DEFAULT_SCHEMA, GenSpec, generate
from iotdq.workflow import enclave as enclave_module
from iotdq.workflow import proxy as proxy_module
from iotdq.workflow.attestation import AttestationStub
from iotdq.workflow.clients import (
    ProxyClient,
    assessee_submit,
    assessment_status,
    assessor_request,
    fetch_attestation,
)
from iotdq.workflow.enclave import EnclaveRunner
from iotdq.workflow.proxy import ProxyServer
from iotdq.workflow.sealing import KeyPair, seal

# Answers with a 2xx status that no caller can use.
MALFORMED = {
    "empty_array": b"[]",
    "empty_object": b"{}",
    "not_json": b"<html>proxy</html>",
    "empty_body": b"",
    "wrong_type": b'{"object_id": 5, "assessment_id": ["a"], "state": null}',
    "too_deep": b"[" * 100_000,
}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # connections are kept alive
    timeout = 5.0  # seconds an idle connection is kept

    def _answer(self) -> None:
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self.server.seen.append((self.command, self.path))
        self.server.ports.append(self.client_address[1])
        self.server.headers.append(self.headers)
        status, body = self.server.answers.get((self.command, self.path), (404, b""))
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        if self.path in self.server.closing:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_PUT = do_POST = _answer

    def log_message(self, *args) -> None:
        pass


class _Stub(ThreadingHTTPServer):
    """Canned answers by (method, path); records what it saw and closed."""

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        self.answers: dict = {}
        self.closing: set = set()  # paths answered with Connection: close
        self.seen: list = []
        self.ports: list = []  # the client's port of each request
        self.headers: list = []
        self.closed: list = []  # the client's port of each closed connection
        self.url = "http://127.0.0.1:%d" % self.server_address[1]

    def process_request_thread(self, request, client_address) -> None:
        super().process_request_thread(request, client_address)  # closes it
        self.closed.append(client_address[1])


@pytest.fixture
def stub():
    server = _Stub()
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=5)
    server.server_close()


def _wait_for(condition) -> None:
    deadline = time.monotonic() + 5
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def _attested(stub) -> None:
    stub_doc = AttestationStub(
        code_hash="0" * 64, enclave_public_key=KeyPair.generate().public_bytes
    )
    stub.answers[("GET", "/attestation")] = (200, stub_doc.to_json())


@pytest.mark.parametrize("answer", sorted(MALFORMED))
def test_put_object_refuses_a_malformed_answer(stub, answer: str) -> None:
    stub.answers[("PUT", "/objects")] = (201, MALFORMED[answer])
    with ProxyClient(stub.url, "t") as client:
        with pytest.raises(WorkflowError, match="proxy answer"):
            client.put_object("dataset", seal(b"x", KeyPair.generate().public_bytes))


@pytest.mark.parametrize("answer", sorted(MALFORMED))
def test_assessor_request_refuses_a_malformed_answer(stub, answer: str) -> None:
    _attested(stub)
    stub.answers[("PUT", "/objects")] = (201, b'{"object_id": "c1"}')
    stub.answers[("POST", "/assessments")] = (201, MALFORMED[answer])
    with pytest.raises(WorkflowError, match="proxy answer"):
        assessor_request(b"{}", "d1", "s1", stub.url, "t", domain="x")


@pytest.mark.parametrize("answer", sorted(MALFORMED))
def test_assessment_status_refuses_a_malformed_answer(stub, answer: str) -> None:
    stub.answers[("GET", "/assessments/a1")] = (200, MALFORMED[answer])
    with pytest.raises(WorkflowError, match="proxy answer"):
        assessment_status("a1", stub.url, "t")


def test_well_formed_answers_are_read(stub) -> None:
    _attested(stub)
    stub.answers[("PUT", "/objects")] = (201, b'{"object_id": "c1"}')
    stub.answers[("POST", "/assessments")] = (201, b'{"assessment_id": "a1"}')
    stub.answers[("GET", "/assessments/a1")] = (200, b'{"state": "pending"}')
    assert assessor_request(b"{}", "d1", "s1", stub.url, "t", domain="x") == "a1"
    assert assessment_status("a1", stub.url, "t") == {"state": "pending"}


@pytest.mark.parametrize("answer", sorted(MALFORMED))
def test_run_once_refuses_a_malformed_claim(stub, answer: str) -> None:
    stub.answers[("POST", "/assessments/claim")] = (200, MALFORMED[answer])
    with closing(EnclaveRunner(stub.url, "t")) as enclave:
        with pytest.raises(WorkflowError, match="proxy answer"):
            enclave.run_once()


def test_run_once_fails_a_claim_missing_its_objects(stub) -> None:
    # Only the id is needed to report the failure back.
    stub.answers[("POST", "/assessments/claim")] = (200, b'{"assessment_id": "a1"}')
    stub.answers[("POST", "/assessments/a1/complete")] = (200, b"{}")
    with closing(EnclaveRunner(stub.url, "t")) as enclave:
        assert enclave.run_once() == "failed"
    assert stub.seen[-1] == ("POST", "/assessments/a1/complete")


class _Stop(Exception):
    pass


def test_serve_forever_claims_again_after_a_malformed_claim(stub, monkeypatch) -> None:
    stub.answers[("POST", "/assessments/claim")] = (200, b"[]")
    naps: list = []

    def nap(seconds: float) -> None:
        naps.append(seconds)
        if len(naps) == 3:
            raise _Stop

    monkeypatch.setattr(enclave_module, "time", SimpleNamespace(sleep=nap))
    with closing(EnclaveRunner(stub.url, "t")) as enclave:
        with pytest.raises(_Stop):
            enclave.serve_forever()
    assert stub.seen == [("POST", "/assessments/claim")] * 3


def test_cli_status_of_a_malformed_answer_exits_1(stub, capsys) -> None:
    stub.answers[("GET", "/assessments/a1")] = (200, b"[]")
    argv = ["status", "--assessment-id", "a1", "--proxy", stub.url, "--token", "t"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: proxy answer must be a JSON object\n"


def test_cli_request_of_a_malformed_answer_exits_1(stub, tmp_path, capsys) -> None:
    _attested(stub)
    stub.answers[("PUT", "/objects")] = (201, b"{}")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({}))
    argv = [
        "request", "--config", str(config), "--dataset-id", "d1", "--schema-id",
        "s1", "--proxy", stub.url, "--token", "t", "--domain", "x",
    ]  # fmt: skip
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: proxy answer has no string 'object_id'\n"


# -- transport ---------------------------------------------------------------

NOT_HTTP = {
    "closed_without_answer": b"",
    "garbage": b"garbage\r\n\r\n",
    "long_status_line": b"HTTP/1.1 200 " + b"x" * 70_000 + b"\r\n\r\n",
    "long_header_line": b"HTTP/1.1 200 OK\r\nX-Long: " + b"x" * 70_000 + b"\r\n\r\n",
}


@contextmanager
def _one_answer_server(reply: bytes):
    """Yields the URL of a server that reads one request head, sends reply
    whatever the request was, and hangs up."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)

    def serve() -> None:
        conn, _ = listener.accept()
        with conn:
            head = b""
            while b"\r\n\r\n" not in head:
                chunk = conn.recv(1 << 16)
                if not chunk:
                    return
                head += chunk
            try:
                conn.sendall(reply)
            except OSError:
                pass  # the client stopped reading a line too long for it

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield "http://127.0.0.1:%d" % listener.getsockname()[1]
    finally:
        thread.join(timeout=5)
        listener.close()
    assert not thread.is_alive()


@pytest.mark.parametrize("reply", sorted(NOT_HTTP))
def test_an_answer_that_is_not_http_raises_workflow_error(reply: str) -> None:
    with _one_answer_server(NOT_HTTP[reply]) as url, ProxyClient(url, "t") as client:
        with pytest.raises(WorkflowError, match="proxy unreachable"):
            client.request("GET", "/attestation")


def test_a_refused_connection_raises_workflow_error() -> None:
    with socket.create_server(("127.0.0.1", 0)) as listener:
        url = "http://127.0.0.1:%d" % listener.getsockname()[1]
    # Nothing listens on the port any more.
    with pytest.raises(WorkflowError, match="proxy unreachable"):
        fetch_attestation(url, "t")


def test_requests_share_one_kept_alive_connection(stub) -> None:
    stub.answers[("GET", "/assessments/a1")] = (200, b'{"state": "pending"}')
    with ProxyClient(stub.url, "t") as client:
        for _ in range(3):
            assert client.request("GET", "/assessments/a1").status_code == 200
    assert len(stub.ports) == 3
    assert len(set(stub.ports)) == 1


def test_an_answer_with_connection_close_is_followed_by_a_new_connection(
    stub,
) -> None:
    stub.answers[("PUT", "/objects")] = (413, b'{"error": "too big"}')
    stub.answers[("GET", "/assessments/a1")] = (200, b'{"state": "pending"}')
    stub.closing.add("/objects")
    with ProxyClient(stub.url, "t") as client:
        with pytest.raises(WorkflowError, match="413"):
            client.put_object("dataset", b"x")
        assert client.request("GET", "/assessments/a1").status_code == 200
    first, second = stub.ports
    assert first != second
    assert first in stub.closed


def test_a_connection_dropped_while_idle_is_replaced(stub, monkeypatch) -> None:
    monkeypatch.setattr(_Handler, "timeout", 0.1)
    stub.answers[("GET", "/assessments/a1")] = (200, b'{"state": "pending"}')
    with ProxyClient(stub.url, "t") as client:
        client.request("GET", "/assessments/a1")
        _wait_for(lambda: stub.ports[0] in stub.closed)
        assert client.request("GET", "/assessments/a1").status_code == 200
    first, second = stub.ports
    assert first != second


def test_run_once_succeeds_after_the_proxy_dropped_its_connection(
    tmp_path, monkeypatch
) -> None:
    class Proxy(ProxyServer):
        """Counts the connections it accepted and closed."""

        def process_request(self, request, client_address) -> None:
            self.opened.append(client_address)
            super().process_request(request, client_address)

        def shutdown_request(self, request) -> None:
            super().shutdown_request(request)
            self.closed.append(request)

    # The proxy drops a connection that sits idle this long.
    monkeypatch.setattr(proxy_module._Handler, "timeout", 0.2)
    server = Proxy(str(tmp_path / "store"))
    server.opened, server.closed = [], []
    server.start()
    try:
        with closing(EnclaveRunner(server.base_url, server.token_for("enclave"))) as enclave:
            enclave.register()
            data, _ = generate(
                GenSpec(sensor_count=2, packets_per_sensor=50, seed=5),
                parse_schema(DEFAULT_SCHEMA),
            )
            submitted = assessee_submit(
                data,
                json.dumps(DEFAULT_SCHEMA).encode(),
                server.base_url,
                server.token_for("assessee"),
                domain="d",
                expected_code_hash=enclave.code_hash,
                reply_keypair=KeyPair.generate(),
            )
            assessment_id = assessor_request(
                AssessmentConfig(domain="d").to_json(),
                submitted.dataset_id,
                submitted.schema_id,
                server.base_url,
                server.token_for("assessor"),
                domain="d",
            )
            # Every connection is closed, the enclave's own included.
            _wait_for(lambda: len(server.closed) == len(server.opened))
            assert enclave.run_once() == "done"
    finally:
        server.stop()


# -- the environment ---------------------------------------------------------


@pytest.fixture
def direct_connections(monkeypatch) -> list:
    """Clears the proxy variables. A connection to any host but 127.0.0.1
    is recorded and refused, and its name is never looked up."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    refused: list = []
    connect = socket.create_connection

    def local_only(address, *args, **kwargs):
        if address[0] != "127.0.0.1":
            refused.append(address)
            raise ConnectionRefusedError(f"no connection to {address[0]} in tests")
        return connect(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", local_only)
    return refused


def test_proxy_variables_are_read_once_per_client(
    stub, direct_connections, monkeypatch
) -> None:
    target = "http://store.example:8440"
    _attested(stub)
    stub.answers[("GET", f"{target}/attestation")] = stub.answers[("GET", "/attestation")]
    monkeypatch.setenv("http_proxy", stub.url.replace("//", "//user:pa%20ss@"))
    with ProxyClient(target, "t") as through_proxy:
        monkeypatch.setenv("no_proxy", "store.example")
        with ProxyClient(target, "t") as direct:
            with pytest.raises(WorkflowError, match="proxy unreachable"):
                direct.request("GET", "/attestation")
        # The forward proxy takes the request in absolute form.
        assert through_proxy.request("GET", "/attestation").status_code == 200
    assert stub.seen == [("GET", f"{target}/attestation")]
    [headers] = stub.headers
    assert headers["Host"] == "store.example:8440"
    assert headers["Authorization"] == "Bearer t"
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(
        b"user:pa ss"
    ).decode("ascii")
    assert direct_connections == [("store.example", 8440)]


def test_importing_the_workflow_leaves_requests_unloaded() -> None:
    script = (
        "import sys, iotdq.workflow, iotdq.cli; "
        "print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    )
    child = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(iotdq.__file__).parents[1])},
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


_ROUND_TRIP_WITHOUT_REQUESTS = """
import json, sys, tempfile
sys.modules["requests"] = None  # importing requests now raises ImportError
from iotdq.model import AssessmentConfig
from iotdq.schema import parse_schema
from iotdq.synthgen import DEFAULT_SCHEMA, GenSpec, generate
from iotdq.workflow import (
    EnclaveRunner, KeyPair, ProxyServer, assessee_fetch_report, assessee_submit,
    assessment_status, assessor_request,
)
data, _ = generate(GenSpec(sensor_count=2, packets_per_sensor=50, seed=5),
                   parse_schema(DEFAULT_SCHEMA))
with tempfile.TemporaryDirectory() as store:
    server = ProxyServer(store)
    server.start()
    url = server.base_url
    enclave = EnclaveRunner(url, server.token_for("enclave"))
    enclave.register()
    keypair = KeyPair.generate()
    submitted = assessee_submit(
        data, json.dumps(DEFAULT_SCHEMA).encode(), url, server.token_for("assessee"),
        domain="d", expected_code_hash=enclave.code_hash, reply_keypair=keypair,
    )
    assessment_id = assessor_request(
        AssessmentConfig(domain="d").to_json(), submitted.dataset_id,
        submitted.schema_id, url, server.token_for("assessor"), domain="d",
    )
    enclave.run_once()
    enclave.close()
    assessee_fetch_report(assessment_id, url, server.token_for("assessee"), keypair)
    print(assessment_status(assessment_id, url, server.token_for("assessor"))["state"])
    server.stop()
"""


def test_a_round_trip_runs_without_requests() -> None:
    child = subprocess.run(
        [sys.executable, "-c", _ROUND_TRIP_WITHOUT_REQUESTS],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(iotdq.__file__).parents[1])},
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "done"
