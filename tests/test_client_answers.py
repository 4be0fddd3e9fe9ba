"""Party clients and the enclave read proxy answers through the JSON loader.

A stub HTTP server stands in for the proxy and answers each request with
canned bytes. An answer that is not a JSON object holding the string the
caller needs must raise WorkflowError, never KeyError or TypeError, and
the enclave must keep claiming after a malformed claim.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

from iotdq.cli import main
from iotdq.errors import WorkflowError
from iotdq.workflow import enclave as enclave_module
from iotdq.workflow.attestation import AttestationStub
from iotdq.workflow.clients import ProxyClient, assessment_status, assessor_request
from iotdq.workflow.enclave import EnclaveRunner
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
    def _answer(self) -> None:
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self.server.seen.append((self.command, self.path))
        status, body = self.server.answers.get((self.command, self.path), (404, b""))
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_PUT = do_POST = _answer

    def log_message(self, *args) -> None:
        pass


@pytest.fixture
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.answers = {}
    server.seen = []
    server.url = "http://127.0.0.1:%d" % server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=5)
    server.server_close()


def _attested(stub) -> None:
    stub_doc = AttestationStub(
        code_hash="0" * 64, enclave_public_key=KeyPair.generate().public_bytes
    )
    stub.answers[("GET", "/attestation")] = (200, stub_doc.to_json())


@pytest.mark.parametrize("answer", sorted(MALFORMED))
def test_put_object_refuses_a_malformed_answer(stub, answer: str) -> None:
    stub.answers[("PUT", "/objects")] = (201, MALFORMED[answer])
    client = ProxyClient(stub.url, "t")
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
    with pytest.raises(WorkflowError, match="proxy answer"):
        EnclaveRunner(stub.url, "t").run_once()


def test_run_once_fails_a_claim_missing_its_objects(stub) -> None:
    # Only the id is needed to report the failure back.
    stub.answers[("POST", "/assessments/claim")] = (200, b'{"assessment_id": "a1"}')
    stub.answers[("POST", "/assessments/a1/complete")] = (200, b"{}")
    assert EnclaveRunner(stub.url, "t").run_once() == "failed"
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
    with pytest.raises(_Stop):
        EnclaveRunner(stub.url, "t").serve_forever()
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
