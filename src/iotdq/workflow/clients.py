"""Party clients for the proxy: assessee submit/fetch, assessor request."""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass
from typing import Any

import requests

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


class ProxyClient:
    """Thin HTTP wrapper holding one session with the proxy."""

    def __init__(self, base_url: str, token: str) -> None:
        self.base_url = base_url.rstrip("/")
        self._session = requests.Session()
        self._session.headers["Authorization"] = f"Bearer {token}"
        # The environment is read here, once: a session that trusts it
        # rescans os.environ on every request, and takes a ~/.netrc entry
        # for the proxy's host as Basic auth in place of the bearer token.
        self._session.trust_env = False
        self._session.proxies = requests.utils.get_environ_proxies(self.base_url)
        environ = os.environ
        self._session.verify = (
            environ.get("REQUESTS_CA_BUNDLE") or environ.get("CURL_CA_BUNDLE") or True
        )

    def request(
        self,
        method: str,
        path: str,
        body: "bytes | None" = None,
        headers: "dict[str, str] | None" = None,
    ) -> requests.Response:
        try:
            response = self._session.request(
                method,
                f"{self.base_url}{path}",
                data=body,
                headers=headers,
                timeout=_REQUEST_TIMEOUT,
            )
        except requests.RequestException as exc:
            raise WorkflowError(f"proxy unreachable: {exc}") from exc
        return response

    def expect(
        self,
        method: str,
        path: str,
        expected: tuple[int, ...],
        body: "bytes | None" = None,
        headers: "dict[str, str] | None" = None,
    ) -> requests.Response:
        response = self.request(method, path, body=body, headers=headers)
        if response.status_code not in expected:
            raise WorkflowError(
                f"{method} {path} answered {response.status_code}: "
                f"{response.text[:200]}"
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


def answer_fields(response: requests.Response, *keys: str) -> dict[str, Any]:
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
    client = ProxyClient(proxy_addr, token)
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
    stub = fetch_attestation(proxy_addr, token)
    if stub.code_hash != expected_code_hash:
        raise AttestationError(
            "enclave code hash "
            f"{stub.code_hash[:16]}... does not match the pinned expectation"
        )
    data_bytes = _read_binary(data)
    schema_bytes = _read_binary(schema)
    client = ProxyClient(proxy_addr, token)
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
    stub = fetch_attestation(proxy_addr, token)
    client = ProxyClient(proxy_addr, token)
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
    client = ProxyClient(proxy_addr, token)
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
    status = assessment_status(assessment_id, proxy_addr, token)
    state = status.get("state")
    if state in ("pending", "running"):
        raise ReportNotReady(f"assessment is {state}")
    if state != "done" or not status.get("report_id"):
        raise WorkflowError(f"assessment ended in state {state!r}")
    client = ProxyClient(proxy_addr, token)
    envelope, _meta = client.get_object(status["report_id"])
    return deserialize_report(unseal(envelope, keypair))


def _read_binary(source: "bytes | str") -> bytes:
    if isinstance(source, bytes):
        return source
    with open(source, "rb") as fh:
        return fh.read()
