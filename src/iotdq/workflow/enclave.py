"""Enclave runner: claims queued assessments and computes reports in memory.

Simulation of a trusted execution environment: plaintext exists only in
this process's memory, failures are reported with opaque status (no
plaintext detail can leak through the queue), and the produced report is
sealed to the assessee's reply key before leaving the process.
"""

from __future__ import annotations

import base64
import json
import logging
import time

from .attestation import AttestationStub, compute_code_hash
from .clients import ProxyClient, answer_fields
from .sealing import KeyPair, seal, unseal
from ..errors import WorkflowError
from ..model import AssessmentConfig
from ..pipeline import assess
from ..report import serialize_report
from ..schema import parse_schema

__all__ = ["EnclaveRunner"]

logger = logging.getLogger(__name__)

_POLL_SECONDS = 0.2  # wait after a claim finds the queue empty


class EnclaveRunner:
    """One simulated enclave bound to a proxy."""

    def __init__(self, proxy_addr: str, token: str) -> None:
        self.keypair = KeyPair.generate()
        self.code_hash = compute_code_hash()
        self.client = ProxyClient(proxy_addr, token)

    def close(self) -> None:
        """Close the connection to the proxy."""
        self.client.close()

    def register(self) -> None:
        """Publish the attestation stub (code hash plus sealing key)."""
        stub = AttestationStub(
            code_hash=self.code_hash, enclave_public_key=self.keypair.public_bytes
        )
        self.client.expect("POST", "/attestation", (200,), stub.to_json())

    def run_once(self) -> "str | None":
        """Claim and process one assessment; returns its final state."""
        response = self.client.expect("POST", "/assessments/claim", (200, 204))
        if response.status_code == 204:
            return None
        record = answer_fields(response, "assessment_id")
        assessment_id = record["assessment_id"]
        try:
            report_id = self._process(record)
        except Exception as exc:
            # Opaque failure: a message or traceback may quote the plaintext.
            logger.debug("assessment %s failed: %s", assessment_id, type(exc).__name__)
            self._complete(assessment_id, "failed", None)
            return "failed"
        self._complete(assessment_id, "done", report_id)
        return "done"

    def serve_forever(self) -> None:
        while True:
            try:
                state = self.run_once()
            except WorkflowError as exc:
                # The proxy is down or answered nonsense: claim again later.
                logger.warning("no assessment processed: %s", exc)
                state = None
            if state is None:
                time.sleep(_POLL_SECONDS)

    def _complete(
        self, assessment_id: str, state: str, report_id: "str | None"
    ) -> None:
        body = json.dumps({"state": state, "report_id": report_id}).encode("utf-8")
        self.client.expect(
            "POST", f"/assessments/{assessment_id}/complete", (200,), body
        )

    def _process(self, record: dict) -> str:
        dataset_env, dataset_meta = self.client.get_object(record["dataset_id"])
        schema_env, _ = self.client.get_object(record["schema_id"])
        config_env, _ = self.client.get_object(record["config_id"])
        reply_key_b64 = dataset_meta.get("reply_public_key", "")
        if not reply_key_b64:
            raise WorkflowError("dataset carries no reply key")
        reply_public = base64.b64decode(reply_key_b64)

        data = unseal(dataset_env, self.keypair)
        del dataset_env  # not held beside the plaintext while it is assessed
        schema = parse_schema(unseal(schema_env, self.keypair))
        config = AssessmentConfig.from_json(unseal(config_env, self.keypair))
        try:
            report_bytes = serialize_report(assess(data, schema, config))
        finally:
            # Simulated wipe: drop the only plaintext reference.
            del data
        envelope = seal(report_bytes, reply_public, sender_key_id=self.keypair.key_id)
        return self.client.put_object("report", envelope, domain=record["domain"])
