"""Three-party workflow: sealing, attestation, proxy scopes, end-to-end runs."""

from __future__ import annotations

import base64
import json
import logging
import secrets
import stat
from pathlib import Path
from urllib.parse import urlsplit

import pytest
import requests

from iotdq.errors import (
    AttestationError,
    ReportNotReady,
    SealingError,
    WorkflowError,
)
from iotdq.model import AssessmentConfig
from iotdq.pipeline import assess
from iotdq.report import serialize_report
from iotdq.schema import parse_schema
from iotdq.synthgen import DEFAULT_SCHEMA, GenSpec, generate
from iotdq.workflow.attestation import AttestationStub, compute_code_hash
from iotdq.workflow.clients import (
    ProxyClient,
    assessee_fetch_report,
    assessee_submit,
    assessment_status,
    assessor_request,
    fetch_attestation,
)
from iotdq.workflow.enclave import EnclaveRunner
from iotdq.workflow.proxy import (
    CONTENT_KINDS,
    GET_SCOPES,
    PUT_SCOPES,
    ROLES,
    AccessToken,
    ProxyServer,
)
from iotdq.workflow.sealing import (
    ANONYMOUS_SENDER,
    KeyPair,
    envelope_key_ids,
    seal,
    unseal,
)

SCHEMA = parse_schema(DEFAULT_SCHEMA)
SCHEMA_BYTES = json.dumps(DEFAULT_SCHEMA).encode()


@pytest.fixture
def proxy(tmp_path: Path):
    server = ProxyServer(str(tmp_path / "store"))
    server.start()
    yield server
    server.stop()


@pytest.fixture
def enclave(proxy: ProxyServer):
    """An enclave registered with the proxy."""
    runner = EnclaveRunner(proxy.base_url, proxy.token_for("enclave"))
    runner.register()
    yield runner
    runner.close()


def _http(proxy: ProxyServer, role: str, method: str, path: str, **kwargs):
    headers = kwargs.pop("headers", {})
    headers["Authorization"] = f"Bearer {proxy.token_for(role)}"
    return requests.request(
        method, f"{proxy.base_url}{path}", headers=headers, timeout=10, **kwargs
    )


class TestSealing:
    def test_round_trip(self) -> None:
        recipient = KeyPair.generate()
        envelope = seal(b"secret payload", recipient.public_bytes)
        assert unseal(envelope, recipient) == b"secret payload"

    def test_empty_and_large_payloads(self) -> None:
        recipient = KeyPair.generate()
        for payload in (b"", b"x" * 1_000_000):
            assert unseal(seal(payload, recipient.public_bytes), recipient) == payload

    def test_envelopes_are_nondeterministic(self) -> None:
        recipient = KeyPair.generate()
        a = seal(b"same", recipient.public_bytes)
        b = seal(b"same", recipient.public_bytes)
        assert a != b

    def test_wrong_key_refused_before_decryption(self) -> None:
        recipient = KeyPair.generate()
        other = KeyPair.generate()
        envelope = seal(b"secret", recipient.public_bytes)
        with pytest.raises(SealingError, match="different key"):
            unseal(envelope, other)

    @pytest.mark.parametrize(
        "offset",
        [0, 5, 14, 25, 50, 76, -1],
        ids=["magic", "recipient", "sender", "salt", "ephemeral", "body", "tag"],
    )
    def test_any_flipped_byte_is_rejected(self, offset: int) -> None:
        recipient = KeyPair.generate()
        envelope = bytearray(seal(b"secret", recipient.public_bytes))
        envelope[offset] ^= 0x01
        with pytest.raises(SealingError):
            unseal(bytes(envelope), recipient)

    def test_low_order_ephemeral_key_rejected(self) -> None:
        recipient = KeyPair.generate()
        envelope = bytearray(seal(b"secret", recipient.public_bytes))
        envelope[44:76] = bytes(32)  # the ephemeral key field: a low-order point
        with pytest.raises(SealingError, match="ephemeral"):
            unseal(bytes(envelope), recipient)

    def test_truncated_envelope_rejected(self) -> None:
        recipient = KeyPair.generate()
        envelope = seal(b"secret", recipient.public_bytes)
        with pytest.raises(SealingError, match="short"):
            unseal(envelope[:40], recipient)

    def test_key_ids_in_header(self) -> None:
        recipient = KeyPair.generate()
        sender = KeyPair.generate()
        anonymous = seal(b"x", recipient.public_bytes)
        named = seal(b"x", recipient.public_bytes, sender_key_id=sender.key_id)
        assert envelope_key_ids(anonymous) == (
            recipient.key_id.hex(),
            ANONYMOUS_SENDER.hex(),
        )
        assert envelope_key_ids(named)[1] == sender.key_id.hex()

    def test_key_ids_reject_garbage(self) -> None:
        with pytest.raises(SealingError):
            envelope_key_ids(b"not an envelope")

    def test_bad_recipient_key_length_rejected(self) -> None:
        with pytest.raises(SealingError, match="32"):
            seal(b"x", b"short")

    def test_keyfile_save_load_round_trip(self, tmp_path: Path) -> None:
        keypair = KeyPair.generate()
        path = tmp_path / "private.key"
        keypair.save(str(path))
        assert path.stat().st_mode & 0o777 == 0o600
        loaded = KeyPair.load(str(path))
        assert loaded.public_bytes == keypair.public_bytes
        envelope = seal(b"x", keypair.public_bytes)
        assert unseal(envelope, loaded) == b"x"

    def test_keyfile_save_narrows_an_existing_file(self, tmp_path: Path) -> None:
        path = tmp_path / "private.key"
        path.write_bytes(b"old")
        path.chmod(0o644)
        KeyPair.generate().save(str(path))
        assert path.stat().st_mode & 0o777 == 0o600


class TestAttestation:
    def test_code_hash_is_stable_sha256_hex(self) -> None:
        a = compute_code_hash()
        assert a == compute_code_hash()
        assert len(a) == 64
        int(a, 16)

    def test_stub_json_round_trip(self) -> None:
        stub = AttestationStub(code_hash="ab" * 32, enclave_public_key=b"\x01" * 32)
        assert AttestationStub.from_json(stub.to_json()) == stub

    def test_malformed_stub_rejected(self) -> None:
        with pytest.raises(AttestationError):
            AttestationStub.from_json(b'{"code_hash": "x"}')
        with pytest.raises(AttestationError):
            AttestationStub.from_json(b"{nope")

    @pytest.mark.parametrize(
        "document",
        [
            pytest.param(
                b'{"code_hash":1,"enclave_public_key":"@@"}', id="int_hash_bad_base64"
            ),
            pytest.param(
                json.dumps(
                    {
                        "code_hash": "ab" * 32,
                        "enclave_public_key": base64.b64encode(b"\x01" * 31).decode(),
                    }
                ).encode(),
                id="31_byte_key",
            ),
            pytest.param(
                json.dumps(
                    {
                        "code_hash": "AB" * 32,
                        "enclave_public_key": base64.b64encode(b"\x01" * 32).decode(),
                    }
                ).encode(),
                id="uppercase_hash",
            ),
        ],
    )
    def test_mistyped_stub_rejected(self, document: bytes) -> None:
        with pytest.raises(AttestationError):
            AttestationStub.from_json(document)

    def test_token_expiry_property(self) -> None:
        assert AccessToken("t", "assessee", expiry=0.0).expired
        assert not AccessToken("t", "assessee", expiry=2**62).expired


class TestProxyScopes:
    def test_put_scope_matrix(self, proxy: ProxyServer) -> None:
        recipient = KeyPair.generate()
        for kind in CONTENT_KINDS:
            for role in ROLES:
                response = _http(
                    proxy,
                    role,
                    "PUT",
                    "/objects",
                    data=seal(b"payload", recipient.public_bytes),
                    headers={"X-Content-Kind": kind},
                )
                expected = 201 if role in PUT_SCOPES[kind] else 403
                assert response.status_code == expected, (kind, role)

    def test_get_scope_matrix(self, proxy: ProxyServer) -> None:
        recipient = KeyPair.generate()
        object_ids: dict[str, str] = {}
        for kind in CONTENT_KINDS:
            uploader = next(iter(PUT_SCOPES[kind]))
            response = _http(
                proxy,
                uploader,
                "PUT",
                "/objects",
                data=seal(b"payload", recipient.public_bytes),
                headers={"X-Content-Kind": kind},
            )
            object_ids[kind] = response.json()["object_id"]
        for kind, object_id in object_ids.items():
            for role in ROLES:
                response = _http(proxy, role, "GET", f"/objects/{object_id}")
                expected = 200 if role in GET_SCOPES[kind] else 403
                assert response.status_code == expected, (kind, role)

    def test_assessment_route_scopes(self, proxy: ProxyServer) -> None:
        for role, expected in (("assessor", 404), ("assessee", 403), ("enclave", 403)):
            response = _http(
                proxy,
                role,
                "POST",
                "/assessments",
                data=json.dumps(
                    {"dataset_id": "x", "schema_id": "y", "config_id": "z"}
                ).encode(),
            )
            assert response.status_code == expected, role
        for role, expected in (("enclave", 204), ("assessor", 403), ("assessee", 403)):
            response = _http(proxy, role, "POST", "/assessments/claim")
            assert response.status_code == expected, role
        for role, expected in (("enclave", 404), ("assessor", 403), ("assessee", 403)):
            response = _http(
                proxy,
                role,
                "POST",
                "/assessments/ghost/complete",
                data=b'{"state": "done", "report_id": "r"}',
            )
            assert response.status_code == expected, role
        for role, expected in (("enclave", 200), ("assessor", 403), ("assessee", 403)):
            stub = AttestationStub("ab" * 32, b"\x02" * 32).to_json()
            response = _http(proxy, role, "POST", "/attestation", data=stub)
            assert response.status_code == expected, role
        for role, expected in (("assessor", 404), ("assessee", 404), ("enclave", 403)):
            response = _http(proxy, role, "GET", "/assessments/ghost")
            assert response.status_code == expected, role

    def test_bad_token_is_401_everywhere(self, proxy: ProxyServer) -> None:
        for method, path in (
            ("GET", "/attestation"),
            ("PUT", "/objects"),
            ("GET", "/objects/x"),
            ("POST", "/assessments"),
        ):
            response = requests.request(
                method,
                f"{proxy.base_url}{path}",
                headers={"Authorization": "Bearer forged"},
                timeout=10,
            )
            assert response.status_code == 401, (method, path)
        response = requests.get(f"{proxy.base_url}/attestation", timeout=10)
        assert response.status_code == 401

    def test_unknown_routes_and_objects_404(self, proxy: ProxyServer) -> None:
        assert _http(proxy, "enclave", "GET", "/objects/missing").status_code == 404
        assert _http(proxy, "assessee", "GET", "/nope").status_code == 404
        assert _http(proxy, "assessee", "PUT", "/objects/sub").status_code == 404
        assert _http(proxy, "assessee", "GET", "/attestation").status_code == 404

    def test_non_envelope_body_rejected(self, proxy: ProxyServer) -> None:
        response = _http(
            proxy,
            "assessee",
            "PUT",
            "/objects",
            data=b"garbage",
            headers={"X-Content-Kind": "dataset"},
        )
        assert response.status_code == 400

    def test_unknown_content_kind_rejected(self, proxy: ProxyServer) -> None:
        recipient = KeyPair.generate()
        response = _http(
            proxy,
            "assessee",
            "PUT",
            "/objects",
            data=seal(b"x", recipient.public_bytes),
            headers={"X-Content-Kind": "diary"},
        )
        assert response.status_code == 400

    def test_size_cap_answers_413(self, tmp_path: Path) -> None:
        server = ProxyServer(str(tmp_path / "capped"), max_object_bytes=1024)
        server.start()
        try:
            recipient = KeyPair.generate()
            response = requests.put(
                f"{server.base_url}/objects",
                data=seal(b"z" * 4096, recipient.public_bytes),
                headers={
                    "Authorization": f"Bearer {server.token_for('assessee')}",
                    "X-Content-Kind": "dataset",
                },
                timeout=10,
            )
            assert response.status_code == 413
        finally:
            server.stop()

    @pytest.mark.parametrize("size", [2_000, 10_000_000], ids=["2KB", "10MB"])
    def test_over_cap_upload_raises_413(self, tmp_path: Path, size: int) -> None:
        # The proxy answers before it reads the body, and closes the
        # connection: sending the rest of a large body then fails, but the
        # answer has arrived and is read.
        server = ProxyServer(str(tmp_path / "capped"), max_object_bytes=1000)
        server.start()
        try:
            envelope = seal(b"z" * size, KeyPair.generate().public_bytes)
            with ProxyClient(server.base_url, server.token_for("assessee")) as client:
                with pytest.raises(WorkflowError, match="413"):
                    client.put_object("dataset", envelope)
        finally:
            server.stop()

    def test_tokens_never_look_like_options(self, tmp_path, monkeypatch) -> None:
        # Random bytes whose URL-safe base64 starts with "-".
        monkeypatch.setattr(secrets, "token_bytes", lambda n=32: b"\xf8" * n)
        server = ProxyServer(str(tmp_path / "store"))
        try:
            assert not any(server.token_for(r).startswith("-") for r in ROLES)
        finally:
            server.server_close()

    def test_credentials_file_written(self, proxy: ProxyServer) -> None:
        path = proxy.store.root / "credentials.json"
        credentials = json.loads(path.read_bytes())
        assert set(credentials) == {*ROLES, "expires_at"}
        assert credentials["assessee"] == proxy.token_for("assessee")
        token = proxy.lookup_token(credentials["assessee"])
        assert credentials["expires_at"] == token.expiry
        assert stat.S_IMODE(path.stat().st_mode) == 0o600


def _run_workflow(proxy: ProxyServer, data: bytes, config: AssessmentConfig):
    """Submit and request one assessment; returns the pieces for assertions."""
    assessee_key = KeyPair.generate()
    submitted = assessee_submit(
        data,
        SCHEMA_BYTES,
        proxy.base_url,
        proxy.token_for("assessee"),
        domain=config.domain,
        expected_code_hash=compute_code_hash(),
        reply_keypair=assessee_key,
    )
    assessment_id = assessor_request(
        config.to_json(),
        submitted.dataset_id,
        submitted.schema_id,
        proxy.base_url,
        proxy.token_for("assessor"),
        domain=config.domain,
    )
    return assessee_key, submitted, assessment_id


class TestEndToEnd:
    def _defect_data(self, seed: int = 21) -> tuple[bytes, tuple[str, ...]]:
        spec = GenSpec(
            sensor_count=2,
            packets_per_sensor=60,
            jitter_fraction=0.05,
            duplicate_rate=0.1,
            missing_mandatory_rate=0.05,
            seed=seed,
        )
        data, truth = generate(spec, SCHEMA)
        return data, truth.sentinel_values

    def test_report_matches_local_assessment_byte_for_byte(
        self, proxy: ProxyServer, enclave: EnclaveRunner
    ) -> None:
        data, _ = self._defect_data()
        config = AssessmentConfig(quantization_seconds=60.0, domain="air-quality")
        assessee_key, _, assessment_id = _run_workflow(proxy, data, config)

        with pytest.raises(ReportNotReady, match="pending"):
            assessee_fetch_report(
                assessment_id, proxy.base_url, proxy.token_for("assessee"), assessee_key
            )
        assert enclave.run_once() == "done"
        fetched = assessee_fetch_report(
            assessment_id, proxy.base_url, proxy.token_for("assessee"), assessee_key
        )
        local = assess(data, SCHEMA, config)
        assert serialize_report(fetched) == serialize_report(local)
        status = assessment_status(
            assessment_id, proxy.base_url, proxy.token_for("assessor")
        )
        assert status["state"] == "done"

    def test_report_envelope_names_enclave_as_sender(
        self, proxy: ProxyServer, enclave: EnclaveRunner
    ) -> None:
        data, _ = self._defect_data()
        config = AssessmentConfig(quantization_seconds=60.0, domain="air-quality")
        assessee_key, _, assessment_id = _run_workflow(proxy, data, config)
        assert enclave.run_once() == "done"
        status = assessment_status(
            assessment_id, proxy.base_url, proxy.token_for("assessee")
        )
        stored = (
            proxy.store.objects_dir / f"{status['report_id']}.bin"
        ).read_bytes()
        recipient_hex, sender_hex = envelope_key_ids(stored)
        assert recipient_hex == assessee_key.key_id.hex()
        assert sender_hex == enclave.keypair.key_id.hex()

    def test_no_plaintext_reaches_store_or_assessor(
        self, proxy: ProxyServer, enclave: EnclaveRunner
    ) -> None:
        data, sentinels = self._defect_data()
        assert sentinels, "defect data must carry sentinel strings"
        config = AssessmentConfig(quantization_seconds=60.0, domain="air-quality")
        assessee_key, submitted, assessment_id = _run_workflow(proxy, data, config)
        assert enclave.run_once() == "done"
        assessee_fetch_report(
            assessment_id, proxy.base_url, proxy.token_for("assessee"), assessee_key
        )

        store_files = [p for p in proxy.store.root.rglob("*") if p.is_file()]
        assert store_files
        for path in store_files:
            content = path.read_bytes()
            for sentinel in sentinels:
                assert sentinel.encode() not in content, path

        with ProxyClient(proxy.base_url, proxy.token_for("assessor")) as assessor:
            responses = [
                assessor.request("GET", "/attestation"),
                assessor.request("GET", f"/assessments/{assessment_id}"),
                assessor.request("GET", f"/objects/{submitted.dataset_id}"),
            ]
        assert responses[-1].status_code == 403
        for response in responses:
            for sentinel in sentinels:
                assert sentinel.encode() not in response.content

    def test_two_queued_assessments_processed_in_order(
        self, proxy: ProxyServer, enclave: EnclaveRunner
    ) -> None:
        data, _ = self._defect_data()
        config = AssessmentConfig(quantization_seconds=60.0, domain="air-quality")
        assessee_key, submitted, first_id = _run_workflow(proxy, data, config)
        second_id = assessor_request(
            config.to_json(),
            submitted.dataset_id,
            submitted.schema_id,
            proxy.base_url,
            proxy.token_for("assessor"),
            domain=config.domain,
        )
        assert enclave.run_once() == "done"
        assert enclave.run_once() == "done"
        assert enclave.run_once() is None
        reports = [
            serialize_report(
                assessee_fetch_report(
                    aid, proxy.base_url, proxy.token_for("assessee"), assessee_key
                )
            )
            for aid in (first_id, second_id)
        ]
        assert reports[0] == reports[1]

    def test_tampered_ciphertext_fails_opaquely(
        self, proxy: ProxyServer, enclave: EnclaveRunner
    ) -> None:
        data, _ = self._defect_data()
        config = AssessmentConfig(quantization_seconds=60.0, domain="air-quality")
        assessee_key, submitted, assessment_id = _run_workflow(proxy, data, config)
        stored = proxy.store.objects_dir / f"{submitted.dataset_id}.bin"
        blob = bytearray(stored.read_bytes())
        blob[100] ^= 0x01
        stored.write_bytes(bytes(blob))

        assert enclave.run_once() == "failed"
        status = assessment_status(
            assessment_id, proxy.base_url, proxy.token_for("assessor")
        )
        assert status["state"] == "failed"
        assert status["report_id"] is None
        with pytest.raises(WorkflowError, match="failed"):
            assessee_fetch_report(
                assessment_id, proxy.base_url, proxy.token_for("assessee"), assessee_key
            )

    def test_failure_log_quotes_no_sealed_input(
        self, proxy: ProxyServer, enclave: EnclaveRunner, caplog
    ) -> None:
        pattern = {"type": "string", "pattern": "SECRET_PATTERN("}
        schema = {"properties": {"status": pattern}}
        data, _ = self._defect_data()
        submitted = assessee_submit(
            data,
            json.dumps(schema).encode(),
            proxy.base_url,
            proxy.token_for("assessee"),
            domain="d",
            expected_code_hash=compute_code_hash(),
            reply_keypair=KeyPair.generate(),
        )
        assessment_id = assessor_request(
            AssessmentConfig(domain="d").to_json(),
            submitted.dataset_id,
            submitted.schema_id,
            proxy.base_url,
            proxy.token_for("assessor"),
            domain="d",
        )
        with caplog.at_level(logging.DEBUG, logger="iotdq"):
            assert enclave.run_once() == "failed"
        status = assessment_status(
            assessment_id, proxy.base_url, proxy.token_for("assessor")
        )
        assert status["state"] == "failed"
        messages = [r.getMessage() for r in caplog.records]
        assert f"assessment {assessment_id} failed: SchemaError" in messages
        for record in caplog.records:
            assert "SECRET_PATTERN" not in record.getMessage()
            assert "SECRET_PATTERN" not in (record.exc_text or "")

    def test_dataset_without_reply_key_fails(
        self, proxy: ProxyServer, enclave: EnclaveRunner
    ) -> None:
        stub = fetch_attestation(proxy.base_url, proxy.token_for("assessee"))
        with ProxyClient(proxy.base_url, proxy.token_for("assessee")) as assessee:
            dataset_id = assessee.put_object(
                "dataset", seal(b"{}", stub.enclave_public_key), domain="d"
            )
            schema_id = assessee.put_object(
                "schema", seal(SCHEMA_BYTES, stub.enclave_public_key), domain="d"
            )
        assessment_id = assessor_request(
            AssessmentConfig(domain="d").to_json(),
            dataset_id,
            schema_id,
            proxy.base_url,
            proxy.token_for("assessor"),
            domain="d",
        )
        assert enclave.run_once() == "failed"
        status = assessment_status(
            assessment_id, proxy.base_url, proxy.token_for("assessor")
        )
        assert status["state"] == "failed"

    def test_code_hash_mismatch_blocks_upload(
        self, proxy: ProxyServer, enclave: EnclaveRunner
    ) -> None:
        with pytest.raises(AttestationError, match="does not match"):
            assessee_submit(
                b"{}",
                SCHEMA_BYTES,
                proxy.base_url,
                proxy.token_for("assessee"),
                domain="d",
                expected_code_hash="0" * 64,
                reply_keypair=KeyPair.generate(),
            )
        assert list(proxy.store.objects_dir.glob("*.bin")) == []

    def test_domain_mismatch_answers_409(
        self, proxy: ProxyServer, enclave: EnclaveRunner
    ) -> None:
        data, _ = self._defect_data()
        submitted = assessee_submit(
            data,
            SCHEMA_BYTES,
            proxy.base_url,
            proxy.token_for("assessee"),
            domain="air-quality",
            expected_code_hash=compute_code_hash(),
            reply_keypair=KeyPair.generate(),
        )
        with pytest.raises(WorkflowError, match="409"):
            assessor_request(
                AssessmentConfig(domain="water").to_json(),
                submitted.dataset_id,
                submitted.schema_id,
                proxy.base_url,
                proxy.token_for("assessor"),
                domain="water",
            )

    def test_unknown_object_ids_answer_404(
        self, proxy: ProxyServer, enclave: EnclaveRunner
    ) -> None:
        with pytest.raises(WorkflowError, match="404"):
            assessor_request(
                AssessmentConfig().to_json(),
                "missing-dataset",
                "missing-schema",
                proxy.base_url,
                proxy.token_for("assessor"),
                domain="",
            )

    def test_netrc_entry_does_not_replace_the_bearer_token(
        self, proxy: ProxyServer, enclave: EnclaveRunner, tmp_path: Path, monkeypatch
    ) -> None:
        host = urlsplit(proxy.base_url).hostname
        netrc = tmp_path / "netrc"
        netrc.write_text(f"machine {host} login someone password secret\n")
        netrc.chmod(0o600)
        monkeypatch.setenv("NETRC", str(netrc))
        stub = fetch_attestation(proxy.base_url, proxy.token_for("assessee"))
        assert stub.code_hash == compute_code_hash()

    def test_missing_attestation_answers_404(self, proxy: ProxyServer) -> None:
        with pytest.raises(WorkflowError, match="404"):
            fetch_attestation(proxy.base_url, proxy.token_for("assessee"))
