"""The proxy's journal: every fact one appended line, replayed at start.

A restarted proxy keeps its objects, its attestation and each assessment
in its last state, whatever killed the one before, and its unexpired
tokens. Each state change appends one line whose size does not grow with
the store's history.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import iotdq
from iotdq.model import AssessmentConfig
from iotdq.pipeline import assess
from iotdq.report import serialize_report
from iotdq.schema import parse_schema
from iotdq.synthgen import DEFAULT_SCHEMA, GenSpec, generate
from iotdq.workflow import proxy as proxy_module
from iotdq.workflow.attestation import AttestationStub
from iotdq.workflow.clients import (
    ProxyClient,
    answer_fields,
    assessee_fetch_report,
    assessee_submit,
    assessment_status,
    assessor_request,
)
from iotdq.workflow.enclave import EnclaveRunner
from iotdq.workflow.proxy import ROLES, ProxyServer, _Store
from iotdq.workflow.sealing import KeyPair, seal

SCHEMA_BYTES = json.dumps(DEFAULT_SCHEMA).encode()

_PROXY = "import sys; from iotdq.cli import main; sys.exit(main())"


def _start_proxy(store: Path) -> tuple[subprocess.Popen, str]:
    """An `iotdq proxy` process on store; returns it and its base URL."""
    child = subprocess.Popen(
        [
            sys.executable, "-u", "-c", _PROXY,
            "proxy", "--store", str(store), "--bind", "127.0.0.1:0",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(iotdq.__file__).parents[1])},
    )
    line = child.stdout.readline()
    assert line.startswith("proxy listening on "), line
    return child, line.split()[-1]


def _kill(child: subprocess.Popen) -> None:
    child.send_signal(signal.SIGKILL)
    child.wait(timeout=10)
    child.stdout.close()


def _tokens(store: Path) -> dict[str, str]:
    saved = json.loads((store / "credentials.json").read_bytes())
    return {role: saved[role] for role in ROLES}


def _files(root: Path) -> dict[str, bytes]:
    """Every file under root, by its relative path."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file()
    }


def test_a_killed_proxy_restarts_with_its_queue(tmp_path: Path) -> None:
    store = tmp_path / "store"
    data, _ = generate(
        GenSpec(sensor_count=2, packets_per_sensor=50, seed=5),
        parse_schema(DEFAULT_SCHEMA),
    )
    config = AssessmentConfig(domain="d")
    keypair = KeyPair.generate()
    child, url = _start_proxy(store)
    try:
        tokens = _tokens(store)
        enclave = EnclaveRunner(url, tokens["enclave"])
        try:
            enclave.register()
            submitted = assessee_submit(
                data, SCHEMA_BYTES, url, tokens["assessee"], domain="d",
                expected_code_hash=enclave.code_hash, reply_keypair=keypair,
            )
            done, pending = [
                assessor_request(
                    config.to_json(), submitted.dataset_id, submitted.schema_id,
                    url, tokens["assessor"], domain="d",
                )
                for _ in range(2)
            ]
            assert enclave.run_once() == "done"
        finally:
            enclave.close()
    finally:
        _kill(child)

    child, url = _start_proxy(store)
    try:
        renewed = _tokens(store)
        assert renewed == tokens  # unexpired tokens outlive the proxy
        report = assessee_fetch_report(done, url, renewed["assessee"], keypair)
        assert serialize_report(report) == serialize_report(
            assess(data, parse_schema(DEFAULT_SCHEMA), config)
        )
        status = assessment_status(pending, url, renewed["assessor"])
        assert status["state"] == "pending"
        with ProxyClient(url, renewed["enclave"]) as client:
            answer = client.expect("GET", "/attestation", (200,))
            stub = AttestationStub.from_json(answer.content)
            assert stub.enclave_public_key == enclave.keypair.public_bytes
            claimed = client.expect("POST", "/assessments/claim", (200,))
            assert answer_fields(claimed, "assessment_id")["assessment_id"] == pending
            client.expect("POST", "/assessments/claim", (204,))
    finally:
        _kill(child)
    names = set(_files(store))
    assert {n for n in names if not n.startswith("objects/")} == {
        "credentials.json", "journal.jsonl",
    }
    assert all(n.endswith(".bin") for n in names if n.startswith("objects/"))


def _filled(root: Path) -> tuple[_Store, list[str]]:
    """A store holding three objects and one pending assessment."""
    store = _Store(str(root))
    recipient = KeyPair.generate().public_bytes
    ids = [store.put_object(kind, seal(b"x", recipient), "d", "k") for kind in "abc"]
    store.create_assessment(*ids, "d")
    return store, ids


def test_replay_restores_every_table(tmp_path: Path) -> None:
    store, ids = _filled(tmp_path)
    stub = '{"code_hash": "é"}'.encode("utf-16")  # not UTF-8, kept exactly
    store.set_attestation(stub)
    claimed = store.claim_assessment()
    second = store.create_assessment(*ids, "d")
    store.journal.close()

    again = _Store(str(tmp_path))
    try:
        assert again.get_attestation() == stub
        assert again.object_meta(ids[0]) == {
            "content_kind": "a", "domain": "d", "reply_public_key": "k",
        }
        assert again.get_assessment(claimed["assessment_id"])["state"] == "running"
        assert again.claim_assessment()["assessment_id"] == second["assessment_id"]
        assert again.claim_assessment() is None
    finally:
        again.journal.close()


def test_a_torn_last_line_is_skipped(tmp_path: Path, caplog) -> None:
    store, _ = _filled(tmp_path)
    store.journal.write(b'{"assessment": {"assessment_id": "SECRET')  # no newline
    store.journal.close()

    with caplog.at_level(logging.WARNING, logger="iotdq.workflow.proxy"):
        again = _Store(str(tmp_path))
    assert [r.getMessage() for r in caplog.records] == [
        "journal line 5 is unreadable; skipped"
    ]
    try:
        # The fact appended next is not joined to the torn line.
        claimed = again.claim_assessment()
    finally:
        again.journal.close()
    third = _Store(str(tmp_path))
    try:
        assert third.get_assessment(claimed["assessment_id"])["state"] == "running"
    finally:
        third.journal.close()


def test_a_journaled_object_whose_file_is_gone_is_not_found(tmp_path: Path) -> None:
    store, ids = _filled(tmp_path)
    try:
        (store.objects_dir / f"{ids[0]}.bin").unlink()
        assert store.get_object(ids[0]) is None
        assert store.get_object(ids[1]) is not None
        assert store.get_object(["unhashable"]) is None
    finally:
        store.journal.close()


def test_each_change_appends_one_line_and_writes_no_other_file(tmp_path) -> None:
    store, ids = _filled(tmp_path)
    recipient = KeyPair.generate().public_bytes
    claimed: list[dict] = []
    changes = {
        "put": lambda: store.put_object("d", seal(b"y", recipient), "d", "k"),
        "register": lambda: store.set_attestation(b'{"stub": 1}'),
        "create": lambda: store.create_assessment(*ids, "d"),
        "claim": lambda: claimed.append(store.claim_assessment()),
        "complete": lambda: store.complete_assessment(
            claimed[0]["assessment_id"], "done", None
        ),
    }
    try:
        for name, change in changes.items():
            before = _files(tmp_path)
            result = change()
            after = _files(tmp_path)
            journal = after.pop("journal.jsonl")
            old = before.pop("journal.jsonl")
            assert journal.startswith(old) and journal[len(old):].count(b"\n") == 1
            assert journal.endswith(b"\n"), name
            new = {f"objects/{result}.bin"} if name == "put" else set()
            assert set(after) - set(before) == new, name
            assert {f: after[f] for f in before} == before, name
    finally:
        store.journal.close()


def test_a_change_costs_the_same_line_at_any_history(tmp_path, monkeypatch) -> None:
    # A fixed clock, so that lines differ in nothing but their ids.
    monkeypatch.setattr(proxy_module, "time", SimpleNamespace(time=lambda: 1.5e9))
    store, ids = _filled(tmp_path)
    path = tmp_path / "journal.jsonl"

    def appended(change, *args) -> tuple[int, object]:
        """Journal bytes that change(*args) appends, and its result."""
        size = path.stat().st_size
        result = change(*args)
        return path.stat().st_size - size, result

    def transitions() -> list[int]:
        """Bytes of a create, a claim and a complete."""
        created, _ = appended(store.create_assessment, *ids, "d")
        claimed, record = appended(store.claim_assessment)
        aid = record["assessment_id"]
        completed, _ = appended(store.complete_assessment, aid, "done", None)
        return [created, claimed, completed]

    try:
        first = transitions()  # the store holds 2 assessments
        for _ in range(4_000 - 3):
            store.create_assessment(*ids, "d")
        last = transitions()  # its create is the 4,000th
        assert len(store._assessments) == 4_000
        assert last == first
    finally:
        store.journal.close()


def test_proxy_prints_no_token(tmp_path: Path) -> None:
    store = tmp_path / "store"
    child, _url = _start_proxy(store)
    tokens = _tokens(store)
    child.send_signal(signal.SIGKILL)
    child.wait(timeout=10)
    with child.stdout:
        printed = child.stdout.read()
    assert f"credentials written to {store / 'credentials.json'}" in printed
    for token in tokens.values():
        assert token not in printed


def _claim_status(server: ProxyServer, token: str) -> int:
    with ProxyClient(server.base_url, token) as client:
        return client.request("POST", "/assessments/claim").status_code


def test_a_restarted_proxy_keeps_its_tokens(tmp_path: Path) -> None:
    store = str(tmp_path / "store")
    first = ProxyServer(store)
    tokens = {role: first.token_for(role) for role in ROLES}
    expiry = first.lookup_token(tokens["enclave"]).expiry
    first.server_close()
    saved = (tmp_path / "store" / "credentials.json").read_bytes()
    server = ProxyServer(store)
    server.start()
    try:
        assert {role: server.token_for(role) for role in ROLES} == tokens
        assert server.lookup_token(tokens["enclave"]).expiry == expiry
        assert _claim_status(server, tokens["enclave"]) == 204
        assert _claim_status(server, tokens["assessee"]) == 403
    finally:
        server.stop()
    assert (tmp_path / "store" / "credentials.json").read_bytes() == saved


def _expired(saved: dict) -> dict:
    return {**saved, "expires_at": time.time() - 1}


@pytest.mark.parametrize(
    "damage",
    [
        _expired,
        lambda saved: {**saved, "expires_at": float("nan")},
        lambda saved: {**saved, "expires_at": float("inf")},
        lambda saved: {**saved, "expires_at": True},
        lambda saved: {k: v for k, v in saved.items() if k != "expires_at"},
        lambda saved: {k: v for k, v in saved.items() if k != "assessor"},
        lambda saved: {**saved, "assessor": saved["assessee"]},
        lambda saved: {**saved, "assessor": ["a" * 48]},
        lambda saved: {**saved, "assessor": "-" + saved["assessor"][1:]},
        lambda saved: [saved],
        lambda saved: None,  # the file is removed
    ],
)
def test_expired_or_unreadable_tokens_are_replaced(tmp_path: Path, damage) -> None:
    store = tmp_path / "store"
    ProxyServer(str(store)).server_close()
    path = store / "credentials.json"
    saved = json.loads(path.read_bytes())
    damaged = damage(saved)
    if damaged is None:
        path.unlink()
    else:
        path.write_text(json.dumps(damaged))
    server = ProxyServer(str(store))
    server.start()
    try:
        renewed = _tokens(store)
        assert renewed == {role: server.token_for(role) for role in ROLES}
        assert not set(renewed.values()) & {saved[role] for role in ROLES}
        expiry = json.loads(path.read_bytes())["expires_at"]
        assert time.time() < expiry <= time.time() + proxy_module._TOKEN_TTL
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert _claim_status(server, saved["enclave"]) == 401
        assert _claim_status(server, renewed["enclave"]) == 204
    finally:
        server.stop()


def test_unreadable_credentials_file_is_replaced(tmp_path: Path) -> None:
    store = tmp_path / "store"
    ProxyServer(str(store)).server_close()
    path = store / "credentials.json"
    for junk in (b"", b"{", b"\xff\xfe", b"[" * 100_000):
        path.write_bytes(junk)
        server = ProxyServer(str(store))
        server.server_close()
        assert _tokens(store) == {role: server.token_for(role) for role in ROLES}
