"""Simulated zero-trust three-party assessment workflow.

Pieces: sealed-envelope encryption (sealing), a ciphertext-only proxy
object store with least-privilege tokens (proxy), the enclave runner
that assesses in memory (enclave), and the party clients (clients).
"""

from .attestation import AttestationStub, compute_code_hash
from .clients import (
    assessee_fetch_report,
    assessee_submit,
    assessment_status,
    assessor_request,
    fetch_attestation,
)
from .enclave import EnclaveRunner
from .proxy import AccessToken, ProxyServer, proxy_serve
from .sealing import KeyPair, seal, unseal

__all__ = [
    "AttestationStub",
    "compute_code_hash",
    "assessee_submit",
    "assessor_request",
    "assessment_status",
    "assessee_fetch_report",
    "fetch_attestation",
    "EnclaveRunner",
    "AccessToken",
    "ProxyServer",
    "proxy_serve",
    "KeyPair",
    "seal",
    "unseal",
]
