"""Code-hash attestation stub for the simulated enclave.

The hash covers every Python source file of this package (sorted
relative paths, path and content both digested), standing in for a real
TEE measurement. A hardware attestation backend can replace this module
without touching the rest of the workflow.
"""

from __future__ import annotations

import base64
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

from ..errors import AttestationError, load_json

__all__ = ["AttestationStub", "compute_code_hash"]

_CODE_HASH = re.compile("[0-9a-f]{64}")


def compute_code_hash() -> str:
    """Digest of the package's Python sources."""
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        digest.update(rel.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


@dataclass(frozen=True, slots=True)
class AttestationStub:
    """Published enclave identity: code measurement and sealing key."""

    code_hash: str
    enclave_public_key: bytes

    def to_json(self) -> bytes:
        doc = {
            "code_hash": self.code_hash,
            "enclave_public_key": base64.b64encode(self.enclave_public_key).decode(
                "ascii"
            ),
        }
        return json.dumps(doc, sort_keys=True).encode("utf-8")

    @classmethod
    def from_json(cls, data: "bytes | str") -> "AttestationStub":
        """Parse a published stub; raises AttestationError unless code_hash
        is 64 lowercase hex characters and enclave_public_key is the
        base64 of exactly 32 bytes."""
        doc = load_json(data, AttestationError, "attestation stub")
        try:
            code_hash = doc["code_hash"]
            public_key = base64.b64decode(doc["enclave_public_key"], validate=True)
        except (ValueError, KeyError, TypeError) as exc:
            raise AttestationError(f"malformed attestation stub: {exc}") from exc
        if not (type(code_hash) is str and _CODE_HASH.fullmatch(code_hash)):
            raise AttestationError("malformed attestation stub: bad code_hash")
        if len(public_key) != 32:
            raise AttestationError(
                "malformed attestation stub: enclave_public_key is "
                f"{len(public_key)} bytes, not 32"
            )
        return cls(code_hash=code_hash, enclave_public_key=public_key)
