"""Sealed-envelope encryption: only the designated recipient can open.

Envelope layout (documented byte-exact so other implementations can
interoperate):

    offset  size  field
    0       4     magic b"SDQ1"
    4       8     recipient key id, sha256(recipient public key)[:8]
    12      8     sender key id (zeros when anonymous)
    20      24    random salt (per-envelope nonce material)
    44      32    ephemeral X25519 public key
    76      -     AES-256-GCM ciphertext plus 16-byte tag

The AES key is HKDF-SHA256(X25519(ephemeral, recipient), salt=salt,
info="iotdq sealed object v1"). The GCM nonce is twelve zero bytes,
safe because every envelope derives a fresh key from an ephemeral
keypair and salt. The whole header is authenticated data, so tampering
with any field fails decryption.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from ..errors import SealingError

__all__ = ["MAGIC", "KeyPair", "key_id", "seal", "unseal", "write_private"]

MAGIC = b"SDQ1"
KEY_ID_BYTES = 8
SALT_BYTES = 24
PUBLIC_KEY_BYTES = 32
ANONYMOUS_SENDER = b"\x00" * KEY_ID_BYTES

_INFO = b"iotdq sealed object v1"
# magic, recipient key id, sender key id, salt, ephemeral public key
_HEADER = struct.Struct(
    f"4s{KEY_ID_BYTES}s{KEY_ID_BYTES}s{SALT_BYTES}s{PUBLIC_KEY_BYTES}s"
)
_HEADER_BYTES = _HEADER.size
_GCM_NONCE = b"\x00" * 12
_TAG_BYTES = 16


def write_private(path: "str | os.PathLike[str]", data: bytes) -> None:
    """Write data to path, readable and writable by the owner only."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(fd, "wb") as fh:
        # The mode above applies only to a new file; narrow an existing one.
        os.fchmod(fd, 0o600)
        fh.write(data)


def key_id(public_bytes: bytes) -> bytes:
    """Short identifier of a public key."""
    return hashlib.sha256(public_bytes).digest()[:KEY_ID_BYTES]


@dataclass(frozen=True)
class KeyPair:
    """X25519 keypair with the raw public bytes and short id precomputed."""

    private: X25519PrivateKey = field(repr=False)
    public_bytes: bytes

    @classmethod
    def generate(cls) -> "KeyPair":
        private = X25519PrivateKey.generate()
        return cls(private=private, public_bytes=private.public_key().public_bytes_raw())

    @classmethod
    def from_private_bytes(cls, raw: bytes) -> "KeyPair":
        if len(raw) != 32:
            raise SealingError("private key must be 32 raw bytes")
        private = X25519PrivateKey.from_private_bytes(raw)
        return cls(private=private, public_bytes=private.public_key().public_bytes_raw())

    @classmethod
    def load(cls, path: str) -> "KeyPair":
        with open(path, "rb") as fh:
            return cls.from_private_bytes(fh.read())

    def save(self, path: str) -> None:
        write_private(path, self.private.private_bytes_raw())

    @property
    def key_id(self) -> bytes:
        return key_id(self.public_bytes)


def _derive(shared: bytes, salt: bytes) -> bytes:
    return HKDF(
        algorithm=hashes.SHA256(), length=32, salt=salt, info=_INFO
    ).derive(shared)


def _header_fields(envelope: bytes) -> tuple[bytes, ...]:
    """(recipient key id, sender key id, salt, ephemeral public key) of an
    envelope; raises SealingError when it is too short for a header and a
    tag, or its magic is not MAGIC."""
    if len(envelope) < _HEADER_BYTES + _TAG_BYTES:
        raise SealingError("envelope too short")
    magic, *fields = _HEADER.unpack_from(envelope)
    if magic != MAGIC:
        raise SealingError("not a sealed envelope (bad magic)")
    return tuple(fields)


def seal(
    plaintext: bytes,
    recipient_public: bytes,
    sender_key_id: bytes = ANONYMOUS_SENDER,
) -> bytes:
    """Encrypt so that only the holder of the recipient key can read."""
    if len(recipient_public) != PUBLIC_KEY_BYTES:
        raise SealingError("recipient public key must be 32 raw bytes")
    if len(sender_key_id) != KEY_ID_BYTES:
        raise SealingError("sender key id must be 8 bytes")
    ephemeral = X25519PrivateKey.generate()
    shared = ephemeral.exchange(X25519PublicKey.from_public_bytes(recipient_public))
    salt = os.urandom(SALT_BYTES)
    header = _HEADER.pack(
        MAGIC,
        key_id(recipient_public),
        sender_key_id,
        salt,
        ephemeral.public_key().public_bytes_raw(),
    )
    ciphertext = AESGCM(_derive(shared, salt)).encrypt(_GCM_NONCE, plaintext, header)
    return header + ciphertext


def unseal(envelope: bytes, keypair: KeyPair) -> bytes:
    """Open a sealed envelope; raises SealingError on any failure."""
    recipient, _sender, salt, ephemeral_public = _header_fields(envelope)
    if recipient != keypair.key_id:
        raise SealingError("envelope is sealed to a different key")
    header = envelope[:_HEADER_BYTES]
    try:
        shared = keypair.private.exchange(
            X25519PublicKey.from_public_bytes(ephemeral_public)
        )
    except ValueError as exc:  # a low-order point gives an all-zero secret
        raise SealingError("envelope has an invalid ephemeral key") from exc
    try:
        # Through a memoryview, so that the ciphertext is not copied.
        return AESGCM(_derive(shared, salt)).decrypt(
            _GCM_NONCE, memoryview(envelope)[_HEADER_BYTES:], header
        )
    except InvalidTag as exc:
        raise SealingError("envelope failed its integrity check") from exc


def envelope_key_ids(envelope: bytes) -> tuple[str, str]:
    """(recipient, sender) key ids as hex; validates the envelope frame."""
    recipient, sender, _salt, _ephemeral = _header_fields(envelope)
    return recipient.hex(), sender.hex()
