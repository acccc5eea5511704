"""Canonical byte encodings and content-derived identifiers.

Every event is hashed and signed over one fixed serialization so that all
replicas derive the same id for the same content, regardless of how the
event object was built locally.  Fields appear in a fixed order (kind, body,
sender, seq, sorted parent ids) and each field is prefixed with its length
as an 8-byte big-endian integer.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

ID_BYTES = 32
SENDER_BYTES = 32


# Length prefix of the seq field, which is always 8 bytes long.
_SEQ_LEN = (8).to_bytes(8, "big")


def encode_vertex_fields(
    kind: str,
    body: bytes,
    sender: bytes,
    seq: int,
    parents: Iterable[bytes],
) -> bytes:
    """Serialize vertex content into canonical bytes (hash and signature input)."""
    if seq < 0:
        raise ValueError("seq must be non-negative")
    kind_b = kind.encode("utf-8")
    parent_field = b"".join(sorted(parents))
    return b"".join(
        (
            len(kind_b).to_bytes(8, "big"), kind_b,
            len(body).to_bytes(8, "big"), body,
            len(sender).to_bytes(8, "big"), sender,
            _SEQ_LEN, seq.to_bytes(8, "big"),
            len(parent_field).to_bytes(8, "big"), parent_field,
        )
    )


def compute_event_id(
    kind: str,
    body: bytes,
    sender: bytes,
    seq: int,
    parents: Iterable[bytes],
) -> bytes:
    """Content-derived 256-bit event id: SHA-256 of the canonical encoding."""
    return hashlib.sha256(encode_vertex_fields(kind, body, sender, seq, parents)).digest()


def encode_envelope_bytes(vertex_bytes: bytes, sender: bytes, signature: bytes) -> bytes:
    """Wire form: canonical vertex encoding, sender id, 8-byte BE signature length, signature."""
    return vertex_bytes + sender + len(signature).to_bytes(8, "big") + signature


def decode_envelope_bytes(
    data: bytes,
) -> tuple[str, bytes, bytes, int, tuple[bytes, ...], bytes, bytes]:
    """Parse wire bytes back into (kind, body, sender, seq, parents, env_sender, signature).

    Parent ids come back in sorted order because the canonical encoding sorts
    them; the event id is unaffected since hashing sorts them too.
    """
    fields = []
    off = 0
    for _ in range(5):
        if off + 8 > len(data):
            raise ValueError("truncated envelope: missing field length")
        flen = int.from_bytes(data[off : off + 8], "big")
        off += 8
        if off + flen > len(data):
            raise ValueError("truncated envelope: field shorter than declared")
        fields.append(data[off : off + flen])
        off += flen
    kind_b, body, sender, seq_b, parent_field = fields
    if len(sender) != SENDER_BYTES:
        raise ValueError("sender field must be 32 bytes")
    if len(seq_b) != 8:
        raise ValueError("seq field must be 8 bytes")
    if len(parent_field) % ID_BYTES != 0:
        raise ValueError("parent field must be a multiple of 32 bytes")
    parents = tuple(
        parent_field[i : i + ID_BYTES] for i in range(0, len(parent_field), ID_BYTES)
    )
    if off + SENDER_BYTES + 8 > len(data):
        raise ValueError("truncated envelope: missing sender or signature length")
    env_sender = data[off : off + SENDER_BYTES]
    off += SENDER_BYTES
    sig_len = int.from_bytes(data[off : off + 8], "big")
    off += 8
    if off + sig_len != len(data):
        raise ValueError("signature length does not match remaining bytes")
    signature = data[off:]
    return kind_b.decode("utf-8"), body, sender, int.from_bytes(seq_b, "big"), parents, env_sender, signature
