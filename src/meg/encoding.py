"""Canonical byte encodings and content-derived identifiers.

Every event is hashed over one fixed serialization so that all replicas
derive the same id for the same content, regardless of how the event object
was built locally; the id is what its creator signs.  Fields appear in a
fixed order (kind, body, sender, seq, sorted parent ids) and each field is
prefixed with its length as an 8-byte big-endian integer.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

# Length prefix of the seq field, which is always 8 bytes long.
_SEQ_LEN = (8).to_bytes(8, "big")


def encode_vertex_fields(
    kind: str,
    body: bytes,
    sender: bytes,
    seq: int,
    parents: Iterable[bytes],
) -> bytes:
    """Serialize vertex content into canonical bytes (the event id's hash input)."""
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


def compute_event_id(data: bytes) -> bytes:
    """Content-derived 256-bit event id: SHA-256 of the canonical encoding.

    `data` is what `encode_vertex_fields` returns.
    """
    return hashlib.sha256(data).digest()
