"""Inbound gatekeeper: authentication, integrity, and shape checks.

An operation travels between replicas as its `SignedEnvelope(vertex,
signature)`.  Every operation that arrives from the network passes through
`verify_envelope` before it may touch replica state.  Checks are stateless,
so verification can run anywhere.  Identifiers are content hashes of the canonical bytes and
envelopes sign the id, so a payload cannot be altered without changing the
id, and an id cannot be claimed without the matching content.  Distinct
accepted vertices are assumed to have distinct ids, and the replica's
store-skip rule (`ReplicaNode.route` drops unverified any copy whose id it
holds) rests on that.  It takes two things: SHA-256's collision resistance,
and a canonical encoding that is injective on what the gate accepts.  The
encoding joins the sorted parent ids under one length prefix, so it is
injective only because the gate admits 32-byte parents alone: a single
64-byte parent p‖q would encode, and hash, like the two parents (p, q).

The signature scheme is pluggable behind `SigningKey`; the default is a keyed
hash (HMAC-SHA256) stand-in where the verification key equals the signing
secret.  Any deterministic scheme over the 32-byte event id works.  Both
`SigningKey` and `MembershipDirectory` build one `hmac.HMAC` per key, when
they are built, and each signature or check hashes the data into a copy of
it, so the key is not re-padded per message.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .core import MAX_PAYLOAD_BYTES, ReplicaId, Vertex
from .encoding import compute_event_id, encode_vertex_fields

# An event id, and so each parent, is a SHA-256 digest.
_ID_BYTES = 32


class VerificationFailure(Enum):
    """Why an envelope was rejected.  Each variant maps to exactly one check."""

    MALFORMED_FIELD = "malformed_field"
    BAD_EVENT_ID = "bad_event_id"
    BAD_SIGNATURE = "bad_signature"
    UNKNOWN_SENDER = "unknown_sender"
    DUPLICATE_PARENTS = "duplicate_parents"
    EMPTY_PARENTS = "empty_parents"
    OVERSIZED_PAYLOAD = "oversized_payload"
    SEQ_OUT_OF_RANGE = "seq_out_of_range"
    SELF_PARENT = "self_parent"


# Slotted dataclass, not a NamedTuple: 48 B per envelope against a tuple's 56 B.
@dataclass(frozen=True, slots=True)
class SignedEnvelope:
    """An add operation, its vertex, bound to its claimed creator by a signature."""

    vertex: Vertex
    signature: bytes

    @property
    def op(self) -> "SignedEnvelope":
        # The benchmark's old path `env.op.vertex`; goes when `bench/` moves to `env.vertex`.
        return self


def _mac(keyed: hmac.HMAC, data: bytes) -> bytes:
    """HMAC-SHA256 of `data`, from a copy of the keyed `hmac.new(key, digestmod=sha256)`."""
    h = keyed.copy()
    h.update(data)
    return h.digest()


class SigningKey:
    """Keyed-hash signer.  The replica id is a fingerprint of the key."""

    def __init__(self, secret: bytes) -> None:
        self._secret = secret
        self._keyed = hmac.new(secret, digestmod=hashlib.sha256)
        self.replica_id: ReplicaId = hashlib.sha256(b"meg:fingerprint:" + secret).digest()

    @classmethod
    def from_seed(cls, seed: str) -> "SigningKey":
        return cls(hashlib.sha256(b"meg:key:" + seed.encode("utf-8")).digest())

    @property
    def verification_key(self) -> bytes:
        # Symmetric stand-in: verifiers hold the same secret.
        return self._secret

    def sign(self, data: bytes) -> bytes:
        return _mac(self._keyed, data)


class MembershipDirectory:
    """Known replicas and their verification keys.  Requires n > f."""

    def __init__(self, keys: Mapping[ReplicaId, bytes], f: int) -> None:
        if f < 0:
            raise ValueError("faulty bound f must be non-negative")
        if len(keys) <= f:
            raise ValueError(f"need n > f, got n={len(keys)} f={f}")
        self._keyed = {rid: hmac.new(key, digestmod=hashlib.sha256) for rid, key in keys.items()}

    def keyed_mac(self, replica_id: ReplicaId) -> hmac.HMAC | None:
        """The replica's verification key as a keyed HMAC, for `_mac`."""
        return self._keyed.get(replica_id)


def sign_envelope(v: Vertex, key: SigningKey) -> SignedEnvelope:
    """Sign the event id, the hash of every field of the vertex, its sender included."""
    return SignedEnvelope(v, key.sign(v.id))


def verify_envelope(
    env: SignedEnvelope, directory: MembershipDirectory
) -> VerificationFailure | None:
    """Run all acceptance checks; None means accepted.  Never raises.

    The shapes are checked first, so that no later check can raise: unless
    `kind` is a `str` with a UTF-8 encoding, `body`, `sender` and the
    signature are `bytes`, `seq` is an `int` (a `bool` is not one), and the
    id and each parent are 32 `bytes`, the envelope is MALFORMED_FIELD.

    A `kind` or `body` over `MAX_PAYLOAD_BYTES` (64 KiB, `kind` counted in
    UTF-8 bytes) is OVERSIZED_PAYLOAD.  A `seq` outside [0, 2**64), which has
    no canonical encoding, is SEQ_OUT_OF_RANGE.

    The key is the one of the vertex's declared creator.  The id check runs
    before the signature check, so content tampered after signing and a
    forged id on intact content both surface as BAD_EVENT_ID, while a vertex
    that names one member but carries another's signature surfaces as
    BAD_SIGNATURE.

    Re-delivery of an accepted envelope is not an error here; replay safety
    comes from the idempotent effector downstream.
    """
    v = env.vertex
    kind, parents = v.kind, v.parents
    # The shape check, in three statements: the field types, each parent,
    # and the UTF-8 encoding of `kind`, which the size check below reads.
    if not (
        type(kind) is str
        and type(v.body) is bytes
        and type(v.sender) is bytes
        and type(v.seq) is int
        and type(env.signature) is bytes
        and type(v.id) is bytes
        and len(v.id) == _ID_BYTES
        and type(parents) is tuple
    ):
        return VerificationFailure.MALFORMED_FIELD
    for p in parents:
        if type(p) is not bytes or len(p) != _ID_BYTES:
            return VerificationFailure.MALFORMED_FIELD
    try:
        kind_size = len(kind.encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate
        return VerificationFailure.MALFORMED_FIELD
    keyed = directory.keyed_mac(v.sender)
    if keyed is None:
        return VerificationFailure.UNKNOWN_SENDER
    if not parents:
        return VerificationFailure.EMPTY_PARENTS
    if len(set(parents)) != len(parents):
        return VerificationFailure.DUPLICATE_PARENTS
    if v.id in parents:
        return VerificationFailure.SELF_PARENT
    if len(v.body) > MAX_PAYLOAD_BYTES or kind_size > MAX_PAYLOAD_BYTES:
        return VerificationFailure.OVERSIZED_PAYLOAD
    if not 0 <= v.seq < 1 << 64:
        return VerificationFailure.SEQ_OUT_OF_RANGE
    data = encode_vertex_fields(kind, v.body, v.sender, v.seq, parents)
    if compute_event_id(data) != v.id:
        return VerificationFailure.BAD_EVENT_ID
    if not hmac.compare_digest(_mac(keyed, v.id), env.signature):
        return VerificationFailure.BAD_SIGNATURE
    return None
