"""Admission checks: every rejection variant and their precedence."""

import hashlib
import hmac
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meg.core import MAX_PAYLOAD_BYTES, Vertex, generate_add, init, make_vertex
from meg.encoding import compute_event_id, encode_vertex_fields
from meg.harness import ReplicaNode
from meg.monitor import (
    MembershipDirectory,
    SignedEnvelope,
    SigningKey,
    VerificationFailure,
    sign_envelope,
    verify_envelope,
)

KEY = SigningKey.from_seed("monitor-test:0")
OTHER_KEY = SigningKey.from_seed("monitor-test:1")
OUTSIDER = SigningKey.from_seed("monitor-test:outsider")
DIRECTORY = MembershipDirectory(
    {
        KEY.replica_id: KEY.verification_key,
        OTHER_KEY.replica_id: OTHER_KEY.verification_key,
    },
    f=1,
)


def fresh_env(body=b"payload", key=KEY):
    state = init()
    op = generate_add(state, "msg", body, 2, Random(0), key.replica_id, 0)
    return sign_envelope(op, key)


# -- keys and directory -------------------------------------------------------


def test_replica_id_is_fingerprint_of_secret():
    assert KEY.replica_id == hashlib.sha256(b"meg:fingerprint:" + KEY.verification_key).digest()
    assert KEY.replica_id != OTHER_KEY.replica_id


def test_from_seed_is_deterministic():
    assert SigningKey.from_seed("x").verification_key == SigningKey.from_seed("x").verification_key
    assert SigningKey.from_seed("x").verification_key != SigningKey.from_seed("y").verification_key


def test_directory_requires_quorum_margin():
    keys = {KEY.replica_id: KEY.verification_key}
    with pytest.raises(ValueError):
        MembershipDirectory(keys, f=1)
    d = MembershipDirectory(keys, f=0)
    assert d.keyed_mac(KEY.replica_id) is not None
    assert d.keyed_mac(OUTSIDER.replica_id) is None


def test_signatures_are_hmac_sha256_of_the_event_id():
    env = fresh_env()
    vid = env.vertex.id
    assert env.signature == hmac.new(KEY.verification_key, vid, hashlib.sha256).digest()
    # Signing and checking again give the same answer: the keyed HMAC is copied, not fed.
    assert KEY.sign(vid) == env.signature
    assert verify_envelope(env, DIRECTORY) is None
    assert verify_envelope(env, DIRECTORY) is None


# -- acceptance ----------------------------------------------------------------


def test_valid_envelope_accepted():
    assert verify_envelope(fresh_env(), DIRECTORY) is None


def test_unknown_sender_rejected():
    env = fresh_env(key=OUTSIDER)
    assert verify_envelope(env, DIRECTORY) is VerificationFailure.UNKNOWN_SENDER


def test_empty_parents_rejected():
    v = Vertex("msg", b"", b"\x01" * 32, (), KEY.replica_id, 0)
    env = sign_envelope(v, KEY)
    assert verify_envelope(env, DIRECTORY) is VerificationFailure.EMPTY_PARENTS


def test_duplicate_parents_rejected():
    p = b"\x02" * 32
    v = Vertex("msg", b"", b"\x01" * 32, (p, p), KEY.replica_id, 0)
    env = sign_envelope(v, KEY)
    assert verify_envelope(env, DIRECTORY) is VerificationFailure.DUPLICATE_PARENTS


def test_self_parent_rejected():
    vid = b"\x05" * 32
    v = Vertex("msg", b"", vid, (vid, b"\x06" * 32), KEY.replica_id, 0)
    env = sign_envelope(v, KEY)
    assert verify_envelope(env, DIRECTORY) is VerificationFailure.SELF_PARENT


def test_oversized_payload_rejected():
    env = fresh_env(body=b"z" * (64 * 1024 + 1))
    assert verify_envelope(env, DIRECTORY) is VerificationFailure.OVERSIZED_PAYLOAD
    # a body of exactly 64 KiB is still accepted
    assert verify_envelope(fresh_env(body=b"z" * (64 * 1024)), DIRECTORY) is None


def test_oversized_kind_rejected():
    # The bound holds for the kind too, counted in UTF-8 bytes, not characters.
    root = init().root
    for kind, failure in (
        ("k" * (MAX_PAYLOAD_BYTES + 1), VerificationFailure.OVERSIZED_PAYLOAD),
        ("\u00e9" * (MAX_PAYLOAD_BYTES // 2 + 1), VerificationFailure.OVERSIZED_PAYLOAD),
        ("k" * MAX_PAYLOAD_BYTES, None),
    ):
        env = sign_envelope(make_vertex(kind, b"", KEY.replica_id, 0, (root,)), KEY)
        assert verify_envelope(env, DIRECTORY) is failure


@pytest.mark.parametrize("seq", [-1, 2**64])
def test_seq_out_of_range_rejected(seq):
    # No canonical encoding exists for such a seq, so the gate must refuse it
    # before encoding: the replica counts a rejection and keeps running.
    v = Vertex("msg", b"", b"\x07" * 32, (init("ingress").root,), KEY.replica_id, seq)
    env = sign_envelope(v, KEY)
    assert verify_envelope(env, DIRECTORY) is VerificationFailure.SEQ_OUT_OF_RANGE
    node = ReplicaNode(1, OTHER_KEY, DIRECTORY, "ingress", 2, seed=0)
    assert node.receive_envelope(env) == []
    assert node.rejected_ops == 1


def well_formed_fields(**changes) -> dict:
    """The fields of a signed, accepted vertex on the "ingress" root, with `changes`."""
    v = make_vertex("msg", b"p", KEY.replica_id, 0, (init("ingress").root,))
    fields = {
        "kind": v.kind,
        "body": v.body,
        "id": v.id,
        "parents": v.parents,
        "sender": v.sender,
        "seq": v.seq,
        "signature": KEY.sign(v.id),
    }
    return {**fields, **changes}


def envelope_of(fields: dict) -> SignedEnvelope:
    return SignedEnvelope(
        Vertex(*(fields[k] for k in ("kind", "body", "id", "parents", "sender", "seq"))),
        fields["signature"],
    )


@pytest.mark.parametrize(
    "changes",
    [
        {"kind": "\ud800"},
        {"kind": b"msg"},
        {"body": "p"},
        {"parents": (7,)},
        {"parents": [init("ingress").root]},
        {"seq": 1.0},
        {"seq": "1"},
        {"seq": True},
        {"sender": [1]},
        {"id": b"\x07" * 31},
        {"signature": "not bytes"},
    ],
    ids=[
        "kind-lone-surrogate",
        "kind-bytes",
        "body-str",
        "parent-int",
        "parents-list",
        "seq-float",
        "seq-str",
        "seq-bool",
        "sender-list",
        "id-31-bytes",
        "signature-str",
    ],
)
def test_malformed_field_rejected(changes):
    # An ill-typed field is a counted rejection, never an exception that
    # would stop the whole run.
    env = envelope_of(well_formed_fields(**changes))
    assert verify_envelope(env, DIRECTORY) is VerificationFailure.MALFORMED_FIELD
    node = ReplicaNode(1, OTHER_KEY, DIRECTORY, "ingress", 2, seed=0)
    assert node.receive_envelope(env) == []
    assert node.rejected_ops == 1


def test_re_split_parent_twin_rejected():
    # One 64-byte parent p‖q encodes like the two parents (p, q), so both
    # vertices get one id; only the well-formed one may pass the gate.
    p, q = b"\x01" * 32, b"\x02" * 32
    pair = make_vertex("msg", b"x", KEY.replica_id, 0, (p, q))
    twin = make_vertex("msg", b"x", KEY.replica_id, 0, (p + q,))
    assert twin.id == pair.id
    assert verify_envelope(sign_envelope(pair, KEY), DIRECTORY) is None
    rejected = verify_envelope(sign_envelope(twin, KEY), DIRECTORY)
    assert rejected is VerificationFailure.MALFORMED_FIELD


JUNK = st.one_of(
    st.text(st.characters(exclude_categories=())),  # lone surrogates included
    st.binary(max_size=40),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.lists(st.integers(), max_size=3),
)
ID_LIKE = st.one_of(st.sampled_from([init("ingress").root, KEY.replica_id]), JUNK)


@given(
    changes=st.fixed_dictionaries(
        {},
        optional={
            "kind": JUNK,
            "body": JUNK,
            "sender": st.one_of(st.just(OTHER_KEY.replica_id), JUNK),
            "seq": JUNK,
            "id": ID_LIKE,
            "parents": st.one_of(JUNK, st.lists(ID_LIKE, max_size=3).map(tuple)),
            "signature": JUNK,
        },
    )
)
def test_gate_never_raises_and_counts_each_rejection(changes):
    env = envelope_of(well_formed_fields(**changes))
    reason = verify_envelope(env, DIRECTORY)
    assert reason is None or isinstance(reason, VerificationFailure)
    v = env.vertex
    shaped = (
        type(v.kind) is str
        and type(v.body) is bytes
        and type(v.sender) is bytes
        and type(v.seq) is int
        and type(env.signature) is bytes
        and type(v.id) is bytes
        and len(v.id) == 32
        and type(v.parents) is tuple
        and all(type(p) is bytes and len(p) == 32 for p in v.parents)
        and not any(0xD800 <= ord(c) <= 0xDFFF for c in v.kind)
    )
    assert (reason is VerificationFailure.MALFORMED_FIELD) == (not shaped)
    node = ReplicaNode(1, OTHER_KEY, DIRECTORY, "ingress", 2, seed=0)
    node.receive_envelope(env)
    assert node.rejected_ops == (reason is not None)


def test_tampered_body_fails_event_id():
    # The body changes after signing and the vertex keeps its signed id.
    env = fresh_env()
    v = env.vertex
    tampered = Vertex(v.kind, b"changed", v.id, v.parents, v.sender, v.seq)
    bad = SignedEnvelope(tampered, env.signature)
    assert verify_envelope(bad, DIRECTORY) is VerificationFailure.BAD_EVENT_ID


def test_tampered_body_fails_signature():
    # The body changes after signing and the id is recomputed to match it.
    env = fresh_env()
    v = env.vertex
    tampered = make_vertex(v.kind, b"changed", v.sender, v.seq, v.parents)
    bad = SignedEnvelope(tampered, env.signature)
    assert verify_envelope(bad, DIRECTORY) is VerificationFailure.BAD_SIGNATURE


def test_wrong_key_fails_signature():
    # A key outside the directory signs KEY's vertex: the vertex's sender picks the key.
    env = fresh_env()
    resigned = SignedEnvelope(env.vertex, OUTSIDER.sign(env.vertex.id))
    assert verify_envelope(resigned, DIRECTORY) is VerificationFailure.BAD_SIGNATURE


def test_sender_binding_mismatch_fails_signature():
    # OTHER, a member, relays KEY's vertex with its own signature.
    env = fresh_env()
    hijacked = sign_envelope(env.vertex, OTHER_KEY)
    assert hijacked.signature != env.signature
    assert verify_envelope(hijacked, DIRECTORY) is VerificationFailure.BAD_SIGNATURE


def test_forged_id_on_intact_content_fails_event_id():
    env = fresh_env()
    v = env.vertex
    forged = Vertex(v.kind, v.body, b"\x42" * 32, v.parents, v.sender, v.seq)
    # The id is checked before the signature, so neither the original
    # signature nor one the creator makes over the forged id lets it pass.
    for signature in (env.signature, KEY.sign(forged.id)):
        bad = SignedEnvelope(forged, signature)
        assert verify_envelope(bad, DIRECTORY) is VerificationFailure.BAD_EVENT_ID


def test_reordered_parents_keep_id_and_signature():
    # The id's bytes sort the parent ids, so their order is not content.
    a, b = b"\x01" * 32, b"\x02" * 32
    v = make_vertex("msg", b"p", KEY.replica_id, 0, (a, b))
    env = sign_envelope(v, KEY)
    swapped = Vertex(v.kind, v.body, v.id, (b, a), v.sender, v.seq)
    assert compute_event_id(encode_vertex_fields("msg", b"p", KEY.replica_id, 0, (b, a))) == v.id
    relayed = SignedEnvelope(swapped, env.signature)
    assert verify_envelope(relayed, DIRECTORY) is None


def test_all_variants_reachable():
    seen = {
        VerificationFailure.MALFORMED_FIELD,
        VerificationFailure.UNKNOWN_SENDER,
        VerificationFailure.EMPTY_PARENTS,
        VerificationFailure.DUPLICATE_PARENTS,
        VerificationFailure.SELF_PARENT,
        VerificationFailure.OVERSIZED_PAYLOAD,
        VerificationFailure.SEQ_OUT_OF_RANGE,
        VerificationFailure.BAD_SIGNATURE,
        VerificationFailure.BAD_EVENT_ID,
    }
    assert seen == set(VerificationFailure)
