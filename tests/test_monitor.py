"""Admission checks: every rejection variant and their precedence."""

import hashlib
import hmac
from dataclasses import replace
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
    vid = env.id
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
        *(fields[k] for k in ("kind", "body", "id", "parents", "sender", "seq", "signature"))
    )


def empty_kind_fields() -> dict:
    """An empty `kind`, hashed and signed by a member; `make_vertex` refuses to build it."""
    root = init("ingress").root
    vid = compute_event_id(encode_vertex_fields("", b"p", KEY.replica_id, 0, (root,)))
    return {"kind": "", "id": vid, "signature": KEY.sign(vid)}


@pytest.mark.parametrize(
    "changes",
    [
        {"kind": "\ud800"},
        empty_kind_fields(),
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
        "kind-empty",
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
    shaped = (
        type(env.kind) is str
        and env.kind != ""
        and type(env.body) is bytes
        and type(env.sender) is bytes
        and type(env.seq) is int
        and type(env.signature) is bytes
        and type(env.id) is bytes
        and len(env.id) == 32
        and type(env.parents) is tuple
        and all(type(p) is bytes and len(p) == 32 for p in env.parents)
        and not any(0xD800 <= ord(c) <= 0xDFFF for c in env.kind)
    )
    assert (reason is VerificationFailure.MALFORMED_FIELD) == (not shaped)
    node = ReplicaNode(1, OTHER_KEY, DIRECTORY, "ingress", 2, seed=0)
    node.receive_envelope(env)
    assert node.rejected_ops == (reason is not None)


def shift(left: bytes, right: bytes, k: int) -> tuple[bytes, bytes]:
    """`left + right` cut k bytes right of their boundary (left of it if k < 0)."""
    joined = left + right
    cut = min(max(len(left) + k, 0), len(joined))
    return joined[:cut], joined[cut:]


@given(
    kind=st.text(min_size=1, max_size=6),
    body=st.binary(max_size=12),
    key=st.sampled_from([KEY, OTHER_KEY]),
    seq=st.integers(min_value=0, max_value=2**64 - 1),
    parents=st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=4, unique=True),
    move=st.sampled_from(["kind|body", "body|sender", "cut", "join"]),
    k=st.integers(min_value=-40, max_value=40),
    data=st.data(),
)
def test_encoding_is_injective_on_what_the_gate_accepts(kind, body, key, seq, parents, move, k, data):
    # The skip-by-id rule in `route` needs distinct accepted vertices to have
    # distinct ids.  Move bytes across one field boundary of an accepted
    # vertex; if the gate's shape check still takes the result, its bytes
    # must differ unless its fields are the same (parents as a set).
    v = make_vertex(kind, body, key.replica_id, seq, parents)
    env = sign_envelope(v, key)
    assert verify_envelope(env, DIRECTORY) is None
    fields = {"kind": kind, "body": body, "sender": v.sender, "parents": v.parents}
    if move == "kind|body":
        kind_b, fields["body"] = shift(kind.encode("utf-8"), body, k)
        try:
            fields["kind"] = kind_b.decode("utf-8")
        except UnicodeDecodeError:
            fields["kind"] = kind_b  # no str, so the gate refuses it
    elif move == "body|sender":
        fields["body"], fields["sender"] = shift(body, v.sender, k)
    else:
        ps = list(v.parents)
        i = data.draw(st.integers(min_value=0, max_value=len(ps) - 1))
        if move == "cut":
            c = data.draw(st.integers(min_value=1, max_value=31))
            ps[i : i + 1] = [ps[i][:c], ps[i][c:]]
        elif len(ps) > 1:
            j = data.draw(st.sampled_from([x for x in range(len(ps)) if x != i]))
            ps = [p for x, p in enumerate(ps) if x not in (i, j)] + [ps[i] + ps[j]]
        fields["parents"] = tuple(ps)
    moved = replace(env, **fields)
    if verify_envelope(moved, DIRECTORY) is VerificationFailure.MALFORMED_FIELD:
        return
    # A cut or joined parent is not 32 bytes, so only an unmoved list gets here.
    assert fields["parents"] == v.parents
    before = encode_vertex_fields(kind, body, v.sender, seq, v.parents)
    after = encode_vertex_fields(fields["kind"], fields["body"], fields["sender"], seq, fields["parents"])
    same = (fields["kind"], fields["body"], fields["sender"], set(fields["parents"])) == (
        kind, body, v.sender, set(v.parents)
    )
    assert (after == before) == same


def test_tampered_body_fails_event_id():
    # The body changes after signing and the vertex keeps its signed id.
    bad = replace(fresh_env(), body=b"changed")
    assert verify_envelope(bad, DIRECTORY) is VerificationFailure.BAD_EVENT_ID


def test_tampered_body_fails_signature():
    # The body changes after signing and the id is recomputed to match it.
    env = fresh_env()
    tampered = make_vertex(env.kind, b"changed", env.sender, env.seq, env.parents)
    bad = replace(env, body=tampered.body, id=tampered.id)
    assert verify_envelope(bad, DIRECTORY) is VerificationFailure.BAD_SIGNATURE


def test_wrong_key_fails_signature():
    # A key outside the directory signs KEY's vertex: the vertex's sender picks the key.
    env = fresh_env()
    resigned = replace(env, signature=OUTSIDER.sign(env.id))
    assert verify_envelope(resigned, DIRECTORY) is VerificationFailure.BAD_SIGNATURE


def test_sender_binding_mismatch_fails_signature():
    # OTHER, a member, relays KEY's vertex with its own signature.
    env = fresh_env()
    hijacked = sign_envelope(env, OTHER_KEY)
    assert hijacked.signature != env.signature
    assert verify_envelope(hijacked, DIRECTORY) is VerificationFailure.BAD_SIGNATURE


def test_forged_id_on_intact_content_fails_event_id():
    env = fresh_env()
    forged_id = b"\x42" * 32
    # The id is checked before the signature, so neither the original
    # signature nor one the creator makes over the forged id lets it pass.
    for signature in (env.signature, KEY.sign(forged_id)):
        bad = replace(env, id=forged_id, signature=signature)
        assert verify_envelope(bad, DIRECTORY) is VerificationFailure.BAD_EVENT_ID


def test_reordered_parents_keep_id_and_signature():
    # The id's bytes sort the parent ids, so their order is not content.
    a, b = b"\x01" * 32, b"\x02" * 32
    v = make_vertex("msg", b"p", KEY.replica_id, 0, (a, b))
    env = sign_envelope(v, KEY)
    assert compute_event_id(encode_vertex_fields("msg", b"p", KEY.replica_id, 0, (b, a))) == v.id
    relayed = replace(env, parents=(b, a))
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
