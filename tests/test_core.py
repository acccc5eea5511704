"""Graph state, parent selection, buffering, and the canonical encoding."""

import dataclasses
import gc
import hashlib
import tracemalloc
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meg.core import (
    EmptyExtremitiesError,
    MegState,
    PendingBuffer,
    PreconditionError,
    Vertex,
    generate_add,
    ingest,
    init,
    make_vertex,
    select_parents,
)
from meg.encoding import compute_event_id, encode_vertex_fields
from meg.replay import make_op_soup, replay_schedule, soup_sender

SETTINGS = {"max_examples": 50, "deadline": None}

SENDER = hashlib.sha256(b"core-test-sender").digest()


def event_id(kind, body, sender, seq, parents):
    return compute_event_id(encode_vertex_fields(kind, body, sender, seq, parents))


def make_child(state, parents, body=b"x", seq=0, sender=SENDER, kind="msg"):
    vid = event_id(kind, body, sender, seq, parents)
    return Vertex(kind, body, vid, tuple(parents), sender, seq)


# -- encoding ------------------------------------------------------------------


def test_event_id_is_sha256_of_field_encoding():
    parents = (b"\x01" * 32, b"\x02" * 32)
    blob = encode_vertex_fields("msg", b"hello", SENDER, 3, parents)
    assert compute_event_id(blob) == hashlib.sha256(blob).digest()
    assert make_vertex("msg", b"hello", SENDER, 3, parents).id == compute_event_id(blob)


def test_make_vertex_rejects_empty_kind():
    with pytest.raises(ValueError, match="kind"):
        make_vertex("", b"hello", SENDER, 3, (b"\x01" * 32,))


def test_vertex_field_encoding_layout():
    a, b = b"\x01" * 32, b"\x02" * 32

    def lp(field):
        return len(field).to_bytes(8, "big") + field

    blob = encode_vertex_fields("msg", b"hello", SENDER, 3, (b, a))
    assert blob == lp(b"msg") + lp(b"hello") + lp(SENDER) + lp((3).to_bytes(8, "big")) + lp(a + b)


def test_event_id_ignores_parent_order():
    a, b = b"\x01" * 32, b"\x02" * 32
    assert event_id("m", b"", SENDER, 0, (a, b)) == event_id(
        "m", b"", SENDER, 0, (b, a)
    )


def test_event_id_sensitive_to_every_field():
    base = event_id("m", b"body", SENDER, 1, (b"\x01" * 32,))
    assert event_id("n", b"body", SENDER, 1, (b"\x01" * 32,)) != base
    assert event_id("m", b"other", SENDER, 1, (b"\x01" * 32,)) != base
    assert event_id("m", b"body", SENDER, 2, (b"\x01" * 32,)) != base
    assert event_id("m", b"body", SENDER, 1, (b"\x02" * 32,)) != base
    other = hashlib.sha256(b"other-sender").digest()
    assert event_id("m", b"body", other, 1, (b"\x01" * 32,)) != base


# -- init and apply ---------------------------------------------------------------


def test_init_state():
    state = init("room-7")
    assert state.lookup(state.root) is True
    assert state.lookup(b"\x00" * 32) is False
    assert state.vertices[state.root].parents == ()
    assert state.get_extremities() == {state.root}
    assert state.is_rooted_dag()
    assert init("room-7").state_digest() == state.state_digest()
    assert init("other").state_digest() != state.state_digest()


def test_apply_add_updates_extremities():
    state = init()
    op = make_child(state, (state.root,))
    assert state.apply_add(op) is True
    assert state.get_extremities() == {op.id}
    assert (op.id, state.root) in state.get_state()[1]


def test_apply_add_is_idempotent():
    state = init()
    op = make_child(state, (state.root,))
    state.apply_add(op)
    before = state.state_digest()
    assert state.apply_add(op) is False
    assert state.state_digest() == before


def test_apply_add_preconditions():
    state = init()
    with pytest.raises(PreconditionError):
        state.apply_add(make_child(state, ()))
    with pytest.raises(PreconditionError):
        state.apply_add(make_child(state, (state.root, state.root)))
    with pytest.raises(PreconditionError):
        state.apply_add(make_child(state, (b"\x09" * 32,)))


def test_get_state_snapshot_is_frozen():
    state = init()
    op = make_child(state, (state.root,))
    state.apply_add(op)
    vertices, edges = state.get_state()
    assert isinstance(vertices, frozenset) and isinstance(edges, frozenset)
    assert len(vertices) == 2 and edges == {(op.id, state.root)}


def test_copy_is_independent():
    state = init()
    clone = state.copy()
    state.apply_add(make_child(state, (state.root,)))
    assert clone.get_extremities() == {clone.root}
    assert clone.state_digest() != state.state_digest()


def test_is_rooted_dag_detects_corruption():
    state = init()
    a = make_child(state, (state.root,), body=b"a")
    b = make_child(state, (a.id,), body=b"b", seq=1)
    state.apply_add(a)
    state.apply_add(b)
    assert state.is_rooted_dag()
    # a cycle: pretend the earlier vertex also points at the later one
    broken = state.copy()
    broken.vertices[a.id] = dataclasses.replace(a, parents=(state.root, b.id))
    assert not broken.is_rooted_dag()
    # an orphan island: vertex present with no edges at all
    island = state.copy()
    stray = make_child(state, (b"\x0a" * 32,), body=b"i", seq=2)
    island.vertices[stray.id] = stray
    assert not island.is_rooted_dag()


def is_rooted_dag_with_walk(state):
    """`MegState.is_rooted_dag` with its old weak-connectivity walk, kept as its reference."""
    vertices = state.vertices
    if not vertices:
        return False
    incoming = {w: [] for w in vertices}
    for w, v in vertices.items():
        for p in v.parents:
            if p not in incoming:
                return False
            incoming[p].append(w)
    remaining = {w: len(v.parents) for w, v in vertices.items()}
    roots = [w for w, deg in remaining.items() if deg == 0]
    if len(roots) != 1:
        return False
    stack, seen = list(roots), 0
    while stack:
        w = stack.pop()
        seen += 1
        for child in incoming[w]:
            remaining[child] -= 1
            if remaining[child] == 0:
                stack.append(child)
    if seen != len(vertices):
        return False
    visited, frontier = {roots[0]}, [roots[0]]
    while frontier:
        w = frontier.pop()
        for nb in (*vertices[w].parents, *incoming[w]):
            if nb not in visited:
                visited.add(nb)
                frontier.append(nb)
    return len(visited) == len(vertices)


@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
@settings(**SETTINGS)
def test_is_rooted_dag_matches_the_walk_on_corrupted_states(seed, data):
    # Replace vertices with copies whose parents are other vertices, the
    # vertex itself, an unknown id, or none at all.
    state, buffer = init("soup"), PendingBuffer()
    for op in make_op_soup(3, 10, seed=seed):
        ingest(state, buffer, op)
    ids = sorted(state.vertices)
    parent = st.sampled_from([*ids, b"\x0e" * 32])
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        w = data.draw(st.sampled_from(ids))
        parents = tuple(data.draw(st.lists(parent, max_size=3, unique=True)))
        state.vertices[w] = dataclasses.replace(state.vertices[w], parents=parents)
        assert state.is_rooted_dag() == is_rooted_dag_with_walk(state)
    assert state.is_rooted_dag() == is_rooted_dag_with_walk(state)


def reference_digest(vertices, edges):
    h = hashlib.sha256()
    for w in sorted(vertices):
        h.update(w)
    for child, parent in sorted(edges):
        h.update(child + parent)
    return h.digest()


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(**SETTINGS)
def test_edges_and_digest_follow_the_parent_lists(seed):
    state = init("soup")
    buffer = PendingBuffer()
    for op in make_op_soup(3, 12, seed=seed):
        ingest(state, buffer, op)
    edges = {(w, p) for w, v in state.vertices.items() for p in v.parents}
    assert state.get_state()[1] == edges
    assert state.state_digest() == reference_digest(state.vertices, edges)


def state_bytes_per_vertex(writers, d, rounds):
    """Bytes a state built in lockstep rounds holds per vertex, by tracemalloc."""
    rng = Random(1)
    senders = [hashlib.sha256(b"writer-%d" % i).digest() for i in range(writers)]
    gc.collect()
    tracemalloc.start()
    try:
        state = init("memory")
        for r in range(rounds):
            ops = [
                generate_add(state, "msg", rng.randbytes(8), d, rng, sender, r)
                for sender in senders
            ]
            for op in ops:
                state.apply_add(op)
        del ops
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held / len(state.vertices)


def test_state_holds_each_vertex_once():
    # 6,401 vertices of about 297 bytes each.  Nesting the payload in an
    # object of its own costs 40 more per vertex, and storing the edges a
    # second time as a set of (child, parent) tuples 650-770 more.
    assert state_bytes_per_vertex(32, 3, 200) <= 320


def test_state_digest_depends_on_edges_not_insertion_order():
    ops = make_op_soup(3, 8, seed=3)
    d1 = replay_schedule(list(ops))
    d2 = replay_schedule(list(reversed(ops)))
    assert d1 == d2


# -- parent selection ---------------------------------------------------------------


def test_select_parents_validation():
    rng = Random(0)
    with pytest.raises(ValueError):
        select_parents(frozenset({b"\x01" * 32}), 1, rng)
    with pytest.raises(EmptyExtremitiesError):
        select_parents(frozenset(), 2, rng)


def test_select_parents_takes_all_when_few():
    ext = frozenset({b"\x01" * 32, b"\x02" * 32})
    assert set(select_parents(ext, 5, Random(0))) == ext


def test_select_parents_uniform_frequency():
    # 10 extremities, d=5: every extremity should appear in half the picks.
    ext = frozenset(bytes([i]) * 32 for i in range(10))
    target = b"\x07" * 32
    rng = Random(12345)
    trials = 100_000
    hits = sum(1 for _ in range(trials) if target in select_parents(ext, 5, rng))
    assert abs(hits / trials - 0.5) < 0.01


def test_generate_add_builds_valid_op():
    state = init()
    for seq in range(4):
        op = generate_add(state, "m", bytes([seq]), 2, Random(seq), SENDER, seq)
        assert set(op.parents) <= state.get_extremities()
        assert op.id == event_id(
            "m", bytes([seq]), SENDER, seq, op.parents
        )
        state.apply_add(op)
    assert state.is_rooted_dag()


# -- pending buffer and ingest ---------------------------------------------------------


def test_ingest_buffers_until_parents_arrive():
    state = init()
    buffer = PendingBuffer()
    a = make_child(state, (state.root,), body=b"a")
    b = make_child(state, (a.id,), body=b"b", seq=1)
    c = make_child(state, (b.id,), body=b"c", seq=2)
    assert ingest(state, buffer, c) == []
    assert ingest(state, buffer, b) == []
    assert len(buffer) == 2
    assert buffer.missing_parent_ids(state) == {a.id}
    applied = ingest(state, buffer, a)
    assert applied == [a.id, b.id, c.id]
    assert len(buffer) == 0
    assert state.get_extremities() == {c.id}


def test_ingest_cascade_in_ascending_id_order():
    state = init()
    buffer = PendingBuffer()
    gate = make_child(state, (state.root,), body=b"gate")
    siblings = [make_child(state, (gate.id,), body=bytes([i]), seq=i) for i in range(6)]
    for op in siblings:
        assert ingest(state, buffer, op) == []
    assert buffer.ready_ops(state) == []
    applied = ingest(state, buffer, gate)
    assert applied[0] == gate.id
    assert applied[1:] == sorted(op.id for op in siblings)


def test_ingest_double_delivery_is_noop():
    state = init()
    buffer = PendingBuffer()
    op = make_child(state, (state.root,))
    assert ingest(state, buffer, op) == [op.id]
    assert ingest(state, buffer, op) == []


def test_ingest_rewakes_op_missing_two_parents():
    state = init()
    buffer = PendingBuffer()
    a = make_child(state, (state.root,), body=b"a")
    b = make_child(state, (state.root,), body=b"b", seq=1)
    c = make_child(state, (a.id, b.id), body=b"c", seq=2)
    assert ingest(state, buffer, c) == []
    # Woken by a, still blocked on b: it stays buffered and waits on b.
    assert ingest(state, buffer, a) == [a.id]
    assert c.id in buffer
    assert buffer.ready_ops(state) == []
    assert buffer.missing_parent_ids(state) == {b.id}
    assert ingest(state, buffer, b) == [b.id, c.id]
    assert len(buffer) == 0


def missing_parent_ids_loop(buffer, state):
    """`PendingBuffer.missing_parent_ids` as the plain loop, kept as its reference."""
    out = set()
    for op in buffer.operations():
        for p in op.parents:
            if not state.lookup(p) and p not in buffer:
                out.add(p)
    return out


@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
@settings(**SETTINGS)
def test_missing_parent_ids_matches_the_loop(seed, data):
    # Ops arrive through `ingest`, leave through `remove`, or land in the
    # state behind the buffer's back through `apply_add`.
    ops = make_op_soup(3, 12, seed=seed)
    stray = make_child(init("soup"), (b"\x0c" * 32, b"\x0d" * 32), body=b"orphan")
    actions = st.tuples(st.sampled_from(("ingest", "remove", "apply")), st.sampled_from([*ops, stray]))
    state, buffer = init("soup"), PendingBuffer()
    for action, op in data.draw(st.lists(actions, max_size=3 * len(ops))):
        if action == "ingest":
            ingest(state, buffer, op)
        elif action == "remove":
            buffer.remove(op.id)
        elif state.precondition_holds(op):
            state.apply_add(op)
        missing = buffer.missing_parent_ids(state)
        assert missing == missing_parent_ids_loop(buffer, state)
        assert buffer.missing_parent_ids(state) is missing


def test_missing_parent_ids_is_kept_until_buffer_or_state_changes():
    state, buffer = init(), PendingBuffer()
    a = make_child(state, (state.root,), body=b"a")
    b = make_child(state, (a.id, b"\x0b" * 32), body=b"b", seq=1)
    ingest(state, buffer, b)
    first = buffer.missing_parent_ids(state)
    assert first == {a.id, b"\x0b" * 32}
    assert buffer.missing_parent_ids(state) is first
    state.apply_add(a)
    assert buffer.missing_parent_ids(state) == {b"\x0b" * 32}
    # Another state object with as many vertices is another state.
    other = init()
    other.apply_add(make_child(other, (other.root,), body=b"c"))
    assert buffer.missing_parent_ids(other) == first
    buffer.remove(b.id)
    assert buffer.missing_parent_ids(state) == frozenset()


def test_missing_parent_ids_changes_when_wake_releases_a_parent():
    # c waits on b, b on a.  Once a is in the state, the answer is empty;
    # `wake` then takes b out of the buffer, so c misses b.
    state, buffer = init(), PendingBuffer()
    a = make_child(state, (state.root,), body=b"a")
    b = make_child(state, (a.id,), body=b"b", seq=1)
    c = make_child(state, (b.id,), body=b"c", seq=2)
    buffer.add(b)
    buffer.add(c)
    assert buffer.missing_parent_ids(state) == {a.id}
    state.apply_add(a)
    assert buffer.missing_parent_ids(state) == frozenset()
    assert buffer.wake(state, [a.id]) == [b]
    assert buffer.missing_parent_ids(state) == {b.id}


def full_scan_ingest(state, buffer, op):
    """The drain as a full rescan of the buffer after every level."""
    if not state.precondition_holds(op):
        buffer.add(op)
        return []
    applied, ready = [], [op]
    while ready:
        for nxt in ready:
            buffer.remove(nxt.id)
            if state.apply_add(nxt):
                applied.append(nxt.id)
        ready = buffer.ready_ops(state)
    return applied


@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
@settings(**SETTINGS)
def test_ingest_wakes_exactly_what_a_full_scan_finds(seed, data):
    # Inserted actions re-deliver an op, or take it out of both buffers; an op
    # taken out arrives again at the end, so its filing in `buffer` goes stale
    # and it may be held a second time under the same or another parent.
    ops = make_op_soup(3, 14, seed=seed)
    schedule = [("ingest", op) for op in data.draw(st.permutations(ops))]
    inserted = st.tuples(st.integers(0, 30), st.sampled_from(("ingest", "remove")), st.sampled_from(ops))
    for pos, action, op in data.draw(st.lists(inserted, max_size=8)):
        schedule.insert(min(pos, len(schedule)), (action, op))
        if action == "remove":
            schedule.append(("ingest", op))
    state, buffer = init("soup"), PendingBuffer()
    ref_state, ref_buffer = init("soup"), PendingBuffer()
    order = []
    for action, op in schedule:
        if action == "remove":
            buffer.remove(op.id)
            ref_buffer.remove(op.id)
        else:
            got = ingest(state, buffer, op)
            assert got == full_scan_ingest(ref_state, ref_buffer, op)
            order.extend(got)
        assert buffer.ready_ops(state) == []
        assert buffer.operations() == ref_buffer.operations()
    assert len(buffer) == 0
    seen = []
    delivered = [op for action, op in schedule if action == "ingest"]
    replay_schedule(delivered, check=lambda s: seen.append(next(reversed(s.vertices))))
    # A removal can only push applies later than a plain replay of the arrivals.
    assert sorted(order) == sorted(seen)
    if len(delivered) == len(schedule):
        assert order == seen


def test_waiting_room_skips_released_and_stale_filings():
    # x and y both wait on a.  x is removed, so waking a hands back y alone,
    # and a wakes nothing a second time.
    state, buffer = init(), PendingBuffer()
    a = make_child(state, (state.root,), body=b"a")
    x = make_child(state, (a.id,), body=b"x", seq=1)
    y = make_child(state, (a.id,), body=b"y", seq=2)
    buffer.add(x)
    buffer.add(y)
    buffer.remove(x.id)
    state.apply_add(a)
    assert buffer.wake(state, [a.id]) == [y]
    buffer.held[x.id] = x  # held, but no longer filed under a
    assert buffer.wake(state, [a.id]) == []
    # c misses a and b.  Removed and added again, it is filed under a twice;
    # woken by a, it is filed under b twice, and b hands it back once.
    state, buffer = init(), PendingBuffer()
    a = make_child(state, (state.root,), body=b"a")
    b = make_child(state, (state.root,), body=b"b", seq=1)
    c = make_child(state, (a.id, b.id), body=b"c", seq=2)
    buffer.add(c)
    buffer.remove(c.id)
    buffer.add(c)
    state.apply_add(a)
    assert buffer.wake(state, [a.id]) == []
    assert c.id in buffer
    state.apply_add(b)
    assert buffer.wake(state, [b.id]) == [c]
    assert len(buffer) == 0
    # Once c is ready, a stale filing hands it back at most once too.
    buffer.add(c)
    buffer.remove(c.id)
    buffer.add(c)
    assert buffer.wake(state, [a.id]) == [c]


# -- order independence -----------------------------------------------------------------


def test_all_permutations_of_four_ops_converge():
    ops = make_op_soup(2, 4, seed=8)
    digests = {replay_schedule(list(p)) for p in permutations(ops)}
    assert len(digests) == 1


@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
@settings(**SETTINGS)
def test_random_schedules_converge(seed, data):
    ops = make_op_soup(3, 10, seed=seed)
    baseline = replay_schedule(list(ops))
    schedule = data.draw(st.permutations(ops))
    assert replay_schedule(list(schedule)) == baseline


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(**SETTINGS)
def test_extremities_are_childless_vertices(seed):
    ops = make_op_soup(3, 12, seed=seed)
    state = init("soup")
    buffer = PendingBuffer()
    rng = Random(seed)
    order = list(ops)
    rng.shuffle(order)
    for op in order:
        ingest(state, buffer, op)
        assert state.width() == len(state.get_extremities())
    assert len(state.vertices) == len(ops) + 1
    with_child = {p for (_, p) in state.get_state()[1]}
    assert state.get_extremities() == set(state.vertices) - with_child
    assert state.is_rooted_dag()


def test_replay_schedule_checks_once_per_applied_op():
    ops = make_op_soup(4, 20, seed=11)
    schedule = list(reversed(ops))  # most ops arrive before a parent and drain in cascades
    sizes = []
    replay_schedule(schedule, check=lambda state: sizes.append(len(state.vertices) - 1))
    assert sizes == list(range(1, len(ops) + 1))


def test_soup_senders_are_stable():
    assert soup_sender(0) == hashlib.sha256(b"soup-sender-0").digest()


# -- parent selection from the state's sorted extremity pool ---------------------------


def assert_picks_match_select_parents(state):
    ext = state.get_extremities()
    for s in range(4):
        op = generate_add(state, "msg", b"pick", 2, Random(s), SENDER, 0)
        assert list(op.parents) == select_parents(ext, 2, Random(s))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(**SETTINGS)
def test_generate_add_picks_follow_every_state_version(seed):
    ops = make_op_soup(5, 16, seed=seed)
    state = init("soup")
    for op in ops[:10]:
        assert_picks_match_select_parents(state)
        assert state.apply_add(op)
        assert_picks_match_select_parents(state)
    dup = state.copy()
    for op in ops[10:]:
        assert_picks_match_select_parents(dup)
        assert dup.apply_add(op)
        assert_picks_match_select_parents(dup)
        assert_picks_match_select_parents(state)
    assert not dup.apply_add(ops[0])
    assert_picks_match_select_parents(dup)


def test_generate_add_rejects_cap_below_two():
    with pytest.raises(ValueError):
        generate_add(init(), "msg", b"", 1, Random(0), SENDER, 0)
