"""Replicated append-only event DAG with commutative, idempotent add effectors.

State is a rooted DAG.  Vertices are immutable events; each edge points from
a new event to a parent it acknowledged, so the edges are the vertices'
parent lists and are stored nowhere else.  The single update operation, add,
splits into a side-effect-free generator (choose parents among the current
forward extremities, derive the content id) and an effector (union the vertex,
and with it its edges, into the local graph).  The operation the generator
returns, and that the buffer holds and every effector applies, is the vertex
itself.  An effector may only run once
all parents are present; operations arriving early wait in a pending buffer
and are drained as their parents show up.  That buffer is the causal
delivery: the transport need not order operations at all.  Effectors for
distinct events commute and re-applying an event is a no-op, which together
make replicas converge to identical states once they have applied the same
set of operations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random
from typing import AbstractSet, Callable, Iterable

from .encoding import compute_event_id, encode_vertex_fields

EventId = bytes
ReplicaId = bytes

ROOT_SENDER = bytes(32)
DEFAULT_ROOM = "room-0"
MAX_PAYLOAD_BYTES = 64 * 1024


class MegError(Exception):
    """Base error for DAG state handling."""


class PreconditionError(MegError):
    """An effector ran although some parent is missing."""


class EmptyExtremitiesError(MegError):
    """Parent selection was asked to choose from an empty extremity set."""


# Slotted dataclass, not a NamedTuple: 80 B per vertex against a tuple's 88 B.
@dataclass(frozen=True, slots=True)
class Vertex:
    """Immutable event: its content, `kind` and `body`, plus the parent ids it acknowledged.

    `make_vertex` builds every local event and rejects an empty `kind`.  The
    64 KiB bound on `kind` and on `body` (`MAX_PAYLOAD_BYTES`) is enforced
    where untrusted input enters the system, not here, so that oversized test
    inputs can be built.  `id` is a claim that inbound verification checks
    against the canonical content hash; locally generated vertices always
    satisfy it.  Parents are kept in generation order; hashing sorts them, so
    order does not affect the id.
    """

    kind: str
    body: bytes
    id: EventId
    parents: tuple[EventId, ...]
    sender: ReplicaId
    seq: int


class MegState:
    """Rooted event DAG owned by a single logical writer.

    The graph is held once, as the map from id to vertex; the edge set E is
    derived from the parent lists wherever a whole-graph view needs it, and
    `get_state` still returns the pair (V, E).  Queries hand out immutable
    snapshots, so readers never observe a half-applied effector.  The
    extremities are also kept as one sorted list, the pool `generate_add`
    samples parents from; it is built on first use, dropped whenever
    `apply_add` lands a new vertex, and never shared with a `copy()`.
    """

    def __init__(self, root: Vertex) -> None:
        if root.parents:
            raise ValueError("root vertex must have no parents")
        self.root: EventId = root.id
        self.vertices: dict[EventId, Vertex] = {root.id: root}
        self._extremities: set[EventId] = {root.id}
        self._sorted_extremities: list[EventId] | None = None

    # -- queries -----------------------------------------------------------

    def lookup(self, w: EventId) -> bool:
        return w in self.vertices

    def get_extremities(self) -> frozenset[EventId]:
        """Exactly the vertices with no incoming edge.  Never empty."""
        return frozenset(self._extremities)

    def extremities_view(self) -> AbstractSet[EventId]:
        """The live extremity set, without a copy; callers must not mutate it."""
        return self._extremities

    def width(self) -> int:
        """The number of extremities, `len(get_extremities())` without the copy."""
        return len(self._extremities)

    def sorted_extremities(self) -> list[EventId]:
        """The extremity ids in ascending order; callers must not mutate it."""
        if self._sorted_extremities is None:
            self._sorted_extremities = sorted(self._extremities)
        return self._sorted_extremities

    def get_state(self) -> tuple[frozenset[Vertex], frozenset[tuple[EventId, EventId]]]:
        """Immutable (vertex set, edge set) snapshot; each edge is (child, parent)."""
        vertices = self.vertices
        edges = frozenset((w, p) for w, v in vertices.items() for p in v.parents)
        return frozenset(vertices.values()), edges

    def precondition_holds(self, v: Vertex) -> bool:
        """Delivery precondition: every parent is already in the state."""
        return self.first_missing_parent(v) is None

    def first_missing_parent(self, v: Vertex) -> EventId | None:
        """The first parent of `v` not in the state, None if there is none."""
        for p in v.parents:
            if p not in self.vertices:
                return p
        return None

    # -- effector ----------------------------------------------------------

    def apply_add(self, v: Vertex) -> bool:
        """Union the vertex, and so its parent edges, into the graph.

        Returns True when the vertex is new, False when it was already
        present (idempotent re-delivery).  Raises PreconditionError when a
        parent is missing; callers should route through `ingest` instead of
        calling this on unchecked input.
        """
        if v.id in self.vertices:
            return False
        if not v.parents:
            raise PreconditionError("add operation must reference at least one parent")
        parents, vertices = v.parents, self.vertices
        if len(set(parents)) != len(parents):
            raise PreconditionError("duplicate parent ids")
        for p in parents:
            if p not in vertices:
                missing = [m.hex()[:16] for m in parents if m not in vertices]
                raise PreconditionError(f"missing parents: {missing}")
        vertices[v.id] = v
        self._extremities.difference_update(parents)
        self._extremities.add(v.id)
        self._sorted_extremities = None
        return True

    # -- structural checks -------------------------------------------------

    def is_rooted_dag(self) -> bool:
        """Explicit traversal check: single root, acyclic, weakly connected.

        Recomputes everything from the vertices and their parent lists, on
        purpose ignoring the incremental extremity bookkeeping, so it can
        catch corruption of that bookkeeping.  Kahn's algorithm drains from
        the one parentless vertex; a vertex drains only after all its
        parents, so when every vertex drains, each one reaches the root by
        parent links.  That is acyclic and weakly connected at once.
        """
        vertices = self.vertices
        if not vertices:
            return False
        incoming: dict[EventId, list[EventId]] = {w: [] for w in vertices}
        for w, v in vertices.items():
            for p in v.parents:
                if p not in incoming:
                    return False
                incoming[p].append(w)
        remaining = {w: len(v.parents) for w, v in vertices.items()}
        roots = [w for w, deg in remaining.items() if deg == 0]
        if len(roots) != 1:
            return False
        stack = list(roots)
        seen = 0
        while stack:
            w = stack.pop()
            seen += 1
            for child in incoming[w]:
                remaining[child] -= 1
                if remaining[child] == 0:
                    stack.append(child)
        return seen == len(vertices)

    def state_digest(self) -> bytes:
        """SHA-256 over sorted vertex id bytes, then sorted (child, parent) id pairs."""
        vertices = self.vertices
        ids = sorted(vertices)
        h = hashlib.sha256()
        for w in ids:
            h.update(w)
        for w in ids:  # pairs sorted by child, then by parent
            for p in sorted(vertices[w].parents):
                h.update(w)
                h.update(p)
        return h.digest()

    def copy(self) -> "MegState":
        dup = object.__new__(MegState)
        dup.root = self.root
        dup.vertices = dict(self.vertices)
        dup._extremities = set(self._extremities)
        dup._sorted_extremities = None
        return dup


def make_vertex(
    kind: str, body: bytes, sender: ReplicaId, seq: int, parents: Iterable[EventId]
) -> Vertex:
    """Vertex whose id is the content hash of exactly these fields; `kind` must be non-empty."""
    if not kind:
        raise ValueError("event kind must be non-empty")
    parents = tuple(parents)
    vid = compute_event_id(encode_vertex_fields(kind, body, sender, seq, parents))
    # Positional: a frozen dataclass matches keyword arguments at a cost.
    return Vertex(kind, body, vid, parents, sender, seq)


def init(room: str = DEFAULT_ROOM) -> MegState:
    """Fresh state holding only the root vertex derived from the room identifier.

    The root id is a pure function of the room string, so replicas agree on
    the initial state without communicating.
    """
    return MegState(make_vertex("create", room.encode("utf-8"), ROOT_SENDER, 0, ()))


def select_parents(extremities: Iterable[EventId], d: int, rng: Random) -> list[EventId]:
    """Choose parent ids for a new event.

    If the extremities fit within the cap d, all of them are taken;
    otherwise a uniformly random subset of d of them.  Sampling runs over a
    sorted pool so the result is a pure function of the rng state.
    """
    return _select_sorted(sorted(set(extremities)), d, rng)


def _select_sorted(ext: list[EventId], d: int, rng: Random) -> list[EventId]:
    """`select_parents` on the sorted extremity ids."""
    if d < 2:
        raise ValueError("parent cap d must be at least 2")
    if not ext:
        raise EmptyExtremitiesError("cannot select parents from empty extremity set")
    return ext[:] if len(ext) <= d else rng.sample(ext, d)


def generate_add(
    state: MegState,
    kind: str,
    body: bytes,
    d: int,
    rng: Random,
    sender: ReplicaId,
    seq: int,
) -> Vertex:
    """Generator half of add: pick parents, derive the id, leave state untouched.

    The parents are those `select_parents(state.get_extremities(), d, rng)`
    would pick, drawn from the state's sorted extremity list so that
    generating many events against one state version sorts once.
    """
    parents = _select_sorted(state.sorted_extremities(), d, rng)
    return make_vertex(kind, body, sender, seq, parents)


class PendingBuffer:
    """Operations whose parents have not all arrived yet, held by event id.

    Each operation is filed under one parent it still misses.  `ingest`
    applies a level of operations, then `wake`s the operations filed under
    the ids that level applied: those now ready leave the buffer as the next
    level, the rest are filed under a parent they still miss.  So a delivery
    touches only the operations it unblocked.  Removing an operation leaves
    its filing behind, to be skipped when that parent wakes it.  `ready_ops`
    is the full scan the index must agree with.
    """

    def __init__(self) -> None:
        self.held: dict[EventId, Vertex] = {}
        # Missing parent id -> ids of the ops filed under it, removed ones included.
        self._filed: dict[EventId, list[EventId]] = {}
        # (state, its vertex count, answer) of the last `missing_parent_ids`;
        # None once the buffer has changed.
        self._missing: tuple[MegState, int, frozenset[EventId]] | None = None

    def __len__(self) -> int:
        return len(self.held)

    def __contains__(self, op_id: object) -> bool:
        return op_id in self.held

    def add(self, op: Vertex, waiting_on: EventId | None = None) -> None:
        """Buffer `op` under `waiting_on`, a parent it misses (default: its first)."""
        op_id = op.id
        if op_id not in self.held:
            self.held[op_id] = op
            self._missing = None
            key = op.parents[0] if waiting_on is None else waiting_on
            self._filed.setdefault(key, []).append(op_id)

    def remove(self, op_id: EventId) -> None:
        if self.held.pop(op_id, None) is not None:
            self._missing = None

    def wake(self, state: MegState, applied: Iterable[EventId]) -> list[Vertex]:
        """Ops waiting on `applied` whose precondition now holds, ascending by id.

        They leave the buffer; a woken op that still misses a parent waits
        on that parent instead.
        """
        held, filed = self.held, self._filed
        ready: list[Vertex] = []
        for vid in applied:
            for op_id in filed.pop(vid, ()):
                op = held.get(op_id)
                if op is None:  # removed, or filed twice and already woken
                    continue
                missing = state.first_missing_parent(op)
                if missing is None:
                    del held[op_id]
                    self._missing = None
                    ready.append(op)
                else:
                    filed.setdefault(missing, []).append(op_id)
        ready.sort(key=lambda op: op.id)
        return ready

    def operations(self) -> list[Vertex]:
        return [self.held[k] for k in sorted(self.held)]

    def ready_ops(self, state: MegState) -> list[Vertex]:
        """Buffered ops whose precondition now holds, ascending by event id.

        A full scan; after every `ingest` it must come back empty.
        """
        return [op for k, op in sorted(self.held.items()) if state.precondition_holds(op)]

    def missing_parent_ids(self, state: MegState) -> frozenset[EventId]:
        """Parents of buffered ops that neither the state nor the buffer holds.

        These are the ids a backfill request must name for the buffer to
        drain.  Computing them scans the whole buffer, so the answer is kept,
        and handed out again as the same frozenset, until the buffer changes
        or the state gains a vertex.  It depends only on which ids the state
        holds, and a state never loses one (replacing a vertex in place keeps
        its id), so the vertex count tells whether the state changed.  The
        buffer itself is still unbounded under a flood of orphans; bounding
        it is ROADMAP item 2.
        """
        vertices, ops = state.vertices, self.held
        cached = self._missing
        if cached is not None and cached[0] is state and cached[1] == len(vertices):
            return cached[2]
        missing = frozenset(
            p
            for op in ops.values()
            for p in op.parents
            if p not in vertices and p not in ops
        )
        self._missing = (state, len(vertices), missing)
        return missing


def ingest(
    state: MegState,
    buffer: PendingBuffer,
    op: Vertex,
    check: Callable[[MegState], None] | None = None,
) -> list[EventId]:
    """Apply an operation if its parents are present, else buffer it.

    After a successful apply, drains the buffer to fixpoint level by level:
    the next level is the buffered operations that waited on an id the last
    level applied and are now ready, applied in ascending event id order for
    determinism.  Returns the ids applied by this call; a re-delivered
    duplicate applies nothing and wakes nothing.  `check(state)`, if given,
    runs after every applied operation.  Every apply to `state` must go
    through `ingest` with this buffer: then no op it applies is buffered.
    """
    applied: list[EventId] = []
    missing = state.first_missing_parent(op)
    if missing is not None:
        buffer.add(op, missing)
        return applied
    level = [op]
    while level:
        start = len(applied)
        for nxt in level:
            if state.apply_add(nxt):
                applied.append(nxt.id)
                if check is not None:
                    check(state)
        level = buffer.wake(state, applied[start:])
    return applied
