"""Deterministic op-set construction and schedule replay for convergence checks.

`make_op_soup` builds a fixed set of interdependent add operations containing
genuine concurrency (several ops generated against the same snapshot).  The
same set can then be replayed in arbitrary delivery orders; every complete
schedule must drain the pending buffer and end at the same state digest.
"""

from __future__ import annotations

import hashlib
from random import Random
from typing import Callable

from .core import (
    MegState,
    PendingBuffer,
    Vertex,
    generate_add,
    ingest,
    init,
)

SOUP_ROOM = "soup"


def soup_sender(i: int) -> bytes:
    return hashlib.sha256(f"soup-sender-{i}".encode()).digest()


def make_op_soup(n_replicas: int, n_ops: int, seed: int) -> list[Vertex]:
    """Build `n_ops` operations with concurrent batches, each with at most 2 parents.

    Each batch picks a random subset of replicas that all generate against the
    current snapshot before any of the batch is applied, so ops within a batch
    are mutually concurrent (often sharing parents), while later batches depend
    on earlier ones.
    """
    if n_replicas < 1 or n_ops < 0:
        raise ValueError("need n_replicas >= 1 and n_ops >= 0")
    state = init(SOUP_ROOM)
    rng = Random(f"{seed}:soup")
    senders = [soup_sender(i) for i in range(n_replicas)]
    seqs = [0] * n_replicas
    ops: list[Vertex] = []
    while len(ops) < n_ops:
        emitters = rng.sample(range(n_replicas), rng.randint(1, n_replicas))
        batch: list[Vertex] = []
        for i in emitters:
            if len(ops) + len(batch) >= n_ops:
                break
            batch.append(generate_add(state, "msg", rng.randbytes(4), 2, rng, senders[i], seqs[i]))
            seqs[i] += 1
        for op in batch:
            state.apply_add(op)
            ops.append(op)
    return ops


def replay_schedule(
    ops: list[Vertex], check: Callable[[MegState], None] | None = None
) -> bytes:
    """Ingest ops in the given order into a fresh soup state; returns its digest.

    `check(state)`, if given, runs after every applied op.  Raises if the
    schedule leaves anything undelivered, which for a complete permutation of
    a soup would mean the buffering logic lost an op.
    """
    state = init(SOUP_ROOM)
    buffer = PendingBuffer()
    for op in ops:
        ingest(state, buffer, op, check)
    if len(buffer):
        raise ValueError(f"schedule left {len(buffer)} ops buffered")
    return state.state_digest()
