"""Call spans around meg's public functions, installed from outside the package.

`Tracer.install` replaces each target with a timing wrapper: a function in
every loaded `meg` module that holds it, so imported aliases such as
`meg.harness.ingest` and `meg.monitor.compute_event_id` are covered too, and
a method on its class.  `uninstall` puts the originals back.  A span's self
time is its duration minus the spans that ran inside it.  Nothing inside
`src/meg` is edited.

Some wrappers also look at arguments and results to count useful work, such
as how many `ingest` calls applied something; those counts go to `counts`.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter


def _meg_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "meg" or name.startswith("meg.")]


# -- observers: (tracer, args, result) after a call -------------------------------


def _apply_add(tr: "Tracer", args: tuple, result) -> None:
    if result:
        tr.counts["apply_add.applied"] += 1


def _ingest(tr: "Tracer", args: tuple, result) -> None:
    if result:
        tr.counts["ingest.useful"] += 1
    tr.counts["ingest.applied"] += len(result)


def _ready_ops(tr: "Tracer", args: tuple, result) -> None:
    scanned = len(args[0])
    tr.counts["ready_ops.scanned"] += scanned
    tr.counts["ready_ops.returned"] += len(result)
    tr.counts["buffer.peak"] = max(tr.counts["buffer.peak"], scanned)


def _verify(tr: "Tracer", args: tuple, result) -> None:
    if result is not None:
        tr.counts["verify.rejected"] += 1


def _serve_backfill(tr: "Tracer", args: tuple, result) -> None:
    tr.counts["backfill.served"] += len(result)


def _step(tr: "Tracer", args: tuple, result) -> None:
    """Count envelopes handed to receivers and backfill envelopes still needed.

    A backfill envelope is useful when its receiver had not applied it at the
    tick the response arrived.
    """
    network = sys.modules["meg.network"]
    for receiver, _sender, msg in result:
        if isinstance(msg, network.OpMessage):
            tr.counts["wire.envelopes"] += 1
        elif isinstance(msg, network.BackfillResponse):
            tr.counts["wire.envelopes"] += len(msg.envelopes)
            tr.counts["backfill.delivered"] += len(msg.envelopes)
            applied = tr.nodes[receiver].applied
            tr.counts["backfill.useful"] += sum(
                1 for env in msg.envelopes if env.op.vertex.id not in applied
            )


# (span name, owning module, attribute, observer)
TARGETS = [
    ("encoding.compute_event_id", "meg.encoding", "compute_event_id", None),
    ("core.generate_add", "meg.core", "generate_add", None),
    ("core.ingest", "meg.core", "ingest", _ingest),
    ("core.apply_add", "meg.core", "MegState.apply_add", _apply_add),
    ("core.is_rooted_dag", "meg.core", "MegState.is_rooted_dag", None),
    ("core.state_digest", "meg.core", "MegState.state_digest", None),
    ("core.ready_ops", "meg.core", "PendingBuffer.ready_ops", _ready_ops),
    ("monitor.verify_envelope", "meg.monitor", "verify_envelope", _verify),
    ("monitor.sign_envelope", "meg.monitor", "sign_envelope", None),
    ("network.step", "meg.network", "Network.step", _step),
    ("harness.receive_envelope", "meg.harness", "ReplicaNode.receive_envelope", None),
    ("harness.serve_backfill", "meg.harness", "ReplicaNode.serve_backfill", _serve_backfill),
    ("harness.run_scenario", "meg.harness", "run_scenario", None),
    ("harness.run_lockstep_rounds", "meg.harness", "run_lockstep_rounds", None),
    ("width.pmf_removed", "meg.width", "pmf_removed", None),
    ("width.monte_carlo_trajectory", "meg.width", "monte_carlo_trajectory", None),
    ("width.simulate_urn_round", "meg.width", "simulate_urn_round", None),
    ("width.mean_trajectory", "meg.width", "mean_trajectory", None),
    ("width.fixed_point", "meg.width", "fixed_point", None),
    ("width.rounds_until_convergence", "meg.width", "rounds_until_convergence", None),
]
SPAN_NAMES = [t[0] for t in TARGETS]


class Tracer:
    """Spans and counts for one traced job; `only` limits which spans are installed."""

    def __init__(self, only: tuple[str, ...] | None = None) -> None:
        self.targets = [t for t in TARGETS if only is None or t[0] in only]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.nodes: dict = {}
        self._stack = [0.0]
        self._undo: list = []

    def span(self, name: str, fn, observe=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[name] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, module, attr, observe in self.targets:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, method, self.span(name, cls.__dict__[method], observe))
                continue
            original = getattr(owner, attr)
            wrapped = self.span(name, original, observe)
            for mod in _meg_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapped)
        # Backfill usefulness looks receivers up by index.
        node_cls = sys.modules["meg.harness"].ReplicaNode
        init = node_cls.__init__
        nodes = self.nodes

        def register(node, idx, *args, **kwargs):
            init(node, idx, *args, **kwargs)
            nodes[idx] = node

        self._replace(node_cls, "__init__", register)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
