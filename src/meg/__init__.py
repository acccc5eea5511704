"""Replicated append-only event graph with byzantine-tolerant delivery simulation.

The package splits into: the graph CRDT itself (`core`), the admission checks
and signature envelope (`monitor`), a deterministic message transport
(`network`), scenario execution and grading (`harness`), schedule replay
helpers (`replay`), and the urn-model analysis of extremity width (`width`).
Each name is imported from its module, as in `from meg.harness import
run_scenario`; `import meg` loads every module.
"""

from . import core, encoding, harness, monitor, network, replay, width

__version__ = "0.1.0"

__all__ = ["core", "encoding", "harness", "monitor", "network", "replay", "width"]
