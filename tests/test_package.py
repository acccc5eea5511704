"""Properties of the package as a whole."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path
from types import ModuleType

import meg

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "meg"


def test_runtime_imports_only_the_standard_library():
    # Tests may use pytest and hypothesis; the package itself may not.
    outside, paths = [], sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []


def test_bench_span_targets_resolve():
    # The benchmark wraps meg's functions by module and name from outside the
    # package, so a rename or a moved function breaks it.
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name, module, attr, _ in spans.TARGETS:
        owner = sys.modules[module]
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(owner, cls_name)), name
        else:
            assert callable(getattr(owner, attr)), name
    # The bench registers each node by the first argument after self.
    params = list(inspect.signature(meg.harness.ReplicaNode.__init__).parameters)
    assert params[:2] == ["self", "idx"]
    assert meg.harness is sys.modules["meg.harness"]
    assert meg.width is sys.modules["meg.width"]
    for name in meg.__all__:
        module = getattr(meg, name)
        assert isinstance(module, ModuleType) and sys.modules[f"meg.{name}"] is module


def test_bench_wire_reads_resolve(monkeypatch):
    # The benchmark's `Network.step` observer counts an operation on the wire
    # by `isinstance(msg, meg.network.OpMessage)`, and reads
    # `env.op.vertex.id` of each envelope a backfill answer serves.
    handed, served = [], []
    step, serve = meg.network.Network.step, meg.harness.ReplicaNode.serve_backfill

    def watched_step(net):
        out = step(net)
        handed.extend(msg for _, _, msg in out)
        return out

    def watched_serve(node, missing):
        envelopes = serve(node, missing)
        served.extend((node, env) for env in envelopes)
        return envelopes

    monkeypatch.setattr(meg.network.Network, "step", watched_step)
    monkeypatch.setattr(meg.harness.ReplicaNode, "serve_backfill", watched_serve)
    spec = meg.harness.load_scenario(ROOT / "scripts" / "scenarios" / "droppy.json")
    _, verdict = meg.harness.run_scenario(spec)
    assert verdict.all_ok()
    auxiliary = (meg.network.GossipMessage, meg.network.BackfillRequest, meg.network.BackfillResponse)
    ops = [msg for msg in handed if not isinstance(msg, auxiliary)]
    assert ops and all(isinstance(msg, meg.network.OpMessage) for msg in ops)
    assert served and all(env.op.vertex.id in node.store for node, env in served)
