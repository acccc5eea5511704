"""Properties of the package as a whole."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "meg"


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
