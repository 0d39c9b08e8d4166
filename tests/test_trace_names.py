"""Every name the benchmark's per-layer trace wraps still resolves.

``perfbench/child.py`` wraps, by (module, attribute), the names each module
imports from another layer. A refactor that drops or renames one of them
should fail here rather than only when the trace is installed.
"""

import importlib
import runpy
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def test_layer_calls_resolve():
    layer_calls = runpy.run_path(str(CHILD))["LAYER_CALLS"]
    assert layer_calls
    missing = []
    for owner_path, attr, _ in layer_calls:
        module_path, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_path)
        if class_name:
            owner = getattr(owner, class_name, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{owner_path}.{attr}")
    assert missing == []
