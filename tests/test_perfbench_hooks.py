"""The benchmark's traced names still exist in relrec.

The traced benchmark run replaces each `(module, attribute)` of
`perfbench/layers.py` `TRACED_CALLS` with `getattr` and no default, so a
refactor that moves or renames one of them would crash that run.  This
test reads the table without importing the rest of the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_resolves():
    layers = load_layers()
    assert layers.TRACED_CALLS
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _ in layers.TRACED_CALLS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


def test_result_hooks_name_traced_calls():
    layers = load_layers()
    traced = {attr for _, attr, _ in layers.TRACED_CALLS}
    assert set(layers.ON_RESULT) <= traced
