"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps foldcast
functions by the names in `perfbench/spans.py`; renaming or deleting one of
them must fail here, not in the traced run."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def layer_table() -> dict:
    """LAYERS as written in spans.py, read without importing the module."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {SPANS}")


def test_every_traced_function_resolves():
    table = layer_table()
    assert table
    missing = []
    for mod_name, fns in table.items():
        module = importlib.import_module(f"foldcast.{mod_name}")
        for fn in fns:
            obj = module
            for part in fn.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{mod_name}.{fn}")
    assert not missing, f"traced functions not found: {missing}"
