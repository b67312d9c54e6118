"""The traced benchmark wraps library functions by name; keep those names alive."""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def test_every_traced_layer_name_resolves():
    layers = runpy.run_path(str(SPANS))["LAYERS"]
    targets = [target for group in layers.values() for target in group]
    assert targets
    for module, attr in targets:
        owner = importlib.import_module(f"gamedecomp.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr} is not callable"
