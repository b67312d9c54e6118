"""The traced benchmark wraps library functions by name; keep those names alive."""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def test_every_traced_layer_name_resolves():
    """A module attribute resolves by getattr; a ``Class.method`` name must be
    bound in the class body itself, since the tracer reads ``Class.__dict__``
    and an inherited method is not there."""
    layers = runpy.run_path(str(SPANS))["LAYERS"]
    targets = [target for group in layers.values() for target in group]
    assert targets
    for module, attr in targets:
        owner = importlib.import_module(f"gamedecomp.{module}")
        if "." in attr:
            cls_name, method = attr.split(".")
            target = vars(getattr(owner, cls_name)).get(method)
        else:
            target = getattr(owner, attr, None)
        assert callable(target), f"{module}.{attr} is not callable"
