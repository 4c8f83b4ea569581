"""perfbench's tracer wraps program functions by name; keep them resolvable.

``perfbench/tracer.py`` lists in ``WRAP_TARGETS`` every function a traced
benchmark run (``--trace 1``) replaces with a span-recording wrapper.  A
refactor that renames or moves one of them would make that run fail, so
this test reads the tracer's source by path (without importing or
changing the benchmark package) and resolves every entry.
"""

import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_wrap_targets():
    """``WRAP_TARGETS`` from the tracer's source; writes no bytecode cache."""
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace["WRAP_TARGETS"]


@pytest.mark.parametrize(
    "module_name,path,span", load_wrap_targets(), ids=lambda value: str(value)
)
def test_wrap_target_resolves_to_a_callable(module_name, path, span):
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    target = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    assert callable(target), f"{module_name}.{path} ({span}) is not callable"
