"""The engine benchmark's tracer names the methods it wraps as strings.

``perfbench/tracing.py`` wraps serving-stack methods by name, looked up
in each class's own ``__dict__`` (an inherited method is not wrapped).
A refactor that deletes, renames or stops re-binding a listed method
breaks ``perfbench/run.py --trace 1``; these tests catch that in the
tier-1 suite.  The tracer module is loaded by path, so nothing under
``perfbench/`` needs to be importable as a package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _owner(spec: str):
    module_name, _, cls = spec.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls) if cls else module


def test_every_spanned_method_is_an_own_attribute():
    missing = [
        f"{owner}.{name}"
        for _layer, owner, names in tracing.SPANNED
        for name in names
        if name not in vars(_owner(owner))
    ]
    assert missing == []


def test_every_spanned_function_exists():
    missing = [
        f"{module}.{name}"
        for _layer, module, name in tracing.SPANNED_FUNCTIONS
        if not callable(getattr(_owner(module), name, None))
    ]
    assert missing == []
