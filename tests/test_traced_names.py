"""The benchmark counts work by public function name; those names must stay."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_counted_name_is_a_public_function_of_its_module():
    spans = load_spans()
    for name in spans.COUNTERS:
        short, attr = name.split(".")
        assert short in spans.TRACED_MODULES, name
        module = importlib.import_module(f"jointmix.{short}")
        obj = getattr(module, attr, None)
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, name
        assert not attr.startswith("_") and name not in spans.NOT_WRAPPED, name
