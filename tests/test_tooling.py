"""The benchmark's tracer names functions of the package by string; a name
the package drops or renames must fail here, not only in a traced run."""

import importlib
import pathlib
import types

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    """``perfbench/tracer.py`` run from its source text, outside the import
    system, so nothing is cached or written next to it."""
    module = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_layer_is_a_function_of_its_module():
    layers = load_tracer().LAYERS
    assert layers
    for module_name, names in layers.items():
        module = importlib.import_module(f"repeaterlab.{module_name}")
        assert names, module_name
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
