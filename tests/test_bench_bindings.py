"""The names the benchmark's tracer rebinds must exist and be called through module globals.

``perfbench/tracer.py`` wraps each ``(module, attribute)`` of its ``_TARGETS``
by rebinding it in that module, so a renamed or inlined binding would fail
the traced benchmark run; these checks catch that without running it.
"""

import dis
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from convlimit.solutions import Ensemble

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer._TARGETS


def _global_names(module):
    """Every global name loaded by code defined in the module, nested code included."""
    names = set()
    codes = [fn.__code__ for _, fn in inspect.getmembers(module, inspect.isfunction)
             if fn.__module__ == module.__name__]
    codes += [fn.__code__ for _, cls in inspect.getmembers(module, inspect.isclass)
              if cls.__module__ == module.__name__
              for fn in vars(cls).values() if inspect.isfunction(fn)]
    while codes:
        code = codes.pop()
        names.update(i.argval for i in dis.get_instructions(code) if i.opname == "LOAD_GLOBAL")
        codes.extend(c for c in code.co_consts if inspect.iscode(c))
    return names


@pytest.mark.parametrize("module, attr, span", _targets())
def test_traced_binding_exists_and_is_called_by_name(module, attr, span):
    mod = importlib.import_module(f"convlimit.{module}")
    assert callable(getattr(mod, attr, None)), f"convlimit.{module}.{attr} is gone"
    assert attr in _global_names(mod), f"convlimit.{module} no longer calls {attr} by name"


def test_to_records_is_a_method():
    assert inspect.isfunction(vars(Ensemble).get("to_records"))
