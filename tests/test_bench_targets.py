"""Every name the benchmark's tracer wraps must exist in the program.

``purgebench/tracer.py`` installs its spans and counters on module globals
and class attributes by name, so a refactor that renames or drops one of
them would only break a traced benchmark run. This test resolves them all
the way the tracer does, without installing anything.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(__file__)), "purgebench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("purgebench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets():
    tracer = load_tracer()
    spans = [(module, attr) for module, attr, _, _ in tracer.SPAN_TARGETS]
    counts = [(module, attr) for module, attr, _ in tracer.COUNT_TARGETS]
    return spans + counts


@pytest.mark.parametrize("module,attr", targets())
def test_trace_target_resolves(module, attr):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = inspect.getattr_static(owner, part)
    inspect.getattr_static(owner, leaf)  # AttributeError when the name is gone
    assert callable(getattr(owner, leaf))
