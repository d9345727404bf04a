"""Every library function that the benchmark's tracer wraps exists.

``perfbench/spans.py`` names the wrapped layers as (module, function) pairs
in ``LAYERS``.  A removed or renamed layer would otherwise fail only the
traced benchmark runs, so the file is loaded here (read, never changed) and
each pair looked up in the library.
"""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, function) for module, function, *_ in spans.LAYERS]


@pytest.mark.parametrize("module, function", _layers(),
                         ids=lambda name: name)
def test_traced_layer_resolves_in_the_library(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))
