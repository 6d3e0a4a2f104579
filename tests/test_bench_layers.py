"""The benchmark's layer table must name functions that exist.

``bench/tracing.py`` wraps each ``(module, attribute)`` of ``LAYERS`` when a
run is traced; a renamed or deleted function would only surface there, as an
``AttributeError`` in ``--trace 1`` runs.  This test reads the table and
resolves every entry the way ``Recorder.install`` does.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), "..", "bench", "tracing.py")


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


@pytest.mark.parametrize("name,target", sorted(_layers().items()))
def test_traced_layer_resolves(name, target):
    module_name, attr = target
    assert module_name == "pathsep" or module_name.startswith("pathsep.")
    obj = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(obj, cls_name)), name
    else:
        assert callable(getattr(obj, attr)), name
