"""The benchmark's set-up must run against the library as it stands.

``bench/tracing.py`` wraps each ``(module, attribute)`` of ``LAYERS`` when a
run is traced; a renamed or deleted function would only surface there, as an
``AttributeError`` in ``--trace 1`` runs.  This test reads the table and
resolves every entry the way ``Recorder.install`` does.

``bench/workloads.py`` writes every input file of a pass with the library's
generators and builders; a change to what it reads of them, such as a path's
``vertices``, would only surface in a benchmark run.  So each workload's
set-up runs here once, untimed.
"""

import importlib
import importlib.util
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


def _load(name):
    path = os.path.join(BENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,target", sorted(_load("tracing").LAYERS.items()))
def test_traced_layer_resolves(name, target):
    module_name, attr = target
    assert module_name == "pathsep" or module_name.startswith("pathsep.")
    obj = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(obj, cls_name)), name
    else:
        assert callable(getattr(obj, attr)), name


@pytest.mark.parametrize("workload", ["build", "check"])
def test_workload_set_up_runs(workload, tmp_path):
    workloads = _load("workloads")
    ops = workloads.make(workload, workloads.DEFAULT_SEED, str(tmp_path))
    # More than 110 operations per pass, none repeated (bench/workloads.py).
    assert len(ops) > 110
    assert len({op.name for op in ops}) == len({tuple(op.argv) for op in ops}) == len(ops)
    inputs = {arg for op in ops for arg in op.argv
              if arg.startswith(str(tmp_path)) and arg != op.out}
    assert all(map(os.path.isfile, inputs))
    assert len(inputs) > (0 if workload == "build" else 100)
