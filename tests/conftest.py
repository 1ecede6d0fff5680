"""Shared fixtures and helpers for the test suite."""

import importlib.util
import os
import sys

# Allow running pytest without an installed package (the tier-1 command
# sets PYTHONPATH=src; this keeps bare `pytest` working too).
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.runtime.memory import MemoryImage  # noqa: E402


def drive_stream(coroutine, memory: MemoryImage):
    """Pump a segment coroutine against ``memory``; return the op list."""
    ops = []
    try:
        op = coroutine.send(None)
        while True:
            ops.append(op)
            name = type(op).__name__
            if name == "ReadOp":
                op = coroutine.send(memory.read(op.variable, op.subscripts))
            else:
                if name == "WriteOp":
                    memory.write(op.variable, op.value, op.subscripts)
                op = coroutine.send(None)
    except StopIteration:
        return ops


def perfbench_inputs():
    """The benchmark's seeded inputs module (``perfbench/inputs.py``)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", os.path.join(_ROOT, "perfbench", "inputs.py")
    )
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # dataclasses look their module up
    try:
        spec.loader.exec_module(inputs)
    finally:
        del sys.modules[spec.name]
    return inputs


def perfbench_layers():
    """The benchmark's traced-run module (``perfbench/layers.py``)."""
    bench = os.path.join(_ROOT, "perfbench")
    sys.path.insert(0, bench)  # layers imports its sibling ``arith``
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(bench, "layers.py")
    )
    layers = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(layers)
    finally:
        sys.path.remove(bench)
    return layers
