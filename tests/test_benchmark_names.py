"""The package names that the benchmark in ``perfbench/`` reads.

The benchmark's tracer wraps the functions listed in its ``TARGETS``
and reports a missing one only as a layer that reads 0, so a rename in
the package would pass a benchmark run unnoticed. This test fails
instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

import braidkit

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = _load_tracer().TARGETS
    assert targets
    for modname, attr in targets:
        module = importlib.import_module(modname)
        assert callable(getattr(module, attr, None)), f"{modname}.{attr}"


def test_backend_name():
    assert braidkit.backend_name() in ("c", "python")
