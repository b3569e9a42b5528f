"""The package names that the benchmark in ``perfbench/`` reads.

The benchmark's tracer wraps the functions listed in its ``TARGETS``
and reports a missing one only as a layer that reads 0, so a rename in
the package would pass a benchmark run unnoticed. These tests fail
instead, as they do when a traced call is no longer made through the
names the tracer wraps and its counts read 0.
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


def test_tracer_counts_the_summit_layers():
    """The counts the benchmark reports for the summit layers are read off
    real calls: classify on a pseudo-Anosov B_4 word (its summit set has
    62 elements, 31 pairs {x, tau(x)}, and the closure expands one vertex
    of each pair by one conjugate_batch call) and are_conjugate on a
    constructed B_4 pair, which meets its target after one expansion."""
    w = braidkit.parse_word("4: 2 1 1 -2 -2 3 3 -1 -2")
    a = braidkit.parse_word("4: 1 2 -3 1")
    g = braidkit.parse_word("4: 3 -2 1")
    b = braidkit.concat(g, a, braidkit.invert_word(g))
    tracer_module = _load_tracer()
    modules = [importlib.import_module(m) for m in {m for m, _ in tracer_module.TARGETS}]
    modules.append(braidkit)
    before = {(m.__name__, name): fn for m in modules for name, fn in vars(m).items()}
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert braidkit.classify(w).kind == "pseudo_anosov"
        assert braidkit.are_conjugate(a, b) is not None
    finally:
        tracer.uninstall()
    after = {(m.__name__, name): fn for m in modules for name, fn in vars(m).items()}
    assert after == before
    assert tracer.missing == []
    metrics = tracer.layer_metrics(None, None)
    assert metrics["garside.sss_elements"][0] == len(braidkit.super_summit_set(w)) == 62
    assert metrics["kernel.conjugations_tried"][0] > 0
    assert metrics["kernel.conjugate_batch_calls"][0] == 31 + 1
