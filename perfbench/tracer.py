"""Spans and counts recorded around braidkit's module boundaries, from outside.

``Tracer.install`` replaces each public function named in ``TARGETS``
with a wrapper, in every braidkit module that binds it, and
``Tracer.uninstall`` puts the originals back. No package source changes.
A wrapper appends one span ``[name, start_ns, end_ns, parent, strands]``
per call to an in-memory list; the parent is the index of the enclosing
traced call, or -1. Counts that need the call's arguments or result are
kept by the hooks in ``HOOKS`` at the same wrappers.

The kernel implementation module behind ``braidkit._kernel`` keeps its
own bindings, so kernel-internal calls are not spans: a span is a call
across a module boundary.
"""

from __future__ import annotations

import collections
import json
import sys
import time

TARGETS = (
    ("braidkit._kernel", "normalize"),
    ("braidkit._kernel", "multiply"),
    ("braidkit._kernel", "conjugate_batch"),
    ("braidkit.garside", "are_conjugate"),
    ("braidkit.garside", "super_summit_set"),
    ("braidkit.curves", "classify"),
    ("braidkit.curves", "is_periodic"),
    ("braidkit.curves", "artin_action"),
    ("braidkit.embedding", "embed_standard"),
    ("braidkit.harness", "verify_nonmerging"),
    ("braidkit.harness", "generate_pair"),
    ("braidkit.harness", "render_records"),
)


def _conjugate_batch(counts, span, args, result):
    """A conjugate keeps the summit when its inf and canonical length equal
    the vertex's, which is the closure's acceptance test."""
    n, p, flat, simples = args
    counts["_kernel.conjugations_tried"] += len(simples)
    counts["_kernel.summit_hits"] += sum(1 for q, f in result if q == p and len(f) == len(flat))


def _are_conjugate(counts, span, args, result):
    span[4] = args[0].strands


def _super_summit_set(counts, span, args, result):
    counts["garside.sss_elements"] += len(result)


HOOKS = {
    "_kernel.conjugate_batch": _conjugate_batch,
    "garside.are_conjugate": _are_conjugate,
    "garside.super_summit_set": _super_summit_set,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if hook is not None:
                hook(counts, span, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "braidkit" or key.startswith("braidkit."))
        ]
        for modname, attr in TARGETS:
            owner = sys.modules.get(modname)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            traced = self._wrap(f"{modname.rsplit('.', 1)[-1]}.{attr}", fn)
            for mod in modules:
                if getattr(mod, attr, None) is not fn:
                    continue
                if mod is not owner and mod.__name__ == getattr(fn, "__module__", None):
                    continue  # the implementation behind a re-export
                self._undo.append((mod, attr, fn))
                setattr(mod, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, fn = self._undo.pop()
            setattr(mod, attr, fn)

    def write(self, path) -> None:
        """One JSON array per span: name, start_ns, end_ns, parent, strands."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def layer_metrics(self, m: int | None, n: int | None) -> dict[str, tuple[float, str]]:
        """Per-layer totals; a self time is a span's duration minus its children's."""
        total: collections.Counter = collections.Counter()
        calls: collections.Counter = collections.Counter()
        child: collections.Counter = collections.Counter()
        by_strands: collections.Counter = collections.Counter()
        for name, start, end, parent, strands in self.spans:
            duration = end - start
            total[name] += duration
            calls[name] += 1
            if parent >= 0:
                child[parent] += duration
            if strands is not None:
                by_strands[strands] += duration
        own: collections.Counter = collections.Counter()
        for index, (name, start, end, _parent, _strands) in enumerate(self.spans):
            own[name] += end - start - child[index]

        def s(ns):
            return (ns / 1e9, "s")

        def count(value):
            return (value, "count")

        c = self.counts
        tried = c["_kernel.conjugations_tried"]
        return {
            "kernel.conjugate_batch_calls": count(calls["_kernel.conjugate_batch"]),
            "kernel.conjugations_tried": count(tried),
            "kernel.summit_hits": count(c["_kernel.summit_hits"]),
            "kernel.summit_hit_ratio": (c["_kernel.summit_hits"] / tried if tried else 0.0, "ratio"),
            "kernel.conjugate_batch_s": s(total["_kernel.conjugate_batch"]),
            "kernel.normalize_calls": count(calls["_kernel.normalize"]),
            "kernel.normalize_s": s(total["_kernel.normalize"]),
            "kernel.multiply_calls": count(calls["_kernel.multiply"]),
            "kernel.multiply_s": s(total["_kernel.multiply"]),
            "garside.self_s": s(own["garside.are_conjugate"] + own["garside.super_summit_set"]),
            "garside.super_summit_set_s": s(total["garside.super_summit_set"]),
            "garside.sss_elements": count(c["garside.sss_elements"]),
            "garside.decide_m_s": s(by_strands[m] if m else 0),
            "garside.decide_n_s": s(by_strands[n] if n else 0),
            "curves.self_s": s(own["curves.classify"]),
            "curves.is_periodic_s": s(total["curves.is_periodic"]),
            "curves.artin_action_calls": count(calls["curves.artin_action"]),
            "curves.artin_action_s": s(total["curves.artin_action"]),
            "harness.self_s": s(own["harness.verify_nonmerging"]),
            "harness.generate_pair_s": s(total["harness.generate_pair"]),
            "harness.render_s": s(total["harness.render_records"]),
            "embedding.embed_s": s(total["embedding.embed_standard"]),
            "trace.spans": count(len(self.spans)),
        }
