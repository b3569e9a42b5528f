"""Kernel backend selection.

The kernel is four functions on normal-form keys: ``normalize``,
``multiply`` and ``conjugate_batch``, and ``minimal_simples``, the
summit walk's step from a vertex to the simple elements that it is
conjugated by, which takes only the vertex and derives its inverse
itself. Each function has one arity, the same in both twins. The
hand-written C kernels in ``braidkit._speedups`` are preferred when the
extension built; otherwise the pure-Python twins in
``braidkit._native``, which run the same algorithm, take over
transparently. Set ``BRAIDKIT_PURE=1`` in the environment to force the
pure backend. The backend-selection tests set it; the parity tests
compile the C file and compare both backends directly.
"""

from __future__ import annotations

import os

from . import _native

if os.environ.get("BRAIDKIT_PURE"):
    _impl = _native
else:
    try:
        from . import _speedups as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _native

normalize = _impl.normalize
multiply = _impl.multiply
conjugate_batch = _impl.conjugate_batch
minimal_simples = _impl.minimal_simples


def backend_name() -> str:
    """``"c"`` when the compiled extension is active, else ``"python"``."""
    return _impl.BACKEND
