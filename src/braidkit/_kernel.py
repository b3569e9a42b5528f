"""Kernel backend selection.

The kernel is four functions on normal-form keys: ``normalize``,
``multiply`` and ``conjugate_batch``, and ``minimal_simples``, the
summit walk's step from a vertex to the simple elements that it is
conjugated by, which takes only the vertex and derives its inverse
itself. Each function has one arity, the same in both twins. The
hand-written C kernels in ``braidkit._speedups`` are used when the
extension imports; otherwise the pure-Python twins in
``braidkit._native``, which run the same algorithm, take over
transparently. Deleting the built ``.so`` is the way back to pure
Python. The parity tests compile the C file and compare both backends
directly.
"""

from __future__ import annotations

from . import _native

try:
    from . import _speedups as _impl
except ImportError:
    _impl = _native

normalize = _impl.normalize
multiply = _impl.multiply
conjugate_batch = _impl.conjugate_batch
minimal_simples = _impl.minimal_simples


def backend_name() -> str:
    """``"c"`` when the compiled extension is active, else ``"python"``."""
    return _impl.BACKEND
