"""The package's public names: each module's ``__all__`` declares them
once, and ``braidkit`` re-exports exactly those, plus ``backend_name``."""

from __future__ import annotations

import braidkit
from braidkit import _kernel, curves, embedding, garside, harness, words

MODULES = (curves, embedding, garside, harness, words)


def test_all_is_backend_name_plus_each_module_all():
    assert braidkit.__all__ == ["backend_name", *(name for m in MODULES for name in m.__all__)]


def test_all_has_no_duplicates():
    assert len(set(braidkit.__all__)) == len(braidkit.__all__)


def test_every_name_resolves_to_its_module_object():
    assert braidkit.backend_name is _kernel.backend_name
    for module in MODULES:
        for name in module.__all__:
            assert getattr(braidkit, name) is getattr(module, name), f"{module.__name__}.{name}"
