"""braidkit: Garside-theoretic computation in braid groups.

Braid words, left normal forms, the conjugacy decision with verified
certificates, super summit sets, geometric embeddings between braid
groups, the braid action on the free group, and the Nielsen-Thurston
classification predicate, plus randomized suites checking that
geometric embeddings never merge conjugacy classes.

The hot kernels run in a compiled extension when it built; otherwise a
pure-Python fallback is selected at import (see braidkit._kernel).

Each module's ``__all__`` names its public API once; the package
re-exports exactly those names, plus ``backend_name``.
"""

from . import curves, embedding, garside, harness, words
from ._kernel import backend_name
from .curves import *
from .embedding import *
from .garside import *
from .harness import *
from .words import *

__version__ = "0.1.0"

__all__ = [
    "backend_name",
    *curves.__all__,
    *embedding.__all__,
    *garside.__all__,
    *harness.__all__,
    *words.__all__,
]
