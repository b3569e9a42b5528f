"""braidkit: Garside-theoretic computation in braid groups.

Braid words, left normal forms, the conjugacy decision with verified
certificates, super summit sets, geometric embeddings between braid
groups, the braid action on the free group, and the Nielsen-Thurston
classification predicate, plus randomized suites checking that
geometric embeddings never merge conjugacy classes.

The hot kernels run in a compiled extension when it built; otherwise a
pure-Python fallback is selected at import (see braidkit._kernel).
"""

from ._kernel import backend_name
from .curves import (
    ClassificationResult,
    CurveClass,
    FreeWord,
    artin_action,
    classify,
    curve_class_round,
    image_curve_class,
    is_periodic,
    preserves_curve_class,
    round_span,
)
from .embedding import embed_general, embed_standard, is_in_standard_image
from .garside import (
    DEFAULT_SSS_LIMIT,
    ConjugacyCertificate,
    NormalForm,
    ResourceLimitError,
    SimpleElement,
    SuperSummitSet,
    are_conjugate,
    cycling,
    delta_simple,
    divisor_sets,
    equal_words,
    is_delta_power,
    normal_form,
    super_summit_set,
)
from .harness import (
    BoundaryReport,
    BoundarySummary,
    EmbeddingMergeError,
    SuiteConfig,
    TrialReport,
    VerifySummary,
    boundary_suite,
    generate_pair,
    lift_witness,
    verify_nonmerging,
)
from .words import (
    BraidWord,
    Permutation,
    SplitMix64,
    concat,
    derive_seed,
    exponent_sum,
    format_word,
    invert_word,
    parse_word,
    permutation_of_word,
    random_word,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryReport",
    "BoundarySummary",
    "BraidWord",
    "ClassificationResult",
    "ConjugacyCertificate",
    "CurveClass",
    "DEFAULT_SSS_LIMIT",
    "EmbeddingMergeError",
    "FreeWord",
    "NormalForm",
    "Permutation",
    "ResourceLimitError",
    "SimpleElement",
    "SplitMix64",
    "SuiteConfig",
    "SuperSummitSet",
    "TrialReport",
    "VerifySummary",
    "are_conjugate",
    "artin_action",
    "backend_name",
    "boundary_suite",
    "classify",
    "concat",
    "curve_class_round",
    "cycling",
    "delta_simple",
    "derive_seed",
    "divisor_sets",
    "embed_general",
    "embed_standard",
    "equal_words",
    "exponent_sum",
    "format_word",
    "generate_pair",
    "image_curve_class",
    "invert_word",
    "is_delta_power",
    "is_in_standard_image",
    "is_periodic",
    "lift_witness",
    "normal_form",
    "parse_word",
    "permutation_of_word",
    "preserves_curve_class",
    "random_word",
    "round_span",
    "super_summit_set",
    "verify_nonmerging",
]
