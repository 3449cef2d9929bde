"""Exact counting invariants of unitary representation extensions.

A toolkit that computes Casson-style counting invariants of a compact
3-manifold with marked boundary subsurface, encoded combinatorially by an
adapted handlebody splitting.  At codimension zero the invariant's
magnitude is computed by three independent exact pipelines (determinant
power, symbolic exterior-algebra mapping degree, and cohomology order
power) that must agree; brute-force oracles cross-check the ingredients.
"""

from .exterior import (
    AmbientMismatchError,
    ExtElement,
    ExteriorWorkLimitError,
    GeneratorRangeError,
    GroupKind,
    degree_of_word_map,
    lambda_polynomial_cylinder,
    special_unitary,
    unitary,
)
from .intlinalg import (
    INFINITE,
    DomainLimitError,
    IntMat,
    ShapeError,
    SingularMatrixError,
    SnfResult,
    cokernel_order,
    det,
    echelon,
    format_int,
    smith_normal_form,
)
from .invariants import (
    InvariantReport,
    MultiIndex,
    PipelineDisagreementError,
    UNDETERMINED,
    WrongCodimensionError,
    lambda_invariant,
    lambda_invariants,
    multiindex_degree,
    orientation_flip_sign,
)
from .splitting import (
    AdaptedSplitting,
    DocumentError,
    InvalidSplittingError,
    PairHomologyReport,
    assembled_word_map,
    format_splitting_document,
    glue_matrix,
    pair_cohomology,
    parse_splitting_document,
    stabilize,
    validate,
    validation_warnings,
)
from .words import (
    FreeHom,
    MalformedWordError,
    RankMismatchError,
    Word,
    abelianize,
    format_word,
    free_reduce,
    parse_word,
)

__version__ = "0.1.0"

# The oracles, and fractions with them, load on first use: only the oracle
# command calls them.  dir() lists them, and the oracle module, as before.
_ORACLE_NAMES = ("cokernel_enumeration", "numeric_degree_u1", "torus_preimage_count")


def __getattr__(name: str):
    if name != "oracle" and name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Binds the oracle module here, and its functions beside it; a relative
    # ``from . import oracle`` would call this function again and recurse.
    from importlib import import_module
    oracle = import_module(".oracle", __name__)
    globals().update({n: getattr(oracle, n) for n in _ORACLE_NAMES})
    return globals()[name]


def __dir__():
    hidden = {"__getattr__", "__dir__", "_ORACLE_NAMES"}
    return sorted({*globals(), *_ORACLE_NAMES, "oracle"} - hidden)
