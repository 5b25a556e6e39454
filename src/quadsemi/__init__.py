"""quadsemi: decide whether every composition of a set of monic
quadratics over an odd finite field is irreducible.

The decision runs on a finite reachability graph and, when it fails,
produces a short witness word; an independent dense-arithmetic
irreducibility test is included for cross-validation.
"""

from .criterion import (
    REASON_GENERATOR,
    REASON_REACHABLE,
    ReachGraph,
    Verdict,
    check_semigroup_irreducible,
    distinguished_set,
    export_dot,
    max_indegree_from_nonsquares,
    reachable_subgraph,
    verdict_from_graph,
    witness_word,
    word_irreducible,
)
from .field import Field, make_field
from .oracle import CrosscheckReport, crosscheck
from .polys import rabin_irreducible
from .quadratic import (
    GeneratorSet,
    MonicQuadratic,
    compose_word,
    evaluate,
    expand,
    from_coeffs,
)
from .search import (
    CENSUS_FILTERS,
    CensusRow,
    NonSquarePairRecord,
    SingleGeneratorRecord,
    census_pairs,
    example_family,
    nonsquare_pair_records,
    single_generator_records,
    verify_lemma_p7mod8,
    verify_prop_p3mod4,
)

__version__ = "0.1.0"

__all__ = [
    "CENSUS_FILTERS",
    "CensusRow",
    "CrosscheckReport",
    "Field",
    "GeneratorSet",
    "MonicQuadratic",
    "NonSquarePairRecord",
    "REASON_GENERATOR",
    "REASON_REACHABLE",
    "ReachGraph",
    "SingleGeneratorRecord",
    "Verdict",
    "census_pairs",
    "check_semigroup_irreducible",
    "compose_word",
    "crosscheck",
    "distinguished_set",
    "evaluate",
    "example_family",
    "expand",
    "export_dot",
    "from_coeffs",
    "make_field",
    "max_indegree_from_nonsquares",
    "nonsquare_pair_records",
    "rabin_irreducible",
    "reachable_subgraph",
    "single_generator_records",
    "verdict_from_graph",
    "verify_lemma_p7mod8",
    "verify_prop_p3mod4",
    "witness_word",
    "word_irreducible",
]
