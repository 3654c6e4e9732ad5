"""Terwilliger algebras of conjugacy-class association schemes.

Builds the class scheme of a finite group, closes the switching-product
chain with exact rank tracking over two prime fields, and derives block
dimension tables, centralizer comparisons, Wedderburn decompositions and
thinness reports.
"""

from .chars import (
    CharTable,
    centralizer_wedderburn,
    char_table,
    hook_length_dim,
    mn_character,
    multiplicities,
    perm_char_H1,
    row_sums,
    scheme_eigenmatrix,
)
from .groups import (
    ConjugacyData,
    GroupTable,
    SymmetricGroup,
    build_group,
    conjugacy_classes,
    cycle_type,
    inversion_closed,
    load_cayley_table,
)
from .orbitals import OrbitalIndex, burnside_orbital_count
from .partitions import Partition, SignedPartition, class_size, partitions_of
from .scheme import (
    ClassScheme,
    IntersectionTensor,
    build_scheme,
    conj_centralizer_dim,
    dim_T0,
    intersection_numbers,
    verify_axioms,
)
from .switching import (
    ClosureResult,
    SwitchingClosure,
    run_to_stationary,
    triple_regularity,
)
from .tables import BlockDimTable
from .wedderburn import (
    CPIdem,
    CpiBuilder,
    WedderburnReport,
    cpi_membership,
    decompose_T,
    module_block_dims,
    thinness,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDimTable",
    "CPIdem",
    "CharTable",
    "ClassScheme",
    "ClosureResult",
    "ConjugacyData",
    "CpiBuilder",
    "GroupTable",
    "IntersectionTensor",
    "OrbitalIndex",
    "Partition",
    "SignedPartition",
    "SwitchingClosure",
    "SymmetricGroup",
    "WedderburnReport",
    "build_group",
    "build_scheme",
    "burnside_orbital_count",
    "centralizer_wedderburn",
    "char_table",
    "class_size",
    "conj_centralizer_dim",
    "conjugacy_classes",
    "cpi_membership",
    "cycle_type",
    "decompose_T",
    "dim_T0",
    "hook_length_dim",
    "intersection_numbers",
    "inversion_closed",
    "load_cayley_table",
    "mn_character",
    "module_block_dims",
    "multiplicities",
    "partitions_of",
    "perm_char_H1",
    "row_sums",
    "run_to_stationary",
    "scheme_eigenmatrix",
    "thinness",
    "triple_regularity",
    "verify_axioms",
]
