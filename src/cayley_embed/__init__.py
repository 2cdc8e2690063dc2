"""Embeddings of partial latin squares into Cayley tables of finite groups.

Decides whether a partial latin square (PLS) sits inside the multiplication
table of a finite group, enumerates PLS species, and computes the thresholds
psi(n) / psi_plus(n) / psi_circ(n) -- the largest size m such that every PLS
of size m embeds in some group / some abelian group / the cyclic group of
order n -- together with the complete list of obstacle species.
"""

from .embed import (
    EmbedVerdict,
    EmbeddingWitness,
    PartitionInvalid,
    SearchLimitExceeded,
    count_embeddings,
    count_embeddings_pinned,
    embed_diagonal_partition,
    embeds,
    find_embedding,
    quadrangle_violation,
    transversal_bound,
    verify_witness,
)
from .fixtures import SURVIVOR_NAMES, cyclic_witness, fixtures, nonab_dihedral_witness
from .groups import (
    ClosureTooLarge,
    Group,
    NoIdentity,
    NotAssociative,
    NotLatin,
    OrderUnsupported,
    abelian,
    abelian_groups_of_order,
    abelian_invariant_factor_lists,
    automorphism_orbits,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    format_group_file,
    from_perm_generators,
    group_from_table,
    groups_of_order,
    isomorphic,
    isomorphisms,
    opposite,
    parse_group_file,
    parse_group_spec,
)
from .pls import (
    ALL_PARASTROPHES,
    EmptyInput,
    LatinConflict,
    PLS,
    ParameterOutOfRange,
    Parastrophe,
    SizeLimitExceeded,
    SpeciesKey,
    TRANSPOSE,
    Triple,
    canonical_form,
    enumerate_species,
    format_grid,
    format_species_file,
    format_triples,
    gen_delta,
    gen_diagonal,
    gen_evans,
    gen_row_cycle,
    is_t_species,
    parastrophe,
    parse_grid,
    parse_pls,
    parse_species_file,
    parse_triples,
    row_cycle_length,
    sub_species_contains,
    validate_pls,
)
from .screening import (
    IncompleteClass,
    Obstacle,
    OrderExceedsN,
    PSI_RESULT_SCHEMA,
    PsiResult,
    ReductionCertificate,
    RowNotInP,
    TripleNotInP,
    psi,
    reducible,
    removable_triple,
    screen_size,
    shift_line,
)

__version__ = "0.1.0"
