"""Exact Koszul-flattening certificates and rank lower bounds for matrix multiplication."""

from .exact_linalg import (
    RANK_PRIME,
    ExactMatrix,
    commutator,
    det_exact,
    det_rank_update,
    invert,
    matrix_from_json,
    matrix_to_json,
    rank_exact,
    rank_mod,
    schur_block_det,
)
from .tensor_core import (
    RankOneTerm,
    SliceFamily,
    Tensor3,
    contract_a,
    matmul_tensor,
    slice_family,
    strassen_decomposition,
    tensor_from_json,
    tensor_to_json,
    verify_decomposition,
)
from .wedge import differ_by_one, insert_sign, wedge_basis
from .flattening import (
    BlockLabel,
    SymbolicBlockMatrix,
    assemble,
    check_structure,
    commutator_matrix,
    commutator_pattern,
    dump_symbolic,
    normalize_pivot,
    partition_blocks,
    reference_pattern,
)
from .bounds import (
    BoundKind,
    BoundReport,
    Certificate,
    best_mr,
    bound_value,
    certify_border_rank,
    crossover,
)
from .keylemma import (
    KeyLemmaWitness,
    PolynomialEvaluator,
    degree_along_line,
    generic_nonvanishing,
    h_value,
    key_lemma_search,
    support_restriction_search,
    validate_witness,
)

__version__ = "0.1.0"
