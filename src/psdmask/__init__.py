"""Block-masked entrywise operations on positive semidefinite matrices.

The package classifies forbidden-block pattern sequences, evaluates the
matching scalar function families, applies the masked entrywise operators,
and verifies or refutes positivity preservation at desk scale with explicit
witness matrices.
"""

from .errors import PsdMaskError
from .functions import (
    Custom,
    Domain,
    FamilyDescriptor,
    HerzMonomial,
    HerzSeries,
    Identity,
    PreserverFunction,
    ScalarMultiple,
    Zero,
    admissible_c_interval_pair,
    admissible_family,
    conjugate_equivariance_check,
    function_from_json,
    scaled_identity,
)
from .linalg import (
    PsdReport,
    eig_extremes,
    exact_hermitian,
    is_psd,
    kron,
    matrix_from_json,
    matrix_to_json,
    schur_complement,
    schur_product,
    symmetrize,
)
from .operators import (
    OperatorSpec,
    apply,
    decompose,
    mask_factorization,
    star_pattern,
)
from .patterns import (
    BlockPattern,
    PatternClass,
    PatternRule,
    RuleFlags,
    Split,
    all_singletons_rule,
    classify_sequence,
    contiguous_partition_rule,
    empty_rule,
    explicit_rule,
    normalize,
    overlapping_chain_rule,
    proper_subpartition_rule,
    rule_from_json,
    single_block_rule,
    validate_rule,
)
from .verify import (
    CounterExample,
    Verdict,
    VerifyConfig,
    canonical_json,
    refute_scalar_outside_interval,
    sample_psd,
    verify_preservation,
)
from .witnesses import (
    Witness,
    all_ones_witness,
    corner_extend,
    corner_extend_auto,
    duplicated_pair_gram,
    overlap_probe,
    pad_embed,
    rank_one_gram,
    tail_gram,
    tensor_blowup,
)

__version__ = "0.1.0"


def __getattr__(name):
    """The suite's entry points, importing ``psdmask.suite`` on first use."""
    if name in ("format_suite_lines", "run_theorem_suite"):
        from . import suite

        return getattr(suite, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
