"""Exact fixed-point toolkit for t-equivariant additive actions on
Laurent series vectors over a prime field, computed on finite
exponent windows.

The layers, bottom to top: linalg (exact F_p matrices and subspaces),
laurent (series, vectors, windows, parsing), taps (sparse seed
perturbations and their certificates), action (the full action built
from one seed), replab (commuting unipotent representations and the
p^r bound), fixpoint (invariant chains and certified witnesses),
oracle (brute-force baselines), cli (command line).
"""

from .errors import (
    BudgetExceeded,
    ChainInvariantViolation,
    DimensionMismatch,
    EmptyFixedSpace,
    EquifixError,
    ExponentOverflow,
    InsufficientPrecision,
    InvalidQuotient,
    LimitExceeded,
    LMaxTooSmall,
    NonCommuting,
    NotOrderP,
    OutsideWindow,
    SeriesParseError,
    SingularGenerator,
    WindowTooNarrow,
)
from .linalg import (
    FpMatrix,
    QuotientSpace,
    Subspace,
    inverse,
    kernel,
    map_image,
    map_preimage,
    quotient,
    rref,
)
from .laurent import (
    LatticeWindow,
    LaurentSeries,
    SeriesVector,
    coords_to_vector,
    format_series,
    format_vector,
    parse_series,
    window_coords,
)
from .taps import (
    ContractionModulus,
    SeedAutomorphism,
    SparsePerturbation,
    TapEntry,
    compose,
    induced_matrix,
    inverse_perturbation,
    power_check_nilpotent,
)
from .action import (
    Action,
    ActionSpec,
    apply_phi,
    build_action,
    equivariance_check,
    generator_matrices,
    phi,
    random_valid_action,
)
from .replab import (
    FiniteRep,
    dichotomy_probe,
    fixed_bound_check,
    fixed_space,
    kernel_filtration,
    quotient_rep,
    random_commuting_rep,
    restrict_rep,
)
from .fixpoint import (
    FixedPointCertificate,
    InvariantChain,
    LemmaChain,
    default_window,
    extract_witness,
    find_fixed_point,
    fixed_vectors,
    lemma_chain_from_action,
    m_ell_chain,
    max_invariant_subspace,
    window_b_image,
)
from .oracle import (
    brute_fixed,
    brute_max_invariant,
    count_subspaces,
    enumerate_subspaces,
)

__version__ = "0.1.0"
