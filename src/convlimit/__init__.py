"""Backward convolution limits on finite groups and the torus.

Computes limit laws of centered backward products, classifies the
associated stochastic recursion eta_k = xi_k eta_{k-1} (k <= 0) into the
uniqueness / strong-solution / intermediate trichotomy, constructs extremal
and mixture solutions, and decomposes paths into a noise-measurable coset
part, an independent uniform subgroup factor and a remote-past variable.
"""

from .errors import (
    BadRange,
    ConvLimitError,
    CosetNotStabilized,
    EmptySample,
    GridMismatch,
    GroupMismatch,
    Indeterminate,
    InsufficientSamples,
    InvalidSpec,
    NoConvergenceAtDepth,
    NoIdentity,
    NoInverse,
    NotASubgroup,
    NotAssociative,
    NotClosedAtTolerance,
    NotRepresentable,
    OutOfSupport,
)
from .groups import (
    CosetSpace,
    FiniteGroup,
    Section,
    Subgroup,
    are_conjugate,
    builtin_group,
    conjugate_subgroup,
    cyclic_group,
    default_section,
    dihedral_group_4,
    direct_product,
    generated_subgroup,
    group_from_spec,
    h_part,
    left_cosets,
    normal_closure,
    quaternion_group,
    subgroup,
    symmetric_group,
    validate_group,
)
from .limits import (
    ConjugacyCheck,
    LimitResult,
    NoiseLaw,
    compute_limit,
    constant_noise,
    noise_from_spec,
    partial_product,
    shape_distance,
    strong_subgroup,
    verify_conjugacy_uniqueness,
)
from .measures import (
    Measure,
    convolve,
    delta,
    haar,
    haar_subgroup,
    is_haar_idempotent,
    measure_from_spec,
    right_stabilizer,
    sample,
    translate_left,
    translate_right,
    tv_distance,
)
from .solutions import (
    Ensemble,
    decompose_ensemble,
    extremal_ensemble,
    general_ensemble,
    sample_noise,
    uniform_ensemble,
)
from .stats import (
    ChiSquareResult,
    EnsembleReport,
    case_b_convergence_diagnostic,
    chi_square_independence,
    chi_square_uniformity,
    empirical_law,
    verify_theorems,
)
from .torus import (
    AtomsSpec,
    DiracSpec,
    GaussianSchedule,
    PeriodicTail,
    PiBounds,
    TorusClassification,
    TorusNoiseLaw,
    UniformIntervalSpec,
    WrappedGaussianSpec,
    char_fn,
    compute_p_mu,
    discretize_to_cyclic,
    pi_mu_bounds,
    predicted_cyclic_subgroup,
    torus_noise_from_spec,
)

__version__ = "0.1.0"
