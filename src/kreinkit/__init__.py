"""Low-rank approximation and learning with indefinite (Krein) kernels.

The package factors a symmetric but possibly indefinite similarity matrix
through a small set of landmark columns, turns the factorization into an
approximate eigendecomposition in a single pass over the landmark columns,
and trains regularized learners directly in the resulting signed coordinate
system -- without ever flipping or clipping negative spectrum away.
"""

from .errors import (
    ConfigError,
    ConstantFeatureWarning,
    DegenerateScores,
    DegenerateSpectrum,
    DuplicateCollapseWarning,
    FoldError,
    InvalidBudget,
    InvalidClass,
    InvalidInput,
    KreinKitError,
    ParseError,
    RankDeficiencyWarning,
    RankDeficient,
    ShapeError,
    SingularLandmarkBlock,
    SolverError,
    UseLoadMatrixInstead,
)
from .linalg import (
    SignedEigenSystem,
    SphereQP,
    SymMatrix,
    SVDFactors,
    flip_projector,
    flip_spectrum,
    indefiniteness,
    sphere_constrained_qp,
    sphere_qp_objective,
    sym_eigen,
    thin_svd,
)
from .kernels import (
    Dataset,
    GramSource,
    KernelSpec,
    Standardizer,
    center_kernel,
    epanechnikov,
    format_kernel_spec,
    gaussian,
    gaussian_diff,
    gram,
    gram_cross,
    linear,
    parse_kernel_spec,
    precomputed,
    rl_sigmoid_preset,
    standardize,
    tanh_sigmoid,
)
from .nystroem import (
    LandmarkSet,
    NystroemFactor,
    OneShotEigen,
    approximate,
    extend,
    fit,
    flop_count,
    frobenius_error,
    one_shot_eigen,
    project_coeffs,
    reconstruct,
    sgt_one_shot,
    truncate_eigen,
    truncate_factor,
)
from .landmarks import (
    Sketch,
    build_sketch,
    default_sketch_size,
    kmeanspp_landmarks,
    landmark_factor,
    leverage_scores,
    make_rng,
    sample_leverage,
    select_landmarks,
    spawn_rng,
    uniform_landmarks,
)
from .learners import (
    FeatureMap,
    FlipKRRModel,
    FullRankModel,
    LowRankModel,
    RegPair,
    SimilarityLSModel,
    build_feature_map,
    feature_rows,
    flip_krr_baseline,
    flip_shsvm_baseline,
    krein_krr_full,
    krein_krr_lowrank,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    sf_lsm_baseline,
    sh_svm_lowrank,
    squared_hinge_gradient,
    squared_hinge_objective,
    vc_lsm_lowrank,
)
from .data import (
    CVPlan,
    DissimilarityMatrix,
    EvalResult,
    double_center_neg,
    load_labels,
    load_matrix,
    load_table,
    make_synthetic,
    misclassification,
    one_vs_all,
    stratified_kfold,
    write_matrix,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
