"""Homography estimation seeded from single scale/rotation-aware correspondences.

Feature detectors that report a scale and orientation per keypoint give every
correspondence enough information to sketch the homography as a similarity
transform. Filtering the candidate pool by agreement with that sketch yields a
small inlier-rich subset, and a few RANSAC draws on the subset recover the
full model — orders of magnitude fewer iterations than 4-point RANSAC at low
inlier rates. The package also ships the plain RANSAC baseline, a synthetic
scene generator with ground truth, and a benchmark CLI (``hsolo``).
"""

from .analysis import ClusterResult, TheoryRow, dbscan_1d, theory_curves
from .bench import (
    BenchmarkResult,
    SceneSweep,
    SummaryRow,
    TrialRecord,
    run_benchmark,
)
from .estimator import (
    HsoloConfig,
    Refinement,
    estimate_epsilon_r,
    hsolo_estimate,
    refine_model,
)
from .exceptions import (
    DegenerateConfiguration,
    DegenerateProjection,
    FileFormatError,
    HsoloError,
    IllConditioned,
    InfeasibleSpec,
    InsufficientData,
    InvalidFeature,
    NoModelFound,
    SingularMatrix,
)
from .fileio import (
    LoadedCorrespondences,
    load_correspondences,
    save_correspondences,
    save_result,
)
from .geometry import (
    AffineFeature,
    Correspondence,
    Homography,
    Point2,
    Pool,
    as_pool,
    project,
    reprojection_error,
)
from .robust import (
    EstimationResult,
    Improvement,
    RansacConfig,
    ransac_homography,
    required_iterations,
)
from .solvers import dlt_solve, single_match_homography
from .synthetic import (
    SceneSpec,
    generate_scene,
    jacobian_byproducts,
    random_scene_truth,
)

__version__ = "0.1.0"

__all__ = [
    "AffineFeature",
    "BenchmarkResult",
    "ClusterResult",
    "Correspondence",
    "DegenerateConfiguration",
    "DegenerateProjection",
    "EstimationResult",
    "FileFormatError",
    "Homography",
    "HsoloConfig",
    "HsoloError",
    "IllConditioned",
    "Improvement",
    "InfeasibleSpec",
    "InsufficientData",
    "InvalidFeature",
    "LoadedCorrespondences",
    "NoModelFound",
    "Point2",
    "Pool",
    "RansacConfig",
    "Refinement",
    "SceneSpec",
    "SceneSweep",
    "SingularMatrix",
    "SummaryRow",
    "TheoryRow",
    "TrialRecord",
    "as_pool",
    "dbscan_1d",
    "dlt_solve",
    "estimate_epsilon_r",
    "generate_scene",
    "hsolo_estimate",
    "jacobian_byproducts",
    "load_correspondences",
    "project",
    "random_scene_truth",
    "ransac_homography",
    "refine_model",
    "reprojection_error",
    "required_iterations",
    "run_benchmark",
    "save_correspondences",
    "save_result",
    "single_match_homography",
    "theory_curves",
]
