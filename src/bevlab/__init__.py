"""Loss-convergence laboratory and BEV 3D-detection metrics toolkit."""

__version__ = "0.1.0"

from .losses import (
    LossKind,
    NoiseModel,
    ThresholdResult,
    closed_form_variance,
    erf,
    erf_inv,
    loss_gradient,
    loss_value,
    sigma_c,
    sigma_m,
)
from .geometry import (
    BevGrid,
    Box3D,
    RayObject,
    bev_iou,
    grid_dice,
    iou3d,
    rasterize,
    ray_dice_coefficient,
    ray_iou,
)
from .metrics import (
    ApReport,
    FrameSet,
    PrCurve,
    SegIoUReport,
    average_precision,
    center_nms,
    evaluate,
    match_greedy,
    oracle_swap,
    seg_miou,
)
from .sgd import (
    ConvergenceFit,
    EnsembleStats,
    SgdConfig,
    StepSchedule,
    TrialResult,
    fit_lemma1,
    run_ensemble,
    run_trial,
    sweep,
)
from .bench import (
    SceneConfig,
    SyntheticScene,
    TheoremReport,
    generate_scene,
    simulate_predictions,
    theorem1_experiment,
)
