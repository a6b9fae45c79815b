"""Gabor-wavelet features plus an explainable boosted classifier."""

__version__ = "0.1.0"

from .dataio import (  # noqa: F401
    FeatureRow,
    GrayImage,
    LabeledDataset,
    flip_horizontal,
    load_dataset,
    load_image,
    read_feature_table,
    reduce_classes,
    write_feature_table,
)
from .gabor import ComplexKernel, GaborParams, convolve, make_kernel  # noqa: F401
from .features import (  # noqa: F401
    ParamGrid,
    default_grid,
    extract_features,
    flatten_background,
    grid_optimize,
    tabularize,
    two_step_optimize,
)
from .physfit import FitResult, dip_model, fit_image, fit_profile, fit_rows  # noqa: F401
from .synthgen import SynthSpec, generate  # noqa: F401
from .ebm import (  # noqa: F401
    EbmModel,
    OvrEnsemble,
    TrainConfig,
    explain_global,
    load_model,
    predict_ovr,
    save_model,
    train_binary,
    train_ovr,
)
from .harness import CvReport, run_cv, stratified_kfold  # noqa: F401
