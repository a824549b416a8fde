"""Point cloud corruption benchmark and calibration evaluation."""

from .errors import (DegenerateRay, EmptyCloud, EmptyInput, GenerationError,
                     InsufficientPoints, MissingSigma, NoiseBenchError,
                     ParseError, TooFewValues, UnknownTier, ZeroVariance)
from .geometry import NormalEstimate, estimate_normals, incidence_cosine, range_to_sensor
from .metrics import (CalibrationBin, EvalReport, Predictions, QuartileEce,
                      accuracy, ece, evaluate, pearson, quartile_bins,
                      read_predictions, read_sigma_summary, reliability_curve,
                      stratified_ece, uncertainty_correlation)
from .noise import (AnnotatedCloud, NoiseParams, angle_factor, bias_mu,
                    bounding_box, corrupt_cloud, inject_outliers, perturb_points,
                    point_sigma, sigma_range)
from .pipeline import (DEFAULT_NORMAL_K, DEFAULT_SENSOR, TIER_NAMES, Manifest,
                       GenerationSummary, SampleEntry, TierConfig,
                       generate_benchmark, preset_config, read_annotated,
                       read_cloud, read_manifest, read_tier_config, sample_seed,
                       tier_params, write_annotated, write_cloud)

__version__ = "0.1.0"
