"""Point cloud corruption benchmark and calibration evaluation.

Names and submodules load on first access (PEP 562), so `import noisebench`
imports no numpy until something that needs it is used.
"""

import importlib

_EXPORTS = {
    "errors": """DegenerateRay EmptyCloud EmptyInput GenerationError InsufficientPoints
                 MissingSigma NoiseBenchError ParseError TooFewValues UnknownTier
                 ZeroVariance""",
    "tiers": "DEFAULT_NORMAL_K DEFAULT_SENSOR NoiseParams TIER_NAMES tier_params",
    "geometry": "NormalEstimate estimate_normals incidence_cosine range_to_sensor",
    "metrics": """CalibrationBin EvalReport Predictions QuartileEce accuracy ece evaluate
                  pearson quartile_bins read_predictions read_sigma_summary
                  reliability_curve stratified_ece uncertainty_correlation""",
    "noise": """AnnotatedCloud angle_factor bias_mu bounding_box corrupt_cloud
                inject_outliers perturb_points point_sigma sigma_range""",
    "pipeline": """GenerationSummary Manifest SampleEntry TierConfig generate_benchmark
                   preset_config read_annotated read_cloud read_manifest read_tier_config
                   sample_seed write_annotated write_cloud""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = ("_fileio", *_EXPORTS)

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
