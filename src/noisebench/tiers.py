"""Tier presets, noise parameters and CLI defaults, without numpy.

The CLI's `params`, `--help` and usage errors need only this module, so they
run without importing numpy; noise, pipeline and metrics re-export these
names.
"""

from dataclasses import dataclass

from .errors import UnknownTier

DEFAULT_BINS = 15
DEFAULT_QUARTILES = 4
DEFAULT_SENSOR = (0.0, -2.0, 0.0)
DEFAULT_NORMAL_K = 16


def _check_seed(seed, what="seed"):
    """ValueError unless seed is in [0, 2^64): no two seeds alias."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"{what} must be in [0, 2**64), got {seed}")


@dataclass(frozen=True)
class NoiseParams:
    """Tier parameter bundle.

    :param a: base range noise [m], finite and >= 0
    :param b: range noise growth per meter [1], finite and >= 0
    :param c: incidence sensitivity [1], finite and >= 0
    :param k: incidence bias scale [m], finite and >= 0
    :param p_out: outlier probability per point, in [0, 1]
    """

    a: float
    b: float
    c: float
    k: float
    p_out: float

    def __post_init__(self):
        for name in ("a", "b", "c", "k"):
            v = getattr(self, name)
            if not (0.0 <= v < float("inf")):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not (0.0 <= self.p_out <= 1.0):
            raise ValueError(f"p_out must be in [0, 1], got {self.p_out}")


# built-in corruption tiers, mildest to harshest
_PRESETS = {
    "none": NoiseParams(a=0.0, b=0.0, c=0.0, k=0.0, p_out=0.0),
    "light": NoiseParams(a=0.003, b=0.001, c=1.5, k=0.005, p_out=0.01),
    "moderate": NoiseParams(a=0.005, b=0.002, c=2.0, k=0.010, p_out=0.02),
    "heavy": NoiseParams(a=0.010, b=0.003, c=3.0, k=0.015, p_out=0.05),
}

TIER_NAMES = tuple(_PRESETS)


def tier_params(name):
    """Look up a preset NoiseParams by tier name."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise UnknownTier(name, TIER_NAMES) from None
