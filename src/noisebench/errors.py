"""Exception types shared across the package."""

import copyreg


class NoiseBenchError(Exception):
    """Base class for all errors raised by this package.

    Pickling rebuilds an error from its message and attributes without
    calling __init__, so every subclass crosses a process boundary with the
    same type, str and attributes.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InsufficientPoints(NoiseBenchError):
    """Cloud has too few points for the requested neighborhood size."""


class DegenerateRay(NoiseBenchError):
    """A point coincides with the sensor position, so the view ray is undefined."""


class UnknownTier(NoiseBenchError):
    """Requested tier name is not one of the built-in presets."""

    def __init__(self, name, valid):
        self.name = name
        self.valid = tuple(valid)
        super().__init__(f"unknown tier {name!r}; valid tiers: {', '.join(self.valid)}")


class ParseError(NoiseBenchError):
    """A text input (cloud file, CSV, config) is malformed.

    Carries the offending path and 1-based line number when known.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
            if line is not None:
                where += f"{line}:"
            where += " "
        super().__init__(where + message)


class EmptyCloud(NoiseBenchError):
    """Cloud file contained no points."""


class EmptyInput(NoiseBenchError):
    """A metric was asked to summarize zero records."""


class ZeroVariance(NoiseBenchError):
    """Correlation is undefined because one of the inputs is constant."""


class MissingSigma(NoiseBenchError):
    """Prediction sample ids that have no row in the sigma summary."""

    def __init__(self, sample_ids):
        self.sample_ids = list(sample_ids)
        shown = ", ".join(self.sample_ids[:10])
        if len(self.sample_ids) > 10:
            shown += f", ... ({len(self.sample_ids)} total)"
        super().__init__(f"no sigma entry for sample ids: {shown}")


class TooFewValues(NoiseBenchError):
    """Not enough values to form the requested number of quantile groups."""


class GenerationError(NoiseBenchError):
    """A sample failed during benchmark generation (fail-fast mode)."""

    def __init__(self, sample_id, cause):
        self.sample_id = sample_id
        self.cause = cause
        super().__init__(f"sample {sample_id!r} failed: {cause}")
