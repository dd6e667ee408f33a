"""Exception types shared across the library.

Everything raised on purpose derives from LevyMixError so callers (and the
command line driver) can tell library failures from genuine bugs.
"""


class LevyMixError(Exception):
    """Base class for all library errors."""


class DomainError(LevyMixError):
    """An argument lies outside the mathematical domain of the operation."""


class NotFiniteVariation(LevyMixError):
    """A first-moment integral of the jump measure diverges."""


class UnsupportedFamily(LevyMixError):
    """The operation has no implementation for this family or parameter range."""


class QuadratureFailure(LevyMixError):
    """Numerical integration did not reach the requested tolerance."""


class ConfigError(LevyMixError):
    """Invalid simulation configuration."""


class EmptyInput(LevyMixError):
    """An input sequence that must be nonempty is empty."""


class BranchAmbiguity(LevyMixError):
    """A consecutive phase step is too close to pi; the grid is too coarse
    to pick a continuous logarithm branch reliably."""


class NearZeroCF(LevyMixError):
    """Characteristic-function values too close to zero to take logarithms."""


class DegenerateBaseProcess(LevyMixError):
    """The base process is a point mass at zero and identifies nothing."""


class NonConvergence(LevyMixError):
    """A fit found no answer inside its family: the best point of the
    searched range lies on its edge, the best fit has no jumps, or the
    weights leave nothing to fit."""


class InsufficientPoints(LevyMixError):
    """Too few curve points for the number of free parameters."""


class GridTooCoarse(LevyMixError):
    """Sampling grid spacing too large for the requested inversion."""


class SpecError(LevyMixError):
    """A model-specification document failed validation.

    The message starts with a dotted field address, e.g. ``subordinator.drift``.
    """
