"""Exception hierarchy shared across the package."""


class KllabError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidDistribution(KllabError):
    """Log-weights cannot be normalized into a probability distribution."""


class InfiniteDivergence(KllabError):
    """KL divergence is +inf because of a support violation.

    Raised as a distinct signal; never the result of numeric overflow.
    """


class InvalidCoefficient(KllabError, ValueError):
    """Regularization coefficient outside its admissible range."""


class UndefinedRatio(KllabError):
    """Probability ratio requested for a masked (zero-mass) index."""


class NoFiniteFlip(KllabError):
    """No positive, finite coefficient equalizes the two samples."""


class SolverFailure(KllabError):
    """Root bracketing for the normalization multiplier failed."""


class InvalidAnchor(KllabError):
    """Anchor sample does not satisfy the threshold precondition."""


class InvalidPartition(KllabError):
    """Answer partition cells overlap."""


class NonFiniteGradient(KllabError):
    """A gradient contained NaN or inf; the run is halted."""
