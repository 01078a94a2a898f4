"""Error types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class. All of them derive from CocycleError so a bare except at the CLI
boundary can distinguish "structured numerical verdict" from a bug.
"""


class CocycleError(Exception):
    """Base class for all structured errors raised by this package."""


class AliasingRisk(CocycleError):
    """Grid too coarse for the requested degree (M <= 2N or N >= M/2)."""


class RootFindingError(CocycleError):
    """Polynomial root extraction failed the residual check."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegreeOverflow(CocycleError):
    """Exact cocycle product exceeded the configured degree cap."""


class RankNotOne(CocycleError):
    """Operation requires a cocycle whose generator has maximal rank one."""


class UnsupportedBase(CocycleError):
    """Operation defined only for one-frequency (circle) base dynamics."""


class DimensionUnstable(CocycleError):
    """Generic subspace dimension not attained on enough grid samples."""


class ClosureDefect(CocycleError):
    """Frame field does not close up over the circle after winding removal."""

    def __init__(self, message, residual=None, budget=None):
        super().__init__(message)
        self.residual = residual
        self.budget = budget


class TailTooFat(CocycleError):
    """Fourier tail mass beyond the requested degree exceeds tolerance."""

    def __init__(self, message, tail=None):
        super().__init__(message)
        self.tail = tail


class NotNilpotent(CocycleError):
    """Cocycle is not nilpotent, so no strictly triangular form exists."""


class ConstantRankViolated(CocycleError):
    """Some iterate has non-constant pointwise rank; Jordan form unavailable."""


class InconsistentProfile(CocycleError):
    """Rank profile does not correspond to any Jordan structure."""


class NotStrictlyOrdered(CocycleError):
    """Perturbation moduli must be strictly decreasing."""


class NoInfinitePart(CocycleError):
    """All Lyapunov exponents are finite; nothing to split off."""


class FullyNilpotent(CocycleError):
    """All Lyapunov exponents are -inf; the finite block is empty."""


class NotDominated(CocycleError):
    """The splitting needs domination, which fails here; evidence is is_dominated's."""

    def __init__(self, message, evidence=None):
        super().__init__(message)
        self.evidence = evidence


class InversionBlowup(CocycleError):
    """Pointwise inverse of the finite block exceeded the conditioning cap."""


class FloatRangeExceeded(CocycleError):
    """A quantity the analysis needs leaves the float range in the units of A."""


class StructureViolation(CocycleError):
    """Numerical output contradicts a structural theorem; tolerances are suspect."""
