"""Exception and warning types shared across the package."""

__all__ = [
    "ConfigError", "ConstantFeatureWarning", "DegenerateScores", "DegenerateSpectrum",
    "DuplicateCollapseWarning", "FoldError", "InvalidBudget", "InvalidClass",
    "InvalidInput", "KreinKitError", "ParseError", "RankDeficient", "ShapeError",
    "SingularLandmarkBlock", "SolverError",
]


class KreinKitError(Exception):
    """Base class for every error raised by this library."""


class InvalidInput(KreinKitError):
    """An argument violates a documented precondition."""


class ShapeError(KreinKitError):
    """Array dimensions are inconsistent with the operation."""


class DegenerateSpectrum(KreinKitError):
    """Every eigenvalue is zero, so the requested quantity is undefined."""


class SolverError(KreinKitError):
    """An iterative solver failed to converge within its iteration cap."""

    def __init__(self, message, *, residual=None, iterations=None, diagnostics=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.diagnostics = diagnostics or {}


class SingularLandmarkBlock(KreinKitError):
    """The landmark block has no eigenvalue above the pseudo-inverse cutoff."""


class InvalidBudget(KreinKitError):
    """A landmark budget is outside the feasible range for the dataset."""


class DegenerateScores(KreinKitError):
    """Sampling scores sum to zero, leaving no valid distribution."""


class RankDeficient(KreinKitError):
    """A matrix has too low a rank for the solve, such as all-zero vclsm features."""


class FoldError(KreinKitError):
    """Cross-validation folds cannot be formed from the given labels."""

    def __init__(self, message, *, counts=None):
        super().__init__(message)
        self.counts = counts or {}


class InvalidClass(KreinKitError):
    """A requested class label does not occur in the label vector."""


class ParseError(KreinKitError):
    """A data file could not be parsed; carries the offending position."""

    def __init__(self, message, *, line=None, col=None):
        super().__init__(message)
        self.line = line
        self.col = col


class ConfigError(KreinKitError):
    """A run configuration is invalid; reported before any computation."""


class ConstantFeatureWarning(UserWarning):
    """A feature column has zero variance and was mapped to zeros."""


class DuplicateCollapseWarning(UserWarning):
    """Fewer distinct rows than requested landmarks; the set was truncated."""
