"""Exception types raised by the zeno_limits package."""


class ZenoLimitsError(Exception):
    """Base class for all package-specific errors.

    ``diagnostics`` is a dict of the numbers behind the failure, empty where there are none.
    """

    def __init__(self, msg, diagnostics=None):
        super().__init__(msg)
        self.diagnostics = diagnostics or {}


class DimensionError(ZenoLimitsError, ValueError):
    """Operands have incompatible or non-square shapes."""


class ValidationError(ZenoLimitsError, ValueError):
    """An input violates a structural requirement (e.g. non-Hermitian H)."""


class FactorizationError(ZenoLimitsError):
    """A matrix factorization failed or did not meet its residual target; ``diagnostics`` holds the residuals."""


class IllConditionedDecompositionError(FactorizationError):
    """Spectral decomposition residuals exceeded 100 * cluster_tol."""


class PeripheralDefectError(ZenoLimitsError):
    """A purely imaginary eigenvalue cluster is numerically defective.

    Imaginary eigenvalues of a bounded semigroup generator must be
    semisimple; a defective peripheral cluster signals a non-GKLS or
    mis-scaled input.
    """


class SpectrumViolationError(ZenoLimitsError):
    """The strong generator has spectrum outside the closed left half-plane."""


class UnsupportedInputError(ZenoLimitsError, ValueError):
    """The operation is restricted to a smaller input class (e.g. diagonalizable)."""


class EstimationError(ZenoLimitsError):
    """A numerical estimation procedure failed to converge.

    ``best_value`` holds the best estimate found before giving up.
    """

    def __init__(self, msg, best_value=None):
        super().__init__(msg)
        self.best_value = best_value
