"""Exception types shared across the package."""


class SymstabError(Exception):
    """Base class for all package-specific failures."""


class DimensionError(SymstabError, ValueError):
    """Input has the wrong shape, parity, or an inconsistent dimension."""


class ParseError(SymstabError, ValueError):
    """A matrix, path, angle, or surface file could not be interpreted."""


class SymplecticityError(SymstabError, ValueError):
    """A matrix that must be symplectic fails the residual test."""


class UnsupportedNormalForm(SymstabError, ValueError):
    """Spectral structure outside the supported block catalogue.

    Raised e.g. for Jordan blocks of size three or larger on the unit
    circle.  The message names the offending eigenvalue.
    """


class NumericalConsistencyError(SymstabError, ArithmeticError):
    """An internal quantity violated its exactness contract.

    Example: the characteristic determinant on the unit circle acquired a
    non-negligible imaginary part, which signals a non-symplectic input or
    accumulated rounding far beyond expectation.
    """


class TangencyError(SymstabError, ArithmeticError):
    """A crossing could not be resolved to transversality.

    The crossing form, or the endpoint, stayed degenerate through the
    whole ladder of halving endpoint twists.
    """


class MergedCutError(SymstabError, ArithmeticError):
    """Splitting numbers asked away from +-1 at the merged cut of +-1.

    An endpoint eigenvalue within the cut tolerance of +1 or -1 merges its
    cut with theirs, so the arc between the two is never counted and the
    one-sided limits at omega cannot be read.  `gap` is the angle in
    radians between omega and the nearer of +-1.
    """

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap


class IndexUnstableError(SymstabError, ArithmeticError):
    """Crossing count failed to stabilize under grid/perturbation refinement."""


class GalerkinError(SymstabError, ArithmeticError):
    """Galerkin index/nullity did not stabilize under mode doubling, a
    callable G is not constant in t, or a count is too close to the zero
    threshold for the coupling the per-mode form dropped.  `margin` is
    negative where one is measured: the rounding floor minus the largest
    harmonic norm of a varying G, or the signed distance of a count from
    the threshold; else None."""

    def __init__(self, message: str, margin: float | None = None):
        super().__init__(message)
        self.margin = margin


class ResonantFormError(SymstabError, ValueError):
    """Closed-form index requested at a resonant period."""


class GaugeError(SymstabError, ArithmeticError):
    """Gauge-function Newton solve diverged (point too close to the origin
    or surface data non-convex)."""


class FlowError(SymstabError, ArithmeticError):
    """A flow violated an accuracy contract: the integration failed, or a
    plane circle's linearized flow has no closed form.  `residual` is the
    relative size of the violation where one is measured, else None."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class OrbitSearchError(SymstabError, ArithmeticError):
    """Closed-characteristic search failed to produce a usable orbit set.
    `residual` is the relative residual of the orbit condition where one
    is measured, else None."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
