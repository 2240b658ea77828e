"""Exception hierarchy for the tailmoments package.

Every error raised by library code derives from TailMomentsError so callers
can catch the package's failures with a single except clause. Subclasses are
split by what went wrong, not by which module raised them.
"""

from __future__ import annotations


class TailMomentsError(Exception):
    """Base class for all tailmoments errors."""


class ModelValidationError(TailMomentsError, ValueError):
    """A model factory was given parameters outside its admissible range."""


class TableFormatError(ModelValidationError):
    """A tabulated survival function file failed parsing or validation.

    Carries the 1-based line number of the offending row when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ModelEvaluationError(TailMomentsError):
    """A survival function returned a non-finite or invalid value."""


class AdmissionError(TailMomentsError):
    """The (model, beta) pair has a finite truncated-moment limit, or the
    analysis span does not reach past the support floor, so it cannot tell.

    The analysis only applies to models whose beta-moment diverges; the
    numerical proxy requires h(x_max) > 10 * h(x_lo).
    """


class ConvergenceError(TailMomentsError):
    """Quadrature exhausted its interval budget or its bisection depth.

    The best available estimate and its error bound are attached so callers
    that can tolerate a degraded answer may still use it.
    """

    def __init__(self, message: str, estimate: float | None = None,
                 err: float | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.err = err


class InconsistencyError(TailMomentsError):
    """Two computation routes disagreed beyond their combined error bounds."""


class InsufficientDataError(TailMomentsError):
    """Too few usable sample points to run an estimator."""


class IndeterminateError(TailMomentsError):
    """An estimator could not reach any verdict (for example, every test
    point of the de Haan class test was skipped)."""


class ExtrapolationWarning(UserWarning):
    """A tabulated survival function was evaluated beyond its last sample."""
