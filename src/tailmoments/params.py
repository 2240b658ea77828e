"""Analysis configuration shared by the moment and asymptotics machinery."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ModelValidationError

#: default scale factors used by the ratio estimators; 2 and 3 have
#: incommensurable logarithms, which is what defeats log-periodic aliasing,
#: and e makes the de Haan normalization step exact.
DEFAULT_LAMBDAS: tuple[float, ...] = (2.0, math.e, 3.0, 8.0)

#: the most grid points a span may ask, and knots a law may hold to x_max: a
#: curve and its report take ~115 B and 0.2-0.4 us a point, ~1.2 GB at most
MAX_POINTS = 10_000_000

#: the tightest quadrature tolerance accepted: below it the curve error stops
#: improving while the work grows 5-10x, and reported errors fall below the
#: true ones
REL_TOL_FLOOR = 1.0e-13


@dataclass(frozen=True)
class AnalysisParams:
    """Immutable bundle of every knob the analysis pipeline reads.

    beta              order of the truncated moment under study (> 0)
    lambdas           scale factors for ratio estimators (each > 1)
    x_min, x_max      analysis range (0 < x_min < x_max)
    points_per_decade geometric grid density (>= 8; build_grid holds steps),
                      at most MAX_POINTS (10^7) grid points over the span
    rel_tol           relative quadrature tolerance, in [1e-13, 1e-4]
    eps_rho           tolerance used when comparing index estimates and
                      classifying boundary regimes
    window_decades    width of the tail window used by all limit estimators
    spread_tol        half-range convergence band for local estimates
    trend_tol         allowed drift between first- and second-half means
    """

    beta: float
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS
    x_min: float = 1.0
    x_max: float = 1.0e12
    points_per_decade: int = 16
    rel_tol: float = 1.0e-10
    eps_rho: float = 0.02
    window_decades: float = 3.0
    spread_tol: float = 0.02
    trend_tol: float = 0.01

    def __post_init__(self):
        if not (isinstance(self.beta, (int, float)) and self.beta > 0
                and math.isfinite(self.beta)):
            raise ModelValidationError(f"beta must be a positive finite real, got {self.beta!r}")
        object.__setattr__(self, "lambdas", tuple(float(l) for l in self.lambdas))
        if not self.lambdas:
            raise ModelValidationError("lambdas must be non-empty")
        for lam in self.lambdas:
            if not (lam > 1.0 and math.isfinite(lam)):
                raise ModelValidationError(f"every lambda must exceed 1, got {lam!r}")
        if not (0.0 < self.x_min < self.x_max and math.isfinite(self.x_max)):
            raise ModelValidationError(
                f"need 0 < x_min < x_max < inf, got [{self.x_min!r}, {self.x_max!r}]")
        if self.points_per_decade < 8:
            raise ModelValidationError(
                f"points_per_decade must be >= 8, got {self.points_per_decade!r}")
        points = math.log10(self.x_max / self.x_min) * self.points_per_decade
        if MAX_POINTS < points < math.inf:  # inf: build_grid's error
            raise ModelValidationError(
                f"the span asks {points:.4g} grid points at points_per_decade "
                f"{self.points_per_decade}, more than the budget of {MAX_POINTS:,}")
        if not (REL_TOL_FLOOR <= self.rel_tol <= 1.0e-4):
            raise ModelValidationError(
                f"rel_tol must lie in [{REL_TOL_FLOOR:g}, 1e-4], got "
                f"{self.rel_tol!r}")
        if not (self.eps_rho > 0.0):
            raise ModelValidationError(f"eps_rho must be positive, got {self.eps_rho!r}")
        if not (self.window_decades > 0.0):
            raise ModelValidationError("window_decades must be positive")
        if not (self.spread_tol > 0.0 and self.trend_tol > 0.0):
            raise ModelValidationError("convergence bands must be positive")

    def converged(self, spread: float, trend: float) -> bool:
        """The one convergence rule: small spread and no trend in the window."""
        return spread <= self.spread_tol and trend <= self.trend_tol

    def regime_band(self) -> float:
        """Half-width of the bands around rho = 0 and rho = beta."""
        return max(0.1 * self.beta, 3.0 * self.eps_rho)

    def window(self) -> tuple[float, float]:
        """Tail window [x_max / 10**window_decades, x_max], clipped at x_min:
        a window wider than the float range is the whole span."""
        try:
            lo = max(self.x_min, self.x_max / 10.0 ** self.window_decades)
        except OverflowError:  # 10**window_decades past the float range
            lo = self.x_min
        return lo, self.x_max
