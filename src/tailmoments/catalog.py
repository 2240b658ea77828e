"""Catalog of heavy-tailed survival-function models.

A model packages a survival function sf(x) = P(X > x) together with the
structural metadata the rest of the pipeline needs: the support floor below
which sf == 1, breakpoint locations for piecewise integration, optional exact
atom lists for Stieltjes summation, and an optional closed-form truncated
moment used for cross-validation. Everything is immutable and evaluation is
pure, so model instances can be shared freely.

Ground-truth records attached to analytic models state the known limiting
index of the truncated moment per beta, whether the survival function is
regularly varying, and whether it belongs to the de Haan class. They exist
for tests only; no analysis code may read them.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy import special

from .errors import (ExtrapolationWarning, ModelValidationError,
                     TableFormatError)

_E = math.e


def _floor_log(x: float, base: float) -> int:
    """floor(log_base(x)), exact at representable powers of the base.

    For base 2 the binary exponent is read off directly, which keeps dyadic
    points exact up to the full float range. For other bases the naive floor
    is corrected by comparing against neighbouring powers.
    """
    if base == 2.0:
        m, e = math.frexp(x)  # x = m * 2**e with m in [0.5, 1)
        return e - 1
    k = math.floor(math.log(x) / math.log(base))
    while base ** (k + 1) <= x:
        k += 1
    while base ** k > x:
        k -= 1
    return k


def _no_breakpoints(lo: float, hi: float) -> list[float]:
    return []


@dataclass(frozen=True)
class GroundTruth:
    """Known limiting behaviour, for test assertions only.

    rho_of(beta) returns the limiting index of the truncated beta-moment, or
    None when the moment is finite (model inadmissible) or when no limit is
    claimed for that beta.
    """

    rho_of: Callable[[float], float | None]
    tail_is_rv: bool
    pi_member: bool


@dataclass(frozen=True)
class TailModel:
    """A survival function plus the structure the integrators rely on.

    tail(x) must be defined for every x > 0, non-increasing, with values in
    [0, 1] and tail(x) == 1 for x < support_floor. breakpoints(lo, hi) lists
    the kink/jump locations inside [lo, hi]; integration never crosses one.
    point_masses(lo, hi), when present, lists (location, jump) pairs of every
    atom in [lo, hi] and marks the model as purely atomic above the floor.
    piecewise_constant means tail is constant between consecutive
    breakpoints, unlocking the exact integration path.
    """

    name: str
    support_floor: float
    tail: Callable[[float], float]
    breakpoints: Callable[[float, float], list[float]] = _no_breakpoints
    point_masses: Callable[[float, float], list[tuple[float, float]]] | None = None
    closed_form_h: Callable[[float, float], float] | None = None  # (beta, x)
    piecewise_constant: bool = False
    ground_truth: GroundTruth | None = None

    def __post_init__(self):
        if not (self.support_floor > 0.0 and math.isfinite(self.support_floor)):
            raise ModelValidationError(
                f"support_floor must be a positive real, got {self.support_floor!r}")
        if not self.name:
            raise ModelValidationError("model name must be non-empty")


# ---------------------------------------------------------------------------
# analytic families


def make_pareto(alpha: float, x_floor: float = 1.0) -> TailModel:
    """Pure power tail sf(x) = (x / x_floor)^(-alpha) for x >= x_floor.

    The truncated beta-moment has the closed form
        h(x) = x_floor^beta + beta * x_floor^alpha
               * (x^(beta-alpha) - x_floor^(beta-alpha)) / (beta - alpha)
    (logarithmic when beta == alpha), kept as a cross-validation oracle.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ModelValidationError(f"alpha must be positive, got {alpha!r}")
    if not (x_floor > 0.0 and math.isfinite(x_floor)):
        raise ModelValidationError(f"x_floor must be positive, got {x_floor!r}")

    def tail(x: float) -> float:
        if x <= x_floor:
            return 1.0
        return (x / x_floor) ** (-alpha)

    def breakpoints(lo: float, hi: float) -> list[float]:
        return [x_floor] if lo <= x_floor <= hi else []

    def closed_form_h(beta: float, x: float) -> float:
        if x <= x_floor:
            return x ** beta
        if beta == alpha:
            return x_floor ** beta * (1.0 + beta * math.log(x / x_floor))
        return (x_floor ** beta
                + beta * x_floor ** alpha
                * (x ** (beta - alpha) - x_floor ** (beta - alpha))
                / (beta - alpha))

    def rho_of(beta: float) -> float | None:
        if beta > alpha:
            return beta - alpha
        if beta == alpha:
            return 0.0
        return None  # finite moment, not admissible

    return TailModel(
        name=f"pareto(alpha={alpha:g},x_floor={x_floor:g})",
        support_floor=x_floor,
        tail=tail,
        breakpoints=breakpoints,
        closed_form_h=closed_form_h,
        ground_truth=GroundTruth(rho_of=rho_of, tail_is_rv=True, pi_member=False),
    )


def make_geometric_tail(beta_g: float, p: float) -> TailModel:
    """Log-periodic step tail sf(x) = p^(-beta_g * floor(log_p x)) for x >= p.

    All mass sits in atoms at p^k, k >= 1, with jump p^(-beta_g*k)*(p^beta_g - 1).
    The normalized tail weight x^beta_g * sf(x) is periodic in log_p x, so the
    survival function is not regularly varying even though the truncated
    beta_g-moment is slowly varying. The model is piecewise constant, which
    the integrators exploit to stay exact.
    """
    if not (beta_g > 0.0 and math.isfinite(beta_g)):
        raise ModelValidationError(f"beta_g must be positive, got {beta_g!r}")
    if not (p > 1.0 and math.isfinite(p)):
        raise ModelValidationError(f"p must exceed 1, got {p!r}")
    # integer parameters would make p ** k exact big ints, and grids object arrays
    beta_g, p = float(beta_g), float(p)

    def tail(x: float) -> float:
        if x < p:
            return 1.0
        return p ** (-beta_g * _floor_log(x, p))

    def _power_range(lo: float, hi: float) -> range:
        if hi < p:
            return range(0)
        k_lo = max(1, _floor_log(max(lo, p), p))
        if p ** k_lo < lo:
            k_lo += 1
        k_hi = _floor_log(hi, p)
        return range(k_lo, k_hi + 1)

    def breakpoints(lo: float, hi: float) -> list[float]:
        return [p ** k for k in _power_range(lo, hi)]

    def point_masses(lo: float, hi: float) -> list[tuple[float, float]]:
        scale = p ** beta_g - 1.0
        return [(p ** k, p ** (-beta_g * k) * scale) for k in _power_range(lo, hi)]

    def rho_of(beta: float) -> float | None:
        # only the critical order has a regularly varying truncated moment
        return 0.0 if beta == beta_g else None

    return TailModel(
        name=f"geometric(beta_g={beta_g:g},p={p:g})",
        support_floor=p,
        tail=tail,
        breakpoints=breakpoints,
        point_masses=point_masses,
        piecewise_constant=True,
        ground_truth=GroundTruth(rho_of=rho_of, tail_is_rv=False, pi_member=False),
    )


def make_st_petersburg() -> TailModel:
    """Doubling-game tail sf(x) = 2^(-floor(log2 x)) for x >= 2."""
    return replace(make_geometric_tail(1.0, 2.0), name="st_petersburg")


def _li(z: float) -> float:
    """Logarithmic integral li(z) = pv int_0^z dt/ln t for z > 1."""
    return float(special.expi(math.log(z)))


def make_inverse_log() -> TailModel:
    """Slowly varying tail sf(x) = 1 / ln x for x >= e.

    Substituting t = y^beta turns the truncated moment into a logarithmic
    integral: h(x) = e^beta + beta * (li(x^beta) - li(e^beta)). This survival
    function belongs to the de Haan class with auxiliary 1/(ln x)^2.
    """

    def tail(x: float) -> float:
        if x <= _E:
            return 1.0
        return 1.0 / math.log(x)

    def breakpoints(lo: float, hi: float) -> list[float]:
        return [_E] if lo <= _E <= hi else []

    def closed_form_h(beta: float, x: float) -> float:
        if x <= _E:
            return x ** beta
        eb = _E ** beta
        return eb + beta * (_li(x ** beta) - _li(eb))

    return TailModel(
        name="inverse_log",
        support_floor=_E,
        tail=tail,
        breakpoints=breakpoints,
        closed_form_h=closed_form_h,
        ground_truth=GroundTruth(rho_of=lambda beta: beta,
                                 tail_is_rv=True, pi_member=True),
    )


def make_log_pareto(alpha: float, a: float = 0.0) -> TailModel:
    """Power tail with logarithmic correction sf(x) = C x^(-alpha) (ln x)^a.

    The floor x0 = max(e, e^(a/alpha)) is the smallest point at which the
    expression is non-increasing; C normalizes sf(x0) = 1.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ModelValidationError(f"alpha must be positive, got {alpha!r}")
    if not math.isfinite(a):
        raise ModelValidationError(f"a must be finite, got {a!r}")
    x0 = max(_E, math.exp(a / alpha))
    c = x0 ** alpha / math.log(x0) ** a

    def tail(x: float) -> float:
        if x <= x0:
            return 1.0
        return min(1.0, c * x ** (-alpha) * math.log(x) ** a)

    def breakpoints(lo: float, hi: float) -> list[float]:
        return [x0] if lo <= x0 <= hi else []

    def rho_of(beta: float) -> float | None:
        if beta > alpha:
            return beta - alpha
        if beta == alpha:
            return 0.0
        return None

    return TailModel(
        name=f"log_pareto(alpha={alpha:g},a={a:g})",
        support_floor=x0,
        tail=tail,
        breakpoints=breakpoints,
        ground_truth=GroundTruth(rho_of=rho_of, tail_is_rv=True, pi_member=False),
    )


# ---------------------------------------------------------------------------
# tabulated survival functions


def load_tabulated(path: str, interpolation: str = "log-linear") -> TailModel:
    """Build a model from a CSV file with header ``x,tail``.

    Rows must have strictly increasing x and non-increasing tail values in
    (0, 1]. Zero tail values are rejected: log-linear interpolation is
    undefined there (and such a tail has a finite moment anyway). Left of the
    first sample the survival function is 1; right of the last sample it is
    held constant and an ExtrapolationWarning is issued once per model.
    """
    if interpolation != "log-linear":
        raise ModelValidationError(
            f"unsupported interpolation {interpolation!r}; only 'log-linear' is available")
    xs: list[float] = []
    ts: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TableFormatError("empty file", line=1) from None
        if [col.strip() for col in header] != ["x", "tail"]:
            raise TableFormatError(f"expected header 'x,tail', got {','.join(header)!r}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise TableFormatError(f"expected 2 columns, got {len(row)}", line=lineno)
            try:
                x, t = float(row[0]), float(row[1])
            except ValueError:
                raise TableFormatError(f"non-numeric row {row!r}", line=lineno) from None
            if not (math.isfinite(x) and x > 0.0):
                raise TableFormatError(f"x must be a positive finite real, got {x!r}",
                                       line=lineno)
            if not (0.0 < t <= 1.0):
                raise TableFormatError(
                    f"tail must lie in (0, 1] for log-linear interpolation, got {t!r}",
                    line=lineno)
            if xs and x <= xs[-1]:
                raise TableFormatError(
                    f"x not strictly increasing: {xs[-1]!r} then {x!r}", line=lineno)
            if ts and t > ts[-1]:
                raise TableFormatError(
                    f"tail not non-increasing: {ts[-1]!r} then {t!r}", line=lineno)
            xs.append(x)
            ts.append(t)
    if len(xs) < 2:
        raise TableFormatError(f"need at least 2 samples, got {len(xs)}")

    log_xs = np.log(np.asarray(xs))
    log_ts = np.log(np.asarray(ts))
    x_first, x_last, t_last = xs[0], xs[-1], ts[-1]
    warned = [False]  # one-shot flag; benign under concurrent evaluation

    def tail(x: float) -> float:
        if x < x_first:
            return 1.0
        if x > x_last:
            if not warned[0]:
                warned[0] = True
                warnings.warn(
                    f"evaluating {name!r} beyond its last sample x={x_last:g}; "
                    "holding tail constant", ExtrapolationWarning, stacklevel=2)
            return t_last
        return float(math.exp(np.interp(math.log(x), log_xs, log_ts)))

    def breakpoints(lo: float, hi: float) -> list[float]:
        return [x for x in xs if lo <= x <= hi]

    name = f"tabulated({os.path.basename(path)})"
    return TailModel(name=name, support_floor=x_first, tail=tail,
                     breakpoints=breakpoints)


# ---------------------------------------------------------------------------
# registry used by the command line

_REQUIRED = object()

#: model name -> (factory, {parameter: default or _REQUIRED})
MODEL_REGISTRY: dict[str, tuple[Callable[..., TailModel], dict[str, object]]] = {
    "pareto": (make_pareto, {"alpha": _REQUIRED, "x_floor": 1.0}),
    "geometric": (make_geometric_tail, {"beta_g": _REQUIRED, "p": _REQUIRED}),
    "st_petersburg": (make_st_petersburg, {}),
    "inverse_log": (make_inverse_log, {}),
    "log_pareto": (make_log_pareto, {"alpha": _REQUIRED, "a": 0.0}),
    "tabulated": (load_tabulated, {"path": _REQUIRED}),
}


def build_model(dist: str, **params: object) -> TailModel:
    """Instantiate a registered model, rejecting unknown or missing params."""
    if dist not in MODEL_REGISTRY:
        raise ModelValidationError(
            f"unknown model {dist!r}; choose from {sorted(MODEL_REGISTRY)}")
    factory, sig = MODEL_REGISTRY[dist]
    unknown = set(params) - set(sig)
    if unknown:
        raise ModelValidationError(
            f"unknown parameter(s) {sorted(unknown)} for model {dist!r}; "
            f"accepted: {sorted(sig)}")
    kwargs: dict[str, object] = {}
    for key, default in sig.items():
        if key in params:
            value = params[key]
            if key != "path":
                try:
                    value = float(value)  # type: ignore[arg-type]
                except (TypeError, ValueError):
                    raise ModelValidationError(
                        f"parameter {key!r} of {dist!r} must be numeric, got {value!r}"
                    ) from None
            kwargs[key] = value
        elif default is _REQUIRED:
            raise ModelValidationError(f"model {dist!r} requires parameter {key!r}")
        else:
            kwargs[key] = default
    return factory(**kwargs)
