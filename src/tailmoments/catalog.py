"""Catalog of heavy-tailed survival-function models.

A model is plain data plus a tail function: a survival function
sf(x) = P(X > x), the support floor below which sf == 1, and, for a tail
that is a power function between knots, its power pieces: the one statement
of its law, off which its tail, its kinks and its moments are read. All is
immutable and evaluation is pure, so model instances can be shared freely.

Two fields serve the benchmark's checks and the test census only: an
optional closed-form truncated moment, and a ground-truth record stating the
known limiting index of the truncated moment per beta. No module of the
package other than this one may name them; the tests' exact moments live in
tests/oracles.py.
"""

from __future__ import annotations

import csv
import inspect
import math
import os
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (ExtrapolationWarning, ModelEvaluationError,
                     ModelValidationError, TableFormatError)
from .params import MAX_POINTS

_E = math.e
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


def _floor_log(x: float, base: float) -> int:
    """floor(log_base(x)), exact at representable powers of the base: the
    naive floor is corrected by comparing x against the neighbouring powers,
    the same pow floats a geometric law's knots are. It starts one below,
    where the power is a float even at x = DBL_MAX, base 2."""
    k = math.floor(math.log(x) / math.log(base)) - 1
    try:
        while base ** (k + 1) <= x:
            k += 1
    except OverflowError:  # the next power lies past the float range, above x
        pass
    while base ** k > x:
        k -= 1
    return k


def _num(v: float) -> str:
    """A parameter in a model name: :g where that reads back as v, else repr."""
    text = f"{v:g}"
    return text if float(text) == v else repr(float(v))


@dataclass(frozen=True)
class GroundTruth:
    """Known limiting behaviour, for the benchmark's checks and the census.

    rho_of(beta) returns the limiting index of the truncated beta-moment, or
    None when the moment is finite (model inadmissible) or when no limit is
    claimed for that beta.
    """

    rho_of: Callable[[float], float | None]


@dataclass(frozen=True)
class TailModel:
    """A survival function plus the structure the integrators rely on.

    tail maps a float array of points x > 0 to the same-shape array of
    sf(x) (a scalar to a scalar), one call for a whole curve's points: it is
    non-increasing, with values in [0, 1] and 1 below support_floor.
    pieces(lo, hi), when present, returns float arrays (knots, sfs, exps):
    the knots from the one at or below max(lo, support_floor) up to hi, with
    tail(y) = sfs[i] * (y / knots[i]) ** -exps[i] up to the next knot. The
    first knot is the support floor; a knot's float does not depend on lo.
    Callers never write to them (the catalog's are read-only). A curve reads
    pieces once, from the floor to x_max; its tail, h and u come off them,
    and their knots are the only kinks and jumps. A tail without pieces must
    be continuous above its floor, its one kink; quadrature takes it unsplit.
    """

    name: str
    support_floor: float
    tail: Callable[[np.ndarray], np.ndarray]
    pieces: Callable[[float, float],
                     tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None
    closed_form_h: Callable[[float, float], float] | None = None  # (beta, x)
    ground_truth: GroundTruth | None = None

    def __post_init__(self):
        if not (self.support_floor > 0.0 and math.isfinite(self.support_floor)):
            raise ModelValidationError(
                f"support_floor must be a positive real, got {self.support_floor!r}")
        if not self.name:
            raise ModelValidationError("model name must be non-empty")

    def breakpoints(self, lo: float, hi: float) -> list[float]:
        """The knots of the pieces inside [lo, hi]; [] without pieces."""
        if self.pieces is None:
            return []
        knots = self.pieces(lo, hi)[0]
        return knots[knots >= lo].tolist()


def _scalar_pow(base: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """base ** exp elementwise by the C library's pow over the 1-d float
    arrays base and exp, bit for bit the scalar power np.float64(b) ** e.

    A geometric law's knots p^k and levels p^(-beta_g k) are taken so: a
    knot must be the float _floor_log compares against, and numpy's vector
    power can differ in the last bit. Every power must be a float (a knot is
    at most hi, a level at most 1): math.pow raises OverflowError past the
    float range.
    """
    return np.fromiter(map(math.pow, memoryview(base), memoryview(exp)), float,
                       count=len(base))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, flagged read-only: a law a model holds is never written."""
    return tuple(a.setflags(write=False) or a for a in arrays)


def _normal(v: np.ndarray) -> np.ndarray:
    """Flags the normal floats among the values of v, all >= 0."""
    return (v >= _TINY) & (v <= _HUGE)


def _log_law(knots: np.ndarray, sfs: np.ndarray, exps: np.ndarray,
             xs: np.ndarray, j: np.ndarray, beta: float):
    """The law in logs at the points xs on pieces j (moments' float edge): A =
    ln sfs[i] + beta ln knots[i], c = beta - exps[i] and L = ln(x / knots[i]),
    ln x - ln knots[i] past the float range, so x^beta sf(x) = exp(A + c L)."""
    lo = knots[j]
    with np.errstate(over="ignore", divide="ignore"):  # ln 0 at sfs[i] = 0
        ln_q = np.log(xs / lo)
        ln_q = np.where(np.isinf(ln_q), np.log(xs) - np.log(lo), ln_q)
        return np.log(sfs[j]) + beta * np.log(lo), beta - exps[j], ln_q


def _piece_sf(knots: np.ndarray, sfs: np.ndarray, exps: np.ndarray,
              xs: np.ndarray, j: np.ndarray):
    """sf at the points xs on pieces j (TailModel) read linearly: 1 below the
    first knot, exactly sfs[i] on a flat piece, else sfs[i] (x / knots[i]) **
    -exps[i] by numpy's vector power, whose bits do not depend on the call's
    length; and a mask of where that power is not normal (for _log_law)."""
    sf = np.concatenate((sfs, [1.0]))[j]  # j = -1 below the first knot: 1
    on = (np.concatenate((exps, [0.0])) != 0.0)[j]
    if not on.any():
        return sf, on
    p = slice(None) if on.all() else on  # every piece a power: no gathers
    with np.errstate(over="ignore"):
        ratio = np.power(xs[p] / knots[j[p]], -exps[j[p]])
    sf[p] *= ratio
    on[p] = ~_normal(ratio)
    return sf, on


def _piece_tail(pieces) -> Callable[[np.ndarray], np.ndarray]:
    """The tail that pieces state: _piece_sf, and _log_law where it flags."""
    def tail(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        knots, sfs, exps = pieces(float(xs.min()), float(xs.max()))
        j = knots.searchsorted(xs, side="right") - 1
        sf, off = _piece_sf(knots, sfs, exps, xs, j)
        if off.any():
            ln_level, c, ln_q = _log_law(knots, sfs, exps, xs[off], j[off], 0.0)
            sf[off] = np.exp(ln_level + c * ln_q)
        return sf.reshape(np.shape(x))[()]
    return tail


# ---------------------------------------------------------------------------
# analytic families


def _power_law_truth(alpha: float) -> GroundTruth:
    """Ground truth of a tail regularly varying with index -alpha."""

    def rho_of(beta: float) -> float | None:
        if beta > alpha:
            return beta - alpha
        if beta == alpha:
            return 0.0
        return None  # finite moment, not admissible

    return GroundTruth(rho_of=rho_of)


def make_pareto(alpha: float, x_floor: float = 1.0) -> TailModel:
    """Pure power tail sf(x) = (x / x_floor)^(-alpha) for x >= x_floor.

    The truncated beta-moment has the closed form
        h(x) = x_floor^beta + beta * x_floor^alpha
               * (x^(beta-alpha) - x_floor^(beta-alpha)) / (beta - alpha)
    (logarithmic when beta == alpha), kept for the benchmark's checks.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ModelValidationError(f"alpha must be positive, got {alpha!r}")
    if not (x_floor > 0.0 and math.isfinite(x_floor)):
        raise ModelValidationError(f"x_floor must be positive, got {x_floor!r}")

    law = _read_only(*np.array([[x_floor], [1.0], [alpha]]))  # one piece
    def pieces(lo: float, hi: float):
        n = int(hi >= x_floor)
        return tuple(a[:n] for a in law)

    def closed_form_h(beta: float, x: float) -> float:
        if x <= x_floor:
            return x ** beta
        if beta == alpha:
            return x_floor ** beta * (1.0 + beta * math.log(x / x_floor))
        return (x_floor ** beta
                + beta * x_floor ** alpha
                * (x ** (beta - alpha) - x_floor ** (beta - alpha))
                / (beta - alpha))

    return TailModel(
        name=f"pareto(alpha={_num(alpha)},x_floor={_num(x_floor)})",
        support_floor=x_floor,
        tail=_piece_tail(pieces),
        pieces=pieces,
        closed_form_h=closed_form_h,
        ground_truth=_power_law_truth(alpha),
    )


def make_geometric_tail(beta_g: float, p: float) -> TailModel:
    """Log-periodic step tail sf(x) = p^(-beta_g * floor(log_p x)) for x >= p.

    All mass sits in atoms at p^k, k >= 1, with jump p^(-beta_g*k)*(p^beta_g - 1).
    The normalized tail weight x^beta_g * sf(x) is periodic in log_p x, so the
    survival function is not regularly varying even though the truncated
    beta_g-moment is slowly varying. The model is piecewise constant: its
    pieces have exponent 0, so its moments are exact sums.
    """
    if not (beta_g > 0.0 and math.isfinite(beta_g)):
        raise ModelValidationError(f"beta_g must be positive, got {beta_g!r}")
    if not (p > 1.0 and math.isfinite(p)):
        raise ModelValidationError(f"p must exceed 1, got {p!r}")
    # integer parameters would make _floor_log's powers exact big ints
    beta_g, p = float(beta_g), float(p)
    name = f"geometric(beta_g={_num(beta_g)},p={_num(p)})"

    law = _read_only(*np.zeros((3, 0)))
    def pieces(lo: float, hi: float):
        # one tuple, the law for k = 1 to the largest k yet (float k: the same
        # pow), sliced from the knot at or below max(lo, p) up to hi
        nonlocal law
        known, k1 = law, _floor_log(hi, p) if hi >= p else 0
        if k1 > MAX_POINTS:
            raise ModelEvaluationError(f"{name} has {k1:,} knots up to {hi:g}, "
                                       f"more than the budget of {MAX_POINTS:,}")
        if k1 > len(known[0]):
            ks, ps = np.arange(1, k1 + 1, dtype=float), np.full(k1, p)
            known = law = _read_only(_scalar_pow(ps, ks),
                                     _scalar_pow(ps, -beta_g * ks), np.zeros(k1))
        k0 = max(1, _floor_log(max(lo, p), p))
        return tuple(a[k0 - 1:k1] for a in known)

    def rho_of(beta: float) -> float | None:
        # only the critical order has a regularly varying truncated moment
        return 0.0 if beta == beta_g else None

    return TailModel(
        name=name,
        support_floor=p,
        tail=_piece_tail(pieces),
        pieces=pieces,
        ground_truth=GroundTruth(rho_of=rho_of),
    )


def make_st_petersburg() -> TailModel:
    """Doubling-game tail sf(x) = 2^(-floor(log2 x)) for x >= 2."""
    return replace(make_geometric_tail(1.0, 2.0), name="st_petersburg")


def _li(z: float) -> float:
    """Logarithmic integral li(z) = pv int_0^z dt/ln t for z > 1."""
    from scipy import special  # only this closed form needs scipy
    return float(special.expi(math.log(z)))


def make_inverse_log() -> TailModel:
    """Slowly varying tail sf(x) = 1 / ln x for x >= e.

    Substituting t = y^beta turns the truncated moment into a logarithmic
    integral: h(x) = e^beta + beta * (li(x^beta) - li(e^beta)). This survival
    function belongs to the de Haan class with auxiliary 1/(ln x)^2.
    """

    def tail(x):
        y = np.maximum(x, _E)[...]  # a new array, 0-d for a scalar
        np.log(y, out=y)  # ln e == 1.0 exactly
        return np.divide(1.0, y, out=y)[()]

    def closed_form_h(beta: float, x: float) -> float:
        if x <= _E:
            return x ** beta
        eb = _E ** beta
        return eb + beta * (_li(x ** beta) - _li(eb))

    return TailModel(
        name="inverse_log",
        support_floor=_E,
        tail=tail,
        closed_form_h=closed_form_h,
        ground_truth=GroundTruth(rho_of=lambda beta: beta),
    )


def make_log_pareto(alpha: float, a: float = 0.0) -> TailModel:
    """Power tail with logarithmic correction sf(x) = C x^(-alpha) (ln x)^a.

    The floor x0 = max(e, e^(a/alpha)) is the smallest point at which the
    expression is non-increasing; C normalizes sf(x0) = 1. Parameters whose
    floor or C leave the float range are rejected.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ModelValidationError(f"alpha must be positive, got {alpha!r}")
    if not math.isfinite(a):
        raise ModelValidationError(f"a must be finite, got {a!r}")
    try:
        x0 = max(_E, math.exp(a / alpha))
        c = x0 ** alpha / math.log(x0) ** a
    except OverflowError:
        raise ModelValidationError(
            f"a / alpha = {a / alpha:g} is too large: the support floor "
            "e^(a/alpha) or its normalisation leaves the float range") from None

    def tail(x):
        # c y^-alpha (ln y)^a in place on the new y; a scalar y keeps numpy's
        # scalar powers, as the expression form took them
        y = np.maximum(x, x0)
        above = y > x0
        ln_a = np.log(y)
        ln_a **= a
        y **= -alpha
        y *= c
        y *= ln_a
        sf = np.minimum(y, 1.0, out=y[...])  # y itself, or a scalar's 0-d copy
        np.copyto(sf, 1.0, where=~above)
        return sf[()]

    return TailModel(
        name=f"log_pareto(alpha={_num(alpha)},a={_num(a)})",
        support_floor=x0,
        tail=tail,
        ground_truth=_power_law_truth(alpha),
    )


# ---------------------------------------------------------------------------
# tabulated survival functions


def load_tabulated(path: str) -> TailModel:
    """Build a model from a CSV file with header ``x,tail``.

    Rows must have strictly increasing x and non-increasing tail values in
    (0, 1], at most MAX_POINTS of them. Zero tail values are rejected:
    log-linear interpolation is undefined there (and such a tail has a finite
    moment anyway). Left of the first sample the survival function is 1;
    right of the last sample it is held constant, with one
    ExtrapolationWarning when pieces first go there.
    """
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
            if len(xs) == MAX_POINTS:
                raise TableFormatError(f"more rows than the budget of "
                                       f"{MAX_POINTS:,}", line=lineno)
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

    knots, sfs = np.asarray(xs), np.asarray(ts)
    # the log-log slope of each row to the next; held constant past the last
    exps = np.append(-np.diff(np.log(sfs)) / np.diff(np.log(knots)), 0.0)
    _read_only(knots, sfs, exps)
    warned = [False]  # one-shot flag; benign under concurrent evaluation

    def pieces(lo: float, hi: float):
        if hi > xs[-1] and not warned[0]:
            warned[0] = True
            warnings.warn(
                f"evaluating {name!r} beyond its last sample x={xs[-1]:g}; "
                "holding tail constant", ExtrapolationWarning, stacklevel=2)
        i = max(int(np.searchsorted(knots, lo, side="right")) - 1, 0)
        j = int(np.searchsorted(knots, hi, side="right"))
        return knots[i:j], sfs[i:j], exps[i:j]

    name = f"tabulated({os.path.basename(path)})"
    return TailModel(name, xs[0], _piece_tail(pieces), pieces)


# ---------------------------------------------------------------------------
# registry used by the command line

#: model name -> factory; the factory signature declares the parameters
MODEL_REGISTRY: dict[str, Callable[..., TailModel]] = {
    "pareto": make_pareto,
    "geometric": make_geometric_tail,
    "st_petersburg": make_st_petersburg,
    "inverse_log": make_inverse_log,
    "log_pareto": make_log_pareto,
    "tabulated": load_tabulated,
}


def model_parameters(dist: str) -> dict[str, inspect.Parameter]:
    """Name, default (``Parameter.empty`` when required) and coercion type
    (the annotation) of each parameter, read off the model's factory.
    """
    return dict(inspect.signature(MODEL_REGISTRY[dist], eval_str=True).parameters)


def build_model(dist: str, **params: object) -> TailModel:
    """Instantiate a registered model, rejecting unknown or missing params."""
    if dist not in MODEL_REGISTRY:
        raise ModelValidationError(
            f"unknown model {dist!r}; choose from {sorted(MODEL_REGISTRY)}")
    sig = model_parameters(dist)
    unknown = set(params) - set(sig)
    if unknown:
        raise ModelValidationError(
            f"unknown parameter(s) {sorted(unknown)} for model {dist!r}; "
            f"accepted: {sorted(sig)}")
    kwargs: dict[str, object] = {}
    for key, param in sig.items():
        if key in params:
            try:
                kwargs[key] = param.annotation(params[key])
            except (TypeError, ValueError):
                raise ModelValidationError(
                    f"parameter {key!r} of {dist!r} must be numeric, "
                    f"got {params[key]!r}") from None
        elif param.default is param.empty:
            raise ModelValidationError(f"model {dist!r} requires parameter {key!r}")
    return MODEL_REGISTRY[dist](**kwargs)
