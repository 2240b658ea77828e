"""Truncated beta-moment computation and moment curves.

Two quantities drive everything downstream, linked by one identity:

    h(x) = beta * int_0^x y^(beta-1) sf(y) dy      (tail-weighted form)
    v(x) = int_[0,x] y^beta dF(y)                  (Stieltjes form)
    v(x) = h(x) - x^beta sf(x)                     (integration by parts)

Where the tail is a power function between knots (a staircase, a Pareto
tail, a log-linear table), h and u = x^beta sf(x) are read off its pieces;
otherwise h is one Gauss–Kronrod pass over every grid step plus a cumsum,
and u is one array call of the tail. v follows through the identity, with
an error budget that keeps the subtraction checkable. The shares r1 = u / h
and r2 = v / h always sum to 1 by construction.

The float-edge rule: u, the tail and an h segment on piece i are products
(of the level sf_i, x / x_i and its power, x_i^beta, x^beta, a growth g),
read as such only where every factor and partial product is a normal float,
and else as exp of the law in logs (catalog._log_law); the last product may
round past the range as its true value does. Exact factors pass: a stated
level, g = 0 on a point's own knot, and x^beta in x^beta sf(x) (sf <= 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import (_HUGE, TailModel, _log_law, _normal, _piece_sf,
                      _read_only, _scalar_pow)
from .errors import (AdmissionError, InconsistencyError, ModelEvaluationError,
                     ModelValidationError)
from .params import AnalysisParams
from .quadrature import integrate_tail

_EPS = 2.0 ** -52
#: admission proxy: the moment must keep growing across the analysis span
ADMISSION_GROWTH = 10.0
#: a kink this close (relative) to a grid point takes its place
_SNAP = 1e-9
_STEPS: dict[int, np.ndarray] = {}  #: ppd -> steps 10 ** (k / ppd), k >= 1
_DENSITIES_HELD = 8  #: a new density past this many clears _STEPS


def _powers(xs: np.ndarray, beta: float) -> np.ndarray:
    """x ** beta by numpy's vector power, whose bits do not depend on the
    call's length: xs itself at beta = 1 (exact), inf past the float range."""
    if beta == 1.0:
        return np.asarray(xs, dtype=float)
    with np.errstate(over="ignore"):
        return np.power(xs, beta)


def _read_law(model: TailModel, beta: float, xs: np.ndarray, pieces=None):
    """x^beta at the increasing xs and the law over them, None without pieces:
    the pieces (from the floor to xs[-1] unless given), each point's piece
    (-1 below the first knot) and _powers(knots), the knots at beta = 1."""
    xs_pow = _powers(xs, beta)
    if model.pieces is None:
        return xs_pow, None
    knots, sfs, exps = pieces or model.pieces(model.support_floor, float(xs[-1]))
    pos = xs.searchsorted(knots)  # xs[pos - 1] < knot <= xs[pos]
    j = np.repeat(np.arange(-1, len(knots)),  # by the points on each piece
                  np.diff(np.concatenate(([0], pos, [len(xs)]))))
    return xs_pow, (knots, sfs, exps, j, _powers(knots, beta))


def _power_pieces(law, j, xs, xs_pow, beta):
    """beta * int_lo^hi y^(beta-1) sf (y/lo)^-a dy on each whole piece of the
    law (_read_law), then from piece j's knot to each point of xs (powers
    xs_pow), with the roundoff each adds beyond a sum's: sf (hi^beta -
    lo^beta) at a = 0 if finite, else sf lo^beta beta g, g = expm1(cL) / c
    (L at c = 0), c = beta - a, L = ln(hi/lo), or by the float-edge rule
    exp(A + ln beta + ln g), ln g = max(cL, 0) + ln(-expm1(-|cL|)) - ln|c|.
    Callers ignore over and invalid: a piece is inf - inf until replaced."""
    knots, sfs, exps, _, pows = law
    j = np.concatenate((np.arange(len(knots) - 1), j))  # i runs to knot i + 1
    power = (exps != 0.0)[j]
    p = slice(None)  # every segment, while no piece is flat
    if not power.all():
        seg = pows[j]  # every piece as if flat
        np.subtract(np.concatenate((pows[1:], xs_pow)), seg, out=seg)
        seg *= sfs[j]
        err = np.zeros(len(j))
        p = (power | ~np.isfinite(seg)).nonzero()[0]  # or flat, not finite
        if not len(p):
            return seg, err
    k = j[p]
    hi, lo, c = np.concatenate((knots[1:], xs))[p], knots[k], beta - exps[k]
    log_q = np.log(hi / lo)  # inf where the quotient overflows
    cl, crit = c * log_q, c == 0.0
    growth = np.where(crit, log_q, np.expm1(cl) / np.where(crit, 1.0, c))
    level = sfs * pows  # sf <= 1: x_k^beta is normal where the level is
    base = level[k] * beta
    # g > min(L, 1 / |c|) / 2 is normal, but for its exact 0 on a knot (L = 0)
    linear = ((growth <= _HUGE) & (log_q < math.inf)
              & (_normal(level) & _normal(level * beta))[k])
    off = (~linear).nonzero()[0]
    growth *= base
    growth_err = _EPS * ((4.0 + 2.0 * np.abs(cl) + np.maximum(c, 0.0))
                         * np.abs(growth) + base)
    if len(off):
        ln_level, c, log_q = _log_law(knots, sfs, exps, hi[off], k[off], beta)
        cl, crit = c * log_q, c == 0.0
        ln_c = np.log(np.abs(np.where(crit, 1.0, c)))
        with np.errstate(divide="ignore", invalid="ignore"):  # ln 0: L or sf 0
            ln_g = np.where(crit, np.log(log_q), np.maximum(cl, 0.0) - ln_c
                            + np.log(-np.expm1(-np.abs(cl))))
            growth[off] = seg_off = np.exp(ln_level + math.log(beta) + ln_g)
            # |ln sf| + beta |ln lo|, the two logs that ln_level sums, and
            # L's rounding as g scales it, e^cL / g = c + 1 / g (the linear
            # bound's max(c, 0) and base terms)
            size = (np.abs(ln_level) + abs(math.log(beta)) + 2.0 * np.abs(cl)
                    + 2.0 * beta * np.fmax(np.log(lo[off]), 0.0)
                    + np.abs(ln_c) + np.abs(ln_g) + np.exp(cl - ln_g))
        growth_err[off] = (np.fmax(_EPS * (8.0 + 2.0 * size) * seg_off, 0.0)
                           + 2.0 ** -1074)
    if isinstance(p, slice):
        return growth, growth_err
    seg[p], err[p] = growth, growth_err
    return seg, err


def _accumulate(model: TailModel, beta: float, xs: np.ndarray, rel_tol: float,
                xs_pow: np.ndarray, law) -> tuple[np.ndarray, np.ndarray]:
    """h and its error bound at the increasing xs (xs_pow, law: _read_law).

    The one h kernel: h(x) = x^beta up to the support floor. Above it, h at
    each knot of a model with pieces is the in-order np.cumsum of the whole
    pieces below, and a point adds its partial piece, whatever the other
    points. Otherwise the tail is continuous above the floor, and h is the
    cumsum of one quadrature pass over the steps from the floor. Both arrays
    are taken last, above the kernel's freed temporaries."""
    floor = model.support_floor
    head = int(xs.searchsorted(floor, side="right"))
    h0 = np.float64(floor) ** beta  # overflows to inf, not OverflowError
    up, up_pow = xs[head:], xs_pow[head:]
    h = err = up  # unless a point lies above the floor
    if law is not None and len(up):
        j, n = law[3][head:], len(law[0]) - 1  # n whole pieces, then points
        seg, seg_err = _power_pieces(law, j, up, up_pow, beta)
        at_knot = np.concatenate(([h0], seg[:n])).cumsum()
        knot_err = np.concatenate(([_EPS * h0], 2.0 * _EPS * (
            np.abs(seg[:n]) + at_knot[1:]) + seg_err[:n])).cumsum()
        h = at_knot[j]
        h += seg[n:]
        # err = knot_err + (2 eps (|seg| + h) + seg_err), in seg's room
        err = np.abs(seg[n:], out=seg[n:])
        err += h
        err *= 2.0 * _EPS
        err += seg_err[n:]
        err += knot_err[j]
    elif len(up):
        vals, errs = integrate_tail(model.tail, beta,
                                    np.concatenate(([floor], up)), rel_tol)
        h = h0 + vals
        err = _EPS * h0 + errs + _EPS * h
    return (np.concatenate((xs_pow[:head], h)),
            np.concatenate((_EPS * xs_pow[:head], err)))


def compute_h(model: TailModel, beta: float, x: float,
              rel_tol: float = 1e-10) -> tuple[float, float]:
    """Truncated moment h(x) = beta * int_0^x y^(beta-1) sf(y) dy, with error.

    The h kernel run at x alone: closed form below the floor, exact sums of
    power pieces for models that have them, one quadrature step from the
    floor otherwise. Returns (value, error_bound); an h past the float range
    raises ModelEvaluationError.
    """
    if not (x > 0.0 and math.isfinite(x)):
        raise ModelEvaluationError(f"x must be a positive finite real, got {x!r}")
    xs = np.array([x], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        hs, errs = _accumulate(model, beta, xs, rel_tol,
                               *_read_law(model, beta, xs))
    if not math.isfinite(hs[-1]):
        raise ModelEvaluationError(
            f"h({x:g}) of model {model.name!r} at order {beta:g} leaves the "
            f"float range")
    return float(hs[-1]), float(errs[-1])


def compute_u(model: TailModel, beta: float, x: float) -> float:
    """Boundary term u(x) = x^beta * sf(x), the curve's u kernel at x."""
    xs = np.array([x], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_boundary(model, beta, xs, *_read_law(model, beta, xs))[0])


def _boundary(model: TailModel, beta: float, xs: np.ndarray,
              xs_pow: np.ndarray, law) -> np.ndarray:
    """u at xs: xs_pow = x^beta times sf, off the law as h is, or one call;
    from the first point on a piece where x^beta overflows (xs increase), sf_i
    x_i^beta (x / x_i)^(beta - a_i); by the float-edge rule, exp(A + c L)."""
    if law is None:
        return xs_pow * model.tail(xs)
    knots, sfs, exps, j, pows = law
    b = max(int(xs_pow.searchsorted(_HUGE, side="right")), int(j.searchsorted(0)))
    sf, _ = _piece_sf(knots, sfs, exps, xs[:b], j[:b])
    us = sf * xs_pow[:b]
    if b == len(xs) and not exps.any():  # stated levels times x^beta
        return us
    off = (~_normal(sf)).nonzero()[0]  # also where its power is not: sf <= 1
    off = off[exps[j[off]] != 0.0]  # a product; on a flat piece, a stated level
    if b < len(xs):  # sfs * pows spans every knot, a table's thousands too
        level = sfs * pows
        big, weak = _piece_sf(knots, level, exps - beta, xs[b:], j[b:])
        weak |= ~_normal(level)[j[b:]]  # sf <= 1: then pows is normal too
        us = np.concatenate((us, big))
        off = np.concatenate((off, b + weak.nonzero()[0]))
    if len(off):
        ln_level, c, ln_q = _log_law(knots, sfs, exps, xs[off], j[off], beta)
        us[off] = np.exp(ln_level + c * ln_q)
    return us


def _stieltjes(model: TailModel, xs: np.ndarray, hs: np.ndarray,
               us: np.ndarray, errs: np.ndarray) -> np.ndarray:
    """v = h - u pointwise, clamping negatives inside the error budget to 0."""
    vs = hs - us
    neg = (vs < 0.0).nonzero()[0]
    if not len(neg):
        return vs
    bad = neg[vs[neg] < -2.0 * (errs[neg] + _EPS * hs[neg])]
    if len(bad):
        i = bad[0]
        raise InconsistencyError(
            f"v({xs[i]:g}) = {float(vs[i])!r} is negative beyond the error "
            f"budget {2.0 * (errs[i] + _EPS * hs[i]):g} for model "
            f"{model.name!r}")
    vs[neg] = 0.0
    return vs


def check_admission(model: TailModel, params: AnalysisParams,
                    curve: MomentCurve | None = None) -> None:
    """Require the truncated moment to diverge across the analysis span.

    Numerical proxy for an infinite beta-moment: h(x_max) must exceed
    ADMISSION_GROWTH times h(x_lo), x_lo = max(x_min, support floor).
    Converging moments flatten out and fail this immediately. A span that
    ends at or below x_lo never reaches the tail and fails before any h is
    read. Given a curve of the same model and params, both values are read
    off it (build_grid puts x_lo on the grid); otherwise both are integrated
    from the floor.
    """
    def h_at(x: float) -> float:
        if curve is not None:
            k = int(curve.grid.searchsorted(x))
            if k < len(curve.grid) and curve.grid[k] == x:
                return curve.h[k]
        return compute_h(model, params.beta, x, params.rel_tol)[0]

    x_lo = max(params.x_min, model.support_floor)
    if params.x_max <= x_lo:
        raise AdmissionError(
            f"the span [{params.x_min:g}, {params.x_max:g}] ends at or below "
            f"the support floor {model.support_floor:g} of model "
            f"{model.name!r}: it never reaches the tail")
    h_lo, h_hi = h_at(x_lo), h_at(params.x_max)
    if not h_hi > ADMISSION_GROWTH * h_lo:
        raise AdmissionError(
            f"model {model.name!r} looks like it has a finite moment of order "
            f"{params.beta:g}: h({params.x_max:g}) = {h_hi:g} is not more than "
            f"{ADMISSION_GROWTH:g} times h({x_lo:g}) = {h_lo:g}")


def build_grid(model: TailModel, params: AnalysisParams,
               knots=None) -> np.ndarray:
    """Geometric grid over [x_min, x_max] merged with the model's kinks.

    points_per_decade sets the density. The kinks are the knots of the
    model's pieces (knots if given, else model.breakpoints) and the support
    floor inside the range, and each is kept exactly. An interior grid point
    within relative 1e-9 of a kink or of x_max (or past it) gives way instead
    of forming a near-duplicate pair; x_min and x_max stay. Integration steps
    between neighbours therefore never cross a kink, and the admission point
    max(x_min, support floor) is a grid point. Each kink goes into the slot
    that searchsorted finds among the kept points, O(n + k) for n grid
    points and k kinks, and a repeated point is kept once. A span whose
    x_max / x_min overflows raises ModelValidationError. The steps 10 ** (k /
    ppd) are libm's pow per element, so their bits depend neither on the
    length nor on numpy's SIMD dispatch; they are held read-only for
    _DENSITIES_HELD densities at most, each as long as the longest grid
    built at it.
    """
    lo, hi = params.x_min, params.x_max
    if not math.isfinite(hi / lo):
        raise ModelValidationError(
            f"the span [{lo!r}, {hi!r}] is wider than the float range")
    ppd = params.points_per_decade
    n = int(math.ceil(math.log10(hi / lo) * ppd))
    steps = _STEPS.get(ppd)
    if steps is None or len(steps) < n - 1:  # the longest grid at it so far
        if steps is None and len(_STEPS) >= _DENSITIES_HELD:
            _STEPS.clear()  # a sweep over densities holds no more than that
        steps = _STEPS[ppd] = _read_only(_scalar_pow(np.full(n - 1, 10.0),
                                                     np.arange(1, n) / ppd))[0]
    grid = lo * steps[:n - 1]
    grid = np.concatenate(([lo], grid[:grid.searchsorted(hi * (1.0 - _SNAP))],
                           [hi]))
    keep = np.concatenate(([True], grid[1:] != grid[:-1]))  # rounded repeats
    kinks = np.asarray(model.breakpoints(lo, hi) if knots is None else knots,
                       dtype=float)
    if not (len(kinks) and kinks[0] == model.support_floor):
        kinks = np.concatenate(([model.support_floor], kinks))  # below all
    kinks = kinks[(kinks > lo) & (kinks < hi)]  # x_min, x_max: grid points
    if not len(kinks):
        return grid[keep]
    above = grid.searchsorted(kinks)  # grid[above - 1] < kink <= grid[above]
    for near in (above, np.maximum(above - 1, 0)):
        keep[near[np.abs(grid[near] - kinks) <= _SNAP * kinks]] = False
    keep[[0, -1]] = True
    # each kink into its slot among the kept points (np.union1d would import
    # numpy.ma, np.insert takes longer)
    grid = grid[keep]
    at = grid.searchsorted(kinks) + np.arange(len(kinks))
    merged, keep = np.empty(len(grid) + len(at)), np.ones(len(grid) + len(at), bool)
    merged[at], keep[at] = kinks, False
    merged[keep] = grid
    return merged


@dataclass(frozen=True)
class MomentCurve:
    """Truncated-moment profile of one model at one beta over a grid.

    All arrays are aligned with grid. r1 + r2 == 1 holds exactly at every
    point. quad_error is a per-point absolute error bound for h.
    """

    model_name: str
    beta: float
    grid: np.ndarray
    h: np.ndarray
    v: np.ndarray
    u: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    quad_error: np.ndarray

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """The arrays by their output names (CSV header, JSON keys), in order."""
        return {"x": self.grid, "h": self.h, "v": self.v, "u": self.u,
                "r1": self.r1, "r2": self.r2, "quad_error": self.quad_error}


def build_curve(model: TailModel, params: AnalysisParams) -> MomentCurve:
    """Evaluate h, v, u and the shares r1, r2 across the analysis grid.

    One pass: the law is read once and the h kernel runs once along the grid,
    so h on the curve equals compute_h bit for bit for models with pieces
    and to quadrature accuracy otherwise. u is read off the same law, v =
    h - u is one array expression, and admission is read off the curve.
    A curve that overflows (h or u not finite at some grid point) raises
    ModelEvaluationError before admission is judged.
    """
    beta = params.beta
    pieces = model.pieces and model.pieces(model.support_floor, params.x_max)
    grid = build_grid(model, params, pieces and pieces[0])
    with np.errstate(over="ignore", invalid="ignore"):
        grid_pow, law = _read_law(model, beta, grid, pieces)  # x^beta once each
        hs, errs = _accumulate(model, beta, grid, params.rel_tol, grid_pow, law)
        us = _boundary(model, beta, grid, grid_pow, law)
    del grid_pow, law  # freed before the curve's last arrays are taken
    bad = (~(np.isfinite(hs) & np.isfinite(us))).nonzero()[0]
    if len(bad):
        k = bad[0]
        raise ModelEvaluationError(
            f"the moment curve of model {model.name!r} at order {beta:g} "
            f"leaves the float range at x = {grid[k]:g}: h = {hs[k]:g}, "
            f"u = {us[k]:g}")
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = us / hs
    r1[hs == 0.0] = 1.0  # h underflowed, and u is within its budget of h
    curve = MomentCurve(model_name=model.name, beta=beta, grid=grid, h=hs,
                        v=_stieltjes(model, grid, hs, us, errs), u=us, r1=r1,
                        r2=1.0 - r1, quad_error=errs)
    check_admission(model, params, curve)
    return curve


def curve_to_csv(curve: MomentCurve) -> str:
    """Render a curve's columns as CSV with full float precision."""
    cols = curve.columns
    rows = zip(*(map(repr, col.tolist()) for col in cols.values()))
    return ",".join(cols) + "\n" + "\n".join(map(",".join, rows)) + "\n"
