"""Truncated beta-moment computation and moment curves.

Two quantities drive everything downstream, linked by one identity:

    h(x) = beta * int_0^x y^(beta-1) sf(y) dy      (tail-weighted form)
    v(x) = int_[0,x] y^beta dF(y)                  (Stieltjes form)
    v(x) = h(x) - x^beta sf(x)                     (integration by parts)

We compute h by quadrature (exactly, for piecewise-constant tails) and obtain
v through the identity, tracking an error budget so the subtraction's health
is checkable. The normalized shares r1 = x^beta sf(x) / h(x) and r2 = v / h
always sum to 1 by construction.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .catalog import TailModel
from .errors import AdmissionError, InconsistencyError, ModelEvaluationError
from .params import AnalysisParams
from .quadrature import integrate_tail_piece

_EPS = 2.0 ** -52
#: admission proxy: the moment must keep growing across the analysis span
ADMISSION_GROWTH = 10.0
#: a kink this close (relative) to a grid point takes its place
_SNAP = 1e-9


def _cuts(model: TailModel, lo: float, hi: float) -> list[float]:
    """Endpoints + interior breakpoints of [lo, hi], strictly increasing."""
    inner = sorted({b for b in model.breakpoints(lo, hi) if lo < b < hi})
    return [lo, *inner, hi] if hi > lo else [lo]


def _accumulate(model: TailModel, beta: float, xs, rel_tol: float,
                anchors=None) -> tuple[np.ndarray, np.ndarray]:
    """h and its error bound at every point of the increasing sequence xs.

    This is the one h kernel. At or below the support floor h(x) = x^beta in
    closed form. Above it h advances from an anchor that starts at the floor.
    Smooth tails add one quadrature increment per step, and every point
    becomes the next anchor. Piecewise-constant tails add exact pieces
    sf(a) * (b^beta - a^beta); their anchor moves only at the points flagged
    in anchors (the breakpoints), and each point reports the anchor plus one
    partial piece, so h at x is the same sum over whole pieces that a fresh
    evaluation at x makes. xs must hold every breakpoint between the floor
    and its last point, flagged for piecewise-constant tails.
    """
    floor = model.support_floor
    tail = model.tail
    hs = np.empty(len(xs))
    errs = np.empty(len(xs))
    ax = floor
    ah = floor ** beta
    ae = _EPS * ah
    if model.piecewise_constant:
        ta = tail(floor)  # sf on [ax, next breakpoint)
    for i, x in enumerate(xs):
        if x <= floor:
            hs[i] = x ** beta
            errs[i] = _EPS * hs[i]
        elif model.piecewise_constant:
            if anchors[i]:
                seg = ta * (x ** beta - ax ** beta)
                ah += seg
                ae += 2.0 * _EPS * (abs(seg) + ah)
                ax, ta = x, tail(x)
            seg = ta * (x ** beta - ax ** beta)
            hs[i] = ah + seg
            errs[i] = ae + 2.0 * _EPS * (abs(seg) + hs[i])
        else:
            seg, seg_err = integrate_tail_piece(tail, beta, ax, x, rel_tol)
            hs[i] = ah + seg
            errs[i] = ae + seg_err + _EPS * hs[i]
            ax, ah, ae = x, hs[i], errs[i]
    return hs, errs


def compute_h(model: TailModel, beta: float, x: float,
              rel_tol: float = 1e-10) -> tuple[float, float]:
    """Truncated moment h(x) = beta * int_0^x y^(beta-1) sf(y) dy, with error.

    The h kernel run over the cuts [support floor, interior breakpoints, x]:
    closed form below the floor, exact piece sums sf(a) * (b^beta - a^beta)
    for piecewise-constant tails, adaptive quadrature per piece otherwise.
    Returns (value, error_bound).
    """
    if not (x > 0.0 and math.isfinite(x)):
        raise ModelEvaluationError(f"x must be a positive finite real, got {x!r}")
    cuts = _cuts(model, min(x, model.support_floor), x)
    anchors = [True] * (len(cuts) - 1) + [False]
    hs, errs = _accumulate(model, beta, cuts, rel_tol, anchors)
    return float(hs[-1]), float(errs[-1])


def compute_u(model: TailModel, beta: float, x: float) -> float:
    """Boundary term u(x) = x^beta * sf(x)."""
    return x ** beta * model.tail(x)


def _stieltjes(model: TailModel, xs: np.ndarray, hs: np.ndarray,
               us: np.ndarray, errs: np.ndarray) -> np.ndarray:
    """v = h - u pointwise, clamping negatives inside the error budget to 0."""
    vs = hs - us
    bound = 2.0 * (errs + _EPS * hs)
    bad = np.flatnonzero(vs < -bound)
    if len(bad):
        i = bad[0]
        raise InconsistencyError(
            f"v({xs[i]:g}) = {float(vs[i])!r} is negative beyond the error "
            f"budget {bound[i]:g} for model {model.name!r}")
    return np.where(vs < 0.0, 0.0, vs)


def compute_v(model: TailModel, beta: float, x: float, h_value: float,
              h_err: float = 0.0) -> float:
    """Stieltjes moment v(x) = h(x) - x^beta sf(x).

    Tiny negative results inside the numerical error budget are clamped to
    zero; anything more negative means the inputs disagree and is an error.
    """
    return float(_stieltjes(model, np.array([x]), np.array([h_value]),
                            np.array([compute_u(model, beta, x)]),
                            np.array([h_err]))[0])


def stieltjes_v(model: TailModel, beta: float, x: float) -> float | None:
    """Direct atom-sum evaluation of v(x), or None if the model has no atom list."""
    if model.point_masses is None:
        return None
    return math.fsum(loc ** beta * jump
                     for loc, jump in model.point_masses(model.support_floor, x))


def check_admission(model: TailModel, params: AnalysisParams,
                    curve: MomentCurve | None = None) -> None:
    """Require the truncated moment to diverge across the analysis span.

    Numerical proxy for an infinite beta-moment: h(x_max) must exceed
    ADMISSION_GROWTH times h(x_lo), x_lo = max(x_min, support floor).
    Converging moments flatten out and fail this immediately. Given a curve
    of the same model and params, both values are read off it (build_grid
    puts x_lo on the grid); otherwise both are integrated from the floor.
    """
    def h_at(x: float) -> float:
        if curve is not None:
            k = int(np.searchsorted(curve.grid, x))
            if k < len(curve.grid) and curve.grid[k] == x:
                return curve.h[k]
        return compute_h(model, params.beta, x, params.rel_tol)[0]

    x_lo = max(params.x_min, model.support_floor)
    h_lo, h_hi = h_at(x_lo), h_at(params.x_max)
    if not h_hi > ADMISSION_GROWTH * h_lo:
        raise AdmissionError(
            f"model {model.name!r} looks like it has a finite moment of order "
            f"{params.beta:g}: h({params.x_max:g}) = {h_hi:g} is not more than "
            f"{ADMISSION_GROWTH:g} times h({x_lo:g}) = {h_lo:g}")


def build_grid(model: TailModel, params: AnalysisParams) -> np.ndarray:
    """Geometric grid over [x_min, x_max] merged with the model's kinks.

    points_per_decade sets the density. The kinks are the breakpoints and
    the support floor inside the range, and each is kept exactly. An
    interior grid point within relative 1e-9 of a kink gives way to it
    instead of forming a near-duplicate pair; x_min and x_max always stay.
    Integration steps between neighbours therefore never cross a kink, and
    the admission point max(x_min, support floor) is a grid point. The merge
    is one vectorised sort, O((n + k) log(n + k)) for n grid points and k
    kinks.
    """
    lo, hi = params.x_min, params.x_max
    n = int(math.ceil(math.log10(hi / lo) * params.points_per_decade))
    grid = lo * 10.0 ** (np.arange(n + 1) / params.points_per_decade)
    grid[-1] = hi
    kinks = np.append(np.asarray(model.breakpoints(lo, hi), dtype=float),
                      model.support_floor)
    kinks = kinks[(kinks >= lo) & (kinks <= hi)]
    above = np.searchsorted(grid, kinks)  # grid[above - 1] < kink <= grid[above]
    keep = np.ones(len(grid), dtype=bool)
    for near in (above, np.maximum(above - 1, 0)):
        keep[near[np.abs(grid[near] - kinks) <= _SNAP * kinks]] = False
    keep[[0, -1]] = True
    return np.union1d(grid[keep], kinks)


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


def build_curve(model: TailModel, params: AnalysisParams) -> MomentCurve:
    """Evaluate h, v, u and the shares r1, r2 across the analysis grid.

    One pass: the h kernel runs once along the grid (behind the cuts from the
    support floor up to x_min when x_min lies above the floor), so h on the
    curve equals compute_h bit for bit for piecewise-constant tails and to
    quadrature accuracy otherwise. u is evaluated once per point, v = h - u
    is one array expression, and admission is read off the finished curve.
    """
    beta = params.beta
    grid = build_grid(model, params)
    floor = model.support_floor
    prefix = _cuts(model, floor, grid[0])[:-1] if grid[0] > floor else []
    points = np.concatenate((prefix, grid))
    anchors = None
    if model.piecewise_constant:
        anchors = np.isin(points, model.breakpoints(floor, params.x_max))
    hs, errs = _accumulate(model, beta, points, params.rel_tol, anchors)
    hs, errs = hs[len(prefix):], errs[len(prefix):]
    us = np.array([compute_u(model, beta, x) for x in grid])
    r1 = us / hs
    curve = MomentCurve(model_name=model.name, beta=beta, grid=grid, h=hs,
                        v=_stieltjes(model, grid, hs, us, errs), u=us, r1=r1,
                        r2=1.0 - r1, quad_error=errs)
    check_admission(model, params, curve)
    return curve


def curve_to_csv(curve: MomentCurve) -> str:
    """Render a curve as CSV with full float precision."""
    buf = io.StringIO()
    buf.write("x,h,v,u,r1,r2,quad_error\n")
    cols = (curve.grid, curve.h, curve.v, curve.u, curve.r1, curve.r2,
            curve.quad_error)
    for row in zip(*cols):
        buf.write(",".join(repr(float(val)) for val in row) + "\n")
    return buf.getvalue()
