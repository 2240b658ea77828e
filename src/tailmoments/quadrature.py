"""Adaptive quadrature for truncated tail moments.

The integrand beta * y^(beta-1) * sf(y) spans many orders of magnitude in y,
so integration happens in t = ln y where the geometry is uniform:

    int_a^b beta y^(beta-1) sf(y) dy = int_{ln a}^{ln b} beta e^(beta t) sf(e^t) dt.

Classic adaptive Simpson with Richardson extrapolation on each accepted
interval. Callers are expected to split at model breakpoints first; each call
here assumes a smooth integrand on its interval.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import ConvergenceError, ModelEvaluationError

# one Simpson halving is 4th order, so a 15x safety factor on the interval
# tolerance keeps the global error near rel_tol after Richardson correction
_RICHARDSON = 15.0
_MAX_DEPTH = 20
_MAX_INTERVALS = 2 ** 15
_EPS = 2.0 ** -52


def _eval(g: Callable[[float], float], t: float) -> float:
    try:
        value = g(t)
    except OverflowError:  # e^(beta t) past the float range
        value = math.inf
    if not math.isfinite(value):
        raise ModelEvaluationError(
            f"integrand returned non-finite value {value!r} at log-point t={t!r}")
    return value


def integrate_tail_piece(tail: Callable[[float], float], beta: float,
                         a: float, b: float, rel_tol: float = 1e-10,
                         max_depth: int = _MAX_DEPTH,
                         max_intervals: int = _MAX_INTERVALS) -> tuple[float, float]:
    """Integral of beta * y^(beta-1) * tail(y) over [a, b], with error bound.

    Returns (value, err) where err is a conservative absolute-error estimate
    combining the Richardson residuals with float roundoff. Raises
    ConvergenceError (carrying the partial estimate) if the interval budget
    runs out before every subinterval meets its share of the tolerance.
    """
    if not (0.0 < a <= b) or not math.isfinite(b):
        raise ModelEvaluationError(f"invalid integration bounds [{a!r}, {b!r}]")
    if a == b:
        return 0.0, 0.0

    def g(t: float) -> float:
        return beta * math.exp(beta * t) * tail(math.exp(t))

    ta, tb = math.log(a), math.log(b)
    # cap each adaptive run at ~4.6/beta log-units so the weight e^(beta t)
    # spans at most ~100x inside it; a single coarse Simpson estimate over an
    # exponentially growing span would set the tolerance from a value that is
    # off by orders of magnitude and make the Richardson residuals optimistic
    n_seg = max(1, math.ceil(beta * (tb - ta) / 4.6))
    bounds = [ta + (tb - ta) * k / n_seg for k in range(n_seg + 1)]

    value = 0.0
    err = 0.0
    intervals = 0
    stack = []
    # stack entries: (t_lo, t_hi, f_lo, f_mid, f_hi, simpson, tol, depth)
    for t0_, t1_ in zip(bounds, bounds[1:]):
        f0_, f2_ = _eval(g, t0_), _eval(g, t1_)
        tm_seed = 0.5 * (t0_ + t1_)
        f1_ = _eval(g, tm_seed)
        whole = (t1_ - t0_) / 6.0 * (f0_ + 4.0 * f1_ + f2_)
        tol0 = max(rel_tol * abs(whole), 1e-300)
        stack.append((t0_, t1_, f0_, f1_, f2_, whole, tol0, 0))
    while stack:
        t0, t1, f0, f1, f2, s, tol, depth = stack.pop()
        tm_ = 0.5 * (t0 + t1)
        tl = 0.5 * (t0 + tm_)
        tr = 0.5 * (tm_ + t1)
        fl = _eval(g, tl)
        fr = _eval(g, tr)
        h6 = (t1 - t0) / 12.0
        s_left = h6 * (f0 + 4.0 * fl + f1)
        s_right = h6 * (f1 + 4.0 * fr + f2)
        delta = s_left + s_right - s
        if abs(delta) <= _RICHARDSON * tol or depth >= max_depth:
            seg = s_left + s_right + delta / _RICHARDSON
            value += seg
            err += abs(delta) / _RICHARDSON + _EPS * abs(seg)
            intervals += 1
            if intervals > max_intervals:
                raise ConvergenceError(
                    f"interval budget {max_intervals} exhausted on "
                    f"[{a:g}, {b:g}] at rel_tol={rel_tol:g}",
                    estimate=value, err=err)
        else:
            half = 0.5 * tol
            stack.append((t0, tm_, f0, fl, f1, s_left, half, depth + 1))
            stack.append((tm_, t1, f1, fr, f2, s_right, half, depth + 1))
    return value, err
