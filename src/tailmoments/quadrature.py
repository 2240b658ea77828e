"""Gauss–Kronrod quadrature for truncated tail moments, in t = ln y:

    int_a^b beta y^(beta-1) sf(y) dy = int_{ln a}^{ln b} beta e^(beta t) sf(e^t) dt.

One fixed rule, G7K15 (QUADPACK dqk15; Piessens et al. 1983), runs on all
steps between consecutive points at once, one array call of the tail per
block, and bisects the intervals it has not resolved one vectorised level at
a time. The tail must be continuous inside each step (kinks and jumps above
the floor belong in power pieces). The nodes are interior, so the tail is
never read at an end, where the floor's jump sits.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConvergenceError, ModelEvaluationError

_EPS = 2.0 ** -52
_MAX_DEPTH = 20
#: intervals that bisection may add beyond one per step
_MAX_INTERVALS = 2 ** 15
#: intervals per array call of the tail, 15 nodes each
_BLOCK = 512

# dqk15 per Kronrod node in [0, 1]: (node, Kronrod weight, Gauss weight),
# the Gauss weight 0 on the Kronrod-only nodes
_DQK15 = np.array([(0.9914553711208126, 0.022935322010529224, 0.0),
                   (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
                   (0.8648644233597691, 0.10479001032225019, 0.0),
                   (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
                   (0.5860872354676911, 0.1690047266392679, 0.0),
                   (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
                   (0.20778495500789848, 0.20443294007529889, 0.0),
                   (0.0, 0.20948214108472782, 0.4179591836734694)])
#: the 15 nodes on [-1, 1] in ascending order, and their (K, G) weights
_NODES = np.concatenate((-_DQK15[:-1, 0], _DQK15[::-1, 0]))
_WEIGHTS = np.concatenate((_DQK15[:-1, 1:], _DQK15[::-1, 1:]))


def _rule(tail: Callable, beta: float, ta: np.ndarray,
          tb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K, G): the Kronrod and Gauss estimates on each [ta, tb] in t = ln y.

    Each block is node-major, a row of steps per node, so every broadcast
    and both sums (over the rows, in node order) run along the steps.
    """
    out = np.empty((2, len(ta)))
    for s in range(0, len(ta), _BLOCK):
        a, b = ta[s:s + _BLOCK], tb[s:s + _BLOCK]
        w = 0.5 * (b - a)  # exact, so steps that share an end telescope
        t = (1.0 + _NODES)[:, None] * w
        t += a
        y = np.exp(t)
        if beta == 1.0:  # e^t is the weight itself
            f = y
        else:
            f = np.exp(beta * t)
            f *= beta
        f *= tail(y)
        k = (f * _WEIGHTS[:, :1]).sum(axis=0)
        if not np.isfinite(k).all():  # all Kronrod weights are positive
            _reject(f, t)
        out[0, s:s + _BLOCK] = w * k
        # the Gauss nodes are the odd rows; the others weigh 0 in G
        out[1, s:s + _BLOCK] = w * (f[1::2] * _WEIGHTS[1::2, 1:]).sum(axis=0)
    return out[0], out[1]


def _reject(f: np.ndarray, t: np.ndarray) -> None:
    """Raise ModelEvaluationError at the first non-finite value of the
    node-major block f, in step order, if there is one."""
    bad = ~np.isfinite(f)
    if bad.any():
        step = int(bad.any(axis=0).argmax())
        node = int(bad[:, step].argmax())
        raise ModelEvaluationError(
            f"integrand returned non-finite value {float(f[node, step])!r}"
            f" at log-point t={float(t[node, step])!r}")


def integrate_tail(tail: Callable, beta: float, xs,
                   rel_tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of beta * y^(beta-1) * tail(y) from xs[0] to each later point
    of the increasing, positive, finite xs (two points at least), as arrays
    (values, errs) aligned with xs[1:].

    Every step enters the first pass whole, and an interval whose |K - G|
    exceeds both rel_tol |K| and eps xs[0]^beta is bisected; which step owns
    each interval is tracked only once an interval misses. errs sums
    those |K - G|, the rule's roundoff (its nodes round by eps |t|), the
    cumsum's, and the rounding of ln xs[0] and ln x: beta y^beta sf(y) eps
    |ln y| at each end, y^beta sf(y) being at most xs[0]^beta at the bottom
    and the value plus xs[0]^beta at the top. Past the interval budget or
    the depth limit it raises ConvergenceError with the partial estimate.
    """
    t = np.log(np.asarray(xs, dtype=float))
    n = len(t) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        ta, tb, owner, extra = t[:-1], t[1:], None, 0  # the steps, whole
        seg = seg_err = 0.0
        lo_pow = np.float64(xs[0]) ** beta
        for depth in range(_MAX_DEPTH + 1):
            k, g = _rule(tail, beta, ta, tb)
            miss = np.abs(k - g)
            # h never falls below xs[0]^beta, so a miss under eps of that is
            # rounding (a subnormal integrand's), not an unresolved interval
            done = miss <= np.maximum(rel_tol * np.abs(k), _EPS * lo_pow)
            if owner is None:  # the intervals are the steps, in order
                if done.all():  # 0.0 + k: the bincount's sum, signed zero too
                    seg, seg_err = k + 0.0, miss
                    break
                owner = np.arange(n)
            seg += np.bincount(owner[done], k[done], n)
            seg_err += np.bincount(owner[done], miss[done], n)
            rest = ~done
            if not rest.any():
                break
            extra += int(rest.sum())
            if extra > _MAX_INTERVALS or depth == _MAX_DEPTH:
                raise ConvergenceError(
                    f"interval budget {_MAX_INTERVALS} or depth {_MAX_DEPTH} "
                    f"exhausted on [{xs[0]:g}, {xs[-1]:g}] at "
                    f"rel_tol={rel_tol:g}",
                    estimate=float(seg.sum() + k[rest].sum()),
                    err=float(seg_err.sum() + miss[rest].sum()))
            mid = 0.5 * (ta[rest] + tb[rest])
            owner = np.tile(owner[rest], 2)
            ta, tb = np.append(ta[rest], mid), np.append(mid, tb[rest])

        values = np.cumsum(seg)
        roundoff = _EPS * (4.0 + beta * np.maximum(np.abs(t[:-1]), np.abs(t[1:])))
        errs = (np.cumsum(seg_err + roundoff * np.abs(seg) + _EPS * values)
                + _EPS * beta * (np.abs(t[1:]) * (values + lo_pow)
                                 + abs(t[0]) * lo_pow))
    return values, errs

