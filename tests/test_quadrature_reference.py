"""integrate_tail against the loop that tracked every interval's owner.

reference_integrate_tail is that loop, kept as it was: it always forms the
split counts and the owner of each interval, starts both sums at zeros and
adds every pass's resolved intervals into them by np.bincount, whether or
not a step was split or an interval missed. It also splits, before any tail
call, each step longer than 4.6/beta log-units, as integrate_tail once did;
integrate_tail refines by bisection alone. On the cases here it must return
the same (values, errs) bit for bit, and raise the same errors.
"""

from __future__ import annotations

import numpy as np
import pytest

from tailmoments.catalog import make_inverse_log, make_log_pareto
from tailmoments.errors import ConvergenceError, ModelEvaluationError
from tailmoments.moments import build_grid
from tailmoments.params import AnalysisParams
from tailmoments.quadrature import (_EPS, _MAX_DEPTH, _MAX_INTERVALS, _rule,
                                    integrate_tail)


def reference_integrate_tail(tail, beta, xs, rel_tol=1e-10):
    """integrate_tail with its owner bookkeeping on every path."""
    t = np.log(np.asarray(xs, dtype=float))
    n = len(t) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        split = np.maximum(np.ceil(beta * np.diff(t) / 4.6), 1.0)
        if not split.sum() - n <= _MAX_INTERVALS:
            raise ConvergenceError(
                f"order {beta:g} on [{xs[0]:g}, {xs[-1]:g}] needs "
                f"{split.sum():g} intervals, more than the interval budget "
                f"{_MAX_INTERVALS}")
        parts = split.astype(int)
        owner = np.repeat(np.arange(n), parts)
        if len(owner) == n:
            ta, tb = t[:-1], t[1:]
        else:
            part = np.arange(len(owner)) - np.repeat(np.cumsum(parts) - parts,
                                                     parts)
            ta = t[owner] + np.diff(t)[owner] * (part / split[owner])
            tb = np.append(ta[1:], t[-1])
        seg, seg_err = np.zeros(n), np.zeros(n)
        extra = len(owner) - n
        lo_pow = np.float64(xs[0]) ** beta
        for depth in range(_MAX_DEPTH + 1):
            k, g = _rule(tail, beta, ta, tb)
            miss = np.abs(k - g)
            done = miss <= np.maximum(rel_tol * np.abs(k), _EPS * lo_pow)
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
                    f"rel_tol={rel_tol:g}")
            mid = 0.5 * (ta[rest] + tb[rest])
            owner = np.tile(owner[rest], 2)
            ta, tb = np.append(ta[rest], mid), np.append(mid, tb[rest])
        values = np.cumsum(seg)
        roundoff = _EPS * (4.0 + beta * np.maximum(np.abs(t[:-1]), np.abs(t[1:])))
        errs = (np.cumsum(seg_err + roundoff * np.abs(seg) + _EPS * values)
                + _EPS * beta * (np.abs(t[1:]) * (values + lo_pow)
                                 + abs(t[0]) * lo_pow))
    return values, errs


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _counted(tail):
    """tail, and the list of the sizes of the arrays it was called on."""
    sizes = []

    def counted(y):
        sizes.append(y.size)
        return tail(y)
    return counted, sizes


def _grid(model, beta, x_max):
    """The floor and the ppd-16 grid points above it, as build_curve reads."""
    grid = build_grid(model, AnalysisParams(beta=beta, x_max=x_max))
    return np.concatenate(([model.support_floor],
                           grid[grid > model.support_floor]))


def _zero_above_100(y):
    return np.where(y < 100.0, 1.0 - y / 100.0, 0.0)


def _least_negative(y):
    # not a survival function, but K rounds to -0.0 on the first steps,
    # where values[0] would keep that sign
    return np.full_like(y, -5e-324)


_CASES = {
    # one pass, no step split and none bisected: what every smooth bench op runs
    "one-pass": (make_inverse_log().tail, 1.0,
                 _grid(make_inverse_log(), 1.0, 1e12), 1e-10, "one"),
    # beta 40 at 16 points per decade: the reference cuts every step in two
    # before the first pass, and bisection reaches the same halves
    "split-by-bisection": (make_inverse_log().tail, 40.0,
                           _grid(make_inverse_log(), 40.0, 1e7), 1e-10,
                           "more"),
    # 1.45 decades per step, short of the reference's split, at rel_tol
    # 1e-12: some steps are bisected
    "bisects": (make_log_pareto(1.5, 2.0).tail, 1.0,
                np.geomspace(np.e, 1e12, 9), 1e-12, "more"),
    # the tail is 0 past 100, and the steps there give K = 0.0
    "zero-tail": (_zero_above_100, 1.0, np.geomspace(1.0, 1e4, 33), 1e-10,
                  "one"),
    "signed-zero": (_least_negative, 1.0, np.geomspace(100.0, 1e4, 2001),
                    1e-10, "one"),
}


def test_the_signed_zero_case_has_negative_zero_steps():
    tail, beta, xs = _CASES["signed-zero"][:3]
    k = _rule(tail, beta, np.log(xs[:-1]), np.log(xs[1:]))[0]
    assert np.signbit(k[0]) and k[0] == 0.0


def test_the_bisects_case_is_short_of_the_reference_split():
    _, beta, xs = _CASES["bisects"][:3]
    assert beta * np.diff(np.log(xs)).max() < 4.6


@pytest.mark.parametrize("case", list(_CASES))
def test_integrate_tail_matches_the_owner_loop_bitwise(case):
    tail, beta, xs, rel_tol, passes = _CASES[case]
    counted, sizes = _counted(tail)
    values, errs = integrate_tail(counted, beta, xs, rel_tol)
    want_values, want_errs = reference_integrate_tail(tail, beta, xs, rel_tol)
    assert _bits(values) == _bits(want_values)
    assert _bits(errs) == _bits(want_errs)
    one_pass = 15 * (len(xs) - 1)  # 15 nodes on each step
    assert (sum(sizes) == one_pass) == (passes == "one"), sum(sizes)


def _error(integrate, tail, beta, xs, rel_tol):
    """(type, message) of the error that integrate raises, and the number of
    tail calls made before it."""
    counted, sizes = _counted(tail)
    with pytest.raises((ConvergenceError, ModelEvaluationError)) as info:
        integrate(counted, beta, xs, rel_tol)
    return type(info.value), str(info.value), len(sizes)


@pytest.mark.parametrize("tail, beta, xs, rel_tol", [
    # non-finite integrand: the first bad node in step order is named
    (lambda y: np.where(y > 50.0, np.nan, 1.0 / y), 1.0,
     np.geomspace(1.0, 1e4, 33), 1e-10),
    # a jump inside a step is never resolved: the depth limit
    (lambda y: np.where(y < 3.3, 1.0, 0.5), 1.0, np.array([1.0, 10.0]),
     1e-10),
], ids=["non-finite", "depth"])
def test_integrate_tail_raises_as_the_owner_loop(tail, beta, xs, rel_tol):
    got = _error(integrate_tail, tail, beta, xs, rel_tol)
    want = _error(reference_integrate_tail, tail, beta, xs, rel_tol)
    assert got == want


def test_an_order_past_the_old_split_budget_overflows_in_one_block():
    # the reference's split needs 1.5e6 intervals here and refuses before
    # any tail call; the one step enters the rule whole, and its weight
    # e^(beta t) overflows in the first block
    got = _error(integrate_tail, lambda y: 1.0 / y, 1e4,
                 np.array([1.0, 1e300]), 1e-10)
    assert got == (ModelEvaluationError, "integrand returned non-finite value"
                   " inf at log-point t=2.951210262357495", 1)
