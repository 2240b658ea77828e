"""The float-edge value audit: curves of the closed-form families at the edges
of the float range, against 40-digit values.

A case is a family, its parameters, an order beta and a span [x_min, x_max]
at 8 points per decade: pareto(a, x_floor) with a from a few round values
or from (0.1, 4) and floors from 1e-300 to 1e10, geometric(beta_g, p)
with p from 2 to 1e10 (at most ~1,000 atoms over any span, to keep the atom
sums cheap), or a log-linear table of 2 to 8 rows, knots log-uniform in
[1e-300, 1e307] and levels falling 0 to 40 decades a row. beta is in (0.2,
4], and a span reaches up to 10 decades below the floor, up to 1.7e308 and
over up to 1.7e308 in ratio.

audit(case) builds the curve and says what it got wrong, None if nothing:
- at sampled grid points where the exact h (u) is a normal float, h must lie
  within quad_error of it, and u within 1e-12 relative;
- an error is right only if its message is true: an AdmissionError, or
  "leaves the float range" where the exact h or u there is not a float.
  Any other error, an InconsistencyError above all, is wrong.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import sys
import tempfile
import warnings

import mpmath
import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from oracles import geometric_hu, law_hu, pareto_hu
from tailmoments import (AdmissionError, AnalysisParams, ExtrapolationWarning,
                         TailMomentsError, build_curve, load_tabulated,
                         make_geometric_tail, make_pareto)

_LOG_MAX = math.log10(1.7e308)
#: grid points audited per curve, besides those next to the support floor
_SAMPLES = 16
_U_REL = 1e-12


@st.composite
def _span(draw, floor: float):
    """(x_min, x_max) around a support floor, as _LOG_MAX allows: x_max
    0.01 to 620 decades above the floor, log-uniform, and x_min 0 to 10
    below it."""
    log_floor = math.log10(floor)
    above = 10.0 ** draw(st.floats(-2.0, math.log10(620.0)))
    top = min(log_floor + above, _LOG_MAX)
    bottom = max(log_floor - draw(st.floats(0.0, 10.0)), top - _LOG_MAX, -307.0)
    return 10.0 ** bottom, min(10.0 ** top, 1.7e308)


_ROUND = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])
_BETAS = st.floats(0.2, 4.0, exclude_min=True)


@st.composite
def pareto_cases(draw):
    a = draw(st.one_of(_ROUND, st.floats(0.1, 4.0, exclude_min=True,
                                         exclude_max=True)))
    floor = 10.0 ** draw(st.floats(-300.0, 10.0))
    return ("pareto", a, floor, draw(_BETAS), *draw(_span(floor)))


@st.composite
def geometric_cases(draw):
    beta_g = draw(st.one_of(_ROUND, st.floats(0.1, 4.0, exclude_min=True,
                                              exclude_max=True)))
    p = draw(st.one_of(st.sampled_from([2.0, 3.0]),
                       st.floats(math.log10(2.0), 10.0).map(lambda e: 10.0 ** e)))
    return ("geometric", beta_g, p, draw(_BETAS), *draw(_span(p)))


@st.composite
def table_cases(draw):
    exponents = draw(st.lists(st.floats(-300.0, 307.0), min_size=2,
                              max_size=8, unique=True))
    knots = tuple(sorted({10.0 ** e for e in exponents}))
    assume(len(knots) >= 2)
    drops = draw(st.lists(st.floats(0.0, 40.0), min_size=len(knots),
                          max_size=len(knots)))
    levels = tuple(10.0 ** -d for d in itertools.accumulate(drops))
    return ("table", knots, levels, draw(_BETAS), *draw(_span(knots[0])))


#: the case families by name, in the order edge_audit.py reports them
FAMILIES = {"pareto": pareto_cases(), "geometric": geometric_cases(),
            "table": table_cases()}
CASES = st.one_of(*FAMILIES.values())


def table_model(knots, levels):
    """load_tabulated of the CSV with rows (knots[i], levels[i])."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edge.csv")
        with open(path, "w") as fh:
            fh.write("x,tail\n" + "".join(
                f"{x!r},{t!r}\n" for x, t in zip(knots, levels)))
        return load_tabulated(path)


def reproducer(case) -> str:
    """The case as the Python calls that rebuild its curve (table_model is
    this module's)."""
    family, first, second, beta, x_min, x_max = case
    model = {"pareto": f"make_pareto({first!r}, x_floor={second!r})",
             "geometric": f"make_geometric_tail({first!r}, {second!r})",
             "table": f"table_model({first!r}, {second!r})"}[family]
    return (f"build_curve({model}, AnalysisParams(beta={beta!r}, "
            f"x_min={x_min!r}, x_max={x_max!r}, points_per_decade=8))")


def _model(case):
    family, first, second = case[:3]
    if family == "pareto":
        return make_pareto(first, x_floor=second)
    if family == "geometric":
        return make_geometric_tail(first, second)
    return table_model(first, second)


def _exact(case, model, xs):
    """The 40-digit (h, u) of the case's model at the increasing xs."""
    family, first, second, beta = case[:4]
    if family == "pareto":
        return [pareto_hu(first, second, beta, x) for x in xs]
    if family == "geometric":
        return geometric_hu(first, second, beta, xs)
    with warnings.catch_warnings():  # a table held past its last row
        warnings.simplefilter("ignore", ExtrapolationWarning)
        law = model.pieces(model.support_floor,
                           max(xs[-1], model.support_floor))
    return law_hu(*law, beta, xs)


def _normal(value) -> bool:
    return sys.float_info.min <= abs(value) <= sys.float_info.max


def audit(case) -> str | None:
    """What the curve of case gets wrong, None if nothing (module doc)."""
    beta, x_min, x_max = case[3:]
    model = _model(case)
    params = AnalysisParams(beta=beta, x_min=x_min, x_max=x_max,
                            points_per_decade=8)
    try:
        with warnings.catch_warnings():  # a table held past its last row
            warnings.simplefilter("ignore", ExtrapolationWarning)
            curve = build_curve(model, params)
    except AdmissionError:
        return None
    except TailMomentsError as exc:
        at = re.search(r"leaves the float range at x = (\S+):", str(exc))
        if at:  # x is printed to 6 digits: a value past the range near it
            x = float(at.group(1))
            near = _exact(case, model, [x * (1.0 - 1e-5), x * (1.0 + 1e-5)])
            if any(abs(v) > sys.float_info.max for hu in near for v in hu):
                return None
        return f"{type(exc).__name__}: {exc}"
    grid = curve.grid
    at = int(grid.searchsorted(model.support_floor))
    picks = np.unique(np.concatenate((
        np.linspace(0, len(grid) - 1, _SAMPLES).astype(int),
        np.clip([at - 1, at, at + 1], 0, len(grid) - 1))))
    exact = _exact(case, model, grid[picks].tolist())
    for k, (h, u) in zip(picks.tolist(), exact):
        x, err = float(grid[k]), float(curve.quad_error[k])
        if _normal(h) and abs(mpmath.mpf(float(curve.h[k])) - h) > err:
            return (f"h({x!r}) = {float(curve.h[k])!r} is off the exact "
                    f"{mpmath.nstr(h, 17)} by more than quad_error {err!r}")
        if _normal(u) and abs(mpmath.mpf(float(curve.u[k])) - u) > _U_REL * u:
            return (f"u({x!r}) = {float(curve.u[k])!r} is off the exact "
                    f"{mpmath.nstr(u, 17)} by more than {_U_REL:g} relative")
    return None
