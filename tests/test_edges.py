"""The float-edge value audit of tests/edges.py as a fixed-seed property.

scripts/edge_audit.py runs the same audit over a larger budget and prints
each counterexample as a reproducer.
"""

from __future__ import annotations

from hypothesis import example, given, settings

from edges import CASES, audit, reproducer

#: u at the support floor went through logs, 14 subnormal steps above h
_SUBNORMAL_U = [
    ("pareto", 2.0, 1.3049359484899368e-78, 3.954977381889196, 1e-80, 1e-30),
    ("pareto", 1.0, 1.0970716409787581e-144, 2.1502936407907667,
     6.253328187051272e-153, 7.025003778342339e-144)]
#: u where x^beta overflows, read off a piece law whose knot power is
#: subnormal: 1e-8 relative off
_SUBNORMAL_KNOT_POWER = ("pareto", 1.7664782481190073, 1.5223113351322276e-108,
                         2.931427629102007, 1.0, 1.7e308)
#: a staircase at its critical order where x^beta overflows past ~1e205,
#: though h and u stay below ~2e3: its flat pieces read them through logs
_STAIRCASE_PAST_X_BETA = ("geometric", 1.5, 2.0, 1.5, 1.0, 1.7e308)


@given(case=CASES)
@example(case=_SUBNORMAL_U[0])
@example(case=_SUBNORMAL_U[1])
@example(case=_SUBNORMAL_KNOT_POWER)
@example(case=_STAIRCASE_PAST_X_BETA)
@settings(max_examples=600, deadline=None, derandomize=True, database=None)
def test_edge_curves_are_exact_or_refused_truly(case):
    found = audit(case)
    assert found is None, f"{reproducer(case)}: {found}"
