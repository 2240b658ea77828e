"""Numerical laboratory for truncated moments of heavy-tailed distributions.

Computes the tail-weighted truncated moment h and its Stieltjes companion v
for a catalog of survival-function models, estimates regular-variation
indices and limiting mass shares, tests de Haan class membership, and
cross-checks the equivalence theorem tying all of these together.
"""

from .catalog import (TailModel, build_model, load_tabulated,
                      make_geometric_tail, make_inverse_log, make_log_pareto,
                      make_pareto, make_st_petersburg, MODEL_REGISTRY)
from .errors import (AdmissionError, ConvergenceError, ExtrapolationWarning,
                     InconsistencyError, IndeterminateError,
                     InsufficientDataError, ModelEvaluationError,
                     ModelValidationError, TableFormatError, TailMomentsError)
from .moments import (MomentCurve, build_curve, build_grid, check_admission,
                      compute_h, compute_u, curve_to_csv)
from .params import DEFAULT_LAMBDAS, AnalysisParams
from .asymptotics import (GammaResult, PiTestResult, RVEstimate,
                          estimate_rv_index, gamma_classification,
                          has_incommensurable_pair, pi_class_test)
from .verifier import ConditionVerdict, TheoremReport, verify

__version__ = "0.1.0"

__all__ = [
    "AdmissionError", "AnalysisParams", "ConditionVerdict", "ConvergenceError",
    "DEFAULT_LAMBDAS", "ExtrapolationWarning",
    "GammaResult", "InconsistencyError", "IndeterminateError",
    "InsufficientDataError", "MODEL_REGISTRY", "ModelEvaluationError",
    "ModelValidationError", "MomentCurve", "PiTestResult", "RVEstimate",
    "TableFormatError", "TailModel", "TailMomentsError",
    "TheoremReport", "build_curve", "build_grid", "build_model",
    "check_admission", "compute_h", "compute_u", "curve_to_csv",
    "estimate_rv_index", "gamma_classification", "has_incommensurable_pair",
    "load_tabulated",
    "make_geometric_tail", "make_inverse_log", "make_log_pareto",
    "make_pareto", "make_st_petersburg", "pi_class_test",
    "verify",
]
