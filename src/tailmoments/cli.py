"""Command-line interface.

Subcommands:
    list      registered model families and their parameters
    curve     moment curve h, v, u, r1, r2 over the analysis grid (CSV/JSON)
    estimate  regular-variation indices of h, v, u plus the tail index (JSON)
    verify    full theorem consistency report (JSON)

Exit codes: 0 success (verify: consistent), 1 usage or computation error
(including inadmissible models), 2 verify found a contradiction, 3 verify
could not classify the regime.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, fields

import numpy as np

from .asymptotics import estimate_rv_index
from .catalog import MODEL_REGISTRY, build_model, model_parameters
from .errors import InsufficientDataError, TailMomentsError
from .moments import build_curve, curve_to_csv
from .params import AnalysisParams
from .verifier import verify

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONSISTENT = 2
EXIT_INDETERMINATE = 3


def _json_safe(obj):
    """Recursively make an object JSON-serializable, encoding non-finite floats."""
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        obj = np.asarray(obj, dtype=float)
        vals = obj.tolist()
        return vals if np.isfinite(obj).all() else list(map(_json_safe, vals))
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    return obj


def render_json(obj) -> str:
    """Canonical JSON: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(_json_safe(obj), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _write_output(text: str, path: str | None) -> None:
    """Write to stdout, or atomically replace the target file."""
    if path is None:
        sys.stdout.write(text)
        return
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                               prefix=".tailmoments-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _parse_model_params(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise TailMomentsError(
                f"--param expects key=value, got {pair!r}")
        out[key] = value
    return out


#: AnalysisParams fields with a flag of the same name, type and default
_ANALYSIS_FIELDS = [f for f in fields(AnalysisParams)
                    if f.name not in ("beta", "lambdas")]


def _params_from_args(args: argparse.Namespace) -> AnalysisParams:
    kwargs = {f.name: getattr(args, f.name) for f in _ANALYSIS_FIELDS}
    if args.lambdas:
        kwargs["lambdas"] = tuple(args.lambdas)
    return AnalysisParams(beta=args.beta, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailmoments",
        description="Truncated-moment laboratory for heavy-tailed models")
    subs = parser.add_subparsers(dest="command", required=True)

    p_list = subs.add_parser("list", help="list registered model families")
    p_list.add_argument("--format", choices=("json", "text"), default="text")

    for name, text in (("curve", "tabulate h, v, u, r1, r2"),
                       ("estimate", "regular-variation indices of h, v, u"),
                       ("verify", "full theorem consistency report")):
        sub = subs.add_parser(name, help=text)
        sub.add_argument("--dist", required=True,
                         help="model family name (see 'list')")
        sub.add_argument("--param", action="append", default=[],
                         metavar="KEY=VALUE", help="model parameter, repeatable")
        sub.add_argument("--beta", type=float, required=True,
                         help="moment order, must be positive")
        sub.add_argument("--lambda", dest="lambdas", type=float,
                         action="append", metavar="LAMBDA",
                         help="scale factor for index estimation, repeatable "
                              "(default: 2, e, 3, 8)")
        for f in _ANALYSIS_FIELDS:
            sub.add_argument("--" + f.name.replace("_", "-"),
                             type=type(f.default), default=f.default)
        if name == "curve":
            sub.add_argument("--format", choices=("csv", "json"), default="csv")
        sub.add_argument("--output", default=None, metavar="PATH")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    entries = {}
    for name in sorted(MODEL_REGISTRY):
        entries[name] = {key: ("required" if p.default is p.empty else p.default)
                         for key, p in model_parameters(name).items()}
    if args.format == "json":
        _write_output(render_json(entries), None)
    else:
        for name, sig in entries.items():
            if sig:
                rendered = ", ".join(f"{k}={v}" for k, v in sig.items())
                print(f"{name}: {rendered}")
            else:
                print(f"{name}: (no parameters)")
    return EXIT_OK


def _cmd_curve(args: argparse.Namespace, model, params) -> int:
    curve = build_curve(model, params)
    if args.format == "csv":
        text = curve_to_csv(curve)
    else:
        text = render_json({"model": curve.model_name, "beta": curve.beta,
                            "params": asdict(params), "columns": curve.columns})
    _write_output(text, args.output)
    return EXIT_OK


def _estimate_entry(curve, values, params) -> dict:
    try:
        est = estimate_rv_index(curve.grid, values, params)
    except InsufficientDataError as exc:
        return {"error": str(exc)}
    return {"rho_hat": est.rho_hat, "converged": est.converged,
            "spread": est.spread, "trend": est.trend,
            "window": list(est.window), "n_points": len(est.per_scale)}


def _cmd_estimate(args: argparse.Namespace, model, params) -> int:
    curve = build_curve(model, params)
    ests = {name: _estimate_entry(curve, getattr(curve, name), params)
            for name in ("h", "v", "u")}
    tail_index = (ests["u"]["rho_hat"] - params.beta
                  if "rho_hat" in ests["u"] else None)
    text = render_json({"model": curve.model_name, "beta": params.beta,
                        "params": asdict(params), "estimates": ests,
                        "tail_index": tail_index})
    _write_output(text, args.output)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, model, params) -> int:
    report = verify(model, params)
    doc = asdict(report)
    doc["model"], doc["pi"] = doc.pop("model_name"), doc.pop("pi_result")
    text = render_json({**doc, "params": asdict(params)})
    _write_output(text, args.output)
    if report.consistent is None:
        return EXIT_INDETERMINATE
    return EXIT_OK if report.consistent else EXIT_INCONSISTENT


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    analyses = {"curve": _cmd_curve, "estimate": _cmd_estimate,
                "verify": _cmd_verify}
    try:
        if args.command == "list":
            return _cmd_list(args)
        model = build_model(args.dist, **_parse_model_params(args.param))
        return analyses[args.command](args, model, _params_from_args(args))
    except TailMomentsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OverflowError, FloatingPointError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
