"""Workload definitions: operation mixes, expected outcomes and known defects.

Every workload is a fixed mix of operations. A run repeats the mix in
cycles; the seed shuffles the order inside each cycle and sets the sample
jitter of the generated table. Model parameters never depend on the seed,
so every expected outcome stays known. This module imports only the
standard library, because the worker imports it before it times
``import tailmoments``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("cli", "sweep", "long-range")

#: a run keeps repeating whole cycles until it has at least this many ops,
#: so that at least ten latency samples lie beyond p90
MIN_OPS = 100

TABLE_ROWS = 5000
TABLE_X_MAX = 1e15
TABLE_ALPHA = 0.7
TABLE_LABEL = f"table(x^-{TABLE_ALPHA:g},{TABLE_ROWS // 1000}k)"


@dataclass(frozen=True)
class Op:
    """One operation of a workload mix.

    command is ``pair`` for the in-process ``build_curve`` + ``verify``
    call pair, or the CLI subcommand (``verify``, ``estimate``,
    ``curve-csv``, ``curve-json``). expect overrides the regime that the
    model's ground truth implies: ``inadmissible`` when the moment is
    finite, ``indeterminate`` where no regime should be decided.
    """

    command: str
    dist: str
    params: tuple[tuple[str, str], ...]
    beta: float
    x_max: float = 1e12
    ppd: int = 16
    expect: str | None = None

    @property
    def label(self) -> str:
        if self.dist == "tabulated":
            return TABLE_LABEL
        if not self.params:
            return self.dist
        return f"{self.dist}({','.join(v for _, v in self.params)})"

    @property
    def id(self) -> str:
        text = f"{self.command} {self.label} b={self.beta:g} x={self.x_max:g}"
        return text if self.ppd == 16 else f"{text} ppd={self.ppd}"


def _op(command, dist, beta, x_max=1e12, ppd=16, expect=None, **params):
    return Op(command, dist, tuple((k, str(v)) for k, v in params.items()),
              float(beta), float(x_max), ppd, expect)


def _catalog_cases(command, x_max):
    """The nine cases of scripts/verify_catalog.py."""
    return [
        _op(command, "pareto", 2, x_max, alpha=1.5),
        _op(command, "pareto", 1, x_max, alpha=0.5),
        _op(command, "pareto", 1, x_max, alpha=1),
        _op(command, "log_pareto", 1, x_max, alpha=0.5, a=1),
        _op(command, "st_petersburg", 1, x_max),
        _op(command, "geometric", 0.5, x_max, beta_g=0.5, p=3),
        _op(command, "geometric", 2, x_max, expect="indeterminate",
            beta_g=1, p=2),
        _op(command, "inverse_log", 1, x_max),
        _op(command, "inverse_log", 2, x_max),
    ]


def cli_ops() -> list[Op]:
    return _catalog_cases("verify", 1e12) + [
        _op("verify", "pareto", 1, expect="inadmissible", alpha=1.5),
        _op("estimate", "inverse_log", 1),
        _op("curve-csv", "st_petersburg", 1, 1e100, ppd=32),
        _op("curve-json", "pareto", 2, 1e100, alpha=1.5),
    ]


def sweep_ops() -> list[Op]:
    ops = []
    for x_max in (1e12, 1e15):
        ops += _catalog_cases("pair", x_max) + [
            _op("pair", "log_pareto", 2, x_max, alpha=1.5, a=2),
            _op("pair", "geometric", 2, x_max, beta_g=2, p=2),
            _op("pair", "pareto", 1, x_max, expect="inadmissible", alpha=1.5),
        ]
    return ops


def long_range_ops() -> list[Op]:
    return [
        _op("pair", "st_petersburg", 1, 1e300, ppd=64),
        _op("pair", "geometric", 0.5, 1e300, ppd=64, beta_g=0.5, p=3),
        _op("pair", "tabulated", 1, TABLE_X_MAX),
        _op("pair", "inverse_log", 1, 1e300),
        _op("pair", "log_pareto", 1, 1e300, alpha=0.5, a=1),
        _op("pair", "pareto", 2, 1e150, ppd=64, alpha=1.5),
        _op("pair", "pareto", 1, 1e300, alpha=0.5),
        _op("pair", "pareto", 2, 1e300, alpha=1.5),
        _op("pair", "inverse_log", 2, 1e200),
    ]


def ops_for(workload: str) -> list[Op]:
    return {"cli": cli_ops, "sweep": sweep_ops,
            "long-range": long_range_ops}[workload]()


#: (workload, op id) -> the defect the op reproduces at the time the
#: benchmark was defined. These ops stay in the mix and count as failed
#: while the defect lasts; they never make ``correct`` false. Any failure
#: of an op not listed here does.
KNOWN_DEFECTS = {
    ("cli", "verify pareto(1) b=1 x=1e+12"):
        "consistent=false, exit 2: v_rv decided true at rho~0.042 against "
        "f_rv's 0",
    ("sweep", "pair pareto(1) b=1 x=1e+12"):
        "consistent=false: v_rv decided true at rho~0.042 against f_rv's 0",
    ("long-range", "pair pareto(1.5) b=2 x=1e+300"):
        "uncaught OverflowError in the quadrature integrand",
    ("long-range", "pair inverse_log b=2 x=1e+200"):
        "ModelEvaluationError, no report",
    ("long-range", "pair pareto(0.5) b=1 x=1e+300"):
        "indeterminate instead of interior: sqrt(lo*hi) overflows in the "
        "trend split",
    ("long-range", "pair log_pareto(0.5,1) b=1 x=1e+300"):
        "indeterminate instead of interior: sqrt(lo*hi) overflows in the "
        "trend split",
}


def run_done(n_ops: int, elapsed: float, seconds: float, cycle: int,
             trace: bool) -> bool:
    """Whether a run may stop after the cycle numbered ``cycle``.

    A traced run also needs one traced cycle (cycle 1) and one untraced.
    """
    return (n_ops >= MIN_OPS and elapsed >= seconds
            and (not trace or cycle >= 1))


def cycle_orders(n_ops: int, seed: int):
    """Endless stream of cycles; each is a seeded permutation of the mix."""
    rng = random.Random(seed)
    while True:
        order = list(range(n_ops))
        rng.shuffle(order)
        yield order


def write_table(path: str, seed: int) -> None:
    """Seeded log-linear table of sf(x) = x^-0.7 on [1, 1e15].

    Rows sit on a log-uniform grid with each interior x jittered by up to
    30% of a step, so the seed moves every breakpoint but not the law.
    """
    rng = random.Random(seed)
    step = 15.0 / (TABLE_ROWS - 1)
    with open(path, "w") as fh:
        fh.write("x,tail\n")
        for k in range(TABLE_ROWS):
            if k == 0:
                x = 1.0
            elif k == TABLE_ROWS - 1:
                x = TABLE_X_MAX
            else:
                x = 10.0 ** (step * (k + rng.uniform(-0.3, 0.3)))
            fh.write(f"{x!r},{x ** -TABLE_ALPHA!r}\n")
