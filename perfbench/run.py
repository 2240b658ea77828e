"""tailmoments benchmark: one closed-loop client, three seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli|sweep|long-range|all \
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
alternates traced and untraced cycles of the same mix and reports the
per-layer metrics, plus the goodput lost to tracing. ``--workload all``
runs every workload both ways and prints every metric. Each run prints a
human summary, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is taken from ``src/`` of the checkout; without it the run
exits with code 2 and prints no result. Workloads, the reason for each,
and the map from layer metrics to end-to-end metrics are in README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

#: fresh interpreters timed for setup_s, after one untimed warm-up spawn
SETUP_SAMPLES = 7
#: a worker or child still running this long after --seconds is killed
GRACE_S = 120.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")

END_TO_END = (
    ("setup_s", "s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
    ("reports_per_s", "1/s"), ("points_per_s", "1/s"), ("peak_rss_mb", "MB"),
)

#: per-layer metric -> (unit, per-cycle aggregate key from tracing.fold)
PER_LAYER = {
    "import.wall_ms": ("ms", None),
    "import.modules": ("count", None),
    "import.scipy_special": ("flag", None),
    "catalog.tail.evals": ("count", "tail.evals"),
    "catalog.load_tabulated_ms": ("ms", None),
    "quadrature.calls": ("count", "quad.calls"),
    "quadrature.busy_ms": ("ms", "quad.busy"),
    "quadrature.evals": ("count", "quad.evals"),
    "quadrature.errors": ("count", "quad.errors"),
    "moments.admission.busy_ms": ("ms", "admission.busy"),
    "moments.admission.evals": ("count", "admission.evals"),
    "moments.admission.eval_share": ("ratio", None),
    "moments.grid.busy_ms": ("ms", "grid.busy"),
    "moments.grid.points": ("count", "grid.points"),
    "moments.grid.breakpoints": ("count", "grid.breakpoints"),
    "moments.curve.self_ms": ("ms", "curve.self"),
    "moments.uv.busy_ms": ("ms", "uv.busy"),
    "asymptotics.rv.calls": ("count", "rv.calls"),
    "asymptotics.rv.busy_ms": ("ms", "rv.busy"),
    "asymptotics.rv.scale_points": ("count", "rv.scale_points"),
    "asymptotics.gamma.busy_ms": ("ms", "gamma.busy"),
    "asymptotics.pi.busy_ms": ("ms", "pi.busy"),
    "asymptotics.pi.evals": ("count", "pi.evals"),
    "verifier.verify.busy_ms": ("ms", "verify.busy"),
    "verifier.verify.self_ms": ("ms", "verify.self"),
    "cli.main.busy_ms": ("ms", "main.busy"),
    "cli.render.busy_ms": ("ms", "render.busy"),
    "cli.write.busy_ms": ("ms", "write.busy"),
    "cli.bytes_out": ("bytes", "bytes_out"),
    "trace.overhead_frac": ("ratio", None),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


@dataclass
class Record:
    op: int
    cycle: int
    traced: bool
    seconds: float
    digest: str
    ok: bool = False


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def _environment() -> dict[str, object]:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu": cpu}


def _reap(proc: subprocess.Popen, timeout: float) -> int:
    try:
        return proc.wait(timeout=timeout)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


def _worker_cmd(workload, seed, seconds, trace, work):
    return [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--work", work]


def _spawn_until_ready(cmd, env) -> tuple[subprocess.Popen, float]:
    """Start cmd and return it with the seconds until it printed ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line != b"ready\n":
            raise BenchError(f"worker failed during set-up: {cmd}")
    except BaseException:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        raise
    return proc, ready


def measure_setup(workload, seed, work, env) -> float:
    """Median seconds from spawn to ``tailmoments`` imported, models built."""
    cmd = _worker_cmd(workload, seed, 0, 0, work) + ["--setup-only"]
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        proc, ready = _spawn_until_ready(cmd, env)
        with proc.stdout:
            proc.stdout.read()
        if _reap(proc, GRACE_S) != 0:
            raise BenchError(f"set-up worker exited with {proc.returncode}")
        if k:
            samples.append(ready)
    return statistics.median(samples)


def run_in_process(workload, seed, seconds, trace, work, env, oracles):
    """Run the worker's loop, then check what it saved."""
    import checks  # imports tailmoments, which main() puts on sys.path

    proc, _ = _spawn_until_ready(
        _worker_cmd(workload, seed, seconds, trace, work), env)
    with proc.stdout:
        proc.stdout.read()
    if _reap(proc, seconds + GRACE_S) != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    with open(os.path.join(work, "result.json")) as fh:
        result = json.load(fh)
    records = [Record(i, cycle, traced, s, digest)
               for i, cycle, traced, s, digest in result["records"]]
    problems = {}
    for rec in records:
        if rec.op in problems:
            continue
        base = os.path.join(work, f"op{rec.op}")
        with open(base + ".json") as fh:
            summary = json.load(fh)
        cols = (checks.load_curve(base + ".npz")
                if os.path.exists(base + ".npz") else None)
        problems[rec.op] = (rec.digest,
                            oracles[rec.op].check_pair(summary, cols))
    return records, problems, result


def _cli_argv(op, work, i):
    command = "curve" if op.command.startswith("curve") else op.command
    argv = [command, "--dist", op.dist]
    for key, value in op.params:
        argv += ["--param", f"{key}={value}"]
    argv += ["--beta", f"{op.beta:g}"]
    if op.x_max != 1e12:
        argv += ["--x-max", f"{op.x_max:g}"]
    if op.ppd != 16:
        argv += ["--points-per-decade", str(op.ppd)]
    output = None
    if op.command == "curve-json":
        argv += ["--format", "json"]
    if command == "curve":
        output = os.path.join(work, f"curve{i}.{op.command[6:]}")
        argv += ["--output", output]
    return argv, output


def _run_child(cmd, stdout, stderr, env, deadline):
    """Run cmd to completion; return (seconds, exit code, rusage).

    A child still running at ``deadline`` (a perf_counter value) is killed.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env,
                            cwd=ROOT)
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage


def _read(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def run_cli(seed, seconds, trace, work, env, ops, oracles):
    """One ``python -m tailmoments.cli`` child at a time, closed loop."""
    boot = os.path.join(HERE, "cli_boot.py")
    out_path = os.path.join(work, "stdout")
    err_path = os.path.join(work, "stderr")
    agg_path = os.path.join(work, "agg.json")
    spans_path = os.path.join(work, "spans.csv")
    if trace:
        with open(spans_path, "w") as fh:
            fh.write(tracing.SPAN_HEADER)
    records, problems, layers, imports, absent = [], {}, [], [], set()
    rss_mb = 0.0
    start = time.perf_counter()
    for cycle, order in enumerate(workloads.cycle_orders(len(ops), seed)):
        traced = bool(trace) and cycle % 2 == 1
        for i in order:
            argv, output = _cli_argv(ops[i], work, i)
            if output and os.path.exists(output):
                os.unlink(output)
            if traced:
                cmd = [sys.executable, boot, agg_path,
                       spans_path if cycle == 1 else "-", str(i)] + argv
            else:
                cmd = [sys.executable, "-m", "tailmoments.cli"] + argv
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                elapsed, code, usage = _run_child(cmd, out, err, env,
                                                  start + seconds + GRACE_S)
            if not traced:
                rss_mb = max(rss_mb, usage.ru_maxrss / 1024.0)
            stdout, stderr = _read(out_path), _read(err_path)
            written = _read(output) if output else None
            digest = hashlib.sha1(repr((code, stdout, stderr,
                                        written)).encode()).hexdigest()
            if i not in problems:
                problems[i] = (digest, oracles[i].check_cli(code, stdout,
                                                            stderr, written))
            records.append(Record(i, cycle, traced, elapsed, digest))
            if traced:
                with open(agg_path) as fh:
                    child = json.load(fh)
                os.unlink(agg_path)
                layers.append([i, cycle, child["agg"]])
                imports.append(child["import"])
                absent.update(child["absent"])
        if workloads.run_done(len(records), time.perf_counter() - start,
                              seconds, cycle, trace):
            break
    result = {"rss_mb": rss_mb, "layers": layers, "absent": sorted(absent),
              "load_tabulated_ms": 0.0}
    if imports:
        result["import"] = {
            "wall_ms": statistics.median(m["wall_ms"] for m in imports),
            "modules": imports[0]["modules"],
            "scipy_special": imports[0]["scipy_special"]}
    return records, problems, result


def _goodput(records, oracles):
    """(reports per s, points per s) over the time spent inside ops."""
    busy = sum(r.seconds for r in records)
    good = [r for r in records if r.ok]
    return len(good) / busy, sum(oracles[r.op].points for r in good) / busy


def end_to_end(records, oracles, setup_s, rss_mb):
    lat = [r.seconds * 1e3 for r in records]
    reports, points = _goodput(records, oracles)
    return {"setup_s": setup_s,
            "latency_p50_ms": statistics.median(lat),
            "latency_p90_ms": statistics.quantiles(lat, n=10,
                                                   method="inclusive")[8],
            "reports_per_s": reports, "points_per_s": points,
            "peak_rss_mb": rss_mb}


def per_layer(records, oracles, result, notes):
    """Per-layer metrics, each per cycle (one pass over the op mix).

    Counts come from the first traced cycle and must repeat in every other
    one; times are the median over traced cycles.
    """
    cycles: dict[int, dict[str, float]] = {}
    for _, cycle, agg in result["layers"]:
        total = cycles.setdefault(cycle, dict.fromkeys(agg, 0))
        for key, value in agg.items():
            total[key] += value
    per_cycle = [cycles[c] for c in sorted(cycles)]
    out = {}
    for name, (_, key) in PER_LAYER.items():
        if key is None:
            continue
        values = [c[key] for c in per_cycle]
        if key.endswith((".busy", ".self")):
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                notes.append(f"{name} differs between traced cycles: {values}")
    first = per_cycle[0]
    out["moments.admission.eval_share"] = (
        first["admission.evals"] / first["tail.evals"]
        if first["tail.evals"] else 0.0)
    out["import.wall_ms"] = result["import"]["wall_ms"]
    out["import.modules"] = result["import"]["modules"]
    out["import.scipy_special"] = result["import"]["scipy_special"]
    out["catalog.load_tabulated_ms"] = result["load_tabulated_ms"]
    traced, _ = _goodput([r for r in records if r.traced], oracles)
    plain, _ = _goodput([r for r in records if not r.traced], oracles)
    out["trace.overhead_frac"] = 1.0 - traced / plain
    return {name: out[name] for name in PER_LAYER}


def run_workload(workload, seed, seconds, trace, env):
    """Run one workload; return the result object and summary lines."""
    import checks  # imports tailmoments, which main() puts on sys.path

    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    table = None
    ops = workloads.ops_for(workload)
    if any(op.dist == "tabulated" for op in ops):
        table = os.path.join(work, "table.csv")
        workloads.write_table(table, seed)
    oracles = [checks.Oracle(op, table) for op in ops]

    setup_s = None if trace else measure_setup(workload, seed, work, env)
    if workload == "cli":
        records, problems, result = run_cli(seed, seconds, trace, work, env,
                                            ops, oracles)
    else:
        records, problems, result = run_in_process(
            workload, seed, seconds, trace, work, env, oracles)

    failures: dict[int, list[str]] = {}
    for rec in records:
        digest, found = problems[rec.op]
        if rec.digest != digest:
            found = found + ["output differs from the checked one"]
        rec.ok = not found
        if found:
            failures.setdefault(rec.op, found)
    failed = sum(not r.ok for r in records)
    unexpected = [i for i in failures
                  if (workload, ops[i].id) not in workloads.KNOWN_DEFECTS]

    notes: list[str] = []
    if trace:
        metrics = per_layer(records, oracles, result, notes)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = end_to_end(records, oracles, setup_s, result["rss_mb"])
        units = dict(END_TO_END)

    plain = [r for r in records if not r.traced]
    cycles = len({r.cycle for r in records})
    lines = [
        f"workload {workload}: seed {seed}, {seconds:g} s, trace {trace}, "
        f"closed loop, one client",
        f"ops: {len(records)} attempted in {cycles} cycles of {len(ops)}, "
        f"{failed} failed, failed_frac {failed / len(records):.4f}, "
        f"{len(plain)} untraced latency samples",
    ]
    for i, found in failures.items():
        defect = workloads.KNOWN_DEFECTS.get((workload, ops[i].id))
        tag = f"known defect ({defect})" if defect else "UNEXPECTED"
        lines.append(f"failed op [{ops[i].id}]: {'; '.join(found)} -- {tag}")
    for name in result.get("absent", []):
        lines.append(f"traced name absent: {name}")
    lines += notes
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {units[name]}")
    obj = {"correct": not unexpected and not notes,
           "attempted": len(records), "failed": failed,
           "metrics": {name: {"value": value, "unit": units[name]}
                       for name, value in metrics.items()}}
    return obj, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tailmoments", "__init__.py")):
        print(f"perfbench: no tailmoments package under {SRC}",
              file=sys.stderr)
        return 2
    env = _child_env()
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    if not compileall.compile_dir(os.path.join(SRC, "tailmoments"), quiet=1):
        print("perfbench: src/tailmoments does not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tailmoments
    if not os.path.abspath(tailmoments.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported {tailmoments.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    print("environment: " + ", ".join(f"{k} {v}"
                                      for k, v in _environment().items()))

    if args.workload != "all":
        try:
            obj, lines = run_workload(args.workload, args.seed, args.seconds,
                                      args.trace, env)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(obj))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            try:
                obj, lines = run_workload(workload, args.seed, args.seconds,
                                          trace, env)
            except BenchError as exc:
                print(f"perfbench: {workload}: {exc}", file=sys.stderr)
                return 1
            print("\n".join(lines))
            combined["correct"] &= obj["correct"]
            combined["attempted"] += obj["attempted"]
            combined["failed"] += obj["failed"]
            for name, metric in obj["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
