#!/usr/bin/env python3
"""Benchmark of the `gma` command line, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload solver --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

It drives `gma.cli.main` in-process, in a closed loop with one client: an
operation starts only after the previous report has been checked.  With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` it alternates
untraced and traced operations and prints the per-layer metrics.  The last
line of stdout is one JSON object; the lines before it repeat the metrics
with units and sample counts, and record the machine.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
OP_TIME_LIMIT_S = 30      # a hung operation fails here instead of stalling the run
SETUP_REPEATS = 3         # fresh interpreters per run; setup_s is their median
SETUP_TIME_LIMIT_S = 60
MIN_TRACED_OPS = 2        # the counter self-check compares traced operations

END_TO_END_UNITS = {
    "op_s.p50": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


class SetupError(RuntimeError):
    """The program could not be loaded or the workload could not be prepared."""


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout


def pin_threads():
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def load_program():
    """Import gma from this checkout's src/, with every module its commands load."""
    if not (SRC / "gma" / "cli.py").is_file():
        raise SetupError(f"no gma sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import scipy.integrate  # noqa: F401  (psh)
    import scipy.sparse.linalg  # noqa: F401  (solver)

    import gma
    import gma.cli
    import gma.kernel  # noqa: F401
    import gma.psh  # noqa: F401
    import gma.solver  # noqa: F401
    import gma.toric  # noqa: F401

    if Path(gma.__file__).resolve().parent != SRC / "gma":
        raise SetupError(f"imported gma from {gma.__file__}, not from {SRC}")
    return gma.cli


def machine_info(nproc):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_cli(cli, argv):
    """(exit code, stdout) of one in-process `gma` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def run_operation(cli, calls):
    """Run and check every call of one operation; None, or why it failed."""
    signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT_S)
    try:
        for call in calls:
            code, stdout = run_cli(cli, call.argv)
            where = " ".join(call.argv[:2])
            try:
                report = json.loads(stdout) if stdout.strip() else {}
            except json.JSONDecodeError:
                return f"{where}: report is not JSON"
            problem = call.check(code, report)
            if problem is not None:
                return f"{where}: {problem}"
        return None
    except OpTimeout:
        return f"timed out after {OP_TIME_LIMIT_S} s"
    except Exception as exc:  # a crash inside the program fails this operation only
        return f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def timed_operation(cli, calls, tracer=None):
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        problem = run_operation(cli, calls)
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    return elapsed, problem


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def new_workdir(workload, seed):
    path = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    path.mkdir(parents=True)
    return path


def remove_workdir(path):
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()


def setup_probe(workload, seed):
    """Child side of a set-up measurement: load, prepare, say ready."""
    cli = load_program()
    workdir = new_workdir(workload, seed)
    try:
        workloads.prepare(workload, seed, workdir, partial(run_cli, cli))
        print("ready", flush=True)
    finally:
        remove_workdir(workdir)
    return 0


def measure_setup(workload, seed, workdir):
    """Seconds from starting a fresh interpreter until it could run the first operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    err_path = workdir / "setup-probe.err"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err)
        try:
            readable, _, _ = select.select([proc.stdout], [], [], SETUP_TIME_LIMIT_S)
            line = proc.stdout.readline() if readable else b""
            elapsed = time.perf_counter() - start
            proc.wait(timeout=SETUP_TIME_LIMIT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        tail = err_path.read_text(errors="replace")[-2000:]
        raise SetupError(f"set-up probe failed (exit code {proc.returncode}):\n{tail}")
    return elapsed


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def run_plain(cli, calls, seconds):
    """Untraced closed loop; (op times, failure reasons, checked ops per second)."""
    times, failures = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        elapsed, problem = timed_operation(cli, calls)
        times.append(elapsed)
        failures.append(problem)
    wall = time.perf_counter() - start
    return times, failures, failures.count(None) / wall


def run_traced(cli, calls, seconds):
    """Alternate untraced and traced operations.

    Each traced operation is reduced to its per-layer totals at once; only
    the spans of the first MIN_TRACED_OPS traced operations are kept.
    """
    tracer = tracing.Tracer()
    plain, traced, totals, kept, failures = [], [], [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced) < MIN_TRACED_OPS:
        elapsed, problem = timed_operation(cli, calls)
        plain.append(elapsed)
        failures.append(problem)
        tracer.op = len(traced)
        elapsed, problem = timed_operation(cli, calls, tracer)
        traced.append(elapsed)
        failures.append(problem)
        spans = tracer.take()
        totals.append(tracing.layer_totals(spans))
        if len(traced) <= MIN_TRACED_OPS:
            kept.extend(spans)
    return plain, traced, totals, tracing.export(kept, start), failures


def layer_metrics(plain, traced, totals, reference):
    values = {name: sum(op[name] for op in totals) / len(totals)
              for name in tracing.PER_LAYER_UNITS}
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    mismatched = tracing.counter_mismatches(totals, reference)
    values["trace.counter_mismatches"] = len(mismatched)
    counters = {name: totals[0][name] for name in tracing.DETERMINISTIC_COUNTERS}
    return values, counters, mismatched


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _read_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def print_metrics(metrics, counts):
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']:<6} n={counts[name]}")


def fingerprint(workdir):
    """Hash of the program sources and the workload's configs.

    Counters are compared with an earlier traced run only when both ran the
    same code on the same inputs.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(workdir.glob("*.json")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def benchmark(args, nproc):
    cli = load_program()
    machine = machine_info(nproc)
    workdir = new_workdir(args.workload, args.seed)
    try:
        calls = workloads.prepare(args.workload, args.seed, workdir, partial(run_cli, cli))
        inputs = fingerprint(workdir)
        signal.signal(signal.SIGALRM, _on_alarm)
        if args.trace:
            plain, traced, totals, spans, failures = run_traced(cli, calls, args.seconds)
        else:
            setup = [measure_setup(args.workload, args.seed, workdir)
                     for _ in range(SETUP_REPEATS)]
            times, failures, ops_per_s = run_plain(cli, calls, args.seconds)
    finally:
        remove_workdir(workdir)

    attempted = len(failures)
    problems = [p for p in failures if p is not None]
    # a time-out is a failure but not a wrong answer
    correct = all(p.startswith("timed out") for p in problems)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "attempted": attempted,
              "failures": problems[:20]}

    print(f"gma perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    if args.trace:
        spans_path = OUT / f"{stem}-spans.json"
        previous = _read_json(spans_path) or {}
        reference = previous.get("counters") if previous.get("inputs") == inputs else None
        values, counters, mismatched = layer_metrics(plain, traced, totals, reference)
        spans_path.write_text(json.dumps({"machine": machine, "inputs": inputs,
                                          "counters": counters, "spans": spans},
                                         separators=(",", ":")))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER_UNITS.items()}
        counts = {name: len(traced) for name in metrics}
        counts["trace.overhead_ratio"] = f"{len(traced)}+{len(plain)}"
        record.update(plain_op_s=plain, traced_op_s=traced, counters=counters,
                      counter_mismatches=mismatched)
        print(f"per-layer metrics, mean per traced operation (spans in {spans_path.name}):")
        print_metrics(metrics, counts)
        if mismatched:
            print("FLAG: deterministic counters did not repeat: " + ", ".join(mismatched))
    else:
        values = {
            "op_s.p50": statistics.median(times),
            "ops_per_s": ops_per_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (attempted - len(problems)) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        counts = {"op_s.p50": len(times), "ops_per_s": len(times), "setup_s": len(setup),
                  "peak_rss_mb": 1, "ok_ratio": attempted}
        record.update(op_s=times, setup_s=setup)
        print("end-to-end metrics:")
        print_metrics(metrics, counts)
        print(f"  {'fail_ratio':<40} {len(problems) / attempted:>14.6g} {'ratio':<6} n={attempted}")
    for problem in problems[:5]:
        print(f"FAILED: {problem}")
    record["metrics"] = metrics
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(problems), "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process, then one summary table."""
    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 300)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: benchmark exited with {proc.returncode}")
            status = 1
            continue
        rows.append((name, json.loads(lines[-1])))
    print("summary:")
    for name, result in rows:
        fail_ratio = result["failed"] / result["attempted"]
        shown = ", ".join(f"{k}={m['value']:.6g} {m['unit']}"
                          for k, m in result["metrics"].items()
                          if k in END_TO_END_UNITS)
        print(f"  {name:<10} correct={result['correct']} fail_ratio={fail_ratio:.3g} "
              f"(n={result['attempted']}) {shown}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    nproc = pin_threads()
    try:
        if args.setup_probe:
            return setup_probe(args.workload, args.seed)
        if args.workload == "all":
            return run_all(args)
        return benchmark(args, nproc)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
