"""Closed-loop benchmark of semfab: plan -> print -> final verification.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bar-pcg --seed 1 --seconds 30 --trace 0

Set-up (mesh, annotation, scenario files) is timed on its own, repeated
before the first pass and after every pass, and ``setup_s`` is the median
of those repeats.  Passes repeat until ``--seconds`` have elapsed; the
first pass warms up and each pass timing is the fastest of the others
(see ``_untraced_metrics``).  Every pass is checked (see ``check_pass``); a
failed check counts its operation as failed.  With ``--trace 0`` the last
line of output is a JSON object with the end-to-end metrics, with
``--trace 1`` one with the per-layer metrics taken from spans around every
public semfab function.  The program under test is imported from ``src/``
of the checkout and nowhere else.
"""

import os

# one BLAS thread: the run is a single-threaded closed loop, and a second
# BLAS thread only spins against whatever else holds the other core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"  # scratch work dirs and span dumps
# set-up repeats for this long before the first pass and after each pass,
# so that its median samples the same stretch of time as the passes do
SETUP_SLICE_S = 0.1
PLAN_RTOL = 1e-6  # plan objective against the set-up's reference optimum
TIMINGS = ("total_s", "plan_s", "print_s")  # per pass, fastest pass reported


def _import_program():
    """Put the checkout's ``src`` first on the path and import semfab."""
    src = ROOT / "src"
    if not (src / "semfab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no semfab sources under {src}")
    sys.path.insert(0, str(src))
    import semfab

    if Path(semfab.__file__).resolve().parent != src / "semfab":
        raise SystemExit(f"perfbench: imported semfab from {semfab.__file__}")
    from semfab import _kernels, cli, fem, mesh, optimize, printsim, semantics

    return [mesh, semantics, fem, _kernels, optimize, printsim, cli]


def _parse(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def print_seeds(seed, count):
    """The print seeds a benchmark seed stands for: ``count`` in a row."""
    first = int(np.random.default_rng(seed).integers(0, 2**40))
    return list(range(first, first + count))


class Run:
    """Outcome of every pass of one run: timings, counts and checks."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.reference_reports = {}

    def _fail(self, what):
        self.failed += 1
        self.failures.append(what)

    def check_pass(self, index, out, spans):
        """Count one plan and one print per seed, and check each of them.

        The plan must be feasible, with its objective within ``PLAN_RTOL``
        of the reference optimum made in set-up.  Each print must succeed
        and write the same report bytes as the run's first pass did for
        that seed, traced or not.
        """
        seeds = self.inputs.seeds
        self.attempted += 1 + len(seeds)
        if out is None:
            for _ in range(1 + len(seeds)):
                self._fail(f"pass {index}: raised")
            return
        plans = [s for s in spans if s[0] == "optimize.inversion_solve"]
        plan = plans[0][4] if plans else None
        ref = self.inputs.reference_objective
        if out.exit_code not in (0, 1):
            self._fail(f"pass {index}: exit code {out.exit_code}")
        elif plan is None or "error" in plan:
            self._fail(f"pass {index}: no plan")
        elif not plan["feasible"]:
            self._fail(f"pass {index}: plan infeasible")
        elif abs(plan["objective"] - ref) > PLAN_RTOL * abs(ref):
            self._fail(f"pass {index}: plan objective {plan['objective']!r} "
                       f"!= reference {ref!r}")
        outcomes = {s[4]["seed"]: s[4]["outcome"]
                    for s in spans if s[0] == "printsim.run_print" and s[4]
                    and "seed" in s[4]}
        for seed in seeds:
            data = out.reports.get(seed)
            first = self.reference_reports.setdefault(seed, data)
            if outcomes.get(seed) != "success":
                self._fail(f"pass {index} seed {seed}: {outcomes.get(seed)}")
            elif data is None or data != first:
                self._fail(f"pass {index} seed {seed}: report bytes differ")


def pass_figures(out, spans):
    """plan_s, print_s and fem_solves of one pass from its boundary spans."""
    plans = [s for s in spans if s[0] == "optimize.inversion_solve"]
    prints = [s for s in spans if s[0] == "printsim.run_print"]
    plan_solves = plans[0][4]["fem_solves"] if plans and plans[0][4] else 0
    return {
        "total_s": out.total_s,
        "plan_s": plans[0][3] - plans[0][2] if plans else 0.0,
        "print_s": sum(s[3] - s[2] for s in prints),
        "fem_solves": plan_solves + sum(
            s[4]["fem_solves"] for s in prints if s[4] and "fem_solves" in s[4]
        ),
    }


def _one_pass(workload, inputs, workdir, tracer, run, index):
    start = len(tracer.spans)
    try:
        with tracer:
            out = workload.run_pass(inputs, workdir)
    except Exception:  # a failed pass is counted, the run goes on
        print(f"pass {index} raised:", file=sys.stderr)
        traceback.print_exc()
        out = None
    spans = tracer.spans[start:]
    run.check_pass(index, out, spans)
    return out, spans


def _pcg_work(attrs):
    """Computed (not measured) flops and bytes of Jacobi-PCG calls.

    Per iteration: one CSR matvec (2 nnz flops) and 13 n flops of vector
    work; set-up is one matvec and 8 n flops.  Bytes count the minimal
    traffic with 8-byte values and int64 indices, no cache effects: a
    matvec moves 16 nnz + 24 n + 8 bytes, the vector work 136 n per
    iteration and 80 n at set-up.
    """
    flops = bytes_ = 0
    for a in attrs:
        k, nnz, n = a["iters"], a["nnz"], a["n"]
        flops += 2 * nnz * (k + 1) + 13 * n * k + 8 * n
        bytes_ += (16 * nnz + 160 * n + 8) * k + 16 * nnz + 104 * n + 8
    return flops, bytes_


def layer_metrics(stats, names):
    """Per-layer metrics of one traced unit (set-up plus one pass).

    ``<span>.calls``, ``<span>.s`` and ``<span>.self_s`` come straight from
    the spans; the metric name of ``_kernels.f`` is ``kernels.f``.
    """
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": []}

    def get(span):
        return stats.get(span, empty)

    m = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s"):
            if span.startswith("kernels."):
                span = "_" + span
            m[name] = get(span)[field]
    pcg = get("_kernels.pcg_csr")["attrs"]
    m["kernels.pcg_csr.iters"] = sum(a["iters"] for a in pcg)
    m["kernels.pcg_csr.flops"], m["kernels.pcg_csr.bytes"] = _pcg_work(pcg)
    solve = get("fem.solve")
    m["fem.solve.distinct_ratio"] = (
        len({a["key"] for a in solve["attrs"] if "key" in a}) / solve["calls"]
        if solve["calls"] else 0.0
    )
    m["optimize.inversion_solve.iters"] = sum(
        a.get("iters", 0) for a in get("optimize.inversion_solve")["attrs"]
    )
    m["optimize.build_quadratic_model.failed"] = sum(
        "error" in a for a in get("optimize.build_quadratic_model")["attrs"]
    )
    prints = [a for a in get("printsim.run_print")["attrs"] if "warm" in a]
    steps = sum(a["warm_steps"] for a in prints)
    m["optimize.warm_engaged_ratio"] = (
        sum(a["warm"] for a in prints) / steps if steps else 0.0
    )
    m["printsim.report_bytes"] = sum(
        a.get("bytes", 0) for a in get("printsim.save_report")["attrs"]
    )
    return m


def main(argv=None):
    modules = _import_program()
    from workloads import WORKLOADS

    args = _parse(argv, sorted(WORKLOADS))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _measure(args, WORKLOADS[args.workload], modules, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _repeat_setup(workload, setup_dir, seeds, times):
    """Set up at least once and for ``SETUP_SLICE_S``; returns the inputs."""
    spent = 0.0
    while spent < SETUP_SLICE_S:
        start = time.perf_counter()
        inputs = workload.setup(setup_dir, seeds)
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return inputs


def _measure(args, workload, modules, workdir):
    seeds = print_seeds(args.seed, workload.n_print_seeds)
    setup_dir = workdir / "setup"
    setup_dir.mkdir()
    setup_times = []
    inputs = _repeat_setup(workload, setup_dir, seeds, setup_times)
    run = Run(inputs)

    full = tracing.Tracer(modules)
    untraced, traced, units = [], [], []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index < 2 + args.trace or time.perf_counter() < deadline:
        if args.trace and index % 2 == 1:
            # a traced unit is one set-up plus one pass
            lo = len(full.spans)
            unit_dir = workdir / f"unit{index}"
            unit_dir.mkdir()
            with full:
                unit_inputs = workload.setup(unit_dir, seeds)
            out, _ = _one_pass(workload, unit_inputs, workdir, full, run,
                               index)
            units.append((lo, len(full.spans)))
            if out is not None:
                traced.append(out.total_s)
        else:
            boundary = tracing.Tracer(modules, only=tracing.BOUNDARY)
            out, spans = _one_pass(workload, inputs, workdir, boundary, run,
                                   index)
            if out is not None and index > 0:  # pass 0 warms up
                untraced.append(pass_figures(out, spans))
            if not args.trace:
                _repeat_setup(workload, setup_dir, seeds, setup_times)
        index += 1

    for line in run.failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    kind = "per_layer" if args.trace else "end_to_end"
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        units_of = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    if args.trace:
        metrics = _traced_metrics(args, workload, full, units, traced,
                                  untraced, units_of)
    else:
        metrics = _untraced_metrics(setup_times, untraced)
    print(f"workload {args.workload}  seed {args.seed}  print seeds "
          f"{seeds[0]}..{seeds[-1]}  attempted {run.attempted}  "
          f"failed {run.failed}  failed_share "
          f"{run.failed / run.attempted:g}")
    for name, unit in units_of.items():
        print(f"  {name:<42} {metrics[name]:>14.6g} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units_of.items()},
    }
    print(json.dumps(result))
    return 0


def _untraced_metrics(setup_times, passes):
    """End-to-end metrics of a run from its timed passes and set-ups.

    Every pass repeats the same work, and on a shared host the same pass
    runs up to twice as slow in stretches of up to a minute, which the
    median pass of a run follows.  Each pass timing is therefore the
    fastest pass: the time the work takes when nothing else holds the
    machine back.
    ``setup_s`` is the median over all set-ups of the run.
    """
    print(f"pass timings are the fastest of {len(passes)} passes; set-up "
          f"the median of {len(setup_times)} repeats")
    for key in TIMINGS:
        values = [p[key] for p in passes]
        print(f"  passes {key}: min {min(values):.4g}  median "
              f"{statistics.median(values):.4g}  all "
              + " ".join(f"{v:.4g}" for v in values))
    m = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    m.update({k: min(p[k] for p in passes) for k in TIMINGS})
    m["setup_s"] = statistics.median(setup_times)
    m["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return m


def _traced_metrics(args, workload, tracer, units, traced, untraced, names):
    per_unit = [layer_metrics(tracing.aggregate(tracer.spans, lo, hi), names)
                for lo, hi in units]
    metrics = {k: statistics.fmean(u[k] for u in per_unit)
               for k in per_unit[0]}
    traced_total = statistics.median(traced)
    metrics["trace.overhead_s"] = traced_total - statistics.median(
        p["total_s"] for p in untraced
    )
    claim, held = workload.attribution(metrics, traced_total)
    print(f"attribution on {args.workload}: {claim}: "
          f"{'holds' if held else 'DOES NOT HOLD'}")
    path = OUT / f"spans-{args.workload}.jsonl"
    tracer.write(path)
    print(f"{len(tracer.spans)} spans over {len(units)} traced units "
          f"written to {path.relative_to(ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
