"""Same-process interleaved A/B of two semfab checkouts on one workload.

Usage, from anywhere:

    python3 tools/ab.py PARENT CHANGE --workload bar-warm-cli --pairs 200

Both checkouts' ``src/semfab`` are imported into this one process under two
package names (semfab imports itself only relatively), and each gets its own
copy of PARENT's ``perfbench/workloads.py`` bound to it.  The workload's
inputs are written once, by PARENT's set-up, at benchmark seed ``--seed``.
Each pair then runs one timed pass of each tree, PARENT first in even pairs
and CHANGE first in odd ones, after one untimed warm-up pass each.

A pass is perfbench's: the plan and one closed-loop print per print seed,
through the library or the in-process CLI as the workload does it.
``plan_s`` is the first ``optimize.inversion_solve`` call of the pass and
``print_s`` the sum of its ``printsim.run_print`` calls, as perfbench counts
them; ``total_s`` is the whole pass.  A CLI pass must exit 0 or 1, as
perfbench requires, and both trees must write the same report bytes for
every print seed of every pass, or the run stops.

Both trees read the inputs PARENT's set-up wrote, so a change to an input
format (a scenario key, say) cannot be compared this way: CHANGE's CLI
refuses PARENT's files, and the run stops at its exit code.

Prints, per metric, each tree's median and quartiles, the change in the
median and the pairs in which CHANGE was faster; the last line is the same
as one JSON object.  Runs of two copies of one tree read parity, which is
the control for a difference between two trees.
"""

import os
import sys

# no bytecode caches in the checkouts
sys.dont_write_bytecode = True
# one BLAS thread, as perfbench runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import importlib.util
import json
import statistics
import tempfile
import time
from pathlib import Path

METRICS = ("total_s", "plan_s", "print_s")


def _load(name, path, search=None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Tree:
    """One checkout's semfab, imported as package ``name``, with a copy of
    the workloads module bound to it and timers on its plan and prints."""

    def __init__(self, name, root, workloads_path):
        src = root / "src" / "semfab"
        if not (src / "__init__.py").is_file():
            raise SystemExit(f"ab: no semfab sources under {src}")
        self.name = name
        self.package = _load(name, src / "__init__.py", [str(src)])
        # the workloads module imports "semfab"; let it find this tree, whose
        # modules then load as submodules of ``name``
        saved = sys.modules.get("semfab")
        sys.modules["semfab"] = self.package
        try:
            self.workloads = _load(f"{name}_workloads", workloads_path)
        finally:
            if saved is None:
                del sys.modules["semfab"]
            else:
                sys.modules["semfab"] = saved
        self.calls = []  # (function, seconds) of the running pass
        self._inputs = None
        self._time(self.package.optimize, "inversion_solve")
        self._time(self.package.printsim, "run_print")

    def _time(self, module, attr):
        fn, calls, clock = getattr(module, attr), self.calls, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append((attr, clock() - start))

        setattr(module, attr, timed)

    def run_pass(self, workload_name, inputs, workdir):
        """One pass; returns its figures and perfbench's ``PassOutput``."""
        workload = self.workloads.WORKLOADS[workload_name]
        if inputs.scenario is not None:
            # a library pass reads this tree's scenario and spec, bound once
            # and kept for every pass, as perfbench keeps its set-up's
            if self._inputs is None:
                scenario, spec = self.workloads._bind_scenario(
                    inputs.scenario_path)
                self._inputs = self.workloads.Inputs(
                    inputs.scenario_path, inputs.seeds,
                    inputs.reference_objective, scenario, spec)
            inputs = self._inputs
        self.calls.clear()
        out = workload.run_pass(inputs, workdir)
        plans = [s for f, s in self.calls if f == "inversion_solve"]
        figures = {
            "total_s": out.total_s,
            "plan_s": plans[0] if plans else 0.0,
            "print_s": sum(s for f, s in self.calls if f == "run_print"),
        }
        return figures, out


def summarize(pairs):
    """Per metric: each side's quartiles, the median change and the pairs
    the change won."""
    out = {}
    for key in METRICS:
        a = [p[0][key] for p in pairs]
        b = [p[1][key] for p in pairs]
        qa = statistics.quantiles(a, n=4, method="inclusive")
        qb = statistics.quantiles(b, n=4, method="inclusive")
        out[key] = {
            "parent": {"q1": qa[0], "median": qa[1], "q3": qa[2]},
            "change": {"q1": qb[0], "median": qb[1], "q3": qb[2]},
            "change_pct": 100.0 * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0,
            "change_lower": sum(y < x for x, y in zip(a, b)),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed", type=int, default=1,
                        help="benchmark seed of the inputs (default 1)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    parent_root, change_root = args.parent.resolve(), args.change.resolve()
    bench = parent_root / "perfbench"
    sys.path.insert(0, str(bench))  # perfbench/run.py imports its tracing
    run = _load("ab_perfbench_run", bench / "run.py")
    trees = (Tree("ab_parent", parent_root, bench / "workloads.py"),
             Tree("ab_change", change_root, bench / "workloads.py"))
    if args.workload not in trees[0].workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(trees[0].workloads.WORKLOADS)}")
    workload = trees[0].workloads.WORKLOADS[args.workload]
    seeds = run.print_seeds(args.seed, workload.n_print_seeds)

    with tempfile.TemporaryDirectory(prefix="semfab-ab-") as tmp:
        tmp = Path(tmp)
        setup_dir, pass_dir = tmp / "setup", tmp / "pass"
        setup_dir.mkdir()
        pass_dir.mkdir()
        inputs = workload.setup(setup_dir, seeds)
        reference = None

        def run_checked(tree, when):
            """One pass of ``tree``; its reports must be the parent's."""
            figures, out = tree.run_pass(args.workload, inputs, pass_dir)
            if out.exit_code not in (0, 1):
                raise SystemExit(f"ab: {tree.name}'s CLI exited with "
                                 f"{out.exit_code} ({when})")
            reports = out.reports
            if any(reports.get(seed) is None for seed in seeds) or (
                    reference is not None and reports != reference):
                raise SystemExit(f"ab: {tree.name} wrote other report bytes "
                                 f"than the parent ({when})")
            return figures, reports

        # one untimed warm-up pass each; the parent's reports are the
        # reference for every later pass
        _, reference = run_checked(trees[0], "warm-up")
        run_checked(trees[1], "warm-up")
        pairs = []
        for index in range(args.pairs):
            figures = {}
            for tree in trees if index % 2 == 0 else trees[::-1]:
                figures[tree.name], _ = run_checked(tree, f"pair {index}")
            pairs.append((figures["ab_parent"], figures["ab_change"]))

    summary = summarize(pairs)
    print(f"workload {args.workload}  seed {args.seed}  print seeds "
          f"{seeds[0]}..{seeds[-1]}  {args.pairs} pairs, parent first in "
          "even pairs; report bytes equal in every pass")
    for key, s in summary.items():
        p, c = s["parent"], s["change"]
        print(f"  {key:<8} parent {1e3 * p['median']:8.3f} ms "
              f"[{1e3 * p['q1']:.3f}, {1e3 * p['q3']:.3f}]  change "
              f"{1e3 * c['median']:8.3f} ms [{1e3 * c['q1']:.3f}, "
              f"{1e3 * c['q3']:.3f}]  {s['change_pct']:+6.1f}%  change "
              f"lower in {s['change_lower']} of {args.pairs}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "pairs": args.pairs, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
