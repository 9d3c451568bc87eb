"""Print the SHA-256 of every report a fixed set of runs writes.

Usage, from anywhere:

    python3 tools/report_digests.py CHECKOUT > digests.txt

``CHECKOUT`` is the root of a semfab tree; its ``src/semfab`` and
``perfbench/`` are imported and nothing else.  Two sets of runs:

- one pass of each perfbench workload at benchmark seeds 1-3, which
  writes the report of every print seed (and, on the CLI workload, its
  history CSV);
- closed-loop prints the benchmark never makes, through the library API:
  an abort at layer 0, an uncontrolled print, a failed warm-start model
  followed by an abort, a non-stationary plan, warm and full re-plans
  under drift, a plant that aborts at layer 2, and the 10-layer bar whose
  ``mass`` plan stops on its tip bound, at print seeds 0-7 under both
  strategies.  Each writes its report and history CSV;
- a plan off every box corner: the 4-layer bar with a loose tip bound and
  a stiffness budget, whose values, objective, verdicts, multipliers and
  trace are written with every float's bits, and one drifting print of it
  under each strategy.  It runs the augmented Lagrangian's outer loop and
  L-BFGS-B, which no other plan here reaches.

Every run works in a temporary directory, so nothing is written into the
checkout.  A refactor that must keep report bytes is checked with

    diff <(python3 tools/report_digests.py PARENT) \\
         <(python3 tools/report_digests.py CHANGE)
"""

import os
import sys

# no bytecode caches in the checkout
sys.dont_write_bytecode = True
# one BLAS thread, as perfbench runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

BENCHMARK_SEEDS = (1, 2, 3)
BINDING_SEEDS = range(8)


def _import_checkout(root):
    """Put the checkout's ``src`` and ``perfbench`` first on the path."""
    src = root / "src"
    sys.path[:0] = [str(src), str(root / "perfbench")]
    import semfab

    if Path(semfab.__file__).resolve().parent != (src / "semfab").resolve():
        raise SystemExit(f"report_digests: imported {semfab.__file__}")


def _digests(directory, label):
    """One line per file under ``directory``, in path order."""
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {label}/{path.relative_to(directory).as_posix()}")


def benchmark_reports(tmp):
    import run
    import workloads

    for name, workload in sorted(workloads.WORKLOADS.items()):
        for seed in BENCHMARK_SEEDS:
            seeds = run.print_seeds(seed, workload.n_print_seeds)
            setup_dir = tmp / f"{name}-{seed}-setup"
            pass_dir = tmp / f"{name}-{seed}-pass"
            setup_dir.mkdir()
            pass_dir.mkdir()
            inputs = workload.setup(setup_dir, seeds)
            workload.run_pass(inputs, pass_dir)
            _digests(pass_dir, f"{name}/seed-{seed}")


def _bar(n_layers, objective="compliance", bound_factor=1.08):
    """The perfbench bar with ``n_layers`` unit layers, its tip bound at
    ``bound_factor`` times the stiffest bar's tip displacement."""
    import workloads
    from semfab import mesh, optimize, semantics

    m = mesh.generate_box_mesh(1, 1, n_layers, (1.0, 1.0, float(n_layers)))
    doc, _ = workloads._bar_annotation(m, float(n_layers))
    prop = doc["global_properties"][0]
    prop["bound"] *= bound_factor / 1.08
    spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)
    return optimize.InversionProblem(spec, objective, parameter="young")


def _budgeted_bar():
    """The 4-layer bar with its tip bound at 1.5 times the stiffest bar's
    and a stiffness budget sum V_e E_e <= 0.8 V E_max, whose plan lies
    inside the box (E about 96e3 in every element, the budget binding).

    The budget is no annotation, so the problem hands it to every re-plan
    itself: a tree whose ``with_frozen`` rebuilds the constraints from the
    specification would drop it, and every tree must print the same
    problem.
    """
    from semfab import optimize

    problem = _bar(4, bound_factor=1.5)
    volumes = problem.spec.mesh.volumes()
    cap = 0.8 * volumes.sum() * problem.boxes[:, 1].max()
    problem.constraints += (optimize.SyntheticConstraint(
        "budget", lambda x: (volumes @ x - cap) / cap,
        lambda x: volumes / cap),)
    with_frozen = problem.with_frozen

    def keeping_the_budget(frozen_idx, frozen_values):
        replan = with_frozen(frozen_idx, frozen_values)
        replan.constraints = problem.constraints
        return replan

    problem.with_frozen = keeping_the_budget
    return problem


def _write_plan(plan, path):
    """A plan's values, objective, verdicts, multipliers and trace as JSON,
    whose floats round-trip bit for bit."""
    doc = {
        "values": plan.values.tolist(),
        "objective": plan.objective,
        "verdicts": [dataclasses.asdict(v) for v in plan.verdicts],
        "multipliers": [m.tolist() for m in plan.multipliers],
        "trace": list(plan.trace),
        "fem_solves": plan.fem_solves,
        "iterations": plan.iterations,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def closed_loop_reports(tmp):
    from semfab import optimize, printsim

    def drifting(strategy, noise_sd=0.01, plant=True):
        return dict(
            actuator=printsim.ActuatorModel(gain=0.9, drift_rate=0.005,
                                            noise_sd=noise_sd),
            sensor=printsim.SensorModel(noise_sd=noise_sd),
            policy=printsim.ControlPolicy(
                strategy=strategy,
                plant_model=printsim.ActuatorModel(gain=0.9, drift_rate=0.005)
                if plant else None,
            ),
        )

    def exact(gain, drift_rate=0.0, control=True, availability="layer"):
        return dict(
            actuator=printsim.ActuatorModel(gain=gain, drift_rate=drift_rate),
            sensor=printsim.SensorModel(availability=availability),
            policy=printsim.ControlPolicy(control_enabled=control),
        )

    def planned(problem, **kwargs):
        return problem, optimize.inversion_solve(problem, **kwargs)

    bar = planned(_bar(4))
    mass_bar = planned(_bar(4, "mass"))
    loose_bar = planned(_bar(4, bound_factor=1.5), max_iter=0)
    binding_bar = planned(_bar(10, "mass"))
    interior_bar = planned(_budgeted_bar())
    out = tmp / "interior-plan"
    out.mkdir()
    _write_plan(interior_bar[1], out / "plan.json")
    _digests(out, "closed-loop/interior-plan")
    cases = [
        ("abort-gain-0.4", bar, 7, exact(0.4)),
        ("uncontrolled", bar, 7, exact(0.9, control=False)),
        ("sinking-all", bar, 7, exact(1.0, -0.15, availability="all")),
        ("model-invalid-abort", mass_bar, 5,
         drifting("warm_start", plant=False)),
        ("base-point", loose_bar, 5, drifting("warm_start")),
        ("drift-warm", bar, 3, drifting("warm_start")),
        ("drift-full", bar, 3, drifting("full")),
        ("interior-full", interior_bar, 3, drifting("full")),
        ("interior-warm", interior_bar, 3, drifting("warm_start")),
    ] + [
        (f"binding-{strategy}-{seed}", binding_bar, seed, drifting(strategy))
        for strategy in ("full", "warm_start") for seed in BINDING_SEEDS
    ]
    for label, (problem, plan), seed, kwargs in cases:
        report = printsim.run_print(problem, plan, seed=seed,
                                    layer_height=1.0, **kwargs)
        out = tmp / label
        out.mkdir()
        printsim.save_report(report, out / "report.json")
        printsim.history_to_csv(report, out / "history.csv")
        _digests(out, f"closed-loop/{label}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit("usage: report_digests.py CHECKOUT")
    _import_checkout(Path(argv[0]).resolve())
    with tempfile.TemporaryDirectory(prefix="report-digests-") as tmp:
        tmp = Path(tmp)
        (tmp / "bench").mkdir()
        (tmp / "loop").mkdir()
        benchmark_reports(tmp / "bench")
        closed_loop_reports(tmp / "loop")
    return 0


if __name__ == "__main__":
    sys.exit(main())
