"""Command-line front end: mesh generation, verification, inversion, print
simulation, and report rendering.

Exit codes separate spec outcomes from tool health: 0 = spec passes /
success, 1 = spec fails or the print aborts (an expected domain outcome),
2 = usage or input error, 3 = internal numerical failure.  Every failure
path emits one machine-greppable line: ``SEMFAB-FAIL[<stage>]`` on stdout
for exit 1, ``SEMFAB-ERR[usage|numeric]`` on stderr for exits 2 and 3.
"""

import argparse
import enum
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import mesh as mesh_mod
from . import _files, optimize, printsim, semantics
from .errors import SemfabError, SolverFailure

log = logging.getLogger("semfab")

_LOG_LEVELS = ["debug", "info", "warning", "error"]


class ExitStatus(enum.IntEnum):
    """0/1 are domain outcomes, 2/3 are tool problems."""

    OK = 0
    SPEC_FAIL = 1
    USAGE = 2
    NUMERIC = 3


def _fail(stage, message):
    print(f"SEMFAB-FAIL[{stage}] {message}")
    return ExitStatus.SPEC_FAIL


def _err(kind, message):
    print(f"SEMFAB-ERR[{kind}] {message}", file=sys.stderr)
    return ExitStatus.USAGE if kind == "usage" else ExitStatus.NUMERIC


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"SEMFAB-ERR[usage] {message}", file=sys.stderr)
        raise SystemExit(ExitStatus.USAGE)


def _positive_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not 0.0 < value < math.inf:  # refuses NaN too
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive finite number")
    return value


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _size_triple(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"{text!r} must be three comma-separated lengths, e.g. 1,1,2"
        )
    return tuple(_positive_float(p) for p in parts)


def _seed_range(text):
    """Either one seed ("7") or an inclusive range ("3..6"), as a ``range``,
    which holds any number of seeds in constant memory."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a seed or inclusive seed range like 3..6"
        )
    # the bound run_print checks, here before any seed is planned or written
    if lo < 0 or hi >= printsim.SEED_LIMIT:
        raise argparse.ArgumentTypeError("seeds must be in [0, 2**63)")
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# shared rendering


def _verdict_table(verdicts):
    """Table of verdicts in the report's dict form
    (:func:`semantics.verdict_to_dict`)."""
    rows = [("property", "quantity", "measured", "margin", "status")]
    for v in verdicts:
        rows.append(
            (
                v["name"],
                v["quantity"],
                f"{v['measured']:.6g}",
                f"{v['margin']:.3g}",
                "PASS" if v["passed"] else "FAIL",
            )
        )
    widths = [max(len(r[c]) for r in rows) for c in range(5)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def _load_bound_spec(mesh_path, annotation_path):
    m = mesh_mod.load_mesh(mesh_path)
    layer = semantics.load_semantic_layer(annotation_path)
    spec = semantics.bind_to_mesh(layer, m)
    log.info("bound %s to %s: %d vertices, %d elements, %d properties",
             annotation_path, mesh_path, m.n_vertices, m.n_elements,
             len(spec.properties))
    return spec


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_mesh(args):
    if args.shape == "box":
        m = mesh_mod.generate_box_mesh(args.nx, args.ny, args.nz, args.size)
    else:
        m = mesh_mod.generate_shaft_mesh(
            args.radius, args.height, args.n_radial, args.n_axial
        )
    report = mesh_mod.validate_mesh(m)
    if not report.ok:
        first = report.violations[0]
        return _err("numeric", f"generated mesh fails validation: {first}")
    mesh_mod.save_mesh(m, args.output)
    print(f"wrote {args.output}: {m.n_vertices} vertices, {m.n_elements} tets")
    return ExitStatus.OK


def cmd_verify(args):
    spec = _load_bound_spec(args.mesh, args.annotation)
    if args.nominal:
        field = spec.midpoint_field()
    else:
        field = semantics.field_from_dict(_files.load_json(args.field))
    if not spec.admissible(field):
        outside = np.flatnonzero(~spec.admissibility_mask(field))
        e = outside[0]
        for name in semantics.PARAMETERS:
            value = float(field.values(name)[e])
            lo, hi = spec.parameter_ranges[name][e].tolist()
            if not lo <= value <= hi:
                return _fail("verify", "the field leaves the annotated ranges "
                             f"at {outside.size} element(s), the first is "
                             f"element {e}: {name} {value!r} is not in "
                             f"[{lo!r}, {hi!r}]")
    verdicts = semantics.check_properties(
        semantics.FieldEvaluation(spec, field))
    print(_verdict_table(semantics.verdict_to_dict(v) for v in verdicts))
    failed = [v.name for v in verdicts if not v.passed]
    if failed:
        return _fail("verify", f"properties failed: {', '.join(failed)}")
    print(f"all {len(verdicts)} properties pass")
    return ExitStatus.OK


def cmd_optimize(args):
    spec = _load_bound_spec(args.mesh, args.annotation)
    problem = optimize.InversionProblem(
        spec, args.objective, parameter=args.parameter
    )
    result = optimize.inversion_solve(
        problem,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    field = problem.field_for(result.values)
    _files.save_json(semantics.field_to_dict(field), args.output)
    summary = {
        "objective": args.objective,
        "parameter": problem.parameter,
        "objective_value": result.objective,
        "feasible": result.feasible,
        "violated": list(result.violated),
        "iterations": result.iterations,
        "fem_solves": result.fem_solves,
        "values": result.values.tolist(),
    }
    summary_path = args.summary or str(args.output) + ".summary.json"
    _files.save_json(summary, summary_path)
    if args.trace:
        optimize.write_trace(result, args.trace)
    print(
        f"objective {args.objective} = {result.objective:.6g} after "
        f"{result.iterations} iterations ({result.fem_solves} FEM solves)"
    )
    if not result.feasible:
        return _fail(
            "optimize",
            "no admissible field found; violated: "
            + ", ".join(result.violated),
        )
    print(f"wrote {args.output}")
    return ExitStatus.OK


def cmd_simulate(args):
    scenario = printsim.load_scenario(args.scenario)
    base = Path(args.scenario).resolve().parent
    spec = _load_bound_spec(
        base / scenario.mesh_path, base / scenario.annotation_path
    )
    # every print input is refused before the plan and the output directory
    printsim.print_partition(spec.mesh, scenario.layer_height,
                             scenario.actuator, scenario.policy.plant_model)
    problem = optimize.InversionProblem(
        spec, scenario.objective, parameter=scenario.parameter
    )
    plan = optimize.inversion_solve(problem, tol=args.tol,
                                    max_iter=args.max_iter)
    if not plan.feasible:
        return _fail(
            "plan",
            "initial plan infeasible; violated: " + ", ".join(plan.violated),
        )
    seeds = args.seeds if args.seeds is not None else [scenario.seed]
    # len() of a range of 2**63 seeds raises OverflowError
    single = seeds[0] == seeds[-1]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = []
    for seed in seeds:
        report = printsim.run_print(
            problem,
            plan,
            scenario.actuator,
            scenario.sensor,
            scenario.policy,
            seed,
            scenario.layer_height,
            tol=args.tol,
            max_iter=args.max_iter,
        )
        suffix = "" if single else f"_{seed}"
        printsim.save_report(report, out_dir / f"report{suffix}.json")
        printsim.history_to_csv(report, out_dir / f"history{suffix}.csv")
        log.info("seed %d: %d layers, %d FEM solves", seed,
                 len(report.history), report.fem_solves)
        print(f"seed {seed}: {report.outcome}")
        if report.outcome != "success":
            what = (
                ", ".join(report.abort.violated)
                if report.abort is not None
                else ", ".join(v.name for v in report.verdicts if not v.passed)
            )
            failures.append(f"seed {seed} {report.outcome} ({what})")
    if failures:
        return _fail("simulate", "; ".join(failures))
    return ExitStatus.OK


def _svg_polyline(xs, ys, xlabel, ylabel):
    width, height, margin = 640, 400, 60
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    return "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
            f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}"'
            f' y2="{height - margin}" stroke="black"/>',
            f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
            f'y2="{height - margin}" stroke="black"/>',
            f'<polyline points="{points}" fill="none" stroke="#1f77b4" '
            'stroke-width="2"/>',
            f'<text x="{width // 2}" y="{height - 15}" '
            f'text-anchor="middle">{xlabel}</text>',
            f'<text x="15" y="{height // 2}" text-anchor="middle" '
            f'transform="rotate(-90 15 {height // 2})">{ylabel}</text>',
            f'<text x="{margin}" y="{height - margin + 20}" '
            f'text-anchor="middle">{x_lo:.6g}</text>',
            f'<text x="{width - margin}" y="{height - margin + 20}" '
            f'text-anchor="middle">{x_hi:.6g}</text>',
            f'<text x="{margin - 8}" y="{height - margin}" '
            f'text-anchor="end">{y_lo:.6g}</text>',
            f'<text x="{margin - 8}" y="{margin + 4}" '
            f'text-anchor="end">{y_hi:.6g}</text>',
            "</svg>",
            "",
        ]
    )


def cmd_report(args):
    try:
        lines, plot = _render_report(_files.load_json(args.report),
                                     bool(args.svg))
    except KeyError as exc:
        return _err("usage", f"{args.report}: the report has no key {exc}")
    print("\n".join(lines))
    if args.svg:
        if plot is None:
            return _err("usage", "report has no history to plot")
        _files.write_whole(args.svg, lambda fh: fh.write(plot))
        print(f"\nwrote {args.svg}")
    return ExitStatus.OK


def _render_report(doc, svg):
    """The text lines of a report and, with ``svg``, its convergence plot,
    None without a history; raises KeyError, naming the key, when the
    report lacks one."""
    lines = [f"outcome: {doc['outcome']}",
             f"seed: {doc['seed']}  layers: {doc['n_layers']}  "
             f"fem solves: {doc['fem_solves']}"]
    abort, history = doc.get("abort"), doc["history"]
    if abort:
        lines += [f"aborted at layer {abort['layer']}; violated: "
                  + ", ".join(abort["violated"]),
                  _verdict_table(abort["verdicts"])]
    if doc["verdicts"]:
        lines += ["\nfinal verification (achieved field):",
                  _verdict_table(doc["verdicts"])]
    if history:
        lines.append("\nlayer  strategy    fem_solves  mean_commanded")
    lines += [f"{rec['layer']:>5}  {rec['strategy']:<10}  "
              f"{rec['fem_solves']:>10}  {rec['mean_commanded']:.6g}"
              for rec in history]
    if not (svg and history):
        return lines, None
    xs = [rec["layer"] for rec in history]
    ys = [rec["objective"] for rec in history]
    label = "objective"
    if any(y is None for y in ys):
        ys = [rec["mean_commanded"] for rec in history]
        label = "mean commanded"
    return lines, _svg_polyline(xs, ys, "layer", label)


# ---------------------------------------------------------------------------
# parser assembly


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--log-level", dest="log_level", default="warning",
                        choices=_LOG_LEVELS)
    solver = argparse.ArgumentParser(add_help=False, parents=[shared])
    solver.add_argument("--tol", type=_positive_float,
                        default=optimize.DEFAULT_TOL,
                        help="the optimizer's projected-gradient tolerance")
    solver.add_argument("--max-iter", dest="max_iter", type=_positive_int,
                        default=optimize.DEFAULT_MAX_ITER,
                        help="iteration cap of each optimizer inner solve")

    parser = _Parser(prog="semfab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-mesh", parents=[shared],
                         help="generate and validate a mesh file")
    gen_sub = gen.add_subparsers(dest="shape", required=True)
    box = gen_sub.add_parser("box", parents=[shared])
    box.add_argument("--nx", type=_positive_int, required=True)
    box.add_argument("--ny", type=_positive_int, required=True)
    box.add_argument("--nz", type=_positive_int, required=True)
    box.add_argument("--size", type=_size_triple, default=(1.0, 1.0, 1.0),
                     help="extents as dx,dy,dz")
    box.add_argument("-o", "--output", required=True)
    box.set_defaults(func=cmd_gen_mesh, shape="box")
    shaft = gen_sub.add_parser("shaft", parents=[shared])
    shaft.add_argument("--radius", type=_positive_float, required=True)
    shaft.add_argument("--height", type=_positive_float, required=True)
    shaft.add_argument("--n-radial", dest="n_radial", type=_positive_int,
                       default=32)
    shaft.add_argument("--n-axial", dest="n_axial", type=_positive_int,
                       default=10)
    shaft.add_argument("-o", "--output", required=True)
    shaft.set_defaults(func=cmd_gen_mesh, shape="shaft")

    verify = sub.add_parser("verify", parents=[shared],
                            help="check annotated properties")
    verify.add_argument("mesh")
    verify.add_argument("annotation")
    which = verify.add_mutually_exclusive_group(required=True)
    which.add_argument("--field", help="material field JSON to verify under")
    which.add_argument("--nominal", action="store_true",
                       help="use box-midpoint nominal field")
    verify.set_defaults(func=cmd_verify)

    opt = sub.add_parser("optimize", parents=[solver],
                         help="solve for an admissible material field")
    opt.add_argument("mesh")
    opt.add_argument("annotation")
    opt.add_argument("--objective", required=True,
                     choices=sorted(optimize.OBJECTIVES))
    opt.add_argument("--parameter", default=None,
                     choices=list(semantics.PARAMETERS))
    opt.add_argument("-o", "--output", required=True,
                     help="optimized material field JSON")
    opt.add_argument("--summary", default=None,
                     help="result summary JSON (default <output>.summary.json)")
    opt.add_argument("--trace", default=None, help="iteration trace JSONL")
    opt.set_defaults(func=cmd_optimize)

    sim = sub.add_parser("simulate", parents=[solver],
                         help="run a closed-loop print scenario")
    sim.add_argument("scenario")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seeds", type=_seed_range, default=None,
                     help="seed or inclusive range a..b overriding the "
                          "scenario seed")
    sim.set_defaults(func=cmd_simulate)

    rep = sub.add_parser("report", parents=[shared],
                         help="render a print report")
    rep.add_argument("report")
    rep.add_argument("--svg", default=None,
                     help="write a convergence plot to this path")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        logging.basicConfig()
        log.setLevel(getattr(logging, args.log_level.upper()))
        return args.func(args)
    except (SolverFailure, np.linalg.LinAlgError, FloatingPointError) as exc:
        return _err("numeric", str(exc))
    except (OSError, KeyError, ValueError) as exc:
        # every input error of semfab is a ValueError, and a file that is
        # not JSON raises one naming the file
        return _err("usage", str(exc))
    except SemfabError as exc:
        return _err("numeric", str(exc))


if __name__ == "__main__":
    sys.exit(main())
