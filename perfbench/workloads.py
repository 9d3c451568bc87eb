"""The three closed-loop workloads: inputs made in set-up, one timed pass.

Set-up makes the mesh with ``semfab gen-mesh``, builds the annotation and
writes the scenario files.  A pass is what a user waits for: the initial
plan, one closed-loop print per print seed, and each print's final
verification.  Each workload has one print seed set per benchmark seed, and
every pass of a run prints the same seeds, so passes repeat the same work
and their reports must repeat byte for byte.
"""

import contextlib
import dataclasses
import io
import shutil
import time
from pathlib import Path

import numpy as np

from semfab import cli, fem, mesh, optimize, printsim, semantics

T_AMBIENT = 293.15
BAR_LOAD = 1000.0  # total tip force, N, over a 1 x 1 mm section
YOUNG_BOX = (60e3, 120e3)
CONDUCTIVITY_BOX = (0.1, 0.4)

# the plant every workload prints with; the controller's plant model is the
# calibrated deterministic part of it
ACTUATOR = printsim.ActuatorModel(gain=0.9, drift_rate=0.005, noise_sd=0.01)
PLANT_MODEL = printsim.ActuatorModel(gain=0.9, drift_rate=0.005)


@dataclasses.dataclass
class Inputs:
    """What the program receives, plus the reference the plan must meet."""

    scenario_path: Path
    seeds: list
    reference_objective: float
    scenario: printsim.Scenario | None = None
    spec: semantics.BoundSpecification | None = None


@dataclasses.dataclass
class PassOutput:
    total_s: float
    reports: dict  # print seed -> report.json bytes, None when missing
    exit_code: int = 0


def _quiet_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _gen_box_mesh(workdir, cells, size):
    path = workdir / "mesh.json"
    code = _quiet_cli(
        ["gen-mesh", "box", "--nx", str(cells[0]), "--ny", str(cells[1]),
         "--nz", str(cells[2]), "--size", ",".join(repr(float(s)) for s in size),
         "-o", str(path)]
    )
    if code != 0:
        raise RuntimeError(f"semfab gen-mesh exited with {code}")
    return mesh.load_mesh(path)


def _face_loads(m, verts, total_force):
    """Nodal forces of a uniform traction over the faces spanned by ``verts``
    (a third of each triangle's share to each corner)."""
    tris = mesh.boundary_faces(m)
    tris = tris[np.isin(tris, verts).all(axis=1)]
    pts = m.vertices[tris]
    areas = 0.5 * np.linalg.norm(
        np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]), axis=1
    )
    share = np.zeros(m.n_vertices)
    np.add.at(share, tris.reshape(-1), np.repeat(areas / 3.0, 3))
    share /= areas.sum()
    return {int(v): [float(c) * share[v] for c in total_force] for v in verts}


def _bar_annotation(m, length):
    """Cantilever bar: bottom fixed, tip pulled down, tip displacement bound.

    With Poisson ratio 0 and a uniform traction the finite-element solution
    is the exact 1-D one, so E at its upper bound moves the tip by
    P L / (E A) and the compliance optimum is P^2 L / (E A).
    """
    z = m.vertices[:, 2]
    bottom = np.flatnonzero(z < 1e-9)
    top = np.flatnonzero(z > length - 1e-9)
    annotations = {str(v): {"displacement": "fixed"} for v in bottom}
    for v, force in _face_loads(m, top, (0.0, 0.0, -BAR_LOAD)).items():
        annotations[str(v)] = {"force": force}
    tip = BAR_LOAD * length / YOUNG_BOX[1]
    doc = {
        "units": dict(semantics.CANONICAL_UNITS),
        "vertex_annotations": annotations,
        "element_annotations": {"default": {
            "young": list(YOUNG_BOX),
            "poisson": [0.0, 0.0],
            "density": [8e-6, 8e-6],
            "conductivity": [1.0, 1.0],
        }},
        "global_properties": [{
            "name": "tip",
            "quantity": "max_displacement",
            "op": "le",
            "bound": 1.08 * tip,
            "vertices": [int(v) for v in top],
        }],
    }
    return doc, BAR_LOAD * tip


def _plate_annotation(m, height):
    """Conduction block: bottom held at ambient, flux 0.3 on each top vertex.

    Both bounds sit at 1.3 x the temperature rise that the upper conductivity
    bound gives; that solve's average temperature is also the optimum of the
    ``average_temperature`` objective, which falls as conductivity rises.
    """
    z = m.vertices[:, 2]
    bottom = np.flatnonzero(z < 1e-9)
    top = np.flatnonzero(z > height - 1e-9)
    annotations = {str(v): {"temperature": T_AMBIENT} for v in bottom}
    annotations.update({str(v): {"flux": 0.3} for v in top})
    doc = {
        "units": dict(semantics.CANONICAL_UNITS),
        "vertex_annotations": annotations,
        "element_annotations": {"default": {
            "conductivity": list(CONDUCTIVITY_BOX),
        }},
        "field_regularity": {"gamma": 0.2, "parameter": "conductivity"},
    }
    spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)
    field = semantics.MaterialField.uniform(
        m.n_elements, conductivity=CONDUCTIVITY_BOX[1]
    )
    temps = fem.solve(fem.assemble(spec, field, "conduction")).values
    weights = semantics.vertex_volume_weights(m)
    hot = float(temps[top].max())
    average = float(weights @ temps / weights.sum())
    doc["global_properties"] = [
        {"name": "hot_face", "quantity": "nodal_temperature", "op": "le",
         "bound": T_AMBIENT + 1.3 * (hot - T_AMBIENT),
         "vertices": [int(v) for v in top]},
        {"name": "bulk_heat", "quantity": "average_temperature", "op": "le",
         "bound": T_AMBIENT + 1.3 * (average - T_AMBIENT)},
    ]
    return doc, average


def _write_scenario(workdir, doc, seeds, strategy, availability, objective):
    semantics.save_semantic_layer(
        semantics.layer_from_dict(doc), workdir / "annotation.json"
    )
    scenario = printsim.Scenario(
        mesh_path="mesh.json",
        annotation_path="annotation.json",
        actuator=ACTUATOR,
        sensor=printsim.SensorModel(noise_sd=0.01, availability=availability),
        policy=printsim.ControlPolicy(strategy=strategy, plant_model=PLANT_MODEL),
        seed=seeds[0],
        layer_height=1.0,
        objective=objective,
    )
    path = workdir / "scenario.json"
    printsim.save_scenario(scenario, path)
    return path


def _bind_scenario(path):
    """Load a scenario and bind its annotation the way ``semfab`` does."""
    scenario = printsim.load_scenario(path)
    m = mesh.load_mesh(path.parent / scenario.mesh_path)
    layer = semantics.load_semantic_layer(path.parent / scenario.annotation_path)
    return scenario, semantics.bind_to_mesh(layer, m)


def _library_pass(inputs, workdir):
    """Plan and print through the library API, as an embedding caller does."""
    scenario = inputs.scenario
    start = time.perf_counter()
    problem = optimize.InversionProblem(
        inputs.spec, scenario.objective, parameter=scenario.parameter
    )
    plan = optimize.inversion_solve(problem)
    reports = [
        printsim.run_print(problem, plan, scenario.actuator, scenario.sensor,
                           scenario.policy, seed, scenario.layer_height)
        for seed in inputs.seeds
    ]
    total = time.perf_counter() - start
    out = {}
    for report in reports:  # untimed: only the determinism check needs them
        path = workdir / f"report_{report.seed}.json"
        printsim.save_report(report, path)
        out[report.seed] = path.read_bytes()
    return PassOutput(total, out)


def _cli_pass(inputs, workdir):
    """One in-process ``semfab simulate --seeds a..b`` call."""
    out_dir = workdir / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["simulate", str(inputs.scenario_path), "--out", str(out_dir),
            "--seeds", f"{inputs.seeds[0]}..{inputs.seeds[-1]}"]
    start = time.perf_counter()
    code = _quiet_cli(argv)
    total = time.perf_counter() - start
    out = {}
    for seed in inputs.seeds:
        path = out_dir / f"report_{seed}.json"
        out[seed] = path.read_bytes() if path.is_file() else None
    return PassOutput(total, out, exit_code=code)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    n_print_seeds: int
    setup: object  # (workdir, seeds) -> Inputs
    run_pass: object  # (inputs, workdir) -> PassOutput
    attribution: object  # (layer metrics, traced total_s) -> (claim, held)


def _setup_bar_pcg(workdir, seeds):
    m = _gen_box_mesh(workdir, (3, 3, 8), (1.0, 1.0, 8.0))
    doc, reference = _bar_annotation(m, 8.0)
    path = _write_scenario(workdir, doc, seeds, "full", "layer", "compliance")
    scenario, spec = _bind_scenario(path)
    return Inputs(path, seeds, reference, scenario, spec)


def _setup_plate_thermal(workdir, seeds):
    m = _gen_box_mesh(workdir, (8, 8, 8), (8.0, 8.0, 8.0))
    doc, reference = _plate_annotation(m, 8.0)
    path = _write_scenario(workdir, doc, seeds, "full", "all",
                           "average_temperature")
    scenario, spec = _bind_scenario(path)
    return Inputs(path, seeds, reference, scenario, spec)


def _setup_bar_warm_cli(workdir, seeds):
    m = _gen_box_mesh(workdir, (1, 1, 10), (1.0, 1.0, 10.0))
    doc, reference = _bar_annotation(m, 10.0)
    path = _write_scenario(workdir, doc, seeds, "warm_start", "layer",
                           "compliance")
    return Inputs(path, seeds, reference)


def _pcg_dominates(metrics, total):
    share = metrics["kernels.pcg_csr.s"] / total
    return f"kernels.pcg_csr.s is {share:.0%} of total_s (> 50%)", share > 0.5


def _warm_model_dominates(metrics, total):
    calls = metrics["kernels.pcg_csr.calls"]
    share = metrics["optimize.build_quadratic_model.s"] / total
    return (f"kernels.pcg_csr.calls = {calls:g} (== 0) and "
            f"optimize.build_quadratic_model.s is {share:.0%} of total_s "
            f"(> 50%)", calls == 0 and share > 0.5)


def _adjoint_used(metrics, total):
    calls = metrics["fem.adjoint_solve.calls"]
    return f"fem.adjoint_solve.calls = {calls:g} (> 0)", calls > 0


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("bar-pcg", 1, _setup_bar_pcg, _library_pass,
                 _pcg_dominates),
        Workload("plate-thermal", 1, _setup_plate_thermal, _library_pass,
                 _adjoint_used),
        Workload("bar-warm-cli", 2, _setup_bar_warm_cli, _cli_pass,
                 _warm_model_dominates),
    )
}
