"""Acceptance suite: ten end-to-end checks of the whole stack.

Each criterion is one test; run `pytest -sv tests/test_acceptance.py` to
get one pass/fail line per criterion (tests print an `ACCEPTANCE nn` line
when their assertions hold, and pytest reports FAILED otherwise).
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    bar_mesh_and_doc,
    bar_tip_displacement,
    consistent_face_loads,
    element_matrix,
    layered_bar_problem,
    write_bar_files,
)

from semfab import cli, fem, mesh, optimize, printsim, semantics

DOCS_EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"


def _pass(num, name, detail=""):
    extra = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: PASS{extra}")


def _signed_volume(pts):
    return float(np.linalg.det(pts[1:] - pts[0])) / 6.0


# ---------------------------------------------------------------------------
# 1. element matrix correctness


def test_criterion_01_element_matrices():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    checked = 0
    while checked < 100:
        pts = rng.uniform(0.0, 1.0, (4, 3))
        vol = _signed_volume(pts)
        if abs(vol) < 2e-3:
            continue
        if vol < 0:
            pts[[0, 1]] = pts[[1, 0]]
        young = rng.uniform(10.0, 500.0)
        poisson = rng.uniform(0.0, 0.45)
        conductivity = rng.uniform(0.1, 10.0)

        k = element_matrix(pts, young, poisson)
        assert np.max(np.abs(k - k.T)) <= 1e-12 * np.max(np.abs(k))
        eigs = np.linalg.eigvalsh(k)
        lam_max = eigs[-1]
        assert eigs[0] >= -1e-8 * lam_max
        assert int(np.sum(np.abs(eigs) <= 1e-8 * lam_max)) == 6

        kc = element_matrix(pts, conductivity)
        assert np.max(np.abs(kc - kc.T)) <= 1e-12 * np.max(np.abs(kc))
        eigs_c = np.linalg.eigvalsh(kc)
        assert eigs_c[0] >= -1e-8 * eigs_c[-1]
        assert int(np.sum(np.abs(eigs_c) <= 1e-8 * eigs_c[-1])) == 1
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(1, "element matrices", f"100 random tets in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. patch test


def _linear_displacement(verts):
    A = np.array([[0.02, 0.01, 0.0],
                  [0.0, -0.01, 0.015],
                  [0.005, 0.0, 0.01]])
    b = np.array([0.001, -0.002, 0.003])
    return verts @ A.T + b


def test_criterion_02_patch_test():
    dims = (1.1, 0.9, 1.3)
    start = time.perf_counter()
    for n in (2, 3, 5):
        m = mesh.generate_box_mesh(n, n, n, dims)
        exact = _linear_displacement(m.vertices)
        eps = 1e-9
        on_boundary = np.zeros(m.n_vertices, dtype=bool)
        for axis in range(3):
            on_boundary |= m.vertices[:, axis] < eps
            on_boundary |= m.vertices[:, axis] > dims[axis] - eps
        annotations = {
            str(v): {"displacement": [float(c) for c in exact[v]]}
            for v in np.flatnonzero(on_boundary)
        }
        doc = {
            "units": dict(semantics.CANONICAL_UNITS),
            "vertex_annotations": annotations,
            "element_annotations": {"default": {
                "young": [150.0, 150.0], "poisson": [0.3, 0.3],
            }},
        }
        spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)
        fld = semantics.MaterialField.uniform(
            m.n_elements, young=150.0, poisson=0.3)
        solution = fem.solve(fem.assemble(spec, fld, "elasticity"))
        assert solution.residual <= 1e-12
        interior = ~on_boundary
        err = np.max(np.abs(solution.values[interior] - exact[interior]))
        assert err <= 1e-8 * np.max(np.abs(exact))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass(2, "patch test", f"grids up to 5x5x5 in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. shaft axial-load oracle


def test_criterion_03_shaft_oracle():
    start = time.perf_counter()
    radius, height, young, load = 1.0, 10.0, 110000.0, 100.0
    m = mesh.generate_shaft_mesh(radius, height, 32, 10)
    bottom = [i for i in range(m.n_vertices) if m.vertices[i, 2] < 1e-9]
    top = [i for i in range(m.n_vertices)
           if m.vertices[i, 2] > height - 1e-9]
    annotations = {str(v): {"displacement": "fixed"} for v in bottom}
    for v, f in consistent_face_loads(m, top, [0.0, 0.0, -load]).items():
        annotations[str(v)] = {"force": [float(c) for c in f]}
    doc = {
        "units": dict(semantics.CANONICAL_UNITS),
        "vertex_annotations": annotations,
        "element_annotations": {"default": {
            "young": [young, young], "poisson": [0.0, 0.0],
        }},
    }
    spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)
    fld = semantics.MaterialField.uniform(
        m.n_elements, young=young, poisson=0.0)
    solution = fem.solve(fem.assemble(spec, fld, "elasticity"))
    assert solution.residual <= 1e-12

    expected = load * height / (young * math.pi * radius**2)
    mean_axial = -float(np.mean(solution.values[top, 2]))
    assert mean_axial == pytest.approx(expected, rel=0.05)

    reaction_z = sum(r[2] for r in solution.reactions.values())
    assert reaction_z == pytest.approx(load, rel=1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(3, "shaft oracle",
          f"mean axial {mean_axial:.6f} vs PL/EA {expected:.6f}, "
          f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. thermal exactness


def _thermal_bar(n_cells, length, t_bottom, t_top):
    m = mesh.generate_box_mesh(1, 1, n_cells, (1.0, 1.0, length))
    annotations = {}
    for v in range(m.n_vertices):
        z = m.vertices[v, 2]
        if z < 1e-9:
            annotations[str(v)] = {"temperature": t_bottom}
        elif z > length - 1e-9:
            annotations[str(v)] = {"temperature": t_top}
    doc = {
        "units": dict(semantics.CANONICAL_UNITS),
        "vertex_annotations": annotations,
        "element_annotations": {"default": {"conductivity": [0.1, 10.0]}},
    }
    return m, semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)


def test_criterion_04_thermal_exactness():
    # uniform conductivity: nodal profile is exactly linear in z
    m, spec = _thermal_bar(4, 4.0, 300.0, 400.0)
    fld = semantics.MaterialField.uniform(m.n_elements, conductivity=3.0)
    solution = fem.solve(fem.assemble(spec, fld, "conduction"))
    assert solution.residual <= 1e-14
    temps = solution.values
    exact = 300.0 + 25.0 * m.vertices[:, 2]
    assert np.max(np.abs(temps - exact)) <= 1e-10 * np.max(np.abs(exact))

    # two materials in series: interface sits at the series-conductance value
    m2, spec2 = _thermal_bar(2, 2.0, 300.0, 400.0)
    k_low, k_high = 2.0, 0.5
    conductivity = np.where(m2.centroids()[:, 2] < 1.0, k_low, k_high)
    fld2 = semantics.MaterialField.uniform(m2.n_elements)
    fld2 = fld2.with_values(np.arange(m2.n_elements), "conductivity",
                            conductivity)
    solution2 = fem.solve(fem.assemble(spec2, fld2, "conduction"))
    assert solution2.residual <= 1e-14
    temps2 = solution2.values
    r_low, r_high = 1.0 / k_low, 1.0 / k_high
    t_interface = 300.0 + 100.0 * r_low / (r_low + r_high)
    interface = np.abs(m2.vertices[:, 2] - 1.0) < 1e-9
    err = np.max(np.abs(temps2[interface] - t_interface))
    assert err <= 1e-8 * 400.0
    _pass(4, "thermal exactness",
          f"linear profile and interface at {t_interface:.1f} K")


# ---------------------------------------------------------------------------
# 5. adjoint gradient vs finite differences


def _random_compliance_problem(shape, rng):
    m = mesh.generate_box_mesh(*shape, tuple(float(s) for s in shape))
    top_z = shape[2]
    bottom = [i for i in range(m.n_vertices) if m.vertices[i, 2] < 1e-9]
    top = [i for i in range(m.n_vertices)
           if m.vertices[i, 2] > top_z - 1e-9]
    force = rng.uniform(-100.0, 100.0, 3)
    annotations = {str(v): {"displacement": "fixed"} for v in bottom}
    for v, f in consistent_face_loads(m, top, force).items():
        annotations[str(v)] = {"force": [float(c) for c in f]}
    doc = {
        "units": dict(semantics.CANONICAL_UNITS),
        "vertex_annotations": annotations,
        "element_annotations": {"default": {
            "young": [50.0, 200.0], "poisson": [0.3, 0.3],
            "density": [1.0, 1.0], "conductivity": [1.0, 1.0],
        }},
    }
    spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)
    return optimize.InversionProblem(spec, "compliance")


def test_criterion_05_adjoint_gradient_check():
    shapes = [(1, 1, 2), (2, 1, 1), (1, 2, 2), (2, 2, 1), (1, 1, 1)]
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(10):
        problem = _random_compliance_problem(shapes[trial % len(shapes)], rng)
        assert problem.n_variables <= 30
        x = rng.uniform(50.0, 200.0, problem.n_variables)
        _, grad = problem.objective_and_gradient(x)
        for e in rng.choice(problem.n_variables, size=3, replace=False):
            h = 1e-4 * x[e]
            hi, lo = x.copy(), x.copy()
            hi[e] += h
            lo[e] -= h
            fd = (problem.objective_value(hi)
                  - problem.objective_value(lo)) / (2 * h)
            rel = abs(grad[e] - fd) / max(abs(fd), 1e-30)
            worst = max(worst, rel)
            assert rel <= 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(5, "adjoint gradients",
          f"10 problems, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. warm-start exactness, order, and solve counts


def _quadratic_problem(frozen_value):
    Q = np.array([[3.0, 0.8, 0.2], [0.8, 2.0, 0.5], [0.2, 0.5, 1.5]])
    b = np.array([0.5, -1.0, 2.0])

    def f(x):
        return 0.5 * x @ Q @ x + b @ x

    def g(x):
        return Q @ x + b

    return optimize.FunctionProblem(f, g, [[-4, 4]] * 3).with_frozen(
        [0], [frozen_value])


def _exp_problem(frozen_value):
    def f(x):
        y, z1, z2 = x
        return (np.exp(z1 + y) + np.exp(z2 - 0.5 * y)
                + 0.5 * (z1**2 + z2**2) + 0.3 * z1 * z2)

    def g(x):
        y, z1, z2 = x
        e1, e2 = np.exp(z1 + y), np.exp(z2 - 0.5 * y)
        return np.array([e1 - 0.5 * e2, e1 + z1 + 0.3 * z2,
                         e2 + z2 + 0.3 * z1])

    return optimize.FunctionProblem(f, g, [[-5, 5]] * 3).with_frozen(
        [0], [frozen_value])


def test_criterion_06_warm_start():
    # exactly quadratic: warm start must match a from-scratch solve
    base = optimize.inversion_solve(_quadratic_problem(0.0), tol=1e-13)
    model = optimize.build_quadratic_model(_quadratic_problem(0.0),
                                           base.values)
    warm = optimize.reoptimize_after_drift(
        _quadratic_problem(0.3), base, strategy="warm_start", model=model)
    full = optimize.reoptimize_after_drift(
        _quadratic_problem(0.3), base, strategy="full", tol=1e-13)
    gap = float(np.max(np.abs(warm.values[1:] - full.values[1:])))
    assert gap <= 1e-10

    # smooth nonquadratic: halving the drift shrinks the error >= 3x
    base_e = optimize.inversion_solve(_exp_problem(0.0), tol=1e-12)
    model_e = optimize.build_quadratic_model(_exp_problem(0.0), base_e.values)
    errors = {}
    counts = {}
    for dy in (0.2, 0.1, 0.05):
        w = optimize.reoptimize_after_drift(
            _exp_problem(dy), base_e, strategy="warm_start", model=model_e)
        f = optimize.reoptimize_after_drift(
            _exp_problem(dy), base_e, strategy="full", tol=1e-12)
        errors[dy] = float(np.linalg.norm(w.values[1:] - f.values[1:]))
        counts[dy] = (w.fem_solves, f.fem_solves)
    assert errors[0.2] / errors[0.1] >= 3.0
    assert errors[0.1] / errors[0.05] >= 3.0
    # warm path does strictly fewer solves than the full path
    for warm_solves, full_solves in counts.values():
        assert warm_solves < full_solves
    _pass(6, "warm start",
          f"quadratic gap {gap:.1e}, error ratios "
          f"{errors[0.2] / errors[0.1]:.1f}/"
          f"{errors[0.1] / errors[0.05]:.1f}, "
          f"solves warm<full {counts[0.1][0]}<{counts[0.1][1]}")


# ---------------------------------------------------------------------------
# 7. brute-force grid oracle


def _chain_problem(gamma=1.5):
    t = 0.5 * np.arange(8)
    verts = np.column_stack([t, t**2, t**3])
    tets = np.array([[k, k + 1, k + 2, k + 3] for k in range(5)])
    chain = mesh.VolumetricMesh(verts, tets)
    doc = {
        "units": dict(semantics.CANONICAL_UNITS),
        "vertex_annotations": {"0": {"temperature": 0.0},
                               "7": {"flux": 5.0}},
        "element_annotations": {"default": {
            "conductivity": [1.0, 10.0], "young": [1.0, 1.0],
            "poisson": [0.0, 0.0], "density": [1.0, 1.0],
        }},
        "field_regularity": {"gamma": gamma, "parameter": "conductivity"},
    }
    spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), chain)
    problem = optimize.InversionProblem(
        spec, "average_temperature").with_frozen([0], [1.0])
    return chain, problem, gamma


def test_criterion_07_grid_oracle():
    chain, problem, gamma = _chain_problem()
    result = optimize.inversion_solve(problem)
    assert result.feasible

    # independent feasibility: the Lipschitz pairs recomputed from geometry
    pairs = mesh.face_adjacency(chain)
    centroids = chain.centroids()
    dists = np.linalg.norm(centroids[pairs[:, 0]] - centroids[pairs[:, 1]],
                           axis=1)
    grid = np.linspace(1.0, 10.0, 5)
    best = np.inf
    combos = 0
    for combo in itertools.product(grid, repeat=4):
        combos += 1
        x = np.array([1.0, *combo])
        gaps = np.abs(x[pairs[:, 0]] - x[pairs[:, 1]]) - gamma * dists
        if np.any(gaps > 1e-12):
            continue
        best = min(best, problem.objective_value(x))
    assert combos == 625
    assert np.isfinite(best)
    assert result.objective <= best + 1e-6
    _pass(7, "grid oracle",
          f"solver {result.objective:.6f} <= grid best {best:.6f} + 1e-6")


# ---------------------------------------------------------------------------
# 8. closed-loop scenario through the CLI


BOX = (60000.0, 120000.0)


def _write_scenario(path, *, gain, control, plant, seed=7):
    scenario = printsim.Scenario(
        mesh_path="bar_mesh.json",
        annotation_path="bar_annotation.json",
        actuator=printsim.ActuatorModel(gain=gain),
        sensor=printsim.SensorModel(),
        policy=printsim.ControlPolicy(control_enabled=control,
                                      plant_model=plant),
        seed=seed,
        layer_height=1.0,
        objective="compliance",
        parameter="young",
    )
    printsim.save_scenario(scenario, path)


def test_criterion_08_closed_loop_cli(tmp_path):
    probe = layered_bar_problem(4, 1.0, BOX)
    nominal = bar_tip_displacement(probe, np.full(probe.n_variables, BOX[1]))
    write_bar_files(tmp_path, 4, 1.08 * nominal, BOX)

    actuator = printsim.ActuatorModel(gain=0.85)
    cmd = np.full(6, 100.0)
    plant = printsim.calibrate_actuator(
        [(cmd, actuator.apply(cmd, layer, seed=123)) for layer in range(3)])

    _write_scenario(tmp_path / "off.json", gain=0.85, control=False,
                    plant=None)
    _write_scenario(tmp_path / "on.json", gain=0.85, control=True,
                    plant=plant)

    rc_off = cli.main(["simulate", str(tmp_path / "off.json"),
                       "--out", str(tmp_path / "off")])
    assert rc_off == 1
    off_report = json.loads((tmp_path / "off" / "report.json").read_text())
    assert off_report["outcome"] == "spec_fail"

    rc_on = cli.main(["simulate", str(tmp_path / "on.json"),
                      "--out", str(tmp_path / "on")])
    assert rc_on == 0
    on_report = json.loads((tmp_path / "on" / "report.json").read_text())
    assert on_report["outcome"] == "success"

    # compensation shows up in the emitted history CSV
    rows = (tmp_path / "on" / "history.csv").read_text().splitlines()
    header = rows[0].split(",")
    col = header.index("mean_commanded")
    commanded = [float(r.split(",")[col]) for r in rows[1:]]
    assert max(commanded) > BOX[1]

    # same seed, repeated run: byte-identical outputs
    rc_again = cli.main(["simulate", str(tmp_path / "on.json"),
                         "--out", str(tmp_path / "on2")])
    assert rc_again == 0
    for name in ("report.json", "history.csv"):
        assert (tmp_path / "on" / name).read_bytes() == \
            (tmp_path / "on2" / name).read_bytes()
    _pass(8, "closed-loop CLI",
          f"off exit 1, on exit 0, peak command {max(commanded):.0f} "
          f"above plan {BOX[1]:.0f}")


# ---------------------------------------------------------------------------
# 9. estimator consistency and calibration


def test_criterion_09_estimator_consistency():
    seeds, n_meas, sd = 1000, 100, 0.05
    commanded, gain = 4.0, 0.93
    truth_log = math.log(commanded * gain)
    draws = np.empty((seeds, n_meas))
    for s in range(seeds):
        gen = np.random.Generator(
            np.random.Philox(key=np.array([s, 1], dtype=np.uint64)))
        draws[s] = gen.standard_normal(n_meas)

    # one estimator per seed, updated measurement by measurement
    est = printsim.EstimatorState.from_commanded(np.full(seeds, commanded))
    ids = np.arange(seeds)
    for k in range(n_meas):
        est = est.updated(ids, truth_log + sd * draws[:, k], noise_sd=sd,
                          prior_value=np.full(seeds, commanded))
    se = sd / math.sqrt(n_meas)
    hits = np.abs(est.mean_log - truth_log) <= 3 * se
    coverage = float(np.mean(hits))
    assert coverage >= 0.99

    plant = printsim.ActuatorModel(gain=0.9, drift_rate=0.01)
    batch = np.array([50.0, 80.0, 120.0])
    fitted = printsim.calibrate_actuator(
        [(batch, batch * plant.deterministic_factor(layer))
         for layer in range(5)])
    assert fitted.gain == pytest.approx(0.9, abs=1e-9)
    assert fitted.drift_rate == pytest.approx(0.01, abs=1e-9)
    _pass(9, "estimator consistency",
          f"coverage {coverage:.3f} over {seeds} seeds, "
          "calibration exact to 1e-9")


# ---------------------------------------------------------------------------
# 10. format round-trips and isomorphism invariance


def _permuted_bar(doc, m, rng):
    perm = rng.permutation(m.n_vertices)
    new_verts = np.empty_like(m.vertices)
    new_verts[perm] = m.vertices
    m2 = mesh.VolumetricMesh(new_verts, perm[m.tets])
    doc2 = json.loads(json.dumps(doc))
    doc2["vertex_annotations"] = {
        str(perm[int(k)]): v for k, v in doc["vertex_annotations"].items()
    }
    for prop in doc2["global_properties"]:
        if prop.get("vertices"):
            prop["vertices"] = sorted(int(perm[v]) for v in prop["vertices"])
    return m2, doc2


def test_criterion_10_round_trips(tmp_path):
    # mesh files: parse -> serialize -> parse is the identity
    for i, m in enumerate([mesh.generate_box_mesh(2, 3, 1, (2.0, 1.5, 1.0)),
                           mesh.generate_shaft_mesh(1.0, 10.0, 8, 3)]):
        first, second = tmp_path / f"m{i}a.json", tmp_path / f"m{i}b.json"
        mesh.save_mesh(m, first)
        reloaded = mesh.load_mesh(first)
        mesh.save_mesh(reloaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert np.array_equal(reloaded.vertices, m.vertices)
        assert np.array_equal(reloaded.tets, m.tets)

    # annotation files, including the shipped examples
    example_files = sorted(DOCS_EXAMPLES.glob("*.json"))
    assert len(example_files) == 3
    for i, path in enumerate(example_files):
        layer = semantics.load_semantic_layer(path)
        first, second = tmp_path / f"a{i}a.json", tmp_path / f"a{i}b.json"
        semantics.save_semantic_layer(layer, first)
        reloaded = semantics.load_semantic_layer(first)
        semantics.save_semantic_layer(reloaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert reloaded == layer

    # scenario files
    scenario = printsim.Scenario(
        mesh_path="m.json", annotation_path="a.json",
        actuator=printsim.ActuatorModel(gain=0.9, drift_rate=0.01,
                                        noise_sd=0.02),
        sensor=printsim.SensorModel(noise_sd=0.01, availability="all"),
        policy=printsim.ControlPolicy(
            strategy="full", control_enabled=True,
            plant_model=printsim.ActuatorModel(gain=0.9)),
        seed=42, layer_height=0.5,
        objective="compliance", parameter="young",
    )
    first, second = tmp_path / "s_a.json", tmp_path / "s_b.json"
    printsim.save_scenario(scenario, first)
    reloaded = printsim.load_scenario(first)
    printsim.save_scenario(reloaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert reloaded == scenario

    # verdicts are invariant under relabeling the mesh vertices
    m, doc = bar_mesh_and_doc(4, 0.05, BOX)
    doc["global_properties"].append(
        {"name": "stock", "quantity": "volume", "op": "ge", "bound": 3.5})
    m2, doc2 = _permuted_bar(doc, m, np.random.default_rng(5))
    for mm, dd in ((m, doc), (m2, doc2)):
        assert mesh.validate_mesh(mm).ok
    spec1 = semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)
    spec2 = semantics.bind_to_mesh(semantics.layer_from_dict(doc2), m2)
    fld = semantics.MaterialField.uniform(
        m.n_elements, young=BOX[1], poisson=0.0, density=8e-6)
    for prop1 in spec1.properties:
        prop2 = next(p for p in spec2.properties if p.name == prop1.name)
        v1 = semantics.check(prop1, semantics.FieldEvaluation(spec1, fld))[0]
        v2 = semantics.check(prop2, semantics.FieldEvaluation(spec2, fld))[0]
        assert v1.passed == v2.passed
        assert v1.measured == pytest.approx(v2.measured, rel=1e-9)
    _pass(10, "format round-trips",
          "mesh/annotation/scenario identical, verdicts relabeling-invariant")
