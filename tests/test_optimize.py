"""Optimizer tests: adjoint gradients against finite differences, threshold
recovery against series-spring algebra, grid-enumeration oracles, and the
quadratic warm-start machinery."""

import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from conftest import (bar_mesh_and_doc, bar_tip_displacement,
                      consistent_face_loads, layered_bar_problem,
                      record_primal_solves)
from hypothesis import given, settings
from hypothesis import strategies as st

from semfab import _kernels, fem, mesh, optimize, semantics
from semfab.errors import BasePointError, ModelInvalidError


# ---------------------------------------------------------------------------
# fixtures and oracles


def box_layer_doc(default_ranges, vertex_annotations=None, properties=None,
                  regularity=None):
    doc = {
        "units": dict(semantics.CANONICAL_UNITS),
        "vertex_annotations": vertex_annotations or {},
        "element_annotations": {"default": default_ranges},
        "global_properties": properties or [],
    }
    if regularity is not None:
        doc["field_regularity"] = regularity
    return doc


def cube_compliance_problem(young_box=(50.0, 200.0)):
    m = mesh.generate_box_mesh(1, 1, 1, (1.0, 1.0, 1.0))
    bottom = [i for i in range(m.n_vertices) if m.vertices[i, 2] < 1e-9]
    top = [i for i in range(m.n_vertices) if m.vertices[i, 2] > 1 - 1e-9]
    annotations = {str(v): {"displacement": "fixed"} for v in bottom}
    loads = consistent_face_loads(m, top, [0.0, 30.0, -100.0])
    for v, f in loads.items():
        annotations[str(v)] = {"force": [float(c) for c in f]}
    doc = box_layer_doc(
        {"young": list(young_box), "poisson": [0.3, 0.3],
         "density": [1.0, 1.0], "conductivity": [1.0, 1.0]},
        vertex_annotations=annotations,
    )
    spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)
    return optimize.InversionProblem(spec, "compliance")


def series_bar_problem(d_max, free_box=(70000.0, 170000.0), E1=100000.0,
                       P=1000.0):
    """Two-segment bar: bottom segment frozen at E1, top segment free, tip
    displacement bounded.  Returns (problem, closed-form E2, free ids)."""
    m = mesh.generate_box_mesh(1, 1, 2, (1.0, 1.0, 2.0))
    bottom = [i for i in range(m.n_vertices) if m.vertices[i, 2] < 1e-9]
    top = [i for i in range(m.n_vertices) if m.vertices[i, 2] > 2 - 1e-9]
    annotations = {str(v): {"displacement": "fixed"} for v in bottom}
    loads = consistent_face_loads(m, top, [0.0, 0.0, -P])
    for v, f in loads.items():
        annotations[str(v)] = {"force": [float(c) for c in f]}
    doc = box_layer_doc(
        {"young": list(free_box), "poisson": [0.0, 0.0],
         "density": [8e-6, 8e-6], "conductivity": [1.0, 1.0]},
        vertex_annotations=annotations,
        properties=[{"name": "tip", "quantity": "max_displacement",
                     "op": "le", "bound": d_max,
                     "vertices": [int(v) for v in top]}],
    )
    spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)
    centroids = m.centroids()
    frozen = np.flatnonzero(centroids[:, 2] < 1.0)
    problem = optimize.InversionProblem(
        spec, "mass", parameter="young",
    ).with_frozen(frozen, np.full(frozen.size, E1))
    # series springs: u_tip = P L1/(A E1) + P L2/(A E2), L1 = L2 = A = 1
    E2_star = P / (d_max - P / E1)
    return problem, E2_star, np.flatnonzero(centroids[:, 2] >= 1.0)


def chain_conduction_problem(gamma=1.5, conductivity_box=(1.0, 10.0),
                             frozen_value=1.0):
    """Five tets strung along the moment curve, heat pushed in at the far
    vertex, inlet element frozen at low conductivity."""
    t = 0.5 * np.arange(8)
    verts = np.column_stack([t, t**2, t**3])
    tets = np.array([[k, k + 1, k + 2, k + 3] for k in range(5)])
    chain = mesh.VolumetricMesh(verts, tets)
    assert mesh.validate_mesh(chain).ok
    doc = box_layer_doc(
        {"conductivity": list(conductivity_box), "young": [1.0, 1.0],
         "poisson": [0.0, 0.0], "density": [1.0, 1.0]},
        vertex_annotations={"0": {"temperature": 0.0}, "7": {"flux": 5.0}},
        regularity={"gamma": gamma, "parameter": "conductivity"},
    )
    spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), chain)
    return optimize.InversionProblem(
        spec, "average_temperature").with_frozen([0], [frozen_value])


def exp_coupled_problem(frozen_value):
    """Smooth nonquadratic objective with genuine frozen-free coupling."""

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


def quadratic_problem(frozen_value=0.0):
    Q = np.array([[3.0, 0.8, 0.2], [0.8, 2.0, 0.5], [0.2, 0.5, 1.5]])
    b = np.array([0.5, -1.0, 2.0])
    return optimize.FunctionProblem(
        lambda x: 0.5 * x @ Q @ x - b @ x,
        lambda x: Q @ x - b,
        [[-5, 5]] * 3,
    ).with_frozen([0], [frozen_value])


def fd_objective_gradient(problem, x, indices, rel_step):
    out = {}
    for e in indices:
        h = rel_step * abs(x[e])
        xp = x.copy()
        xp[e] += h
        xm = x.copy()
        xm[e] -= h
        out[e] = (problem.objective_value(xp)
                  - problem.objective_value(xm)) / (2 * h)
    return out


# ---------------------------------------------------------------------------
# objective values and adjoint gradients


def test_mass_gradient_is_element_volumes():
    problem = cube_compliance_problem()
    spec = problem.spec
    mass_problem = optimize.InversionProblem(spec, "mass")
    x = np.full(spec.mesh.n_elements, 1.0)
    value, grad = mass_problem.objective_and_gradient(x)
    volumes = spec.mesh.volumes()
    assert np.array_equal(grad, volumes)
    assert value == pytest.approx(float(x @ volumes), rel=1e-14)


def test_compliance_gradient_matches_central_differences():
    problem = cube_compliance_problem()
    rng = np.random.default_rng(7)
    x = rng.uniform(60.0, 180.0, problem.n_variables)
    _, grad = problem.objective_and_gradient(x)
    fd = fd_objective_gradient(problem, x, range(problem.n_variables), 1e-4)
    for e, approx in fd.items():
        assert grad[e] == pytest.approx(approx, rel=1e-4)


def test_adjoint_gradient_on_random_small_problems():
    rng = np.random.default_rng(42)
    shapes = [(1, 1, 2), (2, 1, 1), (1, 2, 2), (2, 2, 1), (1, 1, 1)]
    for trial in range(10):
        nx, ny, nz = shapes[trial % len(shapes)]
        m = mesh.generate_box_mesh(nx, ny, nz, (1.0, 1.0, 1.0))
        assert m.n_elements <= 30
        bottom = [i for i in range(m.n_vertices) if m.vertices[i, 2] < 1e-9]
        others = [i for i in range(m.n_vertices) if i not in bottom]
        annotations = {str(v): {"displacement": "fixed"} for v in bottom}
        loaded = rng.choice(others, size=min(3, len(others)), replace=False)
        for v in loaded:
            f = rng.uniform(-50.0, 50.0, 3)
            annotations[str(int(v))] = {"force": [float(c) for c in f]}
        doc = box_layer_doc(
            {"young": [50000.0, 200000.0], "poisson": [0.25, 0.25],
             "density": [1.0, 1.0], "conductivity": [1.0, 1.0]},
            vertex_annotations=annotations,
        )
        spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)
        problem = optimize.InversionProblem(spec, "compliance")
        x = rng.uniform(60000.0, 180000.0, problem.n_variables)
        _, grad = problem.objective_and_gradient(x)
        probe = rng.choice(problem.n_variables, size=4, replace=False)
        fd = fd_objective_gradient(problem, x, probe, 1e-4)
        for e, approx in fd.items():
            assert grad[e] == pytest.approx(approx, rel=1e-4)


def test_doubling_young_halves_compliance():
    problem = cube_compliance_problem()
    rng = np.random.default_rng(3)
    x = rng.uniform(60.0, 180.0, problem.n_variables)
    c1 = problem.objective_value(x)
    c2 = problem.objective_value(2.0 * x)
    assert c2 == pytest.approx(0.5 * c1, rel=1e-12)


def test_average_temperature_gradient_matches_central_differences():
    problem = chain_conduction_problem()
    x = np.array([1.0, 4.4, 9.0, 9.5, 10.0])
    _, grad = problem.objective_and_gradient(x)
    fd = fd_objective_gradient(problem, x, range(5), 1e-3)
    for e, approx in fd.items():
        assert grad[e] == pytest.approx(approx, rel=1e-4)


def _hot_block_problem(rise=0.5, conductivity=0.25, regularity=None):
    """A heated 2x2x3 block: average-temperature objective, and hinges on
    the top vertices' and the average temperature, with bounds at ``rise``
    times the rise above the 300 K base at ``conductivity``."""
    m = mesh.generate_box_mesh(2, 2, 3, (1.0, 1.0, 1.5))
    z = m.vertices[:, 2]
    bottom, top = np.flatnonzero(z < 1e-9), np.flatnonzero(z > 1.5 - 1e-9)
    annotations = {str(v): {"temperature": 300.0} for v in bottom}
    annotations.update({str(v): {"flux": 0.3} for v in top})
    ranges = {"conductivity": [0.1, 0.4], "young": [1.0, 1.0],
              "poisson": [0.0, 0.0], "density": [1.0, 1.0]}
    doc = box_layer_doc(ranges, vertex_annotations=annotations,
                        regularity=regularity)
    spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)
    base = optimize.InversionProblem(spec, "average_temperature")
    x = np.full(m.n_elements, conductivity)
    ctx = base.context(x)
    hot = ctx.solution("conduction").values[top].max()
    average = base.objective_value(x, ctx)
    doc["global_properties"] = [
        {"name": "hot_face", "quantity": "nodal_temperature", "op": "le",
         "bound": 300.0 + rise * (hot - 300.0),
         "vertices": [int(v) for v in top]},
        {"name": "bulk_heat", "quantity": "average_temperature", "op": "le",
         "bound": 300.0 + rise * (average - 300.0)},
    ]
    spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)
    return optimize.InversionProblem(spec, "average_temperature"), top


def test_merit_gradient_makes_one_adjoint_solve(monkeypatch):
    # bounds well below the temperatures: both hinges active on every top
    # vertex, so the objective and two hinges hand over adjoint loads
    problem, top = _hot_block_problem()
    rng = np.random.default_rng(5)
    x = rng.uniform(0.1, 0.4, problem.n_variables)
    rho = 20.0
    hot, bulk = problem.constraints
    lam = [rng.uniform(0.0, 2.0, len(hot.prop.vertices)), np.array([3.0])]
    solves = []
    original = fem.adjoint_solve

    def counted(*args, **kwargs):
        solves.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fem, "adjoint_solve", counted)
    check = optimize._check(problem, x)
    _, estimates = optimize._merit(check, lam, rho)
    grad = optimize._merit_gradient(problem, check, estimates)
    assert len(solves) == 1

    # the per-term sum: one adjoint solve per term, contracted by einsum
    ctx = problem.context(x)
    system = ctx.system("conduction")
    u = ctx.solution("conduction").values
    unit = _kernels.conduction_matrices(problem.spec.mesh.vertices,
                                        problem.spec.mesh.tets)
    tets = problem.spec.mesh.tets

    def gradient_of(weights):
        lam = original(system, weights)
        return -np.einsum("ei,eij,ej->e", lam[tets], unit, u[tets])

    w = problem.spec.mesh.vertex_volume_weights()
    objective = gradient_of(w / w.sum())
    margin = optimize._feas_margin
    bulk_hinge = (float(w @ u) / w.sum() - bulk.prop.bound
                  + margin(bulk.prop.bound))
    hot_hinge = u[top] - hot.prop.bound + margin(hot.prop.bound)
    assert bulk_hinge > 0.0 and np.all(hot_hinge > 0.0)
    # each hinge's gradient weight is max(0, lam + rho h)
    hot_weights = np.zeros(u.size)
    hot_weights[top] = lam[0] + rho * hot_hinge
    want = (objective + (lam[1][0] + rho * bulk_hinge) * objective
            + gradient_of(hot_weights))
    assert np.abs(grad - want).max() <= 1e-10 * np.abs(want).max()

    def merit_at(point):
        return optimize._merit(optimize._check(problem, point), lam, rho)[0]

    for e in rng.choice(problem.n_variables, size=6, replace=False):
        h = 1e-4 * x[e]
        hi, lo = x.copy(), x.copy()
        hi[e] += h
        lo[e] -= h
        fd = (merit_at(hi) - merit_at(lo)) / (2 * h)
        assert grad[e] == pytest.approx(fd, rel=1e-5)


def _tip_bar_at():
    problem = compliance_block_bar()
    x = np.random.default_rng(1).uniform(60e3, 120e3, problem.n_variables)
    return problem, x


def _hot_block_at():
    problem, _ = _hot_block_problem()
    x = np.random.default_rng(2).uniform(0.1, 0.4, problem.n_variables)
    return problem, x


def _mass_floor_at():
    """Density over a 2x1x2 box, whose mass must reach a floor and stay
    under a cap."""
    m = mesh.generate_box_mesh(2, 1, 2, (1.0, 1.0, 1.0))
    doc = box_layer_doc({"density": [1.0, 3.0]}, properties=[
        {"name": "heavy", "quantity": "mass", "op": "ge", "bound": 2.5},
        {"name": "light", "quantity": "mass", "op": "le", "bound": 2.8}])
    spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)
    problem = optimize.InversionProblem(spec, "mass")
    x = np.random.default_rng(3).uniform(1.0, 3.0, problem.n_variables)
    return problem, x


def _synthetic_at():
    curved = optimize.SyntheticConstraint(
        "curved", lambda x: x[0] ** 2 + 3.0 * x[0] * x[1] - 1.0,
        lambda x: np.array([2.0 * x[0] + 3.0 * x[1], 3.0 * x[0]]))
    problem = optimize.FunctionProblem(
        lambda x: 0.0, lambda x: np.zeros(2), [[-2, 2], [-2, 2]],
        constraints=[curved])
    return problem, np.array([0.7, 1.3])


@pytest.mark.parametrize("build, name, entry", [
    (_tip_bar_at, "tip", 4),  # max_displacement at one top vertex
    (_hot_block_at, "hot_face", 3),  # nodal_temperature at one top vertex
    (_hot_block_at, "bulk_heat", 0),  # average_temperature
    (_mass_floor_at, "heavy", 0),  # mass over density, op "ge"
    (_mass_floor_at, "light", 0),  # mass over density, op "le"
    (_synthetic_at, "curved", 0),
])
def test_add_gradient_with_a_unit_weight_is_one_excess_gradient(
        build, name, entry):
    problem, x = build()
    constraint = next(c for c in problem.constraints if c.name == name)
    ctx = problem.context(x)
    _, excesses = constraint.check(x, ctx)
    w = np.zeros(excesses.size)
    w[entry] = 1.0
    terms = optimize._Gradient(problem)
    constraint.add_gradient(x, ctx, w, terms)
    row = terms.total(ctx)
    assert np.any(row)

    def excess(point):
        return constraint.check(point, problem.context(point))[1][entry]

    for e in range(problem.n_variables):
        h = 1e-4 * abs(x[e])
        hi, lo = x.copy(), x.copy()
        hi[e] += h
        lo[e] -= h
        fd = (excess(hi) - excess(lo)) / (2 * h)
        assert row[e] == pytest.approx(fd, rel=1e-5,
                                       abs=1e-9 * np.abs(row).max())

    prop = getattr(constraint, "prop", None)
    if prop is not None and prop.quantity == problem.objective:
        # the objective and the constraint write a global quantity's
        # gradient in one place: the objective's is the unit-weight "le"
        # excess's, bit for bit, and the "ge" excess's negated
        _, objective_row = problem.objective_and_gradient(x, ctx)
        sign = 1.0 if prop.op == "le" else -1.0
        assert (sign * row).tobytes() == objective_row.tobytes()


# ---------------------------------------------------------------------------
# inversion_solve


def test_poisson_cannot_be_optimized():
    # K is not linear in poisson, so its gradient would read zero
    spec = cube_compliance_problem().spec
    with pytest.raises(ValueError, match="poisson"):
        optimize.InversionProblem(spec, "compliance", parameter="poisson")


@pytest.mark.parametrize("bound, violated", [(2.0, ("stock",)), (5.0, ())])
def test_a_volume_bound_enters_the_plan(bound, violated):
    # the 4-layer bar's volume is 4 whatever its field
    m, doc = bar_mesh_and_doc(4, 1.0, (60e3, 120e3))
    doc["global_properties"].append(
        {"name": "stock", "quantity": "volume", "op": "le", "bound": bound})
    spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)
    result = optimize.inversion_solve(
        optimize.InversionProblem(spec, "compliance"))
    assert result.feasible is not violated
    assert result.violated == violated
    assert result.fem_solves == 2
    stock = next(v for v in result.verdicts if v.name == "stock")
    assert stock.measured == pytest.approx(4.0, rel=1e-12)


def test_degenerate_density_boxes_return_midpoints():
    problem = cube_compliance_problem()
    mass_problem = optimize.InversionProblem(problem.spec, "mass")
    result = optimize.inversion_solve(mass_problem)
    assert result.feasible
    assert result.iterations <= 1
    assert result.fem_solves == 0
    assert np.array_equal(result.values, np.full(mass_problem.n_variables, 1.0))


def test_series_bar_recovers_threshold_stiffness():
    problem, E2_star, free = series_bar_problem(d_max=0.018)
    result = optimize.inversion_solve(problem)
    assert result.feasible
    E2 = result.values[free]
    assert E2.mean() == pytest.approx(E2_star, rel=0.01)
    tip = next(v for v in result.verdicts if v.name == "tip")
    assert tip.measured == pytest.approx(0.018, rel=1e-3)


def test_series_bar_infeasible_bound_yields_certificate():
    # even E2 = box max cannot push the tip under this bound
    problem, _, _ = series_bar_problem(d_max=0.013)
    result = optimize.inversion_solve(problem)
    assert not result.feasible
    assert "tip" in result.violated
    free = problem.free_idx
    assert np.all(result.values[free] >= problem.boxes[free, 0] - 1e-12)
    assert np.all(result.values[free] <= problem.boxes[free, 1] + 1e-12)


def test_synthetic_unsatisfiable_constraint_is_reported_not_raised():
    problem = optimize.FunctionProblem(
        lambda x: float(x @ x),
        lambda x: 2.0 * x,
        [[-1, 1], [-1, 1]],
        constraints=[optimize.SyntheticConstraint("impossible", lambda x: 1.0)],
    )
    result = optimize.inversion_solve(problem)
    assert not result.feasible
    assert result.violated == ("impossible",)


def test_solver_beats_625_grid_enumeration():
    problem = chain_conduction_problem()
    result = optimize.inversion_solve(problem)
    assert result.feasible

    grid = np.linspace(1.0, 10.0, 5)
    lipschitz = problem.lipschitz
    best = np.inf
    combos = 0
    for combo in itertools.product(grid, repeat=4):
        combos += 1
        x = np.array([1.0, *combo])
        excess, _ = optimize._lipschitz_excesses(lipschitz, x)
        if excess.max() > 1e-12:
            continue
        best = min(best, problem.objective_value(x))
    assert combos == 625
    assert result.objective <= best + 1e-6


def halfspace_problem():
    """min x.x subject to x0 + x1 >= 1, optimum at (0.5, 0.5)."""
    return optimize.FunctionProblem(
        lambda x: float(x @ x),
        lambda x: 2.0 * x,
        [[-5, 5], [-5, 5]],
        constraints=[
            optimize.SyntheticConstraint(
                "halfspace",
                lambda x: 1.0 - x[0] - x[1],
                lambda x: np.array([-1.0, -1.0]),
            )
        ],
    )


def interior_quadratic_problem():
    """Separable quadratic on the unit square, minimizer (0.6, 0.3) inside."""
    c, w = np.array([0.6, 0.3]), np.array([1.0, 4.0])
    return optimize.FunctionProblem(
        lambda x: float(w @ (x - c) ** 2),
        lambda x: 2.0 * w * (x - c),
        [[0, 1], [0, 1]],
    )


def compliance_block_bar():
    """A 2x2x2 cantilever (48 tets), compliance objective, tip bound 1.08x
    what the stiffest field gives; the midpoint field violates it."""
    return layered_bar_problem(2, d_max=1.08 * 1000.0 * 2.0 / 120000.0,
                               young_box=(60000.0, 120000.0), cells=2)


def plate_block_problem():
    """The heated block with bounds at 1.3x the rise that the upper
    conductivity gives, and the Lipschitz surrogate on, as the benchmark's
    plate is built; the midpoint field violates the hot-face bound."""
    problem, _ = _hot_block_problem(
        rise=1.3, conductivity=0.4,
        regularity={"gamma": 0.2, "parameter": "conductivity"})
    return problem


def test_constrained_quadratic_matches_kkt_point():
    result = optimize.inversion_solve(halfspace_problem())
    assert result.feasible
    assert result.values == pytest.approx([0.5, 0.5], abs=1e-5)


@pytest.mark.parametrize("build, solves", [
    # primal and adjoint at the midpoint, primal and adjoint at the corner
    (plate_block_problem, 4),
    # compliance is self-adjoint: one primal at each point, one final check
    (compliance_block_bar, 3),
])
def test_face_trial_reaches_the_corner_in_one_iteration(build, solves):
    problem = build()
    assert not optimize.verify_constraints(problem,
                                           problem.start_values())[0]
    result = optimize.inversion_solve(problem)
    assert result.feasible
    assert result.iterations == 1
    assert result.fem_solves == solves
    assert np.array_equal(result.values, problem.boxes[:, 1])


def test_a_flat_objective_skips_the_face_trial():
    # the mass objective does not depend on E, so no face point can lower
    # it; the bar with a binding tip bound plans in 18 solves, not 19
    box = (60e3, 120e3)
    probe = layered_bar_problem(10, d_max=1.0, young_box=box)
    nominal = bar_tip_displacement(probe, np.full(probe.n_variables, box[1]))
    problem = layered_bar_problem(10, d_max=1.08 * nominal, young_box=box,
                                  objective="mass")
    assert not problem.face_trial
    result = optimize.inversion_solve(problem)
    assert result.feasible
    assert result.fem_solves == 18


@pytest.mark.parametrize("build, inner, iterations, evaluations, point", [
    (interior_quadratic_problem, 1, 3, 6, [0.6, 0.3]),
    (halfspace_problem, 6, 12, 25, [0.5000002143391313] * 2),
], ids=["interior_quadratic", "halfspace"])
def test_rejected_face_trial_costs_one_evaluation(
        monkeypatch, build, inner, iterations, evaluations, point):
    # the face trial is made in the first inner solve only, and a rejected
    # one leaves the run as it was without it, one evaluation dearer
    calls = []
    original = optimize._inner_solve

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(optimize, "_inner_solve", counted)
    result = optimize.inversion_solve(build())
    assert result.feasible
    assert len(calls) == inner
    assert result.iterations == iterations
    assert result.fem_solves == evaluations
    assert result.values == pytest.approx(point, rel=1e-12, abs=1e-15)
    plain = build()
    plain.face_trial = False
    without = optimize.inversion_solve(plain)
    assert without.fem_solves == evaluations - 1
    assert without.iterations == iterations
    assert np.array_equal(without.values, result.values)


def budgeted_bending_bar(n_layers, cells):
    """The cantilever under a tip load that also bends it, with compliance
    over E against a linear stiffness budget sum V_e E_e <= 0.75 V E_max:
    an optimum off the box corners."""
    m, doc = bar_mesh_and_doc(n_layers, 1e3, (60e3, 120e3), cells=cells)
    top = [i for i in range(m.n_vertices)
           if m.vertices[i, 2] > n_layers - 1e-9]
    for v, f in consistent_face_loads(m, top, [30.0, 0.0, -100.0]).items():
        doc["vertex_annotations"][str(v)] = {"force": [float(c) for c in f]}
    spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)
    problem = optimize.InversionProblem(spec, "compliance")
    volumes = m.volumes()
    cap = 0.75 * volumes.sum() * 120e3
    problem.constraints += (optimize.SyntheticConstraint(
        "budget", lambda x: (volumes @ x - cap) / cap,
        lambda x: volumes / cap),)
    return problem


@pytest.mark.parametrize("n_layers, cells, compliance, solves", [
    # solves: about a third of the 3320 and 4608 that a projected-gradient
    # loop spent to stop short of these optima, at about 3.32 and 7.83
    (6, 2, 3.10, 1135),
    (8, 3, 7.20, 1380),
])
def test_budgeted_bending_bar_reaches_its_kkt_point(
        monkeypatch, n_layers, cells, compliance, solves):
    problem = budgeted_bending_bar(n_layers, cells)
    keys = record_primal_solves(monkeypatch)
    result = optimize.inversion_solve(problem)
    assert result.feasible
    assert result.objective <= compliance
    assert result.fem_solves <= solves
    # the start point, the kept face point (where L-BFGS-B starts, served
    # from the inner solve's memo) and the first step are solved once, and
    # the final check reads the evaluation of the point L-BFGS-B ends at
    final = hashlib.blake2b(result.evaluation.system("elasticity").K.data
                            .tobytes(), digest_size=16).hexdigest()
    assert result.trace[1]["step_norm"] > 0.0
    assert [keys.count(key) for key in keys[:3]] == [1, 1, 1]
    assert keys.count(("elasticity", final)) == 1
    free = result.values[problem.free_idx]
    assert np.any((free > 60e3) & (free < 120e3))  # an interior optimum
    # the Lagrangian f + sum mu_i c_i is stationary over the box
    assert len(result.multipliers) == len(problem.constraints)
    ctx = result.evaluation
    terms = optimize._Gradient(problem)
    problem.objective_value(result.values, ctx, terms)
    for constraint, mu in zip(problem.constraints, result.multipliers):
        assert np.all(mu >= 0.0)
        if np.any(mu):
            constraint.add_gradient(result.values, ctx, mu, terms)
    assert result.multipliers[-1][0] > 0.0  # the budget binds
    kkt = optimize._projected_gradient_norm(problem, result.values,
                                            terms.total(ctx))
    assert kkt <= optimize.MODEL_GRAD_TOL


def test_multipliers_are_one_array_per_constraint():
    # the plate block's corner plan: every hinge is slack there, so each
    # estimate max(0, lam + rho h) is zero
    problem = plate_block_problem()
    result = optimize.inversion_solve(problem)
    hinges = optimize._check(problem, result.values, result.evaluation).hinges
    assert [c.name for c in problem.constraints] == [
        "hot_face", "bulk_heat", "field_regularity"]
    assert [mu.shape for mu in result.multipliers] == \
        [h.shape for h in hinges]
    assert hinges[1].shape == (1,)
    assert hinges[2].shape == (problem.lipschitz.pairs.shape[0],)
    assert not any(np.any(mu) for mu in result.multipliers)


def _replan_at_its_start_point(build=plate_block_problem):
    """The full re-plan of ``build()``'s plan after its first half drifted
    by 0.1%, which stops at its start point, as a call and its problem."""
    problem = build()
    plan = optimize.inversion_solve(problem)
    frozen = np.arange(problem.n_variables // 2)
    replan = problem.with_frozen(frozen, 1.001 * plan.values[frozen])
    return lambda: optimize.reoptimize_after_drift(
        replan, plan, strategy="full"), replan


@pytest.mark.parametrize("build", [plate_block_problem, compliance_block_bar])
def test_a_replan_at_its_start_point_checks_it_once(
        monkeypatch, build):
    # the start point's check: its merit gradient and the final check read
    # it, as neither verdicts nor hinges depend on the multipliers
    solve, replan = _replan_at_its_start_point(build)
    passes = []
    check = optimize._check

    def counted(*args, **kwargs):
        passes.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(optimize, "_check", counted)
    result = solve()
    assert result.feasible and result.iterations == 0
    assert len(passes) == 1
    monkeypatch.setattr(optimize, "_check", check)
    feasible, verdicts, objective = optimize.verify_constraints(
        replan, result.values)
    assert feasible
    assert result.verdicts == verdicts and result.objective == objective


def _budgeted_bar_plan():
    problem = budgeted_bending_bar(6, 2)
    return lambda: optimize.inversion_solve(problem), problem


@pytest.mark.parametrize("build", [_replan_at_its_start_point,
                                   _budgeted_bar_plan],
                         ids=["replan_at_start", "budgeted_bar"])
def test_each_constraint_is_checked_once_per_context(monkeypatch, build):
    # a point is checked once, however often the multipliers reweigh it
    solve, problem = build()
    contexts, checks = [], {c.name: 0 for c in problem.constraints}
    context = problem.context

    def counted_context(x):
        contexts.append(1)
        return context(x)

    def counted_check(original):
        def check(constraint, x, ctx):
            checks[constraint.name] += 1
            return original(constraint, x, ctx)
        return check

    monkeypatch.setattr(problem, "context", counted_context)
    for kind in {type(c) for c in problem.constraints}:
        monkeypatch.setattr(kind, "check", counted_check(kind.check))
    result = solve()
    assert result.feasible
    assert contexts
    assert checks == {name: len(contexts) for name in checks}


def test_a_plan_measures_each_quantity_once_per_evaluation(monkeypatch):
    computed, asked, evaluations = [], set(), []
    measure, compute = semantics.measure, semantics._compute

    def asking(evaluation, quantity, vertices=()):
        evaluations.append(evaluation)  # alive, so ids stay distinct
        asked.add((quantity, tuple(vertices), id(evaluation)))
        return measure(evaluation, quantity, vertices)

    def computing(*args):
        computed.append(args[1])
        return compute(*args)

    monkeypatch.setattr(semantics, "measure", asking)
    monkeypatch.setattr(semantics, "_compute", computing)
    problem = plate_block_problem()
    built = len(evaluations)
    result = optimize.inversion_solve(problem)
    assert result.feasible
    assert len(evaluations) > len(asked)  # the memo was read
    # the objective and two properties in each of two checks: the start
    # point's and the face trial's, whose corner is the plan; the merit
    # gradients read the checks and ask nothing
    assert len(evaluations) - built == 6
    assert len(computed) == len(asked)
    hot = next(c for c in problem.constraints if c.name == "hot_face")
    values = measure(problem.context(result.values), "nodal_temperature",
                     hot.prop.vertices)
    assert not values.flags.writeable


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_returned_values_always_inside_boxes(data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    Q = a.T @ a + 0.1 * np.eye(n)
    b = rng.normal(size=n)
    lo = rng.uniform(-2.0, 0.0, n)
    hi = lo + rng.uniform(0.1, 2.0, n)
    boxes = np.column_stack([lo, hi])
    n_frozen = data.draw(st.integers(min_value=0, max_value=n - 1))
    frozen = rng.choice(n, size=n_frozen, replace=False)
    frozen_values = rng.uniform(-3.0, 3.0, n_frozen)
    problem = optimize.FunctionProblem(
        lambda x: 0.5 * x @ Q @ x - b @ x,
        lambda x: Q @ x - b,
        boxes,
    ).with_frozen(frozen, frozen_values)
    result = optimize.inversion_solve(problem, max_iter=80)
    free = problem.free_idx
    assert np.all(result.values[free] >= boxes[free, 0])
    assert np.all(result.values[free] <= boxes[free, 1])
    assert np.array_equal(result.values[frozen], frozen_values)


def test_trace_objective_nonincreasing_when_unconstrained():
    problem = quadratic_problem()
    result = optimize.inversion_solve(problem)
    objectives = [rec["objective"] for rec in result.trace]
    assert len(objectives) >= 2
    diffs = np.diff(objectives)
    assert np.all(diffs <= 1e-12)


def test_trace_schema_and_jsonl_dump(tmp_path):
    problem = quadratic_problem()
    result = optimize.inversion_solve(problem)
    path = tmp_path / "trace.jsonl"
    optimize.write_trace(result, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(result.trace)
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"iter", "objective", "max_violation",
                               "step_norm"}


def test_zero_iteration_solve_count_is_pinned():
    # one solve, at the start point, which is checked once: the trace's
    # start entry, the merit and the final check all read that check
    result = optimize.inversion_solve(cube_compliance_problem(), max_iter=0)
    assert result.iterations == 0 and result.feasible
    assert result.fem_solves == 1
    assert result.trace[0]["max_violation"] == 0.0


def test_free_elements_need_finite_ranges():
    m = mesh.generate_box_mesh(1, 1, 1, (1.0, 1.0, 1.0))
    bottom = [i for i in range(m.n_vertices) if m.vertices[i, 2] < 1e-9]
    annotations = {str(v): {"displacement": "fixed"} for v in bottom}
    annotations["7"] = {"force": [0.0, 0.0, -1.0]}
    # no young range annotated: box defaults to (-inf, inf)
    doc = box_layer_doc(
        {"poisson": [0.3, 0.3], "density": [1.0, 1.0],
         "conductivity": [1.0, 1.0]},
        vertex_annotations=annotations,
    )
    spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)
    with pytest.raises(ValueError, match="finite"):
        optimize.InversionProblem(spec, "compliance")


def test_a_split_that_frees_an_element_without_a_range_raises():
    # element 0 alone has no young range; a problem starts with every
    # element free, so it is refused before any split
    m = mesh.generate_box_mesh(1, 1, 1, (1.0, 1.0, 1.0))
    bottom = [i for i in range(m.n_vertices) if m.vertices[i, 2] < 1e-9]
    annotations = {str(v): {"displacement": "fixed"} for v in bottom}
    annotations["7"] = {"force": [0.0, 0.0, -1.0]}
    doc = box_layer_doc(
        {"poisson": [0.3, 0.3], "density": [1.0, 1.0],
         "conductivity": [1.0, 1.0]},
        vertex_annotations=annotations,
    )
    doc["element_annotations"]["overrides"] = {
        str(e): {"young": [50.0, 200.0]} for e in range(1, m.n_elements)}
    spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)
    with pytest.raises(ValueError, match="finite"):
        optimize.InversionProblem(spec, "compliance")
    doc["element_annotations"]["overrides"]["0"] = {"young": [50.0, 200.0]}
    spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)
    problem = optimize.InversionProblem(spec, "compliance").with_frozen(
        [0], [100.0])
    assert np.array_equal(problem.free_idx, np.arange(1, m.n_elements))
    kept = problem.with_frozen([0, 3], [100.0, 60.0])
    assert np.array_equal(kept.free_idx, [1, 2, 4, 5])
    for index in (-1, m.n_elements):
        with pytest.raises(ValueError, match="out of range"):
            problem.with_frozen([0, index], [100.0, 60.0])
    with pytest.raises(ValueError, match="align"):
        problem.with_frozen([0, 3], [100.0])


def test_a_split_that_frees_a_variable_with_an_empty_box_raises():
    def problem(boxes):
        return optimize.FunctionProblem(
            lambda x: float(x @ x), lambda x: 2.0 * x, boxes)

    with pytest.raises(ValueError, match="empty"):
        problem([[0.0, 1.0], [2.0, 1.0], [0.0, 1.0]])
    # a box that is not finite is named before an empty one
    with pytest.raises(ValueError, match="finite"):
        problem([[2.0, 1.0], [0.0, np.inf]])
    assert np.array_equal(
        problem([[0.0, 1.0]] * 3).with_frozen([1, 2], [1.5, 0.5]).free_idx,
        [0])


# ---------------------------------------------------------------------------
# Lipschitz surrogate


def test_lipschitz_zero_violation_contributes_nothing():
    problem = chain_conduction_problem(gamma=1.5)
    assert problem.constraints == (problem.lipschitz,)
    x = np.full(5, 4.0)  # uniform field: every pair difference is zero
    lam = [np.zeros(problem.lipschitz.pairs.shape[0])]
    check = optimize._check(problem, x)
    merit, estimates = optimize._merit(check, lam, 2000.0)
    merit_grad = optimize._merit_gradient(problem, check, estimates)
    verdict, = check.verdicts
    assert verdict.name == "field_regularity"
    assert verdict.excess < 0.0 and verdict.passed
    assert np.all(check.hinges[0] < 0.0)
    _, obj_grad = problem.objective_and_gradient(x)
    assert merit == check.objective
    assert np.array_equal(merit_grad, obj_grad)


def test_lipschitz_excesses_keep_the_bits_of_the_plain_formula():
    lip = plate_block_problem().lipschitz
    x = np.random.default_rng(4).uniform(0.1, 0.4, lip.pairs.max() + 1)
    excess, diffs = optimize._lipschitz_excesses(lip, x)
    plain = x[lip.pairs[:, 0]] - x[lip.pairs[:, 1]]
    assert diffs.tobytes() == plain.tobytes()
    assert excess.tobytes() == \
        (np.abs(plain) - lip.gamma * lip.distances).tobytes()


def test_a_penalty_free_check_gives_the_penalized_verdicts():
    # the merit gradient weighs the penalty-free check, whose verdicts are
    # the ones verify_constraints gives
    problem = plate_block_problem()
    x = np.random.default_rng(6).uniform(0.1, 0.4, problem.n_variables)
    check = optimize._check(problem, x)
    lam = [np.zeros(h.size) for h in check.hinges]
    _, estimates = optimize._merit(check, lam, 2.0)
    optimize._merit_gradient(problem, check, estimates)
    feasible, checked, objective = optimize.verify_constraints(problem, x)
    assert checked == check.verdicts
    assert [v.name for v in checked] == ["hot_face", "bulk_heat",
                                         "field_regularity"]
    assert not checked[-1].passed and not feasible
    assert objective == problem.objective_value(x)


def test_lipschitz_pairs_come_from_shared_faces():
    problem = chain_conduction_problem()
    pairs = problem.lipschitz.pairs
    assert sorted(map(tuple, np.sort(pairs, axis=1).tolist())) == [
        (0, 1), (1, 2), (2, 3), (3, 4)
    ]
    centroids = problem.spec.mesh.centroids()
    expected = np.linalg.norm(
        centroids[pairs[:, 0]] - centroids[pairs[:, 1]], axis=1
    )
    assert problem.lipschitz.distances == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# quadratic model and warm start


def test_quadratic_model_recovers_polynomial_blocks():
    def polynomial_problem(frozen_idx, frozen_values):
        return optimize.FunctionProblem(
            lambda x: x[0] ** 2 + x[1] ** 2 + x[0] * x[1],
            lambda x: np.array([2 * x[0] + x[1], 2 * x[1] + x[0]]),
            [[-1, 1], [-1, 1]],
        ).with_frozen(frozen_idx, frozen_values)

    model = optimize.build_quadratic_model(polynomial_problem([0], [0.0]),
                                           np.zeros(2))
    # variable 1's row: F_yz = 1 in column 0, F_zz = 2 in column 1
    np.testing.assert_array_equal(model.inactive_idx, [1])
    np.testing.assert_allclose(model.rows, [[1.0, 2.0]], atol=1e-6)
    # the frozen block is not stored; with nothing frozen, variable 0 is
    # inactive and its stored row carries it
    unfrozen = optimize.build_quadratic_model(polynomial_problem([], []),
                                              np.zeros(2))
    np.testing.assert_array_equal(unfrozen.inactive_idx, [0, 1])
    np.testing.assert_allclose(unfrozen.rows[0, 0], 2.0, atol=1e-6)


def test_mass_objective_model_is_invalid():
    problem = cube_compliance_problem()
    mass_problem = optimize.InversionProblem(
        problem.spec, "mass", parameter="young",
    ).with_frozen([0], [60.0])
    base = mass_problem.pin(mass_problem.boxes[:, 0])
    with pytest.raises(ModelInvalidError):
        optimize.build_quadratic_model(mass_problem, base)


def test_model_rejects_nonstationary_base_point():
    problem = quadratic_problem()
    bad_base = np.array([0.0, 2.0, -1.0])
    with pytest.raises(BasePointError):
        optimize.build_quadratic_model(problem, bad_base)


def test_warm_start_zero_delta_returns_zero_shift():
    problem = exp_coupled_problem(0.0)
    base = optimize.inversion_solve(problem, tol=1e-12)
    model = optimize.build_quadratic_model(problem, base.values)
    delta_z = optimize.warm_start_update(model, problem, [0.0])
    assert np.array_equal(delta_z, np.zeros(2))


def test_warm_start_sign_oracle():
    problem = optimize.FunctionProblem(
        lambda x: x[0] ** 2 + x[1] ** 2 + x[0] * x[1],
        lambda x: np.array([2 * x[0] + x[1], 2 * x[1] + x[0]]),
        [[-1, 1], [-1, 1]],
    ).with_frozen([0], [0.0])
    model = optimize.build_quadratic_model(problem, np.zeros(2))
    delta_z = optimize.warm_start_update(model, problem, [0.1])
    # brute-force minimum of F(0.1, z) over z
    zs = np.linspace(-1, 1, 2_000_001)
    brute = zs[np.argmin(0.1**2 + zs**2 + 0.1 * zs)]
    assert delta_z == pytest.approx([-0.05], abs=1e-12)
    assert delta_z == pytest.approx([brute], abs=1e-6)


def test_warm_start_rejects_a_split_the_model_does_not_cover():
    # variable 0 was frozen at the base point, so the model holds nothing
    # that could move it once it is free
    def polynomial_problem(frozen_idx, frozen_values):
        return optimize.FunctionProblem(
            lambda x: x[0] ** 2 + x[1] ** 2 + x[0] * x[1],
            lambda x: np.array([2 * x[0] + x[1], 2 * x[1] + x[0]]),
            [[-1, 1], [-1, 1]],
        ).with_frozen(frozen_idx, frozen_values)

    model = optimize.build_quadratic_model(polynomial_problem([0], [0.0]),
                                           np.zeros(2))
    with pytest.raises(ModelInvalidError):
        optimize.warm_start_update(model, polynomial_problem([], []), [])


def test_warm_start_equals_full_on_quadratic():
    problem = quadratic_problem(0.0)
    base = optimize.inversion_solve(problem, tol=1e-13)
    model = optimize.build_quadratic_model(problem, base.values)
    shifted = quadratic_problem(0.3)
    warm = optimize.reoptimize_after_drift(
        shifted, base, strategy="warm_start", model=model
    )
    shifted_again = quadratic_problem(0.3)
    full = optimize.reoptimize_after_drift(
        shifted_again, base, strategy="full", tol=1e-13
    )
    assert warm.strategy == "warm_start"
    assert warm.values[1:] == pytest.approx(full.values[1:], abs=1e-10)


def test_a_warm_replan_under_drift_needs_the_model_of_its_plan():
    base = optimize.inversion_solve(quadratic_problem(0.0), tol=1e-13)
    with pytest.raises(ValueError, match="needs the model of its plan"):
        optimize.reoptimize_after_drift(quadratic_problem(0.3), base)
    # without drift there is nothing to model
    unchanged = optimize.reoptimize_after_drift(quadratic_problem(0.0), base)
    assert np.array_equal(unchanged.values, base.values)


def test_warm_start_error_is_second_order():
    problem = exp_coupled_problem(0.0)
    base = optimize.inversion_solve(problem, tol=1e-12)
    model = optimize.build_quadratic_model(problem, base.values)
    errors = {}
    for dy in (0.2, 0.1, 0.05):
        warm = optimize.reoptimize_after_drift(
            exp_coupled_problem(dy), base,
            strategy="warm_start", model=model,
        )
        full = optimize.reoptimize_after_drift(
            exp_coupled_problem(dy), base, strategy="full", tol=1e-12
        )
        errors[dy] = np.linalg.norm(warm.values[1:] - full.values[1:])
    assert errors[0.2] / errors[0.1] >= 3.0
    assert errors[0.1] / errors[0.05] >= 3.0


def test_warm_start_uses_strictly_fewer_solves():
    problem = exp_coupled_problem(0.0)
    base = optimize.inversion_solve(problem, tol=1e-12)
    model = optimize.build_quadratic_model(problem, base.values)
    warm_problem = exp_coupled_problem(0.1)
    warm = optimize.reoptimize_after_drift(
        warm_problem, base, strategy="warm_start", model=model
    )
    full_problem = exp_coupled_problem(0.1)
    full = optimize.reoptimize_after_drift(
        full_problem, base, strategy="full", tol=1e-12
    )
    assert warm.strategy == "warm_start"
    assert full.strategy == "full"
    assert warm.fem_solves < full.fem_solves


def test_zero_drift_short_circuits_without_fem_solves():
    problem, _, _ = series_bar_problem(d_max=0.018)
    base = optimize.inversion_solve(problem)
    solves_before = problem.stats.fem_solves
    unchanged = optimize.reoptimize_after_drift(
        problem, base, strategy="warm_start",
    )
    assert unchanged.fem_solves == 0
    assert problem.stats.fem_solves == solves_before
    assert np.array_equal(unchanged.values, base.values)
    assert unchanged.strategy == "warm_start"


def test_model_reslices_for_a_shifted_partition():
    problem = exp_coupled_problem(0.0)
    base = optimize.inversion_solve(problem, tol=1e-12)
    model = optimize.build_quadratic_model(problem, base.values)

    def f(x):
        y, z1, z2 = x
        return (np.exp(z1 + y) + np.exp(z2 - 0.5 * y)
                + 0.5 * (z1**2 + z2**2) + 0.3 * z1 * z2)

    def g(x):
        y, z1, z2 = x
        e1, e2 = np.exp(z1 + y), np.exp(z2 - 0.5 * y)
        return np.array([e1 - 0.5 * e2, e1 + z1 + 0.3 * z2,
                         e2 + z2 + 0.3 * z1])

    wider = optimize.FunctionProblem(f, g, [[-5, 5]] * 3).with_frozen(
        [0, 1], [0.02, base.values[1] + 0.01])
    warm = optimize.reoptimize_after_drift(
        wider, base, strategy="warm_start", model=model
    )
    assert warm.strategy == "warm_start"
    full = optimize.reoptimize_after_drift(
        optimize.FunctionProblem(f, g, [[-5, 5]] * 3).with_frozen(
            [0, 1], [0.02, base.values[1] + 0.01]),
        base, strategy="full", tol=1e-12,
    )
    assert warm.values[2] == pytest.approx(full.values[2], abs=5e-4)


def test_drift_to_infeasible_returns_certificate_on_both_strategies():
    mass, _, _ = series_bar_problem(d_max=0.018)
    # a mass objective has no model, so the warm start minimizes compliance
    problem = optimize.InversionProblem(
        mass.spec, "compliance", parameter="young",
    ).with_frozen(mass.frozen_idx, mass.frozen_values)
    base = optimize.inversion_solve(problem)
    assert base.feasible
    model = optimize.build_quadratic_model(problem, base.values,
                                           base.evaluation)
    # bottom segment softens so much that no admissible top segment can
    # keep the tip inside the bound
    degraded = np.full(problem.frozen_idx.size, 55000.0)
    for strategy, reason in (("warm_start", "warm_infeasible"),
                             ("full", None)):
        shifted = problem.with_frozen(problem.frozen_idx, degraded)
        result = optimize.reoptimize_after_drift(
            shifted, base, strategy=strategy, model=model
        )
        assert result.fallback == reason
        assert not result.feasible
        assert "tip" in result.violated


def test_bound_active_variables_stay_pinned_by_the_warm_start():
    # variable 2 ends on its upper bound with the gradient pushing outward;
    # lo + (hi - lo) rounds past hi = 0.45, so this also checks that the
    # plan lands on the bound bit for bit
    Q = np.array([[3.0, 0.8, 0.2], [0.8, 2.0, 0.5], [0.2, 0.5, 1.5]])
    b = np.array([0.5, -1.0, 2.0])

    def problem(frozen_value):
        return optimize.FunctionProblem(
            lambda x: 0.5 * x @ Q @ x - b @ x,
            lambda x: Q @ x - b,
            [[-5, 5], [-5, 5], [0.15, 0.45]],
        ).with_frozen([0], [frozen_value])

    base = optimize.inversion_solve(problem(0.0), tol=1e-13)
    assert base.values[2] == 0.45
    model = optimize.build_quadratic_model(problem(0.0), base.values)
    assert model.inactive_idx.tolist() == [1]
    assert model.active_idx.tolist() == [2]
    assert model.rows.shape == (1, 3)
    warm = optimize.reoptimize_after_drift(
        problem(0.3), base, strategy="warm_start", model=model
    )
    full = optimize.reoptimize_after_drift(
        problem(0.3), base, strategy="full", tol=1e-13
    )
    assert warm.strategy == "warm_start" and warm.fallback is None
    assert warm.values[2] == 0.45
    # exactly quadratic with the bound still active: the warm step is exact
    assert warm.values[1:] == pytest.approx(full.values[1:], abs=1e-10)


def upper_bound_bar(n_layers):
    """Compliance bar whose plan sits on the upper E bound of every element,
    with the tip bound 8% above the displacement that bound gives."""
    box = (60e3, 120e3)
    probe = layered_bar_problem(n_layers, d_max=1.0, young_box=box)
    nominal = bar_tip_displacement(probe, np.full(probe.n_variables, box[1]))
    problem = layered_bar_problem(n_layers, d_max=1.08 * nominal,
                                  young_box=box)
    plan = optimize.inversion_solve(problem)
    assert plan.feasible and np.all(plan.values == box[1])
    return problem, plan


def test_model_at_an_all_active_plan_costs_one_solve():
    problem, plan = upper_bound_bar(10)
    before = problem.stats.fem_solves
    model = optimize.build_quadratic_model(problem, plan.values)
    assert problem.stats.fem_solves - before == 1  # the base point's primal
    assert model.rows.shape == (0, 60)
    assert model.active_idx.tolist() == list(range(60))
    # the warm step is the identity on the free block
    assert np.array_equal(optimize.warm_start_update(model, problem, []),
                          np.zeros(60))


def _planned_plate_block():
    problem = plate_block_problem()
    plan = optimize.inversion_solve(problem)
    assert plan.feasible and np.array_equal(plan.values, problem.boxes[:, 1])
    return problem, plan


def assert_same_model(model, expected):
    for name in ("base_values", "inactive_idx", "active_idx", "rows"):
        got, want = getattr(model, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("planned, handed_on, fresh", [
    # compliance is self-adjoint: the gradient needs the plan's u alone
    (lambda: upper_bound_bar(10), 0, 1),
    # one adjoint solve on the plan's factor; afresh, its primal as well
    (_planned_plate_block, 1, 2),
])
def test_model_reads_the_plans_evaluation(planned, handed_on, fresh):
    problem, plan = planned()
    before = problem.stats.fem_solves
    model = optimize.build_quadratic_model(problem, plan.values,
                                           plan.evaluation)
    assert problem.stats.fem_solves - before == handed_on
    before = problem.stats.fem_solves
    expected = optimize.build_quadratic_model(problem, plan.values)
    assert problem.stats.fem_solves - before == fresh
    assert_same_model(model, expected)


def test_model_ignores_a_stale_evaluation():
    problem, plan = upper_bound_bar(10)
    expected = optimize.build_quadratic_model(problem, plan.values)
    fld = problem.field_for(plan.values)
    nudged = plan.values.copy()
    nudged[0] = np.nextafter(nudged[0], 0.0)
    twin, _ = upper_bound_bar(10)  # an equal specification, not the same
    stale = {
        "another field": problem.context(nudged),
        "another spec": semantics.FieldEvaluation(
            twin.spec, fld, twin.assembly_plan, problem.stats),
        "another RunStats": semantics.FieldEvaluation(
            problem.spec, fld, problem.assembly_plan, semantics.RunStats()),
    }
    for name, evaluation in stale.items():
        # solved already, so a wrongful reuse would cost no solve here
        evaluation.solution("elasticity")
        before = problem.stats.fem_solves
        model = optimize.build_quadratic_model(problem, plan.values,
                                               evaluation)
        assert problem.stats.fem_solves - before == 1, name
        assert_same_model(model, expected)


def test_a_plan_solves_no_field_twice(monkeypatch):
    problem, _ = _hot_block_problem()
    keys = record_primal_solves(monkeypatch)
    result = optimize.inversion_solve(problem)
    assert result.evaluation.field.conductivity.tobytes() == \
        result.values.tobytes()
    assert keys and len(set(keys)) == len(keys)


def test_a_function_problem_result_has_no_evaluation():
    result = optimize.inversion_solve(halfspace_problem())
    assert result.evaluation is None


def test_model_build_allocates_nothing_square_over_elements():
    # what the build needs grows like the element count m (assembly, the
    # factor, the gradient: about 3 kB per element here), a dense n x n
    # array like 8 m^2 bytes; at 600 elements one such array alone is over
    # the bound
    problem, plan = upper_bound_bar(100)
    n = problem.n_variables
    assert n >= 240
    tracemalloc.start()
    try:
        optimize.build_quadratic_model(problem, plan.values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * np.dtype(np.float64).itemsize


def test_a_flat_objective_is_refused_before_any_hessian_row(monkeypatch):
    # mass does not depend on E, so the model's free block would be zero:
    # the build reads the base point's gradient and stops there
    problem = cube_compliance_problem().with_frozen([0], [60.0])
    mass = optimize.InversionProblem(
        problem.spec, "mass", parameter="young",
    ).with_frozen([0], [60.0])
    base = optimize.inversion_solve(mass)
    assert mass.free_idx.size
    calls = []
    original = mass.objective_and_gradient

    def counted(x, ctx=None):
        calls.append(1)
        return original(x, ctx)

    monkeypatch.setattr(mass, "objective_and_gradient", counted)
    with pytest.raises(ModelInvalidError, match="flat"):
        optimize.build_quadratic_model(mass, base.values, base.evaluation)
    assert len(calls) == 1


def test_warm_fallbacks_name_their_reason():
    # a model built with variable 1 frozen cannot move it once it is free
    base = optimize.inversion_solve(quadratic_problem(0.0), tol=1e-13)
    narrow = quadratic_problem(0.0).with_frozen([0, 1], base.values[:2])
    model = optimize.build_quadratic_model(narrow, base.values)
    result = optimize.reoptimize_after_drift(quadratic_problem(0.3), base,
                                             model=model)
    assert result.strategy == "full" and result.fallback == "model_invalid"
    # a warm step that breaks the tip bound: the first layer prints at
    # half stiffness and every other element is already on its bound
    bar, plan = upper_bound_bar(4)
    model = optimize.build_quadratic_model(bar, plan.values, plan.evaluation)
    first = np.arange(6)
    soft = 0.5 * plan.values[first]
    for strategy, reason in (("warm_start", "warm_infeasible"),
                             ("full", None)):
        result = optimize.reoptimize_after_drift(
            bar.with_frozen(first, soft), plan, strategy=strategy,
            model=model,
        )
        assert result.strategy == "full" and result.fallback == reason
