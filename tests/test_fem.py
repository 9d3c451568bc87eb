import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from conftest import element_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from semfab import _kernels, fem
from semfab.errors import SolverFailure, WellPosednessError
from semfab.fem import adjoint_solve, assemble, solve
from semfab.mesh import (
    VolumetricMesh,
    boundary_faces,
    generate_box_mesh,
    generate_shaft_mesh,
)
from semfab.semantics import (
    PARAMETERS,
    MaterialField,
    bind_to_mesh,
    layer_from_dict,
)


def shape_gradients(coords):
    """Oracle: gradient of N_i from the homogeneous coordinate inverse.

    Barycentric coordinates satisfy [1; x] = M [N0..N3] with
    M = [[1,1,1,1],[p0 p1 p2 p3]]; the gradients are rows 1..3 of M^-1
    transposed, computed here with a dense inverse instead of edge cross
    products.
    """
    M = np.vstack([np.ones(4), np.asarray(coords).T])
    return np.linalg.inv(M)[:, 1:]


def stiffness_oracle(coords, young, poisson):
    grads = shape_gradients(coords)
    vol = abs(np.linalg.det(np.vstack([np.ones(4), np.asarray(coords).T]))) / 6.0
    lam = young * poisson / ((1 + poisson) * (1 - 2 * poisson))
    mu = young / (2 * (1 + poisson))
    C = np.zeros((6, 6))
    C[:3, :3] = lam
    C[np.arange(3), np.arange(3)] = lam + 2 * mu
    C[np.arange(3, 6), np.arange(3, 6)] = mu
    B = np.zeros((6, 12))
    for a in range(4):
        gx, gy, gz = grads[a]
        B[0, 3 * a] = gx
        B[1, 3 * a + 1] = gy
        B[2, 3 * a + 2] = gz
        B[3, 3 * a] = gy
        B[3, 3 * a + 1] = gx
        B[4, 3 * a + 1] = gz
        B[4, 3 * a + 2] = gy
        B[5, 3 * a] = gz
        B[5, 3 * a + 2] = gx
    return vol * B.T @ C @ B


REF_TET = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])


def random_tet(rng):
    while True:
        coords = rng.normal(scale=2.0, size=(4, 3))
        vol = np.linalg.det(coords[1:] - coords[0]) / 6.0
        if vol > 1e-3:
            return coords


def test_reference_tet_stiffness_matches_oracle():
    k = element_matrix(REF_TET, 1.0, 0.25)
    assert_allclose(k, stiffness_oracle(REF_TET, 1.0, 0.25), atol=1e-12)
    # hand value: dof (vertex 0, x) couples B column (-1,0,0,-1,0,-1),
    # so k00 = V ((lam+2mu) + 2 mu) = (1/6)(1.2 + 0.8) = 1/3
    assert_allclose(k[0, 0], 1.0 / 3.0, rtol=1e-14)


def test_random_tet_stiffness_matches_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        coords = random_tet(rng)
        E = rng.uniform(0.5, 300.0)
        nu = rng.uniform(-0.5, 0.45)
        k = element_matrix(coords, E, nu)
        oracle = stiffness_oracle(coords, E, nu)
        assert_allclose(k, oracle, rtol=1e-10, atol=1e-10 * np.abs(oracle).max())


def test_stiffness_kills_rigid_modes():
    rng = np.random.default_rng(11)
    for _ in range(10):
        coords = random_tet(rng)
        k = element_matrix(coords, 100.0, 0.3)
        scale = np.abs(k).max()
        translation = np.tile([1.0, 0.0, 0.0], 4)
        assert np.abs(k @ translation).max() <= 1e-9 * scale
        # linearized rotation about z: u = omega x p with omega = e_z
        rot = np.cross(np.array([0.0, 0.0, 1.0]), coords).reshape(-1)
        assert np.abs(k @ rot).max() <= 1e-9 * scale


def test_stiffness_spectrum():
    rng = np.random.default_rng(19)
    for _ in range(10):
        k = element_matrix(random_tet(rng), 50.0, 0.2)
        w = np.linalg.eigvalsh(k)
        assert w[0] > -1e-8 * w[-1]
        assert np.sum(np.abs(w) <= 1e-8 * w[-1]) == 6


def test_reference_tet_conductance_matches_oracle():
    k = element_matrix(REF_TET, 1.0)
    expected = (1.0 / 6.0) * np.array(
        [[3.0, -1, -1, -1], [-1, 1, 0, 0], [-1, 0, 1, 0], [-1, 0, 0, 1]]
    )
    assert_allclose(k, expected, atol=1e-12)
    grads = shape_gradients(REF_TET)
    assert_allclose(k, (grads @ grads.T) / 6.0, atol=1e-12)


def test_conductance_constant_mode_and_linearity():
    rng = np.random.default_rng(5)
    coords = random_tet(rng)
    k1 = element_matrix(coords, 1.3)
    assert np.abs(k1 @ np.ones(4)).max() <= 1e-9 * np.abs(k1).max()
    k2 = element_matrix(coords, 2.6)
    assert_allclose(k2, 2.0 * k1, rtol=1e-14)
    w = np.linalg.eigvalsh(k1)
    assert np.sum(np.abs(w) <= 1e-8 * w[-1]) == 1


def fixed_bottom_spec(mesh, extra=None):
    z = mesh.vertices[:, 2]
    doc = {"vertex_annotations": {str(int(v)): {"displacement": "fixed"}
                                  for v in np.flatnonzero(z == z.min())}}
    if extra:
        doc["vertex_annotations"].update(extra)
    return bind_to_mesh(layer_from_dict(doc), mesh)


@pytest.mark.parametrize("physics", ["elasticity", "conduction"])
def test_assembly_plan_rejects_a_degenerate_tet(physics):
    # tet 1's fourth vertex lies in the plane of its other three
    vertices = np.vstack([REF_TET, [[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]]])
    tets = np.array([[0, 1, 2, 3], [1, 2, 3, 4]], dtype=np.int64)
    mesh = VolumetricMesh(vertices, tets)
    doc = {"vertex_annotations": {str(v): {"displacement": "fixed",
                                           "temperature": 300.0}
                                  for v in range(3)}}
    spec = bind_to_mesh(layer_from_dict(doc), mesh)
    fld = MaterialField.uniform(2, young=1.0, poisson=0.25)
    with pytest.raises(ValueError, match="degenerate tet 1"):
        fem.assembly_plan(spec, physics, fld)
    with pytest.raises(ValueError, match="degenerate tet 1"):
        assemble(spec, fld, physics)


def test_assemble_single_tet_equals_element_matrix():
    mesh = VolumetricMesh(REF_TET, np.array([[0, 1, 2, 3]], dtype=np.int64))
    spec = fixed_bottom_spec(mesh)
    fld = MaterialField.uniform(1, young=7.0, poisson=0.2)
    system = assemble(spec, fld, "elasticity")
    assert_allclose(
        system.K.toarray(), element_matrix(REF_TET, 7.0, 0.2), atol=1e-14
    )


def test_assembly_adds_shared_vertex_contributions():
    vertices = np.array(
        [[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [1.0, 1.0, 1.0]]
    )
    tets = np.array([[0, 1, 2, 3], [1, 2, 3, 4]], dtype=np.int64)
    mesh = VolumetricMesh(vertices, tets)
    spec = fixed_bottom_spec(mesh)
    fld = MaterialField.uniform(2, young=3.0, poisson=0.1)
    K = assemble(spec, fld, "elasticity").K.toarray()
    k0 = element_matrix(vertices[tets[0]], 3.0, 0.1)
    k1 = element_matrix(vertices[tets[1]], 3.0, 0.1)
    # vertex 1 is local 1 in tet 0 and local 0 in tet 1
    block = K[3:6, 3:6]
    assert_allclose(block, k0[3:6, 3:6] + k1[0:3, 0:3], atol=1e-13)


def test_assemble_requires_dirichlet_data():
    mesh = generate_box_mesh(1, 1, 1, [1.0, 1.0, 1.0])
    spec = bind_to_mesh(layer_from_dict({}), mesh)
    fld = MaterialField.uniform(mesh.n_elements)
    with pytest.raises(WellPosednessError):
        assemble(spec, fld, "elasticity")
    with pytest.raises(WellPosednessError):
        assemble(spec, fld, "conduction")
    with pytest.raises(ValueError):
        assemble(spec, fld, "magnetism")


def test_zero_load_gives_zero_displacement():
    # an exact zero solution and a zero backward error
    for cells, size in (((2, 2, 2), [1.0, 1.0, 1.0]),
                        ((3, 3, 8), [1.0, 1.0, 8.0])):
        mesh = generate_box_mesh(*cells, size)
        spec = fixed_bottom_spec(mesh)
        sol = solve(assemble(
            spec, MaterialField.uniform(mesh.n_elements, young=10.0), "elasticity"
        ))
        assert np.abs(sol.values).max() == 0.0
        assert sol.residual == 0.0
        assert all(np.abs(r).max() == 0.0 for r in sol.reactions.values())


def linear_patch_spec(mesh, A):
    bnd = np.unique(boundary_faces(mesh))
    doc = {"vertex_annotations": {
        str(int(v)): {"displacement": (A @ mesh.vertices[v]).tolist()}
        for v in bnd
    }}
    return bind_to_mesh(layer_from_dict(doc), mesh), bnd


PATCH_A = np.array(
    [[1e-3, 4e-4, 2e-4], [1e-4, -2e-3, 3e-4], [5e-4, 2e-4, 1.5e-3]]
)


def test_patch_test_reproduces_linear_field():
    mesh = generate_box_mesh(3, 3, 3, [1.0, 1.0, 1.0])
    spec, bnd = linear_patch_spec(mesh, PATCH_A)
    fld = MaterialField.uniform(mesh.n_elements, young=200.0, poisson=0.3)
    sol = solve(assemble(spec, fld, "elasticity"))
    interior = np.setdiff1d(np.arange(mesh.n_vertices), bnd)
    exact = mesh.vertices[interior] @ PATCH_A.T
    err = np.abs(sol.values[interior] - exact).max() / np.abs(exact).max()
    assert err < 1e-8


@settings(max_examples=10, deadline=None)
@given(
    nx=st.integers(2, 4), ny=st.integers(2, 4), nz=st.integers(2, 4),
    young=st.floats(10.0, 1000.0), poisson=st.floats(0.0, 0.45),
)
def test_patch_test_on_random_subdivisions(nx, ny, nz, young, poisson):
    mesh = generate_box_mesh(nx, ny, nz, [1.0, 1.2, 0.8])
    spec, bnd = linear_patch_spec(mesh, PATCH_A)
    fld = MaterialField.uniform(mesh.n_elements, young=young, poisson=poisson)
    sol = solve(assemble(spec, fld, "elasticity"))
    interior = np.setdiff1d(np.arange(mesh.n_vertices), bnd)
    if interior.size:
        exact = mesh.vertices[interior] @ PATCH_A.T
        err = np.abs(sol.values[interior] - exact).max() / np.abs(exact).max()
        assert err < 1e-8


def shaft_problem(n_radial=16, n_axial=5, young=110000.0, load=100.0):
    mesh = generate_shaft_mesh(1.0, 10.0, n_radial, n_axial)
    z = mesh.vertices[:, 2]
    top = np.flatnonzero(z == 10.0)
    per_vertex = [0.0, 0.0, -load / len(top)]
    extra = {str(int(v)): {"force": per_vertex} for v in top}
    spec = fixed_bottom_spec(mesh, extra)
    fld = MaterialField.uniform(mesh.n_elements, young=young, poisson=0.0)
    return mesh, spec, fld, top


def test_shaft_axial_deflection_matches_bar_theory():
    mesh, spec, fld, top = shaft_problem()
    sol = solve(assemble(spec, fld, "elasticity"))
    mean_uz = sol.values[top, 2].mean()
    analytic = -100.0 * 10.0 / (110000.0 * math.pi)
    assert abs(mean_uz - analytic) / abs(analytic) < 0.05


def test_reactions_balance_applied_load():
    mesh, spec, fld, top = shaft_problem()
    sol = solve(assemble(spec, fld, "elasticity"))
    total = np.sum(list(sol.reactions.values()), axis=0)
    assert_allclose(total, [0.0, 0.0, 100.0], atol=1e-8 * 100.0)


def test_sparse_path_matches_dense_solve():
    mesh, spec, fld, top = shaft_problem(n_radial=32, n_axial=10)
    system = assemble(spec, fld, "elasticity")
    sol = solve(system)
    assert sol.residual <= 1e-12
    free = system.plan.free
    K_ff = system.K[free][:, free].toarray()
    dense = np.linalg.solve(K_ff, system.rhs)
    sparse = sol.values.reshape(-1)[free]
    assert np.abs(sparse - dense).max() <= 1e-9 * max(1.0, np.abs(dense).max())


def test_solver_failure_carries_residual_history(monkeypatch):
    # a bound below the residual that the factorization achieves
    mesh, spec, fld, top = shaft_problem(n_radial=32, n_axial=10)
    system = assemble(spec, fld, "elasticity")
    achieved = solve(system).residual
    assert 0.0 < achieved <= 1e-10
    monkeypatch.setattr(fem, "BACKWARD_ERROR_TOL", achieved / 10.0)
    with pytest.raises(SolverFailure, match="BACKWARD_ERROR_TOL") as err:
        solve(system)
    assert err.value.residual == achieved


def test_indefinite_matrix_flagged_dense_and_iterative():
    # negative definite and singular free blocks of assembled systems
    for physics in ("elasticity", "conduction"):
        mesh, spec, fld = _loaded_box(physics)
        assembled = assemble(spec, fld, physics)
        for scale in (-1.0, 0.0):
            K = assembled.K.copy()
            K.data *= scale
            with pytest.raises(WellPosednessError, match="dpbtrf"):
                solve(dataclasses.replace(assembled, K=K))


def test_conduction_bar_linear_profile_exact():
    mesh = generate_box_mesh(1, 1, 6, [1.0, 1.0, 6.0])
    z = mesh.vertices[:, 2]
    doc = {"vertex_annotations": {}}
    for v in np.flatnonzero(z == 0.0):
        doc["vertex_annotations"][str(int(v))] = {"temperature": 300.0}
    for v in np.flatnonzero(z == 6.0):
        doc["vertex_annotations"][str(int(v))] = {"temperature": 420.0}
    spec = bind_to_mesh(layer_from_dict(doc), mesh)
    fld = MaterialField.uniform(mesh.n_elements, conductivity=0.5)
    sol = solve(assemble(spec, fld, "conduction"))
    exact = 300.0 + 120.0 * z / 6.0
    assert np.abs(sol.values - exact).max() < 1e-10
    # two conductivities in series: interface temperature from the
    # resistance ratio, T_i = T0 + dT * R1 / (R1 + R2)
    from semfab.mesh import layer_partition

    part = layer_partition(mesh, 3.0)
    fld2 = fld.copy()
    fld2.conductivity[part.layers[0]] = 1.0
    fld2.conductivity[part.layers[1]] = 3.0
    sol2 = solve(assemble(spec, fld2, "conduction"))
    t_interface = sol2.values[np.flatnonzero(z == 3.0)]
    assert_allclose(t_interface, 390.0, atol=1e-8)


def test_solution_invariant_under_vertex_permutation():
    rng = np.random.default_rng(23)
    mesh, spec, fld, top = shaft_problem(n_radial=8, n_axial=3)
    sol = solve(assemble(spec, fld, "elasticity"))

    perm = rng.permutation(mesh.n_vertices)
    new_vertices = np.empty_like(mesh.vertices)
    new_vertices[perm] = mesh.vertices
    iso_mesh = VolumetricMesh(new_vertices, perm[mesh.tets])
    doc = spec.layer.to_dict()
    doc["vertex_annotations"] = {
        str(int(perm[int(k)])): v for k, v in doc["vertex_annotations"].items()
    }
    iso_spec = bind_to_mesh(layer_from_dict(doc), iso_mesh)
    iso_sol = solve(assemble(iso_spec, fld, "elasticity"))
    assert np.abs(iso_sol.values[perm] - sol.values).max() < 1e-10


def test_compliance_decreases_when_any_element_stiffens():
    mesh = generate_box_mesh(1, 1, 2, [1.0, 1.0, 2.0])
    z = mesh.vertices[:, 2]
    top = np.flatnonzero(z == 2.0)
    extra = {str(int(v)): {"force": [0.5, 0.0, -1.0]} for v in top}
    spec = fixed_bottom_spec(mesh, extra)
    base = MaterialField.uniform(mesh.n_elements, young=100.0, poisson=0.3)
    system = assemble(spec, base, "elasticity")
    sol = solve(system)
    compliance = float(system.plan.f_ext @ sol.values.reshape(-1))
    for e in range(mesh.n_elements):
        stiffer = base.with_values([e], "young", 130.0)
        system_e = assemble(spec, stiffer, "elasticity")
        sol_e = solve(system_e)
        c_e = float(system_e.plan.f_ext @ sol_e.values.reshape(-1))
        assert c_e <= compliance + 1e-12 * abs(compliance)


def test_adjoint_solve_matches_direct_inverse():
    for n_radial, n_axial in ((8, 3), (32, 10)):  # a small and a large block
        mesh, spec, fld, top = shaft_problem(n_radial=n_radial, n_axial=n_axial)
        system = assemble(spec, fld, "elasticity")
        w = np.zeros(3 * mesh.n_vertices)
        w[3 * int(top[0]) + 2] = 1.0
        lam = adjoint_solve(system, w)
        free = system.plan.free
        K_ff = system.K[free][:, free].toarray()
        expected = np.linalg.solve(K_ff, w[free])
        assert_allclose(lam[free], expected,
                        atol=1e-9 * np.abs(expected).max())
        assert np.abs(lam[system.plan.prescribed]).max() == 0.0


def _reference_K(mesh, fld, physics):
    """Global K by a per-call COO build from the direct element kernels."""
    from semfab import _kernels

    if physics == "elasticity":
        dpv = 3
        mats = fld.young[:, None, None] * _kernels.elasticity_matrices(
            mesh.vertices, mesh.tets, fld.poisson)
    else:
        dpv = 1
        mats = fld.conductivity[:, None, None] * _kernels.conduction_matrices(
            mesh.vertices, mesh.tets)
    em = (mesh.tets[:, :, None] * dpv + np.arange(dpv)).reshape(
        mesh.n_elements, -1)
    k = em.shape[1]
    rows = np.repeat(em, k, axis=1).reshape(-1)
    cols = np.tile(em, (1, k)).reshape(-1)
    ndof = dpv * mesh.n_vertices
    return scipy.sparse.coo_matrix(
        (mats.reshape(-1), (rows, cols)), shape=(ndof, ndof)).tocsr()


def _random_field(rng, m, poisson):
    return MaterialField(
        young=rng.uniform(1.0, 500.0, m),
        poisson=poisson,
        conductivity=rng.uniform(0.05, 5.0, m),
        density=np.ones(m),
        provenance=np.full(m, "commanded", dtype="<U9"),
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       physics=st.sampled_from(["elasticity", "conduction"]))
def test_plan_assembly_matches_coo_reference(seed, physics):
    rng = np.random.default_rng(seed)
    mesh = generate_box_mesh(2, 2, 3, [1.0, 1.3, 2.0])
    jitter = rng.uniform(-0.05, 0.05, mesh.vertices.shape)
    mesh = VolumetricMesh(mesh.vertices + jitter, mesh.tets)
    z = mesh.vertices[:, 2]
    bottom = np.flatnonzero(z < 0.1)
    doc = {"vertex_annotations": {str(int(v)): {"displacement": "fixed",
                                                "temperature": 300.0}
                                  for v in bottom}}
    for v in np.flatnonzero(z > 1.9):
        doc["vertex_annotations"][str(int(v))] = {"force": [0.1, 0.0, -1.0],
                                                  "flux": 0.5}
    spec = bind_to_mesh(layer_from_dict(doc), mesh)
    m = mesh.n_elements
    poisson = rng.uniform(-0.5, 0.45, m)
    fields = [_random_field(rng, m, poisson) for _ in range(2)]
    # other Poisson ratios than the plan was built with
    fields.append(_random_field(rng, m, rng.uniform(-0.5, 0.45, m)))
    plan = fem.assembly_plan(spec, physics, fields[0])
    for fld in fields:
        system = assemble(spec, fld, physics, plan=plan)
        ref = _reference_K(mesh, fld, physics)
        scale = abs(ref).max()
        assert abs(system.K - ref).max() <= 1e-12 * scale
        free, fixed = system.plan.free, system.plan.prescribed
        ref_ff = ref[free][:, free]
        assert abs(system.K[free][:, free] - ref_ff).max() <= 1e-12 * scale
        ref_rhs = system.plan.f_ext[free] - ref[free][:, fixed] @ \
            system.plan.u_prescribed[fixed]
        assert np.abs(system.rhs - ref_rhs).max() <= \
            1e-12 * np.abs(ref_rhs).max()


def test_adjoint_reuses_the_primal_factor(monkeypatch):
    factorizations = []
    original = scipy.linalg.lapack.dpbtrf

    def counted(*args, **kwargs):
        factorizations.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", counted)
    for n_radial, n_axial in ((8, 3), (32, 10)):
        mesh, spec, fld, top = shaft_problem(n_radial=n_radial,
                                             n_axial=n_axial)
        system = assemble(spec, fld, "elasticity")
        factorizations.clear()
        solve(system)
        free = system.plan.free
        K_ff = system.K[free][:, free].toarray()
        for v in top[:2]:
            w = np.zeros(3 * mesh.n_vertices)
            w[3 * int(v) + 2] = 1.0
            lam = adjoint_solve(system, w)
            expected = np.linalg.solve(K_ff, w[free])
            residual = np.linalg.norm(K_ff @ lam[free] - w[free])
            assert residual <= fem.BACKWARD_ERROR_TOL * np.linalg.norm(w)
            assert_allclose(lam[free], expected,
                            atol=1e-9 * np.abs(expected).max())
        assert len(factorizations) == 1


def test_dense_path_checks_the_residual_guard_too(monkeypatch):
    # the larger-mesh twin is test_solver_failure_carries_residual_history
    mesh, spec, fld, top = shaft_problem(n_radial=8, n_axial=3)
    system = assemble(spec, fld, "elasticity")
    sol = solve(system)
    assert 0.0 < sol.residual <= fem.BACKWARD_ERROR_TOL
    monkeypatch.setattr(fem, "BACKWARD_ERROR_TOL", sol.residual / 10.0)
    with pytest.raises(SolverFailure) as err:
        solve(system)
    assert err.value.residual == sol.residual


def test_solve_allocates_nothing_square_in_the_free_dofs():
    # a 1x1x20 bar has 240 free dofs; one n x n float64 array is over the
    # bound, while its band factor is 15 x n
    mesh = generate_box_mesh(1, 1, 20, [1.0, 1.0, 20.0])
    system = assemble(fixed_bottom_spec(mesh),
                      MaterialField.uniform(mesh.n_elements), "elasticity")
    n = system.plan.free.size
    assert n == 240
    tracemalloc.start()
    try:
        solve(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * np.dtype(np.float64).itemsize


def test_fully_prescribed_system_has_nothing_to_factor():
    mesh = generate_box_mesh(1, 1, 1, [1.0, 1.0, 1.0])
    temps = 300.0 + np.arange(mesh.n_vertices)
    doc = {"vertex_annotations": {str(v): {"temperature": float(t)}
                                  for v, t in enumerate(temps)}}
    spec = bind_to_mesh(layer_from_dict(doc), mesh)
    sol = solve(assemble(spec, MaterialField.uniform(mesh.n_elements),
                         "conduction"))
    assert np.array_equal(sol.values, temps)
    assert sol.residual == 0.0


def test_one_norm_is_the_largest_absolute_column_sum():
    # read off the band, whose lower entries stand for both triangles
    for physics in ("elasticity", "conduction"):
        for case in range(_N_PATTERN_CASES):
            mesh, spec, fld = _pattern_problem(case)
            system = assemble(spec, fld, physics)
            free = system.plan.free
            K_ff = system.K[free][:, free].toarray()
            expected = np.abs(K_ff).sum(axis=0).max()
            assert fem._one_norm(system) == pytest.approx(expected,
                                                          rel=1e-15)
        mesh, spec, fld = _every_vertex_prescribed()
        assert fem._one_norm(assemble(spec, fld, physics)) == 0.0


def _loaded_box(physics):
    """An assembled 2x2x4 box, bottom held, top pulled or heated, with
    uneven parameters."""
    mesh = generate_box_mesh(2, 2, 4, [1.0, 1.0, 4.0])
    z = mesh.vertices[:, 2]
    doc = {"vertex_annotations": {str(int(v)): {"displacement": "fixed",
                                                "temperature": 300.0}
                                  for v in np.flatnonzero(z == 0.0)}}
    for v in np.flatnonzero(z == 4.0):
        doc["vertex_annotations"][str(int(v))] = {"force": [0.3, 0.0, -1.0],
                                                  "flux": 0.5}
    spec = bind_to_mesh(layer_from_dict(doc), mesh)
    m = mesh.n_elements
    fld = _random_field(np.random.default_rng(5), m, np.full(m, 0.3))
    return mesh, spec, fld


@pytest.mark.parametrize("physics", ["elasticity", "conduction"])
def test_solves_match_scipy_banded_cholesky_bit_for_bit(physics):
    mesh, spec, fld = _loaded_box(physics)
    planned = assemble(spec, fld, physics)
    order, bw, src, slots = planned.plan.band
    ab = np.zeros((bw + 1, order.size), order="F")
    ab.reshape(-1, order="F")[slots] = planned.K.data[src]
    chol = scipy.linalg.cholesky_banded(ab, lower=True)
    w = np.random.default_rng(6).normal(size=planned.plan.f_ext.size)

    def reference(b):
        x = np.empty(b.size)
        x[order] = scipy.linalg.cho_solve_banded((chol, True), b[order])
        return x

    free = planned.plan.free
    u = solve(planned).values.reshape(-1)[free]
    assert np.array_equal(u, reference(planned.rhs))
    lam = adjoint_solve(planned, w)[free]
    assert np.array_equal(lam, reference(w[free]))


def _fixed_bottom_system(case, physics):
    """The 60-tet bar or the shaft, bottom held in both physics, top loaded,
    assembled with uneven parameters."""
    mesh = (generate_box_mesh(1, 1, 10, [1.0, 1.0, 10.0]) if case == "bar"
            else generate_shaft_mesh(1.0, 4.0, 9, 3))
    z = mesh.vertices[:, 2]
    doc = {"vertex_annotations": {str(int(v)): {"displacement": "fixed",
                                                "temperature": 300.0}
                                  for v in np.flatnonzero(z == z.min())}}
    for v in np.flatnonzero(z == z.max()):
        doc["vertex_annotations"][str(int(v))] = {"force": [0.3, 0.0, -1.0],
                                                  "flux": 0.5}
    spec = bind_to_mesh(layer_from_dict(doc), mesh)
    m = mesh.n_elements
    fld = _random_field(np.random.default_rng(7), m, np.full(m, 0.3))
    return assemble(spec, fld, physics)


@pytest.mark.parametrize("case, physics", [("bar", "elasticity"),
                                           ("bar", "conduction"),
                                           ("shaft", "elasticity")])
def test_plan_band_is_lapacks_lower_band_of_the_reordered_free_block(
        case, physics):
    system = _fixed_bottom_system(case, physics)
    order, bw, src, slots = system.plan.band
    n = order.size
    ab = np.zeros((bw + 1, n), order="F")
    ab.reshape(-1, order="F")[slots] = system.K.data[src]
    free = system.plan.free
    A = system.K[free][:, free].toarray()[np.ix_(order, order)]
    # LAPACK's lower band: ab[i - j, j] = A[i, j] for j <= i <= j + bw
    want = np.zeros((bw + 1, n))
    for j in range(n):
        rows = np.arange(j, min(j + bw + 1, n))
        want[rows - j, j] = A[rows, j]
    assert np.array_equal(ab, want)
    # the band holds the whole reordered pattern, and no wider band would
    pattern = scipy.sparse.csr_matrix(
        (np.ones(system.K.nnz), system.K.indices, system.K.indptr),
        shape=system.K.shape)[free][:, free].toarray()[np.ix_(order, order)]
    i, j = np.nonzero(pattern)
    assert np.abs(i - j).max() == bw


def test_a_passing_solve_leaves_the_norm_until_residual_is_read(monkeypatch):
    norms = []
    original = fem._one_norm

    def counted(*args):
        norms.append(1)
        return original(*args)

    monkeypatch.setattr(fem, "_one_norm", counted)
    mesh, spec, fld, top = shaft_problem(n_radial=8, n_axial=3)
    system = assemble(spec, fld, "elasticity")
    sol = solve(system)
    w = np.zeros(3 * mesh.n_vertices)
    w[3 * int(top[0]) + 2] = 1.0
    adjoint_solve(system, w)
    assert norms == [] and "residual" not in vars(sol)

    # the guard's formula, from the solution's own x
    free = system.plan.free
    x = sol.values.reshape(-1)[free]
    padded = np.zeros(system.K.shape[0])
    padded[free] = x
    r = np.abs((system.K @ padded)[free] - system.rhs).sum()
    norm = original(system)
    want = float(r / max(norm * np.abs(x).sum() + np.abs(system.rhs).sum(),
                         np.finfo(np.float64).tiny))
    assert 0.0 < sol.residual == want
    assert norms == [1]
    # once per system: a second solution reads the same norm
    assert solve(system).residual == want
    assert norms == [1]
    # the guard passes a solve exactly when its backward error meets the
    # bound
    monkeypatch.setattr(fem, "BACKWARD_ERROR_TOL", want)
    solve(system)
    monkeypatch.setattr(fem, "BACKWARD_ERROR_TOL", np.nextafter(want, 0.0))
    with pytest.raises(SolverFailure) as err:
        solve(system)
    assert err.value.residual == want


def test_an_evaluation_builds_one_sparse_matrix(monkeypatch):
    mesh, spec, fld = _loaded_box("elasticity")
    plan = fem.assembly_plan(spec, "elasticity", fld)
    built = []
    original = scipy.sparse._base._spbase.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        original(self, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse._base._spbase, "__init__", counted)
    system = assemble(spec, fld, "elasticity", plan=plan)
    sol = solve(system)
    adjoint_solve(system, np.ones(system.plan.f_ext.size))
    assert built == ["csr_matrix"]
    # reactions wait until they are read
    assert "reactions" not in vars(sol)
    U = sol.values.reshape(-1)
    want = (system.K @ U - system.plan.f_ext)[system.plan.prescribed]
    got = np.concatenate([sol.reactions[v] for v in sorted(sol.reactions)])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("physics", ["elasticity", "conduction"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_assemble_rejects_a_non_finite_parameter(physics, bad):
    mesh, spec, fld = _loaded_box(physics)
    plan = fem.assembly_plan(spec, physics, fld)
    name = "young" if physics == "elasticity" else "conductivity"
    broken = fld.with_values([3], name, bad)
    for p in (plan, None):
        with pytest.raises(ValueError, match="positive and finite"):
            assemble(spec, broken, physics, plan=p)
    if physics == "elasticity":
        broken = fld.with_values([3], "poisson", bad)
        for p in (plan, None):
            with pytest.raises(ValueError, match="poisson"):
                assemble(spec, broken, physics, plan=p)


@pytest.mark.parametrize("physics", ["elasticity", "conduction"])
def test_assemble_rejects_a_finite_parameter_outside_its_range(physics):
    # the finite values the ranges leave out: E or D not positive, and the
    # Poisson ratio at either end of (-1, 0.5)
    mesh, spec, fld = _loaded_box(physics)
    plan = fem.assembly_plan(spec, physics, fld)
    name = "young" if physics == "elasticity" else "conductivity"
    cases = [(fld.with_values([3], name, bad), "positive and finite")
             for bad in (0.0, -1.0)]
    if physics == "elasticity":
        cases += [(fld.with_values([3], "poisson", bad), "poisson")
                  for bad in (0.5, -1.0)]
    for broken, match in cases:
        for p in (plan, None):
            with pytest.raises(ValueError, match=match):
                assemble(spec, broken, physics, plan=p)


@pytest.mark.parametrize("physics", ["elasticity", "conduction"])
def test_a_parameter_without_a_value_is_named_not_blamed_on_its_range(
        physics):
    # the achieved field of a print stopped before its last layer holds
    # NaN on the elements it never printed
    mesh = generate_box_mesh(1, 1, 2, [1.0, 1.0, 2.0])
    z = mesh.vertices[:, 2]
    doc = {"vertex_annotations": {str(int(v)): {"displacement": "fixed",
                                                "temperature": 300.0}
                                  for v in np.flatnonzero(z == 0.0)}}
    spec = bind_to_mesh(layer_from_dict(doc), mesh)
    fld = MaterialField.uniform(mesh.n_elements, young=1.0, poisson=0.3)
    plan = fem.assembly_plan(spec, physics, fld)
    unprinted = np.arange(6, mesh.n_elements)
    assert unprinted.size == 6
    aborted = fld
    for name in PARAMETERS:
        aborted = aborted.with_values(unprinted, name, np.nan)
    name = "young modulus" if physics == "elasticity" else "conductivity"
    cases = [(aborted, name)]
    if physics == "elasticity":
        cases.append((fld.with_values(unprinted, "poisson", np.nan),
                      "poisson ratio"))
    for broken, name in cases:
        for p in (plan, None):
            with pytest.raises(ValueError) as err:
                assemble(spec, broken, physics, plan=p)
            assert str(err.value).startswith(
                f"{name} has no value at 6 element(s), the first is "
                f"element 6;")


def test_a_bound_no_solve_can_meet_fails_solve_and_adjoint(monkeypatch):
    mesh, spec, fld, top = shaft_problem(n_radial=8, n_axial=3)
    system = assemble(spec, fld, "elasticity")
    w = np.zeros(3 * mesh.n_vertices)
    w[3 * int(top[0]) + 2] = 1.0
    monkeypatch.setattr(fem, "BACKWARD_ERROR_TOL", 0.0)
    with pytest.raises(SolverFailure):
        solve(system)
    with pytest.raises(SolverFailure):
        adjoint_solve(system, w)


# ---------------------------------------------------------------------------
# the plan's pattern against the dof-key construction


def _dof_key_pattern(mesh, dpv, free):
    """scatter, K's CSR pattern and K_ff's band, from the sorted unique
    keys row * ndof + col of every element entry."""
    em = (mesh.tets[:, :, None] * dpv + np.arange(dpv)).reshape(
        mesh.n_elements, -1)
    k = em.shape[1]
    ndof = dpv * mesh.n_vertices
    rows = np.repeat(em, k, axis=1).reshape(-1)
    cols = np.tile(em, (1, k)).reshape(-1)
    keys, scatter = np.unique(rows * ndof + cols, return_inverse=True)
    counts = np.bincount(keys // ndof, minlength=ndof)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    slots = scipy.sparse.csr_matrix(
        (np.arange(1, keys.size + 1), keys % ndof, indptr), shape=(ndof, ndof)
    )
    ff = slots[free][:, free].tocsc()
    ff.sort_indices()
    return {
        "scatter": scatter,
        "indptr": slots.indptr,
        "indices": slots.indices,
        "band": fem._band_layout(ff),
    }


def _pattern_cases():
    rng = np.random.default_rng(4)
    box = generate_box_mesh(2, 3, 4, [1.0, 1.5, 2.0])
    perm = rng.permutation(box.n_vertices)
    vertices = np.empty_like(box.vertices)
    vertices[perm] = box.vertices + rng.uniform(-0.05, 0.05,
                                                box.vertices.shape)
    relabelled = VolumetricMesh(vertices, perm[box.tets])
    shaft = generate_shaft_mesh(1.0, 4.0, 9, 3)
    # vertex k, which no tet references, sits among the others: its rows of
    # K stay empty
    k = _UNREFERENCED
    unreferenced = VolumetricMesh(
        np.insert(box.vertices, k, [0.5, 0.75, 1.0], axis=0),
        box.tets + (box.tets >= k))
    # tet 20 listed again as tet 7: both copies scatter to the same slots
    duplicated = VolumetricMesh(box.vertices,
                                np.insert(box.tets, 7, box.tets[20], axis=0))
    # the tets in an order unrelated to the vertex order
    shuffled = VolumetricMesh(box.vertices,
                              box.tets[rng.permutation(box.n_elements)])
    return [box, relabelled, shaft, unreferenced, duplicated, shuffled]


_UNREFERENCED = 29  # the unreferenced vertex of `_pattern_cases()[3]`
_N_PATTERN_CASES = 6


def _pattern_problem(case):
    """(mesh, spec, field) of a `_pattern_cases` mesh with its bottom fixed
    in both physics and Poisson ratios from -0.3 to 0.45."""
    mesh = _pattern_cases()[case]
    z = mesh.vertices[:, 2]
    doc = {"vertex_annotations": {
        str(int(v)): {"displacement": "fixed", "temperature": 300.0}
        for v in np.flatnonzero(z < z.min() + 0.15)}}
    spec = bind_to_mesh(layer_from_dict(doc), mesh)
    m = mesh.n_elements
    fld = _random_field(np.random.default_rng(case), m,
                        np.linspace(-0.3, 0.45, m))
    return mesh, spec, fld


def _unit_and_parameter(mesh, fld, physics):
    """Element matrices at unit parameter, (m, k, k), and the parameter K
    is linear in, from the element kernels."""
    if physics == "elasticity":
        return (_kernels.elasticity_matrices(mesh.vertices, mesh.tets,
                                             fld.poisson), fld.young)
    return (_kernels.conduction_matrices(mesh.vertices, mesh.tets),
            fld.conductivity)


@pytest.mark.parametrize("physics", ["elasticity", "conduction"])
@pytest.mark.parametrize("case", range(_N_PATTERN_CASES))
def test_plan_pattern_matches_the_dof_key_construction(physics, case):
    mesh, spec, fld = _pattern_problem(case)
    plan = fem.assembly_plan(spec, physics, fld)
    ref = _dof_key_pattern(mesh, plan.dofs_per_vertex, plan.free)
    plan_arrays = {"indptr": plan.pattern.indptr,
                   "indices": plan.pattern.indices}
    for name, got in plan_arrays.items():
        want = ref[name]
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    # the assembly operator's row indices are the scatter, in int32
    assert plan.S.indices.dtype == np.int32
    assert np.array_equal(plan.S.indices, ref["scatter"])
    order, bw, src, slots = plan.band
    want_order, want_bw, want_src, want_slots = ref["band"]
    assert bw == want_bw
    for got, want in ((order, want_order), (src, want_src),
                      (slots, want_slots)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("physics", ["elasticity", "conduction"])
@pytest.mark.parametrize("case", range(_N_PATTERN_CASES))
def test_operator_assembly_is_the_bincount_sum_bit_for_bit(physics, case):
    # K.data = S @ p adds each slot's entries in ascending element order,
    # the order of a bincount over the flattened (m, k, k) entries
    mesh, spec, fld = _pattern_problem(case)
    plan = fem.assembly_plan(spec, physics, fld)
    ref = _dof_key_pattern(mesh, plan.dofs_per_vertex, plan.free)
    unit, p = _unit_and_parameter(mesh, fld, physics)
    want = np.bincount(ref["scatter"],
                       weights=(p[:, None, None] * unit).reshape(-1),
                       minlength=plan.pattern.indices.size)
    got = assemble(spec, fld, physics, plan=plan).K.data
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("physics", ["elasticity", "conduction"])
def test_assembly_shares_the_plans_index_arrays(physics):
    # each K is a copy of the plan's pattern with data of its own; no index
    # array is copied per evaluation
    mesh, spec, fld = _pattern_problem(0)
    plan = fem.assembly_plan(spec, physics, fld)
    first = assemble(spec, fld, physics, plan=plan).K
    second = assemble(spec, fld, physics, plan=plan).K
    for K in (first, second):
        assert np.shares_memory(K.indices, plan.pattern.indices)
        assert np.shares_memory(K.indptr, plan.pattern.indptr)
        assert not np.shares_memory(K.data, plan.pattern.data)
    assert not np.shares_memory(first.data, second.data)
    assert not plan.pattern.data.any()


@pytest.mark.parametrize("physics", ["elasticity", "conduction"])
@pytest.mark.parametrize("case", range(_N_PATTERN_CASES))
def test_element_sensitivity_matches_the_einsum_contraction(physics, case):
    mesh, spec, fld = _pattern_problem(case)
    plan = fem.assembly_plan(spec, physics, fld)
    rng = np.random.default_rng(10 + case)
    dpv = plan.dofs_per_vertex
    maps = (mesh.tets[:, :, None] * dpv + np.arange(dpv)).reshape(
        mesh.n_elements, -1)
    # the plan's own ratios, then others, which assemble from a plan of
    # their own
    other = _random_field(rng, mesh.n_elements,
                          rng.uniform(-0.5, 0.45, mesh.n_elements))
    for f in (fld, other):
        system = assemble(spec, f, physics, plan=plan)
        lam = rng.normal(size=dpv * mesh.n_vertices)
        u = rng.normal(size=lam.size)
        unit, _ = _unit_and_parameter(mesh, f, physics)
        want = np.einsum("ei,eij,ej->e", lam[maps], unit, u[maps])
        got = fem.element_sensitivity(system, lam, u)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_an_unreferenced_vertex_has_empty_rows_and_a_repeated_tet_its_slots():
    unreferenced, duplicated = _pattern_cases()[3:5]
    for dpv in (1, 3):
        indptr, _, _ = fem._pattern(unreferenced.tets,
                                    unreferenced.n_vertices, dpv)
        k = _UNREFERENCED
        assert indptr[k * dpv] == indptr[(k + 1) * dpv]  # no diagonal either
        _, _, scatter = fem._pattern(duplicated.tets, duplicated.n_vertices,
                                     dpv)
        scatter = scatter.reshape(duplicated.n_elements, -1)
        assert np.array_equal(scatter[7], scatter[21])


@pytest.mark.parametrize("n_vertices", [46341, 46342])
def test_pattern_keys_on_each_side_of_the_int32_bound(n_vertices):
    # the edge keys lo*n + hi are int32 up to n = 46341, where the largest,
    # (n - 2)*n + n - 1, is the last to fit; a tets-only stand-in whose tets
    # hold the highest vertex ids makes keys that close to the bound
    n = n_vertices
    tets = np.array([[0, 1, 2, 3], [n - 4, n - 3, n - 2, n - 1],
                     [n - 5, n - 1, n - 3, n - 2], [n - 1, 1, 0, n - 2]])
    stand_in = dataclasses.make_dataclass(
        "StandIn", ["tets", "n_vertices", "n_elements"])(tets, n, len(tets))
    for dpv in (1, 3):
        indptr, indices, scatter = fem._pattern(tets, n, dpv)
        ref = _dof_key_pattern(stand_in, dpv, np.zeros(0, dtype=np.int64))
        for got, want in ((indptr, ref["indptr"]),
                          (indices, ref["indices"])):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(scatter, ref["scatter"])


def _every_vertex_prescribed():
    """(mesh, spec, field) of a 1x1x2 box whose every vertex has its
    displacement and temperature prescribed."""
    mesh = generate_box_mesh(1, 1, 2, [1.0, 1.0, 2.0])
    doc = {"vertex_annotations": {
        str(v): {"displacement": [0.01 * v, -0.02 * v, 0.5],
                 "temperature": 300.0 + v}
        for v in range(mesh.n_vertices)}}
    spec = bind_to_mesh(layer_from_dict(doc), mesh)
    return mesh, spec, MaterialField.uniform(mesh.n_elements)


@pytest.mark.parametrize("physics", ["elasticity", "conduction"])
def test_a_plan_with_every_vertex_prescribed_has_an_empty_band(physics):
    # RCM's empty graph: K_ff has no entry, so there is nothing to order or
    # factor, and a solve returns the prescribed values
    mesh, spec, fld = _every_vertex_prescribed()
    n = mesh.n_vertices
    plan = fem.assembly_plan(spec, physics, fld)
    order, bw, src, slots = plan.band
    assert order.size == 0 and bw == 0 and src.size == 0 and slots.size == 0
    assert plan.free.size == 0
    ref = _dof_key_pattern(mesh, plan.dofs_per_vertex, plan.free)
    assert ref["band"][0].dtype == order.dtype and ref["band"][1] == bw
    values = solve(assemble(spec, fld, physics, plan=plan)).values
    if physics == "elasticity":
        want = np.column_stack([0.01 * np.arange(n), -0.02 * np.arange(n),
                                np.full(n, 0.5)])
    else:
        want = 300.0 + np.arange(n)
    assert np.array_equal(values, want)


def test_plans_systems_and_solutions_compare_by_identity():
    # they hold arrays, so == compares identity and hash is the object's
    mesh = generate_box_mesh(1, 1, 2, [1.0, 1.0, 2.0])
    top = np.flatnonzero(mesh.vertices[:, 2] == 2.0)
    spec = fixed_bottom_spec(mesh, {str(int(v)): {"force": [0.0, 0.0, -1.0]}
                                    for v in top})
    fld = MaterialField.uniform(mesh.n_elements)
    first = assemble(spec, fld, "elasticity")
    second = assemble(spec, fld, "elasticity")
    pairs = ((first.plan, second.plan), (first, second),
             (solve(first), solve(second)))
    for a, b in pairs:
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2
    replaced = dataclasses.replace(first, K=first.K.copy())
    assert isinstance(replaced, fem.FemSystem) and replaced != first
    assert replaced.plan is first.plan
    assert np.array_equal(solve(replaced).values, pairs[2][0].values)


def test_plan_peak_memory_stays_near_what_it_keeps():
    # the 4x4x12 bar: 1152 tets, 12 x 12 entries each
    mesh = generate_box_mesh(4, 4, 12, [4.0, 4.0, 12.0])
    spec = fixed_bottom_spec(mesh)
    fld = MaterialField.uniform(mesh.n_elements)
    mesh.volumes()  # cached on the mesh, not part of the plan
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        plan = fem.assembly_plan(spec, "elasticity", fld)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.S.indices.size == mesh.n_elements * 144
    assert peak - before < 2.5 * (kept - before)
