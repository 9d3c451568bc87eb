"""Shared builders for closed-loop scenarios used across test modules."""

import hashlib

import numpy as np

from semfab import _kernels, fem, mesh, optimize, semantics


def record_primal_solves(monkeypatch):
    """Wraps `fem.solve`; the returned list gets one (physics, digest of
    K.data) key per call, so a field solved twice shows as a repeated key."""
    keys = []
    original = fem.solve

    def keyed(system, *args, **kwargs):
        digest = hashlib.blake2b(system.K.data.tobytes(), digest_size=16)
        keys.append((system.plan.physics, digest.hexdigest()))
        return original(system, *args, **kwargs)

    monkeypatch.setattr(fem, "solve", keyed)
    return keys


def element_matrix(coords, parameter, poisson=None):
    """The matrix of the one tet `coords` from the unit matrices every
    assembly plan is built with, scaled as a plan scales them: the 12x12
    stiffness at Young's modulus `parameter` and Poisson ratio `poisson`,
    or, without a Poisson ratio, the 4x4 conductance at conductivity
    `parameter`."""
    coords = np.asarray(coords, dtype=np.float64)
    tets = np.array([[0, 1, 2, 3]], dtype=np.int64)
    if poisson is None:
        unit = _kernels.conduction_matrices(coords, tets)
    else:
        unit = _kernels.elasticity_matrices(
            coords, tets, np.array([poisson], dtype=np.float64))
    return float(parameter) * unit[0]


def consistent_face_loads(m, verts, total_force):
    """Nodal forces equivalent to a uniform traction over the face covered by
    `verts`, assembled triangle by triangle (area/3 to each corner)."""
    vset = set(int(v) for v in verts)
    loads = {v: np.zeros(3) for v in vset}
    area = 0.0
    for tri in mesh.boundary_faces(m):
        if all(int(v) in vset for v in tri):
            pts = m.vertices[tri]
            a = 0.5 * np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0]))
            area += a
            for v in tri:
                loads[int(v)] += np.asarray(total_force, float) * (a / 3.0)
    for v in loads:
        loads[v] /= area
    return loads


def bar_mesh_and_doc(n_layers, d_max, young_box, P=1000.0, cells=1):
    """Cantilever bar mesh plus its annotation document.

    A 1 x 1 section of `cells` x `cells` columns, bottom face fixed,
    distributed load of magnitude P pulling the top face down, tip
    displacement bounded by an annotated property named "tip".
    """
    m = mesh.generate_box_mesh(cells, cells, n_layers,
                               (1.0, 1.0, float(n_layers)))
    bottom = [i for i in range(m.n_vertices) if m.vertices[i, 2] < 1e-9]
    top = [i for i in range(m.n_vertices)
           if m.vertices[i, 2] > n_layers - 1e-9]
    annotations = {str(v): {"displacement": "fixed"} for v in bottom}
    for v, f in consistent_face_loads(m, top, [0.0, 0.0, -P]).items():
        annotations[str(v)] = {"force": [float(c) for c in f]}
    doc = {
        "units": dict(semantics.CANONICAL_UNITS),
        "vertex_annotations": annotations,
        "element_annotations": {"default": {
            "young": list(young_box),
            "poisson": [0.0, 0.0],
            "density": [8e-6, 8e-6],
            "conductivity": [1.0, 1.0],
        }},
        "global_properties": [{
            "name": "tip",
            "quantity": "max_displacement",
            "op": "le",
            "bound": d_max,
            "vertices": [int(v) for v in top],
        }],
    }
    return m, doc


def layered_bar_problem(n_layers, d_max, young_box, P=1000.0,
                        objective="compliance", cells=1):
    """InversionProblem over the young modulus for the annotated bar."""
    m, doc = bar_mesh_and_doc(n_layers, d_max, young_box, P, cells)
    spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)
    return optimize.InversionProblem(spec, objective, parameter="young")


def write_bar_files(dirpath, n_layers, d_max, young_box, P=1000.0):
    """Write the bar mesh and annotation as files, for CLI-level tests."""
    m, doc = bar_mesh_and_doc(n_layers, d_max, young_box, P)
    mesh_path = str(dirpath / "bar_mesh.json")
    ann_path = str(dirpath / "bar_annotation.json")
    mesh.save_mesh(m, mesh_path)
    semantics.save_semantic_layer(semantics.layer_from_dict(doc), ann_path)
    return mesh_path, ann_path


def bar_tip_displacement(problem, values):
    """Ground-truth tip displacement for a given young field."""
    prop = next(p for p in problem.spec.properties if p.name == "tip")
    evaluation = semantics.FieldEvaluation(
        problem.spec, problem.field_for(np.asarray(values, float)))
    return semantics.check(prop, evaluation)[0].measured
