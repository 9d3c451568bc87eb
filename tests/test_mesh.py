import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from semfab.errors import MeshFormatError
from semfab.mesh import (
    _TET_FACES,
    VolumetricMesh,
    boundary_faces,
    face_adjacency,
    generate_box_mesh,
    generate_shaft_mesh,
    layer_partition,
    load_mesh,
    save_mesh,
    validate_mesh,
)


def volume_oracle(mesh):
    """Tet volumes via the 4x4 homogeneous determinant, det([1 | p_i])/6."""
    p = mesh.vertices[mesh.tets]  # (m, 4, 3)
    m = np.concatenate([np.ones((p.shape[0], 4, 1)), p], axis=2)
    return np.linalg.det(m) / 6.0


def test_unit_cube_counts():
    mesh = generate_box_mesh(1, 1, 1, [1.0, 1.0, 1.0])
    assert mesh.n_vertices == 8
    assert mesh.n_elements == 6
    vols = mesh.volumes()
    assert np.all(vols > 0)
    assert_allclose(vols.sum(), 1.0, rtol=1e-12)


def test_two_cell_box_counts():
    mesh = generate_box_mesh(2, 1, 1, [2.0, 1.0, 1.0])
    assert mesh.n_vertices == 12
    assert mesh.n_elements == 12
    assert_allclose(mesh.volumes().sum(), 2.0, rtol=1e-12)


def test_box_volume_against_determinant_oracle():
    mesh = generate_box_mesh(3, 3, 3, [1.0, 1.0, 1.0])
    oracle = volume_oracle(mesh)
    assert np.all(oracle > 0)
    assert_allclose(oracle.sum(), 1.0, rtol=1e-12)
    assert_allclose(mesh.volumes(), oracle, rtol=1e-10)


@pytest.mark.parametrize("nx,ny,nz", [(1, 1, 1), (3, 2, 1), (2, 3, 4)])
def test_box_boundary_face_count(nx, ny, nz):
    mesh = generate_box_mesh(nx, ny, nz, [1.0, 2.0, 3.0])
    faces = boundary_faces(mesh)
    assert faces.shape[0] == 4 * (nx * ny + ny * nz + nx * nz)


def test_boundary_faces_point_outward():
    mesh = generate_box_mesh(2, 2, 2, [1.0, 1.0, 1.0])
    faces = boundary_faces(mesh)
    p = mesh.vertices[faces]
    normals = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    outward = p.mean(axis=1) - np.array([0.5, 0.5, 0.5])
    assert np.all(np.einsum("ij,ij->i", normals, outward) > 0)


@pytest.mark.parametrize("n_radial,rtol", [(8, 0.10), (64, 0.002)])
def test_shaft_volume_deficit(n_radial, rtol):
    mesh = generate_shaft_mesh(1.0, 10.0, n_radial, 10)
    analytic = np.pi * 10.0
    vol = volume_oracle(mesh).sum()
    assert abs(vol - analytic) / analytic < rtol
    # the inscribed polygon volume itself is matched nearly exactly
    polygon = 0.5 * n_radial * np.sin(2 * np.pi / n_radial) * 10.0
    assert_allclose(vol, polygon, rtol=1e-12)


def test_shaft_has_flat_end_faces():
    mesh = generate_shaft_mesh(2.0, 5.0, 12, 4)
    z = mesh.vertices[:, 2]
    assert z.min() == 0.0
    assert z.max() == 5.0
    assert np.sum(z == 0.0) == 13
    assert np.sum(z == 5.0) == 13


def test_generator_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_box_mesh(0, 1, 1, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        generate_box_mesh(1, 1, 1, [1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        generate_shaft_mesh(1.0, 10.0, 2, 10)
    with pytest.raises(ValueError):
        generate_shaft_mesh(-1.0, 10.0, 8, 10)
    with pytest.raises(ValueError):
        generate_shaft_mesh(1.0, 0.0, 8, 10)


def test_validate_clean_meshes():
    assert validate_mesh(generate_box_mesh(2, 2, 2, [1.0, 1.0, 1.0])).ok
    assert validate_mesh(generate_shaft_mesh(1.0, 3.0, 6, 3)).ok


def test_validate_flags_inverted_tet():
    mesh = generate_box_mesh(1, 1, 1, [1.0, 1.0, 1.0])
    tets = mesh.tets.copy()
    tets[2] = tets[2][[1, 0, 2, 3]]
    report = validate_mesh(VolumetricMesh(mesh.vertices, tets))
    assert [(v.kind, v.index) for v in report.violations] == [
        ("nonpositive_volume", 2)
    ]


def test_validate_flags_unreferenced_vertex():
    mesh = generate_box_mesh(1, 1, 1, [1.0, 1.0, 1.0])
    vertices = np.vstack([mesh.vertices, [2.0, 2.0, 2.0]])
    report = validate_mesh(VolumetricMesh(vertices, mesh.tets))
    assert [(v.kind, v.index) for v in report.violations] == [
        ("unreferenced_vertex", 8)
    ]


def test_validate_flags_out_of_range_index():
    mesh = generate_box_mesh(1, 1, 1, [1.0, 1.0, 1.0])
    tets = mesh.tets.copy()
    tets[0, 3] = 99
    kinds = {v.kind for v in validate_mesh(VolumetricMesh(mesh.vertices, tets)).violations}
    assert "vertex_out_of_range" in kinds


def test_validate_flags_overshared_face():
    mesh = generate_box_mesh(1, 1, 1, [1.0, 1.0, 1.0])
    tets = np.vstack([mesh.tets, mesh.tets[0:1]])
    kinds = {v.kind for v in validate_mesh(VolumetricMesh(mesh.vertices, tets)).violations}
    assert "face_overshared" in kinds


def test_layer_partition_single_layer():
    mesh = generate_box_mesh(1, 1, 1, [1.0, 1.0, 1.0])
    part = layer_partition(mesh, 1.0)
    assert part.n_layers == 1
    assert len(part.layers[0]) == mesh.n_elements


def test_layer_partition_equal_thirds():
    mesh = generate_box_mesh(3, 3, 3, [1.0, 1.0, 1.0])
    part = layer_partition(mesh, 1.0 / 3.0)
    assert part.n_layers == 3
    assert [len(layer) for layer in part.layers] == [54, 54, 54]


def test_layer_partition_matches_centroid_binning():
    mesh = generate_shaft_mesh(1.0, 10.0, 8, 10)
    part = layer_partition(mesh, 1.0)
    assert part.n_layers == 10
    zc = mesh.centroids()[:, 2]
    for k, layer in enumerate(part.layers):
        assert len(layer) == mesh.n_elements // 10
        assert np.all((zc[layer] >= k * 1.0) & (zc[layer] < (k + 1) * 1.0))


def test_layer_partition_partial_top_layer():
    mesh = generate_box_mesh(1, 1, 2, [1.0, 1.0, 1.0])
    part = layer_partition(mesh, 0.3)
    assert part.n_layers == 4  # ceil(1.0 / 0.3)


def test_layer_partition_rejects_nonpositive_height():
    mesh = generate_box_mesh(1, 1, 1, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        layer_partition(mesh, 0.0)


@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(1, 4),
    ny=st.integers(1, 4),
    nz=st.integers(1, 4),
    dims=st.tuples(*[st.floats(0.1, 20.0) for _ in range(3)]),
)
def test_generated_boxes_always_validate(nx, ny, nz, dims):
    mesh = generate_box_mesh(nx, ny, nz, list(dims))
    assert validate_mesh(mesh).ok
    assert_allclose(mesh.volumes().sum(), np.prod(dims), rtol=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    radius=st.floats(0.1, 10.0),
    height=st.floats(0.1, 10.0),
    n_radial=st.integers(3, 12),
    n_axial=st.integers(1, 4),
)
def test_generated_shafts_always_validate(radius, height, n_radial, n_axial):
    mesh = generate_shaft_mesh(radius, height, n_radial, n_axial)
    assert validate_mesh(mesh).ok
    assert np.all(volume_oracle(mesh) > 0)


@settings(max_examples=25, deadline=None)
@given(h=st.floats(0.05, 3.0))
def test_layer_partition_is_a_partition(h):
    mesh = generate_box_mesh(2, 2, 3, [1.0, 1.0, 2.0])
    part = layer_partition(mesh, h)
    seen = np.concatenate([layer for layer in part.layers])
    assert len(seen) == mesh.n_elements
    assert len(np.unique(seen)) == mesh.n_elements


@settings(max_examples=25, deadline=None)
@given(h=st.floats(0.05, 3.0))
def test_element_layer_gives_every_layer_in_order(h):
    mesh = generate_shaft_mesh(1.0, 2.0, 6, 3)
    part = layer_partition(mesh, h)
    owner = part.element_layer
    assert owner.dtype == np.intp and owner.shape == (mesh.n_elements,)
    assert not owner.flags.writeable
    for k, layer in enumerate(part.layers):
        assert layer.dtype == np.intp and not layer.flags.writeable
        assert np.array_equal(layer, np.flatnonzero(owner == k))


def test_bbox_diagonal_is_computed_once_per_mesh():
    mesh = generate_box_mesh(2, 3, 4, [2.0, 3.0, 6.0])
    assert mesh.bbox_diagonal() == pytest.approx(7.0, rel=1e-15)
    # a mesh is immutable by contract, so the first value is kept
    mesh.vertices[0] = (-10.0, 0.0, 0.0)
    assert mesh.bbox_diagonal() == pytest.approx(7.0, rel=1e-15)


def test_mesh_json_roundtrip(tmp_path):
    mesh = generate_shaft_mesh(1.5, 4.0, 7, 3)
    path = tmp_path / "shaft.json"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert np.array_equal(mesh.vertices, back.vertices)
    assert np.array_equal(mesh.tets, back.tets)
    assert back.units == "mm"


def test_load_rejects_malformed_documents(tmp_path):
    cases = {
        "missing_tets.json": {"units": {"length": "mm"}, "vertices": [[0, 0, 0]]},
        "bad_units.json": {
            "units": {"length": "furlong"},
            "vertices": [[0, 0, 0]] * 4,
            "tets": [[0, 1, 2, 3]],
        },
        "oob_index.json": {
            "units": {"length": "mm"},
            "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "tets": [[0, 1, 2, 9]],
        },
        "ragged.json": {
            "units": {"length": "mm"},
            "vertices": [[0, 0, 0], [1, 0]],
            "tets": [[0, 1, 2, 3]],
        },
    }
    for name, doc in cases.items():
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        with pytest.raises(MeshFormatError):
            load_mesh(path)
    truncated = tmp_path / "broken.json"
    truncated.write_text('{"vertices": [[0')
    with pytest.raises(MeshFormatError):
        load_mesh(truncated)


# ---------------------------------------------------------------------------
# face grouping against a reference built on np.unique(..., axis=0)


def _oracle_topology(mesh):
    """(face_adjacency, boundary_faces, face violations) by row-wise unique."""
    faces = mesh.tets[:, np.array(_TET_FACES)].reshape(-1, 3)
    keys = np.sort(faces, axis=1)
    uniq, inverse, counts = np.unique(
        keys, axis=0, return_inverse=True, return_counts=True
    )
    elem_of_face = np.argsort(inverse, kind="stable") // 4
    starts = np.cumsum(counts) - counts
    shared = starts[counts == 2]
    pairs = np.column_stack([elem_of_face[shared], elem_of_face[shared + 1]])
    boundary = faces[counts[inverse] == 1]

    violations = []
    for f in np.flatnonzero(counts > 2):
        violations.append(("face_overshared", int(uniq[f][0]),
                           f"face {tuple(int(x) for x in uniq[f])} shared by "
                           f"{counts[f]} tets"))
    bnd = uniq[counts == 1]
    edges = np.sort(bnd[:, [(0, 1), (1, 2), (0, 2)]].reshape(-1, 2), axis=1)
    euniq, ecounts = np.unique(edges, axis=0, return_counts=True)
    for e in np.flatnonzero(ecounts != 2):
        violations.append(("nonmanifold_boundary", int(euniq[e][0]),
                           f"boundary edge {tuple(int(x) for x in euniq[e])} "
                           f"lies on {ecounts[e]} boundary faces"))
    return pairs, boundary, violations


def _relabelled(mesh, rng, jitter):
    """The mesh with shuffled vertex ids and tet order and moved vertices."""
    perm = rng.permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[perm] = mesh.vertices + rng.uniform(-jitter, jitter,
                                                 mesh.vertices.shape)
    tets = perm[mesh.tets][rng.permutation(mesh.n_elements)]
    return VolumetricMesh(vertices, tets)


def _with_tet_on_an_interior_face(mesh):
    """The mesh plus one tet on its first interior face (in the oracle's
    order), so that face belongs to three tets."""
    faces = np.sort(mesh.tets[:, np.array(_TET_FACES)].reshape(-1, 3), axis=1)
    uniq, counts = np.unique(faces, axis=0, return_counts=True)
    a, b, c = uniq[np.flatnonzero(counts == 2)[0]]
    pts = mesh.vertices[[a, b, c]]
    normal = np.cross(pts[1] - pts[0], pts[2] - pts[0])
    apex = pts.mean(axis=0) + 0.1 * normal / np.linalg.norm(normal)
    # the apex lies along (b - a) x (c - a), so (a, b, c, apex) has a
    # positive volume
    vertices = np.vstack([mesh.vertices, apex])
    tets = np.vstack([mesh.tets, [[a, b, c, mesh.n_vertices]]])
    return VolumetricMesh(vertices, tets), (a, b, c)


def _topology_meshes():
    rng = np.random.default_rng(11)
    box = generate_box_mesh(3, 2, 4, [1.0, 2.0, 3.0])
    yield generate_box_mesh(1, 1, 1, [1.0, 1.0, 1.0])
    yield box
    yield generate_box_mesh(5, 4, 3, [2.0, 1.0, 1.5])
    yield _relabelled(box, rng, 0.05)
    yield _relabelled(generate_box_mesh(4, 4, 4, [1.0, 1.0, 1.0]), rng, 0.02)
    yield generate_shaft_mesh(1.0, 3.0, 7, 3)
    yield _relabelled(generate_shaft_mesh(2.0, 1.0, 12, 2), rng, 0.0)
    yield _with_tet_on_an_interior_face(box)[0]
    yield VolumetricMesh(box.vertices, np.vstack([box.tets, box.tets[5:6]]))


@pytest.mark.parametrize("index", range(9))
def test_face_grouping_matches_the_unique_reference(index):
    mesh = list(_topology_meshes())[index]
    pairs, boundary, violations = _oracle_topology(mesh)
    got = face_adjacency(mesh)
    assert got.dtype == pairs.dtype and np.array_equal(got, pairs)
    got = boundary_faces(mesh)
    assert got.dtype == boundary.dtype and np.array_equal(got, boundary)
    face_kinds = {"face_overshared", "nonmanifold_boundary"}
    assert [(v.kind, v.index, v.message)
            for v in validate_mesh(mesh).violations
            if v.kind in face_kinds] == violations


class _TetsOnly:
    """Stands in for a mesh where only the tets table is read, so vertex
    ids can be large without that many vertices."""

    def __init__(self, tets):
        self.tets = tets


# ids past 2**21, where three packed columns would overflow int64, and
# past the span of about 3e9 where even two would
@pytest.mark.parametrize("stride", [2**21 + 3, 2**33 + 1],
                         ids=["past_2_21", "past_two_column_span"])
def test_face_grouping_with_large_vertex_ids(stride):
    rng = np.random.default_rng(12)
    box = generate_box_mesh(3, 2, 4, [1.0, 2.0, 3.0])
    overshared = _with_tet_on_an_interior_face(box)[0]
    # one id in each stride-wide bucket, at a random offset, shuffled
    n = overshared.n_vertices
    ids = (np.arange(n) * stride + rng.integers(0, stride, n))[
        rng.permutation(n)]
    assert ids.max() > 2**21
    for tets in (box.tets, overshared.tets,
                 np.vstack([box.tets, box.tets[5:6]])):
        mesh = _TetsOnly(ids[tets])
        pairs, boundary, _ = _oracle_topology(mesh)
        got = face_adjacency(mesh)
        assert got.dtype == pairs.dtype and np.array_equal(got, pairs)
        got = boundary_faces(mesh)
        assert got.dtype == boundary.dtype and np.array_equal(got, boundary)


def test_a_face_of_three_tets_gives_no_adjacency_pair():
    box = generate_box_mesh(3, 2, 4, [1.0, 2.0, 3.0])
    mesh, face = _with_tet_on_an_interior_face(box)
    extra = mesh.n_elements - 1
    assert mesh.volumes()[extra] > 0
    pairs = face_adjacency(mesh)
    # the two tets of the box that had the face lose their pair, and the
    # extra tet pairs with nothing
    assert len(pairs) == len(face_adjacency(box)) - 1
    assert extra not in pairs
    report = validate_mesh(mesh)
    overshared = [v for v in report.violations if v.kind == "face_overshared"]
    assert [(v.index, v.message) for v in overshared] == [
        (int(face[0]), f"face {tuple(int(x) for x in face)} shared by 3 tets")
    ]
