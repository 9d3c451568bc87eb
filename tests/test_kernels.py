"""The element kernels against the einsum and np.cross code they replaced,
byte for byte.

Comparing bytes also pins the signs of exact zeros, which array_equal
would not see. The kernels add their products in the order numpy's einsum
adds them in this numpy build; a build whose einsum adds in another order
fails here, while the kernels keep their own bits.
"""

import numpy as np
import pytest

from semfab import _kernels
from semfab.mesh import VolumetricMesh, generate_box_mesh, generate_shaft_mesh


def reference_shape_data(vertices, tets):
    p0 = vertices[tets[:, 0]]
    e1 = vertices[tets[:, 1]] - p0
    e2 = vertices[tets[:, 2]] - p0
    e3 = vertices[tets[:, 3]] - p0
    c23 = np.cross(e2, e3)
    det = np.einsum("ij,ij->i", e1, c23)
    grads = np.empty((tets.shape[0], 4, 3))
    grads[:, 1, :] = c23 / det[:, None]
    grads[:, 2, :] = np.cross(e3, e1) / det[:, None]
    grads[:, 3, :] = np.cross(e1, e2) / det[:, None]
    grads[:, 0, :] = -(grads[:, 1, :] + grads[:, 2, :] + grads[:, 3, :])
    return det / 6.0, grads


def reference_elasticity(vertices, tets, poisson):
    vols, grads = reference_shape_data(vertices, tets)
    m = tets.shape[0]
    B = np.zeros((m, 6, 12))
    for a in range(4):
        bx, by, bz = grads[:, a, 0], grads[:, a, 1], grads[:, a, 2]
        c = 3 * a
        B[:, 0, c] = bx
        B[:, 1, c + 1] = by
        B[:, 2, c + 2] = bz
        B[:, 3, c] = by
        B[:, 3, c + 1] = bx
        B[:, 4, c + 1] = bz
        B[:, 4, c + 2] = by
        B[:, 5, c] = bz
        B[:, 5, c + 2] = bx
    lam = poisson / ((1.0 + poisson) * (1.0 - 2.0 * poisson))
    mu = 1.0 / (2.0 * (1.0 + poisson))
    C = np.zeros((m, 6, 6))
    for i in range(3):
        for j in range(3):
            C[:, i, j] = lam
        C[:, i, i] = lam + 2.0 * mu
        C[:, 3 + i, 3 + i] = mu
    CB = np.einsum("eij,ejk->eik", C, B)
    return vols[:, None, None] * np.einsum("eji,ejk->eik", B, CB)


def reference_conduction(vertices, tets):
    vols, grads = reference_shape_data(vertices, tets)
    gg = np.einsum("eik,ejk->eij", grads, grads)
    return vols[:, None, None] * gg


def _meshes():
    """Axis-aligned meshes, whose gradients hold many exact zeros, and
    jittered and rotated ones, whose gradients hold none."""
    rng = np.random.default_rng(3)
    cube = generate_box_mesh(4, 4, 4, [1.0, 1.0, 1.0])
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(rotation) < 0:
        rotation[:, 0] *= -1.0
    plate = generate_box_mesh(8, 8, 8, [8.0, 8.0, 8.0])
    return {
        "bar": generate_box_mesh(3, 3, 8, [1.0, 1.0, 8.0]),
        "uneven_box": generate_box_mesh(4, 3, 5, [1.3, 0.7, 2.9]),
        "shaft": generate_shaft_mesh(1.0, 3.0, 7, 3),
        "jittered": VolumetricMesh(
            cube.vertices + rng.uniform(-0.03, 0.03, cube.vertices.shape),
            cube.tets),
        "rotated": VolumetricMesh(cube.vertices @ rotation.T, cube.tets),
        "tiny": VolumetricMesh(cube.vertices * 1e-5, cube.tets),
        # 3072 tets, the size of the benchmark's conduction plate
        "jittered_8x8x8": VolumetricMesh(
            plate.vertices + rng.uniform(-0.2, 0.2, plate.vertices.shape),
            plate.tets),
    }


MESHES = _meshes()


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(MESHES))
def test_volumes_and_gradients_match_the_cross_product_reference(name):
    mesh = MESHES[name]
    vols, grads = _kernels.shape_data(mesh.vertices, mesh.tets)
    want_vols, want_grads = reference_shape_data(mesh.vertices, mesh.tets)
    assert_same_bytes(vols, want_vols)
    assert_same_bytes(np.ascontiguousarray(grads.transpose(2, 1, 0)),
                      want_grads)
    assert_same_bytes(_kernels.tet_volumes(mesh.vertices, mesh.tets),
                      want_vols)


@pytest.mark.parametrize("name", sorted(MESHES))
def test_conduction_matrices_match_the_einsum_reference(name):
    mesh = MESHES[name]
    assert_same_bytes(_kernels.conduction_matrices(mesh.vertices, mesh.tets),
                      reference_conduction(mesh.vertices, mesh.tets))


@pytest.mark.parametrize("poisson", [-0.3, 0.0, 0.3, 0.49])
@pytest.mark.parametrize("name", sorted(MESHES))
def test_elasticity_matrices_match_the_einsum_reference(name, poisson):
    mesh = MESHES[name]
    ratios = np.full(mesh.n_elements, poisson)
    assert_same_bytes(
        _kernels.elasticity_matrices(mesh.vertices, mesh.tets, ratios),
        reference_elasticity(mesh.vertices, mesh.tets, ratios))


def test_a_single_tet_matches_the_reference():
    coords = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                       [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    tets = np.array([[0, 1, 2, 3]])
    assert_same_bytes(
        _kernels.elasticity_matrices(coords, tets, np.full(1, -0.3)),
        reference_elasticity(coords, tets, np.full(1, -0.3)))
    assert_same_bytes(_kernels.conduction_matrices(coords, tets),
                      reference_conduction(coords, tets))


@pytest.mark.parametrize("name", sorted(MESHES))
def test_centroids_match_the_mean_of_the_corners(name):
    mesh = MESHES[name]
    assert_same_bytes(mesh.centroids(),
                      mesh.vertices[mesh.tets].mean(axis=1))


def test_centroids_keep_the_mean_sign_of_zero():
    # the mean sums from +0.0, so a coordinate that is -0.0 at all four
    # corners gives +0.0; a flat tet is enough to show it
    vertices = np.array([[0.0, -0.0, 0.0], [1.0, -0.0, 0.0],
                         [0.0, -0.0, 1.0], [1.0, -0.0, 1.0]])
    mesh = VolumetricMesh(vertices, np.array([[0, 1, 2, 3]]))
    want = vertices[mesh.tets].mean(axis=1)
    assert not np.signbit(want[0, 1])
    assert_same_bytes(mesh.centroids(), want)
