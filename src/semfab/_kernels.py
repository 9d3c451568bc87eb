"""Hot numeric kernels: tetrahedron geometry and element matrices.

Every kernel is vectorized numpy over all elements at once.

Voigt order used throughout: (xx, yy, zz, xy, yz, zx) with engineering
shear strains.
"""

from __future__ import annotations

import numpy as np


def tet_volumes(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    p0 = vertices[tets[:, 0]]
    e1 = vertices[tets[:, 1]] - p0
    e2 = vertices[tets[:, 2]] - p0
    e3 = vertices[tets[:, 3]] - p0
    return np.einsum("ij,ij->i", e1, np.cross(e2, e3)) / 6.0


def shape_data(vertices: np.ndarray, tets: np.ndarray):
    """Signed volumes and physical gradients of the 4 linear shape functions.

    Gradients of N1..N3 are the columns of J^-1 where J rows are the edge
    vectors from vertex 0; N0 closes the partition of unity. Degenerate
    tets (zero volume) produce inf/nan gradients; callers screen volumes first.
    """
    p0 = vertices[tets[:, 0]]
    e1 = vertices[tets[:, 1]] - p0
    e2 = vertices[tets[:, 2]] - p0
    e3 = vertices[tets[:, 3]] - p0
    c23 = np.cross(e2, e3)
    c31 = np.cross(e3, e1)
    c12 = np.cross(e1, e2)
    det = np.einsum("ij,ij->i", e1, c23)
    grads = np.empty((tets.shape[0], 4, 3))
    grads[:, 1, :] = c23 / det[:, None]
    grads[:, 2, :] = c31 / det[:, None]
    grads[:, 3, :] = c12 / det[:, None]
    grads[:, 0, :] = -(grads[:, 1, :] + grads[:, 2, :] + grads[:, 3, :])
    return det / 6.0, grads


def _strain_matrices(grads: np.ndarray) -> np.ndarray:
    m = grads.shape[0]
    B = np.zeros((m, 6, 12))
    for a in range(4):
        bx = grads[:, a, 0]
        by = grads[:, a, 1]
        bz = grads[:, a, 2]
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
    return B


def elasticity_matrices(vertices, tets, young, poisson):
    vols, grads = shape_data(vertices, tets)
    B = _strain_matrices(grads)
    lam = young * poisson / ((1.0 + poisson) * (1.0 - 2.0 * poisson))
    mu = young / (2.0 * (1.0 + poisson))
    m = tets.shape[0]
    C = np.zeros((m, 6, 6))
    for i in range(3):
        for j in range(3):
            C[:, i, j] = lam
        C[:, i, i] = lam + 2.0 * mu
        C[:, 3 + i, 3 + i] = mu
    CB = np.einsum("eij,ejk->eik", C, B)
    return vols[:, None, None] * np.einsum("eji,ejk->eik", B, CB)


def conduction_matrices(vertices, tets, conductivity):
    vols, grads = shape_data(vertices, tets)
    gg = np.einsum("eik,ejk->eij", grads, grads)
    return (vols * conductivity)[:, None, None] * gg
