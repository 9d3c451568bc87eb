"""Hot numeric kernels: tetrahedron geometry and element matrices.

The element matrices are unit matrices: stiffness at Young's modulus 1
and conductance at conductivity 1. K is linear in that parameter, so an
assembly plan scales them itself (see :mod:`semfab.fem`).

Every kernel is elementwise numpy over all elements at once, on
coordinate-major arrays whose last axis runs over the elements, so each
operation is one pass over contiguous rows. Sums of products are written
out term by term in a fixed order, with no einsum contraction, matmul or
BLAS call, so an element matrix has the same bits on every CPU. Each such
sum starts from +0.0, so a sum of exact zeros is +0.0 whatever their signs.
The orders are those numpy's einsum used for these contractions before, so
the matrices kept their bits when the einsum calls went: three products
add as ((0 + p0) + p2) + p1, and the strain-matrix contractions in
ascending row order.

Voigt order used throughout: (xx, yy, zz, xy, yz, zx) with engineering
shear strains.
"""

from __future__ import annotations

import numpy as np

# component c + 1 and c + 2 (mod 3) of a 3-vector
_NEXT = [1, 2, 0]
_PREV = [2, 0, 1]


def _edges(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Edge vectors from vertex 0 of every tet, as (component, edge,
    element), with components 0 and 1 repeated as rows 3 and 4, so that
    rows 1:4 and 2:5 hold components c + 1 and c + 2 (mod 3) of c = 0, 1, 2."""
    coords = np.ascontiguousarray(vertices.T)
    e = np.empty((5, 3, tets.shape[0]))
    np.subtract(coords.take(tets.T[1:], axis=1),
                coords.take(tets[:, 0], axis=1)[:, None], out=e[:3])
    e[3:] = e[:2]
    return e


def _cross(e: np.ndarray, r: int, out: np.ndarray, tmp: np.ndarray) -> None:
    """The cross product a x b of edges a = r + 1 and b = r + 2 (mod 3) of
    `_edges` into `out`, (3, m), with `tmp` of the same shape as scratch:
    component c is a[c + 1] b[c + 2] - a[c + 2] b[c + 1]."""
    a, b = _NEXT[r], _PREV[r]
    np.multiply(e[1:4, a], e[2:5, b], out=out)
    np.multiply(e[2:5, a], e[1:4, b], out=tmp)
    out -= tmp


def _triple(e: np.ndarray, c23: np.ndarray) -> np.ndarray:
    """e1 . (e2 x e3) given c23 = e2 x e3, components added x, z, y."""
    return ((0.0 + e[0, 0] * c23[0]) + e[2, 0] * c23[2]) + e[1, 0] * c23[1]


def tet_volumes(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    e = _edges(vertices, tets)
    c23 = np.empty((3, tets.shape[0]))
    _cross(e, 0, c23, np.empty_like(c23))
    return _triple(e, c23) / 6.0


def shape_data(vertices: np.ndarray, tets: np.ndarray):
    """Signed volumes and physical gradients of the 4 linear shape functions.

    The gradients come as a (3, 4, m) array: component, shape function,
    element. Gradients of N1..N3 are the columns of J^-1 where J rows are
    the edge vectors from vertex 0, that is e2 x e3, e3 x e1 and e1 x e2
    over the determinant; N0 closes the partition of unity. Degenerate
    tets (zero volume) produce inf/nan gradients; callers screen volumes
    first.
    """
    e = _edges(vertices, tets)
    m = tets.shape[0]
    grads = np.empty((3, 4, m))
    # grads[c, r + 1] is first component c of the cross product of edges
    # r + 1 and r + 2, and then that over the determinant
    tmp = np.empty((3, m))
    for r in range(3):
        _cross(e, r, grads[:, r + 1], tmp)
    det = _triple(e, grads[:, 1])
    grads[:, 1:] /= det
    g0 = np.add(grads[:, 1], grads[:, 2], out=grads[:, 0])
    g0 += grads[:, 3]
    np.negative(g0, out=g0)
    return det / 6.0, grads


def _per_element(blocks: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """scale_e times the (k, k, m) blocks, laid out as (m, k, k)."""
    out = np.empty((blocks.shape[2], blocks.shape[0], blocks.shape[1]))
    np.multiply(blocks.transpose(2, 0, 1), scale[:, None, None], out=out)
    return out


# Column 3a + c of the strain matrix B holds gradient components
# _B_COMPONENTS[c] of vertex a in rows _B_ROWS[c], ascending, and zeros
# elsewhere.
_B_ROWS = ((0, 3, 5), (1, 3, 4), (2, 4, 5))
_B_COMPONENTS = ((0, 1, 2), (1, 0, 2), (2, 1, 0))


def elasticity_matrices(vertices, tets, poisson):
    """k_e = V_e B^T C B for every tet at unit Young modulus, (m, 12, 12).

    CB is formed from its nonzeros: row r < 3 is C[r, d] g_d in column
    3b + d, and the shear rows are mu B. Entry (3a + c, 3b + d) of B^T CB
    sums B[r, 3a + c] CB[r, 3b + d] over the three nonzero rows r of column
    3a + c, in ascending order; the rows left out add only zeros.
    """
    vols, g = shape_data(vertices, tets)
    m = tets.shape[0]
    lam = poisson / ((1.0 + poisson) * (1.0 - 2.0 * poisson))
    mu = 1.0 / (2.0 * (1.0 + poisson))
    diag = lam + 2.0 * mu
    # CB as (row, vertex, component, element)
    cb = np.zeros((6, 4, 3, m))
    for d in range(3):
        for r in range(3):
            np.multiply(diag if r == d else lam, g[d], out=cb[r, :, d])
        for r, comp in zip(_B_ROWS[d][1:], _B_COMPONENTS[d][1:]):
            np.multiply(mu, g[comp], out=cb[r, :, d])
    cb = cb.reshape(6, 12, m)
    # B^T CB as (vertex, component, column, element)
    k = np.empty((4, 3, 12, m))
    for c in range(3):
        (r0, r1, r2), (c0, c1, c2) = _B_ROWS[c], _B_COMPONENTS[c]
        acc = k[:, c]
        np.multiply(g[c0][:, None], cb[r0], out=acc)
        acc += 0.0
        acc += g[c1][:, None] * cb[r1]
        acc += g[c2][:, None] * cb[r2]
    return _per_element(k.reshape(12, 12, m), vols)


def conduction_matrices(vertices, tets):
    """k_e = V_e grad(N_i) . grad(N_j) for every tet at unit conductivity,
    (m, 4, 4)."""
    vols, (gx, gy, gz) = shape_data(vertices, tets)
    gg = np.multiply(gx[:, None], gx)
    gg += 0.0  # the sum starts from +0.0
    term = np.empty_like(gx)
    for a in range(4):
        gg[a] += np.multiply(gz[a], gz, out=term)
        gg[a] += np.multiply(gy[a], gy, out=term)
    del gx, gy, gz, term  # not held while the result is allocated
    return _per_element(gg, vols)
