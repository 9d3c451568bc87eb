"""Direct stiffness method on tetrahedra: linear elasticity and its scalar
analogue, steady-state heat conduction.

Boundary conditions are imposed by reduction: prescribed dofs are eliminated,
the free block is solved (dense Cholesky under 300 free dofs, sparse LU
above), and reactions are recovered as (K U - F_ext) at the
prescribed dofs. Assembly is serial and in ascending element order, so
results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import _kernels
from .errors import SolverFailure, WellPosednessError

DENSE_CUTOFF = 300  # free dofs below this solve via Cholesky
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class ElementMatrix:
    element: int
    matrix: np.ndarray
    dof_map: np.ndarray


@dataclass(frozen=True)
class FemSystem:
    physics: str
    K: scipy.sparse.csr_matrix
    f_ext: np.ndarray
    free: np.ndarray
    prescribed: np.ndarray
    prescribed_values: np.ndarray
    rhs: np.ndarray  # f_ext[free] - K[free, prescribed] @ prescribed_values
    n_vertices: int
    dofs_per_vertex: int


@dataclass(frozen=True)
class FieldSolution:
    """Nodal result of one solve: (n,3) displacements or (n,) temperatures."""

    physics: str
    values: np.ndarray
    reactions: dict[int, np.ndarray | float]
    residual: float
    method: str


@dataclass(frozen=True)
class NodalVerdict:
    vertex: int
    passed: bool
    value: np.ndarray
    message: str | None = None


def _volume_epsilon(coords: np.ndarray) -> float:
    diag = np.linalg.norm(coords.max(axis=0) - coords.min(axis=0))
    return 1e-12 * diag**3


def _check_poisson(poisson: np.ndarray) -> None:
    if np.any(poisson <= -1.0) or np.any(poisson >= 0.5):
        raise ValueError("poisson ratio must lie in (-1, 0.5)")


def element_stiffness(tet_coords, young: float, poisson: float) -> ElementMatrix:
    """12x12 constant-strain tet stiffness k = V B^T C(E, nu) B."""
    coords = np.asarray(tet_coords, dtype=np.float64)
    if coords.shape != (4, 3):
        raise ValueError("tet_coords must be 4 points in 3d")
    if young <= 0.0:
        raise ValueError("young modulus must be positive")
    _check_poisson(np.asarray([poisson]))
    tets = np.array([[0, 1, 2, 3]], dtype=np.int64)
    vol = _kernels.tet_volumes(coords, tets)[0]
    if vol <= _volume_epsilon(coords):
        raise ValueError(f"degenerate tet, signed volume {vol:.3e}")
    k = _kernels.elasticity_matrices(
        coords, tets, np.asarray([young]), np.asarray([float(poisson)])
    )[0]
    return ElementMatrix(0, k, np.arange(12))


def element_conductance(tet_coords, conductivity: float) -> ElementMatrix:
    """4x4 conduction matrix k_ij = D V grad(N_i) . grad(N_j)."""
    coords = np.asarray(tet_coords, dtype=np.float64)
    if coords.shape != (4, 3):
        raise ValueError("tet_coords must be 4 points in 3d")
    if conductivity <= 0.0:
        raise ValueError("conductivity must be positive")
    tets = np.array([[0, 1, 2, 3]], dtype=np.int64)
    vol = _kernels.tet_volumes(coords, tets)[0]
    if vol <= _volume_epsilon(coords):
        raise ValueError(f"degenerate tet, signed volume {vol:.3e}")
    k = _kernels.conduction_matrices(coords, tets, np.asarray([conductivity]))[0]
    return ElementMatrix(0, k, np.arange(4))


def element_matrices(mesh, fld, physics: str) -> np.ndarray:
    """Batch element matrices for a whole mesh, (m,12,12) or (m,4,4)."""
    vols = mesh.volumes()
    eps = 1e-12 * mesh.bbox_diagonal() ** 3
    bad = np.flatnonzero(vols <= eps)
    if bad.size:
        raise ValueError(f"degenerate tet {bad[0]}, signed volume {vols[bad[0]]:.3e}")
    if physics == "elasticity":
        if np.any(fld.young <= 0.0):
            raise ValueError("young modulus must be positive for every element")
        _check_poisson(fld.poisson)
        return _kernels.elasticity_matrices(
            mesh.vertices, mesh.tets, fld.young, fld.poisson
        )
    if physics == "conduction":
        if np.any(fld.conductivity <= 0.0):
            raise ValueError("conductivity must be positive for every element")
        return _kernels.conduction_matrices(
            mesh.vertices, mesh.tets, fld.conductivity
        )
    raise ValueError(f"unknown physics {physics!r}")


def element_dof_maps(tets: np.ndarray, dofs_per_vertex: int) -> np.ndarray:
    if dofs_per_vertex == 1:
        return tets
    em = (
        tets[:, :, None] * dofs_per_vertex + np.arange(dofs_per_vertex)[None, None, :]
    )
    return em.reshape(tets.shape[0], -1)


def assemble(spec, fld, physics: str) -> FemSystem:
    """Build the global system for a bound specification and material field.

    `spec` supplies the mesh, prescribed values, and applied loads/fluxes;
    `fld` supplies per-element parameters. Raises WellPosednessError when the
    requested physics has no Dirichlet data at all.
    """
    mesh = spec.mesh
    matrices = element_matrices(mesh, fld, physics)
    dpv = 3 if physics == "elasticity" else 1
    ndof = dpv * mesh.n_vertices

    em = element_dof_maps(mesh.tets, dpv)
    k = matrices.shape[1]
    rows = np.repeat(em, k, axis=1).reshape(-1)
    cols = np.tile(em, (1, k)).reshape(-1)
    K = scipy.sparse.coo_matrix(
        (matrices.reshape(-1), (rows, cols)), shape=(ndof, ndof)
    ).tocsr()

    f_ext = np.zeros(ndof)
    prescribed_map: dict[int, float] = {}
    if physics == "elasticity":
        for vid, force in spec.applied_forces.items():
            f_ext[3 * vid : 3 * vid + 3] += force
        for vid, disp in spec.prescribed_displacements.items():
            for ax in range(3):
                prescribed_map[3 * vid + ax] = disp[ax]
    else:
        for vid, flux in spec.applied_fluxes.items():
            f_ext[vid] += flux
        for vid, temp in spec.prescribed_temperatures.items():
            prescribed_map[vid] = temp

    if not prescribed_map:
        raise WellPosednessError(
            f"no prescribed values for {physics}; the system is singular"
        )
    prescribed = np.array(sorted(prescribed_map), dtype=np.int64)
    prescribed_values = np.array([prescribed_map[d] for d in prescribed])
    mask = np.ones(ndof, dtype=bool)
    mask[prescribed] = False
    free = np.flatnonzero(mask)
    rhs = f_ext[free] - K[free][:, prescribed] @ prescribed_values
    return FemSystem(
        physics=physics,
        K=K,
        f_ext=f_ext,
        free=free,
        prescribed=prescribed,
        prescribed_values=prescribed_values,
        rhs=rhs,
        n_vertices=mesh.n_vertices,
        dofs_per_vertex=dpv,
    )


def _sparse_factor(K_ff: scipy.sparse.csr_matrix):
    """Sparse LU of the reduced block, pivoting on the diagonal only.

    Diagonal pivoting makes the factorization a symmetric L D L^T with D on
    U's diagonal, so by Sylvester's law of inertia the block is SPD exactly
    when the row and column orders agree and D is positive.
    """
    try:
        lu = scipy.sparse.linalg.splu(
            K_ff.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise WellPosednessError(f"reduced matrix is singular: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c) or np.any(lu.U.diagonal() <= 0.0):
        raise WellPosednessError("reduced matrix is not positive definite")
    return lu


def _relative_residual(K_ff, x: np.ndarray, b: np.ndarray) -> float:
    bnorm = np.linalg.norm(b)
    return float(np.linalg.norm(K_ff @ x - b) / bnorm) if bnorm > 0 else 0.0


def _solve_free(system: FemSystem, tol: float):
    """Solve the reduced SPD block; returns (x, residual, method).

    The sparse path raises SolverFailure when the relative residual exceeds
    `tol`. The dense path returns its residual unchecked.
    """
    K_ff = system.K[system.free][:, system.free].tocsr()
    b = system.rhs
    n = b.shape[0]
    if n == 0:
        return np.zeros(0), 0.0, "dense"
    if n < DENSE_CUTOFF:
        try:
            chol = scipy.linalg.cho_factor(K_ff.toarray())
        except np.linalg.LinAlgError as exc:
            raise WellPosednessError(
                f"reduced matrix is not positive definite: {exc}"
            ) from exc
        x = scipy.linalg.cho_solve(chol, b)
        return x, _relative_residual(K_ff, x, b), "dense"
    x = _sparse_factor(K_ff).solve(b)
    res = _relative_residual(K_ff, x, b)
    if res > tol:
        raise SolverFailure(
            f"sparse LU left relative residual {res:.3e} above tol {tol:g}",
            residual_history=[res],
        )
    return x, res, "sparse_lu"


def solve(system: FemSystem, tol: float = DEFAULT_TOL) -> FieldSolution:
    """Solve K U = F under the system's boundary conditions.

    `tol` is the largest relative residual ||K_ff x - b|| / ||b|| accepted
    from the sparse path; see `_solve_free`.
    """
    if tol is None:
        tol = DEFAULT_TOL
    x, res, method = _solve_free(system, tol)
    ndof = system.dofs_per_vertex * system.n_vertices
    U = np.zeros(ndof)
    U[system.free] = x
    U[system.prescribed] = system.prescribed_values

    reaction_vec = (system.K @ U - system.f_ext)[system.prescribed]
    reactions: dict[int, np.ndarray | float] = {}
    if system.dofs_per_vertex == 3:
        for dof, r in zip(system.prescribed, reaction_vec):
            vid, ax = divmod(int(dof), 3)
            reactions.setdefault(vid, np.zeros(3))[ax] = r
    else:
        for dof, r in zip(system.prescribed, reaction_vec):
            reactions[int(dof)] = float(r)

    values = U.reshape(system.n_vertices, system.dofs_per_vertex)
    if system.dofs_per_vertex == 1:
        values = values[:, 0]
    return FieldSolution(
        physics=system.physics,
        values=values,
        reactions=reactions,
        residual=res,
        method=method,
    )


def adjoint_solve(system: FemSystem, weights: np.ndarray,
                  tol: float = DEFAULT_TOL) -> np.ndarray:
    """Solve K_ff lambda = w_f; returns the full-length adjoint vector with
    zeros at prescribed dofs. `weights` has one entry per global dof."""
    reduced = FemSystem(
        physics=system.physics,
        K=system.K,
        f_ext=np.zeros_like(system.f_ext),
        free=system.free,
        prescribed=system.prescribed,
        prescribed_values=np.zeros_like(system.prescribed_values),
        rhs=np.asarray(weights, dtype=np.float64)[system.free],
        n_vertices=system.n_vertices,
        dofs_per_vertex=system.dofs_per_vertex,
    )
    x, _, _ = _solve_free(reduced, tol)
    lam = np.zeros(len(weights))
    lam[system.free] = x
    return lam


def verify_nodal_bounds(solution: FieldSolution, spec) -> list[NodalVerdict]:
    """Mark every annotated vertex in or out of its bound box.

    Checking nodal values suffices for these linear elements: inside an
    element the solution is a convex combination of its vertex values.
    """
    verdicts: list[NodalVerdict] = []
    if solution.physics == "elasticity":
        for vid in sorted(spec.displacement_bounds):
            box = spec.displacement_bounds[vid]
            u = solution.values[vid]
            inside = (u >= box[:, 0]) & (u <= box[:, 1])
            msg = None
            if not inside.all():
                ax = "xyz"[int(np.flatnonzero(~inside)[0])]
                msg = f"displacement {ax} component outside [{box[~inside][0][0]}, {box[~inside][0][1]}]"
            verdicts.append(NodalVerdict(vid, bool(inside.all()), u.copy(), msg))
    else:
        for vid in sorted(spec.temperature_bounds):
            lo, hi = spec.temperature_bounds[vid]
            t = float(solution.values[vid])
            ok = lo <= t <= hi
            msg = None if ok else f"temperature {t:g} outside [{lo:g}, {hi:g}]"
            verdicts.append(NodalVerdict(vid, ok, np.asarray(t), msg))
    return verdicts


def solution_to_dict(solution: FieldSolution) -> dict:
    key = "displacements" if solution.physics == "elasticity" else "temperatures"
    if solution.physics == "elasticity":
        reactions = {str(v): r.tolist() for v, r in solution.reactions.items()}
    else:
        reactions = {str(v): r for v, r in solution.reactions.items()}
    return {
        key: solution.values.tolist(),
        "reactions": reactions,
        "diagnostics": {
            "physics": solution.physics,
            "residual": solution.residual,
            "method": solution.method,
        },
    }
