"""Direct stiffness method on tetrahedra: linear elasticity and its scalar
analogue, steady-state heat conduction.

K is linear in Young's modulus at a fixed Poisson ratio and linear in the
conductivity, so every element matrix is its parameter times a unit matrix
k̂_e. An :class:`AssemblyPlan`, built once per problem, or once per
evaluation handed no plans, holds the fixed CSR pattern of K, the
free/prescribed split, the band that is its one layout of the free block
K_ff, and assembly as one linear operator S from element parameters to K's
entries: a sparse matrix whose column e holds k̂_e's entries at their slots
in K.data. K's pattern is built from the edges of the element graph, as
George & Liu (1981) build the graph of a finite-element matrix: the six
edges of every tet, deduplicated by one sort, are the vertex graph, every
element entry's slot is read off its edge or vertex, and each vertex pair
becomes a full block of dofs. So the cost grows with the tets' edges and
not with every dof pair of every element. The band comes from the same CSR
pattern, masked to the free dofs, transposed once and reordered. Assembly
is K.data = S p, which adds the scaled unit matrices into the pattern in
ascending element order, so results are reproducible bit for bit. The
element sensitivities lam . k̂_e u of all elements are one product with S's
transpose.

A :class:`FemSystem` is its plan's K and reduced right-hand side for one
material field, made only by :func:`assemble`: no system exists without a
plan, and every other part of it, the free/prescribed split, the loads and
the band layout of K_ff, is read from the plan.

K is the only sparse matrix an evaluation builds. Prescribed dofs are
eliminated: K_ff is copied from K.data straight into LAPACK's band storage,
in a reverse Cuthill-McKee order fixed by the plan, and factored once per
system, on its first solve, by LAPACK's banded Cholesky dpbtrf on the
lower band. Each right-hand side, adjoint ones included, is one dpbtrs with
that factor and the guard that the normwise backward error
||K_ff x - b||_1 / (||K_ff||_1 ||x||_1 + ||b||_1) is at most the constant
BACKWARD_ERROR_TOL. A solve with ||K_ff x - b||_1 <= BACKWARD_ERROR_TOL
||b||_1 meets that bound whatever ||K_ff||_1 is, so the guard computes
||K_ff||_1, once per system, only for a solve that fails this test or when
a solution's `residual` is first read. It reads the norm off the band: the
lower triangle's entries in K.data, mirrored, which is the symmetric matrix
dpbtrf factors. Reactions, (K U - F_ext) at the prescribed dofs, are
computed when first read too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg.lapack
import scipy.sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

from . import _kernels
from .errors import SolverFailure, WellPosednessError

BACKWARD_ERROR_TOL = 1e-10
_TINY = np.finfo(np.float64).tiny
_DOFS_PER_VERTEX = {"elasticity": 3, "conduction": 1}


@dataclass(frozen=True, eq=False)
class AssemblyPlan:
    """The parts of one (specification, physics) system that the material
    field, at the plan's Poisson ratios, does not change; see the module
    docstring. K_ff is laid out once, in `band`, which both the factor and
    ||K_ff||_1 read. Like a system and a solution, it holds arrays, so it
    compares and hashes by identity."""

    physics: str
    n_vertices: int
    dofs_per_vertex: int
    poisson: np.ndarray | None  # Poisson ratios of the elasticity unit matrices
    # (nnz K, m) CSC: column e holds the unit matrix k̂_e, (k, k) flattened,
    # at the slots of its entries in K.data, so K.data = S @ p
    S: scipy.sparse.csc_matrix
    S_T: scipy.sparse.csr_matrix  # S's transpose, sharing S's arrays
    # K's CSR pattern, vertex pairs expanded per dof, with zero entries;
    # each system's K is a copy of it that shares its index arrays, with
    # its own data
    pattern: scipy.sparse.csr_matrix
    row_sizes: np.ndarray  # entries in each row of K's pattern
    f_ext: np.ndarray
    free: np.ndarray
    prescribed: np.ndarray
    u_prescribed: np.ndarray  # full-length, prescribed values, zero elsewhere
    band: tuple  # _band_layout of K_ff


@dataclass(frozen=True, eq=False)
class FemSystem:
    """K and the reduced right-hand side of one material field, assembled
    from `plan`, which holds everything else about the system."""

    plan: AssemblyPlan
    K: scipy.sparse.csr_matrix
    rhs: np.ndarray  # f_ext[free] - (K @ u_prescribed)[free]
    # (order, band factor), made by the first solve, and ||K_ff||_1, made
    # when the guard first needs it; both only cache what K determines
    _factor: tuple | None = field(default=None, init=False, repr=False)
    _norm: float | None = field(default=None, init=False, repr=False)


@dataclass(frozen=True, eq=False)
class FieldSolution:
    """Nodal result of one solve: (n,3) displacements or (n,) temperatures."""

    values: np.ndarray
    system: FemSystem = field(repr=False)
    # (||K_ff x - b||_1, ||x||_1, ||b||_1) of the solve
    guard: tuple = field(repr=False)

    @functools.cached_property
    def residual(self) -> float:
        """The solve's normwise backward error
        ||K_ff x - b||_1 / (||K_ff||_1 ||x||_1 + ||b||_1)."""
        return _backward_error(self.system, *self.guard)

    @functools.cached_property
    def reactions(self) -> dict[int, np.ndarray | float]:
        """(K U - F_ext) at the prescribed dofs: a 3-vector per vertex for
        elasticity, a float per vertex for conduction."""
        plan, K = self.system.plan, self.system.K
        r = (K @ self.values.reshape(-1) - plan.f_ext)[plan.prescribed]
        if plan.dofs_per_vertex == 1:
            return {int(d): float(v) for d, v in zip(plan.prescribed, r)}
        reactions: dict[int, np.ndarray | float] = {}
        for dof, v in zip(plan.prescribed, r):
            reactions.setdefault(int(dof) // 3, np.zeros(3))[dof % 3] = v
        return reactions


def _invalid(name: str, rule: str, p: np.ndarray) -> ValueError:
    """The error for parameters `p` that break `rule`. Elements where `p` is
    NaN, as on the unprinted part of a print that stopped early, are named
    first: they have no value to break it with."""
    missing = np.flatnonzero(np.isnan(p))
    if not missing.size:
        return ValueError(f"{name} must {rule}")
    return ValueError(f"{name} has no value at {missing.size} element(s), "
                      f"the first is element {missing[0]}; it must {rule}")


def _check_poisson(poisson: np.ndarray) -> None:
    if not ((poisson > -1.0) & (poisson < 0.5)).all():  # NaN fails too
        raise _invalid("poisson ratio", "lie in (-1, 0.5)", poisson)


def _check_parameter(name: str, p: np.ndarray) -> None:
    if not ((p > 0.0) & (p < np.inf)).all():  # NaN fails both comparisons
        raise _invalid(name, "be positive and finite", p)


def _element_parameter(fld, physics: str) -> np.ndarray:
    """The per-element parameter K is linear in, checked; the Poisson
    ratios are checked by the plan, which assembly matches them to."""
    name, p = (("young modulus", fld.young) if physics == "elasticity"
               else ("conductivity", fld.conductivity))
    _check_parameter(name, p)
    return p


def _boundary_data(spec, physics: str, ndof: int):
    """Applied loads, the sorted prescribed dofs and the full-length
    prescribed values, zero at the free dofs."""
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
    u_prescribed = np.zeros(ndof)
    u_prescribed[prescribed] = [prescribed_map[d] for d in prescribed]
    return f_ext, prescribed, u_prescribed


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


# the six edges of a tet, as pairs (alpha, beta) of its local vertices
_EDGE_ALPHA, _EDGE_BETA = np.triu_indices(4, 1)


def _tet_edges(corners: np.ndarray, n: int, index_type):
    """(lo, hi, edge) of the tets whose vertices are `corners`, (4, m): the
    unique edges (lo, hi), lo < hi, sorted by their keys lo*n + hi, and for
    each of the 6m tet edges, as (edge, element), 2u + f with u its unique
    edge and f = 1 where its local vertex alpha is its hi.

    The keys are deduplicated with one stable sort. Each temporary is
    dropped once used, which keeps down the plan's peak memory."""
    alpha, beta = corners[_EDGE_ALPHA], corners[_EDGE_BETA]  # (6, m)
    flipped = (alpha > beta).reshape(-1)
    keys = np.minimum(alpha, beta)
    keys *= n
    keys += np.maximum(alpha, beta, out=alpha)
    del alpha, beta
    keys = keys.reshape(-1)
    order = keys.argsort(kind="stable")
    keys = keys.take(order)
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    unique = keys[first]
    del keys
    run = np.cumsum(first, dtype=index_type)
    run -= 1
    run *= 2
    edge = np.empty_like(run)
    edge[order] = run
    edge += flipped
    lo = unique // n
    return lo, unique - lo * n, edge.reshape(6, -1)


def _pattern(tets: np.ndarray, n_vertices: int, dpv: int):
    """(indptr, indices, scatter) of K's CSR pattern for `dpv` dofs per
    vertex, built from the edges of the element graph and expanded per dof.

    The sorted unique edges of the tets (`_tet_edges`) are the upper
    triangle of the vertex graph in CSR order. Vertex row a holds its
    neighbours below a (the edges whose hi is a, by lo), a itself and its
    neighbours above a (the edges whose lo is a, by hi), so a vertex that no
    tet references has an empty row. The vertex slot s of every element
    entry is then a gather: the diagonal of its vertex, or an edge's entry
    in the row of its lo or of its hi. The tets must have four distinct
    vertices, as non-degenerate ones do: a repeated one makes a self-edge.

    Dof row a*d + i holds the d*deg(a) entries of vertex row a, by
    neighbour b and then by j, so entry (a*d + i, b*d + j) sits at
    d*d*vptr[a] + i*d*deg(a) + d*(s - vptr[a]) + j. `scatter` has the slot
    of every element-matrix entry, in (m, k, k) order flattened, as int32
    when the m*k*k entries can be counted in it; indptr and indices are
    int32 when K's entries can, the index type SciPy would store.
    """
    m, n, d = tets.shape[0], n_vertices, dpv
    fits = m * 16 * d * d <= np.iinfo(np.int32).max
    slot_type = np.int32 if fits else np.int64
    # keys lo*n + hi are int32 when the largest, (n - 2)*n + n - 1, fits
    key_type = (np.int32 if n * (n - 1) - 1 <= np.iinfo(np.int32).max
                else np.int64)
    corners = tets.T.astype(key_type, order="C")  # (local vertex, element)
    lo, hi, edge = _tet_edges(corners, n, slot_type)

    up, down = np.bincount(lo, minlength=n), np.bincount(hi, minlength=n)
    deg = up + down
    deg += deg > 0  # the diagonal of every referenced vertex
    vptr = np.zeros(n + 1, dtype=slot_type)
    np.cumsum(deg, out=vptr[1:])
    diag = vptr[:-1] + down
    # slots of each edge's entries (lo, hi), after the diagonal of row lo in
    # key order, and (hi, lo), before the diagonal of row hi in lo order,
    # which a stable sort by hi keeps
    entries = np.empty((lo.size, 2), dtype=slot_type)
    rank = np.arange(lo.size)
    entries[:, 0] = rank + (diag + 1 - (np.cumsum(up) - up)).take(lo)
    by_hi = hi.argsort(kind="stable")
    entries[by_hi, 1] = rank + (vptr[:-1] - (np.cumsum(down) - down)).take(
        hi.take(by_hi))
    cols = np.empty(vptr[-1], dtype=np.intp)
    used = np.flatnonzero(deg)
    cols[diag.take(used)] = used
    cols[entries[:, 0]] = hi
    cols[entries[:, 1]] = lo
    # vslot[alpha, beta, e]; the diagonal is every fifth of the 16 rows
    vslot = np.empty((4, 4, m), dtype=slot_type)
    diag.take(corners, out=vslot.reshape(16, m)[::5])
    # a tet edge's entry in the row of its alpha is entries[2u + f], and
    # the one in the row of its beta entries[2u + 1 - f]
    entries = entries.reshape(-1)
    vslot[_EDGE_ALPHA, _EDGE_BETA] = entries.take(edge)
    edge ^= 1
    vslot[_EDGE_BETA, _EDGE_ALPHA] = entries.take(edge)

    if d == 1:
        indptr, indices, scatter = vptr, cols, vslot.reshape(16, m)
    else:
        row_len = np.repeat(d * deg, d)
        indptr = np.concatenate([[0], np.cumsum(row_len)])
        # dof row a*d + i repeats vertex row a's columns b*d + j
        cols = (cols[:, None] * d + np.arange(d)).reshape(-1)
        row_start = np.repeat(d * vptr[:-1], d)
        indices = cols[np.arange(indptr[-1])
                       - np.repeat(indptr[:-1] - row_start, row_len)]
        # scatter[alpha, i, beta, j, e], element last so that every add
        # runs over the elements
        dofs = np.arange(d, dtype=slot_type)
        # d*(d - 1)*vptr[a] + i*d*deg(a) + j as (alpha, i, j, e)
        within = ((d * deg.astype(slot_type)).take(corners)
                  * dofs[:, None, None]
                  + (d * (d - 1) * vptr).take(corners))
        within = within.transpose(1, 0, 2)[:, :, None] + dofs[:, None]
        scatter = np.empty((4, d, 4, d, m), dtype=slot_type)
        np.add((d * vslot)[:, None, :, None], within[:, :, None], out=scatter)
        scatter = scatter.reshape(16 * d * d, m)
    idx = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.int64
    return (indptr.astype(idx), indices.astype(idx),
            np.ascontiguousarray(scatter.T).reshape(-1))


def assembly_plan(spec, physics: str, fld) -> AssemblyPlan:
    """Build the field-independent part of the `physics` system of `spec`.

    `fld` supplies the Poisson ratios of the elasticity unit matrices, and
    :func:`assemble` refuses the plan for a field with other ratios. Raises
    ValueError for an unknown physics or a degenerate tet, and
    WellPosednessError when the physics has no Dirichlet data at all.
    """
    if physics not in _DOFS_PER_VERTEX:
        raise ValueError(f"unknown physics {physics!r}")
    mesh = spec.mesh
    dpv = _DOFS_PER_VERTEX[physics]
    ndof = dpv * mesh.n_vertices
    f_ext, prescribed, u_prescribed = _boundary_data(spec, physics, ndof)

    vols = mesh.volumes()
    eps = 1e-12 * mesh.bbox_diagonal() ** 3
    bad = np.flatnonzero(vols <= eps)
    if bad.size:
        raise ValueError(f"degenerate tet {bad[0]}, signed volume {vols[bad[0]]:.3e}")
    # element matrices at unit Young modulus or conductivity, (m, k, k)
    poisson = None
    if physics == "elasticity":
        _check_poisson(fld.poisson)
        poisson = np.array(fld.poisson, dtype=np.float64)
        unit = _kernels.elasticity_matrices(mesh.vertices, mesh.tets, poisson)
    else:
        unit = _kernels.conduction_matrices(mesh.vertices, mesh.tets)

    indptr, indices, scatter = _pattern(mesh.tets, mesh.n_vertices, dpv)
    m, nnz, kk = mesh.n_elements, indices.size, unit.shape[1] * unit.shape[2]
    # S and its transpose share one set of read-only arrays; `data` views
    # `unit`
    S_parts = (unit.reshape(-1), scatter,
               np.arange(0, m * kk + 1, kk, dtype=scatter.dtype))
    _read_only(*S_parts)
    S = scipy.sparse.csc_matrix(S_parts, shape=(nnz, m))
    S_T = scipy.sparse.csr_matrix(S_parts, shape=(m, nnz))
    row_sizes = np.diff(indptr).astype(np.intp)
    zeros = np.zeros(nnz)
    _read_only(zeros)
    pattern = scipy.sparse.csr_matrix((zeros, indices, indptr),
                                      shape=(ndof, ndof))

    mask = np.ones(ndof, dtype=bool)
    mask[prescribed] = False
    free = np.flatnonzero(mask)
    band = _free_block(indptr, indices, mask)
    plan = AssemblyPlan(
        physics=physics,
        n_vertices=mesh.n_vertices,
        dofs_per_vertex=dpv,
        poisson=poisson,
        S=S,
        S_T=S_T,
        pattern=pattern,
        row_sizes=row_sizes,
        f_ext=f_ext,
        free=free,
        prescribed=prescribed,
        u_prescribed=u_prescribed,
        band=band,
    )
    # every system assembled from the plan shares these arrays
    _read_only(indptr, indices, row_sizes, f_ext, free, prescribed,
               u_prescribed, band[0], band[2], band[3])
    return plan


def assemble(spec, fld, physics: str, plan: AssemblyPlan | None = None
             ) -> FemSystem:
    """Build the global system for a bound specification and material field.

    `spec` supplies the mesh, prescribed values, and applied loads/fluxes;
    `fld` supplies per-element parameters. `plan` is `assembly_plan(spec,
    physics, fld)`, built here when not given. Raises ValueError for a
    parameter that is not positive and finite or a Poisson ratio outside
    (-1, 0.5), naming the elements where a parameter is NaN, for a plan of
    another physics or Poisson ratios, and WellPosednessError when the
    physics has no Dirichlet data.
    """
    if plan is not None and plan.physics != physics:
        raise ValueError(f"plan is for {plan.physics}, not {physics}")
    scale = _element_parameter(fld, physics)
    if plan is None:
        plan = assembly_plan(spec, physics, fld)
    elif plan.poisson is not None and not np.array_equal(fld.poisson,
                                                         plan.poisson):
        _check_poisson(fld.poisson)  # so a bad ratio is named as one
        raise ValueError("plan is for other Poisson ratios than the field's")
    # a copy of a CSR matrix skips the index checks of the (data, indices,
    # indptr) constructor and shares the pattern's index arrays
    K = scipy.sparse.csr_matrix(plan.pattern)
    # column by column, so each slot sums its entries in element order
    K.data = plan.S @ scale
    rhs = plan.f_ext[plan.free]
    # K @ 0 is +0.0 in every row, as each row's sum starts from +0.0, and
    # subtracting +0.0 changes no bit, so zero prescribed values need no K u
    if plan.u_prescribed.any():
        rhs -= (K @ plan.u_prescribed)[plan.free]
    return FemSystem(plan, K, rhs)


def element_sensitivity(system: FemSystem, lam: np.ndarray,
                        u: np.ndarray) -> np.ndarray:
    """lam_e . k̂_e u_e for every element e, which is d(lam . K u)/dp_e for
    the parameter p that K is linear in (Young's modulus at fixed Poisson
    ratio, or conductivity). `lam` and `u` are full-length dof vectors.

    d(lam . K u)/dp = S^T (lam_i u_j over the entries (i, j) of K's
    pattern), since K.data = S p."""
    plan = system.plan
    # row i repeated over its entries; take is faster than fancy indexing
    # with the pattern's int32 columns
    return plan.S_T @ (np.repeat(lam, plan.row_sizes)
                       * u.take(plan.pattern.indices))


def _free_block(indptr, indices, free_mask) -> tuple:
    """The `_band_layout` of the free block K_ff of K's CSR pattern
    (indptr, indices), where `free_mask` marks the free dofs."""
    # K's entries whose row and column are both free are K_ff's, in CSR
    # order; K_ff's row r starts after the ones kept before K's row r
    keep = np.repeat(free_mask, np.diff(indptr))
    keep &= free_mask.take(indices)
    kept_before = np.zeros(indices.size + 1, dtype=indptr.dtype)
    np.cumsum(keep, out=kept_before[1:])
    ff_indptr = kept_before.take(np.append(indptr[:-1][free_mask],
                                           indices.size))
    renumber = np.cumsum(free_mask, dtype=indices.dtype)
    renumber -= 1
    slots = np.flatnonzero(keep)
    slots += 1  # so that no slot is stored as a zero
    n = ff_indptr.size - 1
    # one transpose puts the slots in CSC order, rows ascending
    return _band_layout(scipy.sparse.csr_matrix(
        (slots, renumber.take(indices[keep]), ff_indptr), shape=(n, n)
    ).tocsc())


def _band_layout(ff: scipy.sparse.csc_matrix) -> tuple:
    """(order, bw, src, slots) for factoring K_ff as a band, from `ff`,
    K_ff's CSC pattern with 1 + each entry's slot in K.data as its data, as
    `_free_block` makes it: the reverse Cuthill-McKee order of its
    symmetric pattern, the half-bandwidth bw of K_ff in that order, and for
    each entry K.data[src[i]] of the reordered lower triangle its flat index
    slots[i] = col (bw + 1) + row - col in LAPACK's (bw + 1) x n lower band,
    column-major so LAPACK factors it in place."""
    n = ff.shape[0]
    order = (reverse_cuthill_mckee(ff, symmetric_mode=True) if n
             else np.zeros(0, dtype=np.int32))  # RCM rejects an empty graph
    position = np.argsort(order)
    # each entry's row and column in that order
    rows = position.take(ff.indices)
    cols = np.repeat(position, np.diff(ff.indptr))
    lower = rows >= cols
    cols = cols[lower]
    offset = rows[lower] - cols
    bw = int(offset.max(initial=0))
    return order, bw, ff.data[lower] - 1, cols * (bw + 1) + offset


def _one_norm(system: FemSystem) -> float:
    """||K_ff||_1, the largest absolute column sum of K_ff, read off the
    lower band that `_factor` fills: each entry adds to its column's sum
    and, below the diagonal, by symmetry to its row's."""
    order, bw, src, slots = system.plan.band
    entries = np.abs(system.K.data.take(src))
    cols, offset = np.divmod(slots, bw + 1)
    below = offset > 0
    sums = np.bincount(cols, entries, minlength=order.size)
    sums += np.bincount((cols + offset)[below], entries[below],
                        minlength=order.size)
    return float(sums.max(initial=0.0))


def _factor(system: FemSystem):
    """(order, band factor) of the system's free block, factored once by
    LAPACK's dpbtrf on a lower band filled from K.data."""
    if system._factor is None:
        order, bw, src, slots = system.plan.band
        ab = np.zeros((bw + 1, order.size), order="F")
        ab.reshape(-1, order="F")[slots] = system.K.data[src]
        chol, info = scipy.linalg.lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
        if info != 0:
            raise WellPosednessError(
                f"reduced matrix is not positive definite (dpbtrf info {info})"
            )
        object.__setattr__(system, "_factor", (order, chol))
    return system._factor


def _backward_error(system: FemSystem, r, x_sum, b_sum) -> float:
    """||K_ff x - b||_1 / (||K_ff||_1 ||x||_1 + ||b||_1) from the three
    1-norms of a solve; ||K_ff||_1 is computed on the first call for the
    system."""
    if system._norm is None:
        object.__setattr__(system, "_norm", _one_norm(system))
    # a zero scale means x = b = 0, so the error is 0
    return float(r / max(system._norm * x_sum + b_sum, _TINY))


def _solve_free(system: FemSystem, b: np.ndarray):
    """Solve K_ff x = b; returns x and the guard's 1-norms
    (||K_ff x - b||_1, ||x||_1, ||b||_1), from which `_backward_error`
    computes the normwise backward error.

    Raises SolverFailure when the normwise backward error
    ||K_ff x - b||_1 / (||K_ff||_1 ||x||_1 + ||b||_1) exceeds
    BACKWARD_ERROR_TOL, which it reads on each call.
    """
    if b.shape[0] == 0:
        return np.zeros(0), (0.0, 0.0, 0.0)
    order, chol = _factor(system)
    x = np.empty(b.shape[0])
    # dpbtrs reports only illegal arguments, which its wrapper's shape
    # checks rule out
    x[order] = scipy.linalg.lapack.dpbtrs(chol, b[order], lower=1,
                                          overwrite_b=1)[0]
    # K x at the free rows, x padded with zeros, is K_ff x: the same products
    # in the same order, as the prescribed columns add only zeros
    free = system.plan.free
    padded = np.zeros(system.K.shape[0])
    padded[free] = x
    r = np.abs((system.K @ padded)[free] - b).sum()
    b_sum = np.abs(b).sum()
    guard = (r, np.abs(x).sum(), b_sum)
    # the scale max(||K_ff||_1 ||x||_1 + ||b||_1, tiny) is at least
    # max(||b||_1, tiny), and rounding keeps that order, so an error that
    # meets the bound against the smaller scale meets it against the true one
    if not r / max(b_sum, _TINY) <= BACKWARD_ERROR_TOL:
        res = _backward_error(system, *guard)
        if not res <= BACKWARD_ERROR_TOL:  # a NaN error fails too
            raise SolverFailure(f"solve left backward error {res:.3e} above "
                                f"BACKWARD_ERROR_TOL {BACKWARD_ERROR_TOL:g}",
                                residual=res)
    return x, guard


def solve(system: FemSystem) -> FieldSolution:
    """Solve K U = F under the system's boundary conditions.

    The solve fails with SolverFailure if its normwise backward error
    ||K_ff x - b||_1 / (||K_ff||_1 ||x||_1 + ||b||_1) exceeds
    BACKWARD_ERROR_TOL; the solution's `residual` is that backward error,
    computed when first read.
    """
    plan = system.plan
    x, guard = _solve_free(system, system.rhs)
    U = plan.u_prescribed.copy()
    U[plan.free] = x
    values = U.reshape(plan.n_vertices, plan.dofs_per_vertex)
    if plan.dofs_per_vertex == 1:
        values = values[:, 0]
    return FieldSolution(values=values, system=system, guard=guard)


def adjoint_solve(system: FemSystem, weights: np.ndarray) -> np.ndarray:
    """Solve K_ff lambda = w_f with the system's factor; returns the
    full-length adjoint vector with zeros at prescribed dofs. `weights` has
    one entry per global dof; the backward-error bound is as for `solve`."""
    weights = np.asarray(weights, dtype=np.float64)
    free = system.plan.free
    x, _ = _solve_free(system, weights[free])
    lam = np.zeros(len(weights))
    lam[free] = x
    return lam
