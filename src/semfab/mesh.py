"""Tetrahedral meshes: generators, validation, layering, JSON I/O.

Units are millimetres throughout. All generated meshes are conforming
(every interior face shared by exactly two tets) and positively oriented.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import MeshFormatError


@dataclass(frozen=True)
class VolumetricMesh:
    """Pure-tet volume mesh. vertices (n,3) float64 mm, tets (m,4) int64."""

    vertices: np.ndarray
    tets: np.ndarray
    units: str = "mm"

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.tets.shape[0]

    def volumes(self) -> np.ndarray:
        """Signed volume of every tet (positive for valid meshes).

        Computed once per mesh; the array is read-only.
        """
        return self._volumes

    def vertex_volume_weights(self) -> np.ndarray:
        """Nodal weights w_i = sum of V_e/4 over elements touching vertex i.

        Computed once per mesh; the array is read-only.
        """
        return self._vertex_weights

    # a mesh is immutable, so what depends on it alone is cached on it
    @functools.cached_property
    def _volumes(self) -> np.ndarray:
        vols = _kernels.tet_volumes(self.vertices, self.tets)
        vols.flags.writeable = False
        return vols

    @functools.cached_property
    def _vertex_weights(self) -> np.ndarray:
        weights = np.zeros(self.n_vertices)
        np.add.at(weights, self.tets.reshape(-1),
                  np.repeat(self.volumes() / 4.0, 4))
        weights.flags.writeable = False
        return weights

    def centroids(self) -> np.ndarray:
        # the sum starts from +0.0, as numpy's mean over the corners did
        corners = self.vertices.take(self.tets.T, axis=0)
        return ((((0.0 + corners[0]) + corners[1]) + corners[2])
                + corners[3]) / 4.0

    def bbox_diagonal(self) -> float:
        """Length of the bounding box's diagonal; computed once per mesh."""
        return self._bbox_diagonal

    @functools.cached_property
    def _bbox_diagonal(self) -> float:
        extent = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(np.linalg.norm(extent))


@dataclass(frozen=True)
class LayerPartition:
    """Disjoint element-id layers ordered by ascending build direction (z).

    ``element_layer`` is every element's layer and ``layers[k]`` is
    ``np.flatnonzero(element_layer == k)``; all are read-only intp arrays.
    """

    layer_height: float
    layers: list[np.ndarray]
    element_layer: np.ndarray

    @property
    def n_layers(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class Violation:
    kind: str
    index: int
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _as_mesh_array(doc, key, dtype, width):
    """``doc[key]`` as a C-contiguous ``dtype`` array of rows of ``width``;
    a number past ``dtype``'s range is a :class:`MeshFormatError`."""
    try:
        a = np.ascontiguousarray(doc[key], dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MeshFormatError(f"malformed mesh {key}: {exc}") from exc
    if a.ndim != 2 or a.shape[1] != width:
        raise MeshFormatError(f"{key} must be an (n, {width}) array")
    return a


# ---------------------------------------------------------------------------
# generators

# The 6 tets of the Kuhn cube split walk from corner (0,0,0) to (1,1,1),
# one axis step per vertex, one tet per axis permutation. Odd permutations
# reverse orientation, fixed by swapping the two middle vertices. Every
# cell is split the same way, so shared faces line up across cells.
def _kuhn_offsets():
    out = []
    for perm in permutations((0, 1, 2)):
        corners = [(0, 0, 0)]
        cur = [0, 0, 0]
        for axis in perm:
            cur[axis] = 1
            corners.append(tuple(cur))
        inversions = sum(
            perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3)
        )
        if inversions % 2 == 1:
            corners[1], corners[2] = corners[2], corners[1]
        out.append(corners)
    return out


_KUHN = _kuhn_offsets()


def generate_box_mesh(nx: int, ny: int, nz: int, dims) -> VolumetricMesh:
    """Structured box mesh on [0,dims] with nx*ny*nz cells of 6 tets each."""
    dims = np.asarray(dims, dtype=np.float64)
    if not all(isinstance(n, (int, np.integer)) and n >= 1 for n in (nx, ny, nz)):
        raise ValueError("subdivision counts must be integers >= 1")
    if dims.shape != (3,) or not np.all(dims > 0):
        raise ValueError("dims must be 3 strictly positive lengths")

    xs = np.linspace(0.0, dims[0], nx + 1)
    ys = np.linspace(0.0, dims[1], ny + 1)
    zs = np.linspace(0.0, dims[2], nz + 1)
    grid = np.meshgrid(xs, ys, zs, indexing="ij")
    vertices = np.stack(grid, axis=-1).reshape(-1, 3)

    # vertex id of grid point (i,j,k) is (i*(ny+1)+j)*(nz+1)+k, so a corner
    # offset is a constant id offset and cells vectorize
    def vid_offset(di, dj, dk):
        return (di * (ny + 1) + dj) * (nz + 1) + dk

    ii, jj, kk = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    base = ((ii * (ny + 1) + jj) * (nz + 1) + kk).reshape(-1)
    tets = np.empty((base.size, 6, 4), dtype=np.int64)
    for t, corners in enumerate(_KUHN):
        for slot, c in enumerate(corners):
            tets[:, t, slot] = base + vid_offset(*c)
    return VolumetricMesh(vertices, tets.reshape(-1, 4))


# Orientation-preserving prism symmetries that bring each vertex to slot 0
# (three turns about the axis, three end-over-end flips).
_PRISM_ROTATIONS = (
    (0, 1, 2, 3, 4, 5),
    (1, 2, 0, 4, 5, 3),
    (2, 0, 1, 5, 3, 4),
    (3, 5, 4, 0, 2, 1),
    (4, 3, 5, 1, 0, 2),
    (5, 4, 3, 2, 1, 0),
)


def _split_prism(p):
    """Split wedge (bottom p0,p1,p2 / top p3,p4,p5) into 3 tets.

    Quad-face diagonals always pass through each face's smallest global
    vertex id, so adjacent prisms split shared quads identically and the
    result conforms without any neighbor bookkeeping.
    """
    rot = _PRISM_ROTATIONS[min(range(6), key=lambda i: p[i])]
    q = tuple(p[j] for j in rot)
    if min(q[1], q[5]) < min(q[2], q[4]):
        return [
            (q[0], q[1], q[2], q[5]),
            (q[0], q[1], q[5], q[4]),
            (q[0], q[4], q[5], q[3]),
        ]
    return [
        (q[0], q[1], q[2], q[4]),
        (q[0], q[4], q[2], q[5]),
        (q[0], q[4], q[5], q[3]),
    ]


def generate_shaft_mesh(
    radius: float, height: float, n_radial: int, n_axial: int
) -> VolumetricMesh:
    """Cylinder approximated by an inscribed n_radial-gon, extruded in z.

    Each axial slab is a fan of wedges around a center vertex; wedges are
    split into 3 tets each. Flat faces at z=0 and z=height.
    """
    if radius <= 0 or height <= 0:
        raise ValueError("radius and height must be positive")
    if not isinstance(n_radial, (int, np.integer)) or n_radial < 3:
        raise ValueError("n_radial must be an integer >= 3")
    if not isinstance(n_axial, (int, np.integer)) or n_axial < 1:
        raise ValueError("n_axial must be an integer >= 1")

    theta = 2.0 * np.pi * np.arange(n_radial) / n_radial
    ring = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    zs = np.linspace(0.0, height, n_axial + 1)

    stride = n_radial + 1  # center vertex + ring per level
    vertices = np.zeros(((n_axial + 1) * stride, 3))
    for lvl, z in enumerate(zs):
        vertices[lvl * stride, 2] = z
        rows = slice(lvl * stride + 1, (lvl + 1) * stride)
        vertices[rows, 0:2] = ring
        vertices[rows, 2] = z

    tets = []
    for lvl in range(n_axial):
        c0 = lvl * stride
        c1 = (lvl + 1) * stride
        for a in range(n_radial):
            b = (a + 1) % n_radial
            prism = (c0, c0 + 1 + a, c0 + 1 + b, c1, c1 + 1 + a, c1 + 1 + b)
            tets.extend(_split_prism(prism))
    return VolumetricMesh(vertices, np.asarray(tets, dtype=np.int64))


# ---------------------------------------------------------------------------
# validation and derived structure

# Faces of tet (v0,v1,v2,v3) wound so normals point out of the element.
_TET_FACES = ((0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2))
_TET_FACE_SLOTS = np.array(_TET_FACES).reshape(-1)
# the largest span s of values for which (s - 1) * s + (s - 1) fits in int64
_PACKABLE_SPAN = 3_037_000_499


def _tet_faces(tets: np.ndarray) -> np.ndarray:
    """The 4 outward-wound faces of each tet; face 4e+f is from tet e."""
    return tets.take(_TET_FACE_SLOTS, axis=1).reshape(-1, 3)


def _sorted_columns(faces: np.ndarray):
    """The vertex ids of each face in ascending order, as three columns
    (lo, mid, hi). Should a + b + c wrap around int64, subtracting lo and
    hi wraps it back, so mid is exact for any ids."""
    a, b, c = faces.T
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    return lo, a + b + c - lo - hi, hi


def _group_rows(*columns: np.ndarray):
    """Group the equal rows of an integer table given by its columns, each
    row in ascending order.

    Returns (order, starts, counts): `order` sorts the rows by column 0,
    then 1, ..., keeping equal rows in index order, and group g is rows
    order[starts[g]:starts[g] + counts[g]]. Groups come in ascending
    lexicographic order of their rows. The first two columns are sorted as
    one key, (first - lo) * span + (second - lo) over the span of the
    values, which is exact while that fits in int64 (up to about 3e9
    distinct values); a wider table is sorted column by column.
    """
    lo = int(columns[0].min(initial=0))
    span = int(columns[-1].max(initial=0)) - lo + 1
    if span <= _PACKABLE_SPAN:
        key = (columns[0].astype(np.int64, copy=False) - lo) * span
        columns = (key + (columns[1] - lo),) + columns[2:]
    order = np.lexsort(columns[::-1])
    first = np.zeros(order.size, dtype=bool)
    first[:1] = True
    for column in columns:
        ordered = column[order]
        first[1:] |= ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=order.size)
    return order, starts, counts


def boundary_faces(mesh: VolumetricMesh) -> np.ndarray:
    """Outward-oriented boundary triangles, shape (t, 3).

    A boundary face is one that exactly one tet has; the faces come in the
    order of their tets.
    """
    faces = _tet_faces(mesh.tets)
    order, starts, counts = _group_rows(*_sorted_columns(faces))
    lone = np.zeros(faces.shape[0], dtype=bool)
    lone[order[starts[counts == 1]]] = True
    return faces[lone]


def face_adjacency(mesh: VolumetricMesh) -> np.ndarray:
    """Pairs of element ids sharing a triangular face, shape (k, 2).

    Only a face that exactly two tets have gives a pair, the lower element
    id first; a face of three or more tets (see validate_mesh) gives none.
    Pairs come in ascending order of their sorted face vertex triples.
    """
    order, starts, counts = _group_rows(
        *_sorted_columns(_tet_faces(mesh.tets)))
    first = starts[counts == 2]
    return np.column_stack([order[first] // 4, order[first + 1] // 4])


def validate_mesh(mesh: VolumetricMesh) -> ValidationReport:
    """Check mesh invariants; violations are returned, never raised."""
    violations: list[Violation] = []
    n = mesh.n_vertices
    tets = mesh.tets

    in_range = np.all((tets >= 0) & (tets < n), axis=1)
    for e in np.flatnonzero(~in_range):
        violations.append(
            Violation("vertex_out_of_range", int(e),
                      f"tet {e} references a vertex id outside 0..{n - 1}")
        )
    good = tets[in_range]

    if good.size:
        vols = _kernels.tet_volumes(mesh.vertices, good)
        for local, e in zip(
            np.flatnonzero(vols <= 0.0), np.flatnonzero(in_range)[vols <= 0.0]
        ):
            violations.append(
                Violation("nonpositive_volume", int(e),
                          f"tet {e} has signed volume {vols[local]:.3e}")
            )

    referenced = np.zeros(n, dtype=bool)
    referenced[good.reshape(-1)] = True
    for v in np.flatnonzero(~referenced):
        violations.append(
            Violation("unreferenced_vertex", int(v),
                      f"vertex {v} is not used by any tet")
        )

    if good.size:
        keys = np.column_stack(_sorted_columns(_tet_faces(good)))
        order, starts, counts = _group_rows(*keys.T)
        for f in np.flatnonzero(counts > 2):
            face = keys[order[starts[f]]]
            violations.append(
                Violation("face_overshared", int(face[0]),
                          f"face {tuple(int(x) for x in face)} shared by "
                          f"{counts[f]} tets")
            )
        # boundary must close up: every boundary edge on exactly 2 boundary
        # tris; a boundary face is one of exactly one tet. The rows of
        # `keys` ascend, so each edge's pair does too
        bnd = keys[order[starts[counts == 1]]]
        if bnd.size:
            edges = bnd[:, np.array([(0, 1), (1, 2), (0, 2)])].reshape(-1, 2)
            eorder, estarts, ecounts = _group_rows(*edges.T)
            for idx in np.flatnonzero(ecounts != 2):
                edge = edges[eorder[estarts[idx]]]
                violations.append(
                    Violation(
                        "nonmanifold_boundary", int(edge[0]),
                        f"boundary edge {tuple(int(x) for x in edge)} "
                        f"lies on {ecounts[idx]} boundary faces",
                    )
                )
    return ValidationReport(violations)


def layer_partition(mesh: VolumetricMesh, layer_height: float) -> LayerPartition:
    """Bin elements into build layers by centroid height above the mesh bottom.

    Element e lands in layer k when its centroid satisfies
    k*h <= z_centroid - z_min < (k+1)*h. Layer count is ceil(extent / h),
    at most the element count, since a partition with more layers leaves
    one empty.
    """
    if not layer_height > 0:
        raise ValueError("layer_height must be positive")
    z = mesh.vertices[:, 2]
    z_min = float(z.min())
    extent = float(z.max()) - z_min
    q = extent / layer_height
    q -= 1e-9 * max(1.0, q)
    # checked before any cast; an infinite q leaves nan, refused too
    if not q <= mesh.n_elements:
        raise ValueError(f"layer_height {layer_height} gives more layers "
                         f"than the {mesh.n_elements} elements")
    n_layers = max(1, math.ceil(q))
    zc = mesh.centroids()[:, 2]
    idx = np.floor((zc - z_min) / layer_height).astype(np.intp)
    np.clip(idx, 0, n_layers - 1, out=idx)
    idx.flags.writeable = False
    # a stable sort keeps each layer's elements ascending, and each layer
    # is a read-only slice of the one order
    order = np.argsort(idx, kind="stable")
    order.flags.writeable = False
    ends = np.cumsum(np.bincount(idx, minlength=n_layers)).tolist()
    layers = [order[start:end] for start, end in zip([0] + ends, ends)]
    return LayerPartition(layer_height=float(layer_height), layers=layers,
                          element_layer=idx)


# ---------------------------------------------------------------------------
# file format


def mesh_to_dict(mesh: VolumetricMesh) -> dict:
    return {
        "units": {"length": mesh.units},
        "vertices": mesh.vertices.tolist(),
        "tets": mesh.tets.tolist(),
    }


def mesh_from_dict(doc: dict) -> VolumetricMesh:
    if not isinstance(doc, dict):
        raise MeshFormatError("mesh document must be a JSON object")
    for key in ("vertices", "tets"):
        if key not in doc:
            raise MeshFormatError(f"mesh document missing '{key}'")
    units = doc.get("units", {})
    length_unit = units.get("length", "mm") if isinstance(units, dict) else units
    if length_unit != "mm":
        raise MeshFormatError(f"unsupported length unit {length_unit!r}")
    vertices = _as_mesh_array(doc, "vertices", np.float64, 3)
    tets = _as_mesh_array(doc, "tets", np.int64, 4)
    if tets.size and (tets.min() < 0 or tets.max() >= vertices.shape[0]):
        raise MeshFormatError("tet references a vertex id out of range")
    bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
    if bad.size:
        raise MeshFormatError(f"vertex {bad[0]} has a non-finite coordinate")
    return VolumetricMesh(vertices, tets, units=length_unit)


def save_mesh(mesh: VolumetricMesh, path) -> None:
    Path(path).write_text(json.dumps(mesh_to_dict(mesh)) + "\n")


def load_mesh(path) -> VolumetricMesh:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise MeshFormatError(f"not valid JSON: {exc}") from exc
    return mesh_from_dict(doc)
