"""Machine-checkable annotations attached to a mesh.

An annotation layer records, per vertex, admissible displacement and force
sets (axis-aligned boxes), prescribed temperatures and fluxes, and, per
element, admissible ranges for the four material parameters. It also holds
global property specifications (volume, mass, displacement and temperature
bounds) and an optional Lipschitz regularity requirement on one material
field. Layers are parsed from and serialized to JSON; binding one to a mesh
resolves all references and checks the problem is well posed.

A :class:`FieldEvaluation` solves each physics of one material field at
most once and counts every solve, adjoint ones too, in a :class:`RunStats`
shared by a run; :func:`measure` reads each property quantity from it, and
:func:`check` judges a property by it, giving the one :class:`Verdict` and
the excesses that the final check, the CLI and the optimizer all use.

Conventions:
  - a displacement box with zero width on all axes is a prescribed
    (Dirichlet) value; "fixed" is shorthand for the zero point
  - a force box contributes its midpoint as the applied nodal load; vertices
    without a force annotation carry zero external load, and their reaction
    is reported when the displacement is prescribed
  - temperatures follow the same pattern in scalar form; a bare number is a
    prescribed value; an interval of nonzero width, like a displacement
    box, is parsed, kept and written back, but no command checks it: a
    field is judged only by :func:`check`, on its properties
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fem
from .errors import AnnotationParseError, BindError, WellPosednessError
from .mesh import VolumetricMesh

CANONICAL_UNITS = {
    "length": "mm",
    "force": "N",
    "pressure": "MPa",
    "temperature": "K",
    "conductivity": "W/(mm*K)",
    "density": "kg/mm^3",
}

PARAMETERS = ("young", "poisson", "conductivity", "density")

# quantity -> (allowed comparisons, needs vertex tags)
_QUANTITIES = {
    "volume": (("le", "ge"), False),
    "mass": (("le", "ge"), False),
    "max_displacement": (("le",), True),
    "nodal_temperature": (("le",), True),
    "average_temperature": (("le",), False),
}


@dataclass(frozen=True)
class PropertySpec:
    """One checkable property: <quantity> <op> <bound>, maybe on a vertex set."""

    name: str
    quantity: str
    op: str
    bound: float
    vertices: tuple[int, ...] = ()


@dataclass(frozen=True)
class Verdict:
    """One bound checked against a field: ``measured`` is the worst value,
    ``excess`` how far past ``bound`` it lies (negative inside), and the
    check passes at ``excess <= 0``."""

    name: str
    quantity: str
    measured: float
    bound: float
    excess: float
    passed: bool

    @property
    def margin(self) -> float:
        """How far inside the bound the worst value lies; 0.0 - excess keeps
        a zero margin +0.0."""
        return 0.0 - self.excess


@dataclass(frozen=True)
class FieldRegularity:
    gamma: float
    parameter: str


@dataclass(frozen=True)
class VertexAnnotation:
    """Per-vertex constraint sets; None means unconstrained/free."""

    displacement: np.ndarray | None = None  # (3,2) lo/hi, mm
    force: np.ndarray | None = None  # (3,2) lo/hi, N
    temperature: np.ndarray | None = None  # (2,) lo/hi, K
    flux: float | None = None  # W

    def displacement_prescribed(self) -> bool:
        d = self.displacement
        return d is not None and bool(
            np.all(np.isfinite(d)) and np.all(d[:, 0] == d[:, 1])
        )

    def temperature_prescribed(self) -> bool:
        t = self.temperature
        return t is not None and bool(np.all(np.isfinite(t)) and t[0] == t[1])


@dataclass(frozen=True)
class SemanticLayer:
    vertex_annotations: dict[int, VertexAnnotation] = field(default_factory=dict)
    element_defaults: dict[str, tuple[float, float]] = field(default_factory=dict)
    element_overrides: dict[int, dict[str, tuple[float, float]]] = field(
        default_factory=dict
    )
    global_properties: tuple[PropertySpec, ...] = ()
    field_regularity: FieldRegularity | None = None

    def to_dict(self) -> dict:
        return _layer_to_dict(self)

    def __eq__(self, other):
        if not isinstance(other, SemanticLayer):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash(json.dumps(self.to_dict(), sort_keys=True))


@dataclass
class MaterialField:
    """Per-element material parameters plus a provenance tag per element.

    Provenance records where each value came from: "commanded" (sent to the
    printer), "achieved" (ground truth after actuation), or "estimated"
    (posterior from in-process measurements).
    """

    young: np.ndarray
    poisson: np.ndarray
    conductivity: np.ndarray
    density: np.ndarray
    provenance: np.ndarray

    def __post_init__(self):
        n = len(self.young)
        for name in ("poisson", "conductivity", "density", "provenance"):
            if len(getattr(self, name)) != n:
                raise ValueError("material field arrays must share one length")

    @classmethod
    def uniform(
        cls,
        n_elements: int,
        young: float = 1.0,
        poisson: float = 0.0,
        conductivity: float = 1.0,
        density: float = 1.0,
        provenance: str = "commanded",
    ) -> "MaterialField":
        return cls(
            np.full(n_elements, float(young)),
            np.full(n_elements, float(poisson)),
            np.full(n_elements, float(conductivity)),
            np.full(n_elements, float(density)),
            np.full(n_elements, provenance, dtype="<U9"),
        )

    @property
    def n_elements(self) -> int:
        return len(self.young)

    def values(self, parameter: str) -> np.ndarray:
        if parameter not in PARAMETERS:
            raise KeyError(f"unknown material parameter {parameter!r}")
        return getattr(self, parameter)

    def copy(self) -> "MaterialField":
        return MaterialField(
            self.young.copy(),
            self.poisson.copy(),
            self.conductivity.copy(),
            self.density.copy(),
            self.provenance.copy(),
        )

    def with_values(self, indices, parameter: str, values, provenance=None):
        """Field with `parameter` overwritten at `indices`, and `provenance`
        too when given. Only the arrays that change are copied; the result
        shares the others with this field as read-only views, so `copy()`
        it before writing into them."""
        changed = self.values(parameter).copy()
        changed[indices] = values
        if provenance is None:
            tags = _shared_view(self.provenance)
        else:
            tags = self.provenance.copy()
            tags[indices] = provenance
        return MaterialField(
            *(changed if name == parameter else _shared_view(getattr(self, name))
              for name in PARAMETERS),
            tags,
        )


def _shared_view(array: np.ndarray) -> np.ndarray:
    """`array` as a read-only view; one that is read-only already serves
    as it is."""
    if not array.flags.writeable:
        return array
    view = array.view()
    view.setflags(write=False)
    return view


def field_to_dict(fld: MaterialField) -> dict:
    """A field's JSON document; a value that is not finite, such as that
    of an element a print has not reached, is null."""
    doc = {name: [x if math.isfinite(x) else None
                  for x in fld.values(name).tolist()] for name in PARAMETERS}
    doc["provenance"] = fld.provenance.tolist()
    return doc


def field_from_dict(doc: dict) -> MaterialField:
    """A field from its JSON document. Raises AnnotationParseError, naming
    the key, unless each parameter is a list of finite numbers and
    `provenance` a list of strings, all of one length: a field to verify
    has a value on every element, so a null is refused too."""
    if not isinstance(doc, dict):
        raise AnnotationParseError("material field must be a JSON object")
    for key in (*PARAMETERS, "provenance"):
        values = doc.get(key)
        kind, valid = (("finite numbers", finite_number) if key in PARAMETERS
                       else ("strings", lambda x: isinstance(x, str)))
        if not (isinstance(values, list) and all(map(valid, values))):
            _fail(f"must be a list of {kind}, one per element of the "
                  "material field", key)
    try:
        return MaterialField(
            *(np.asarray(doc[name], dtype=np.float64) for name in PARAMETERS),
            np.asarray(doc["provenance"], dtype="<U9"),
        )
    except ValueError as exc:
        raise AnnotationParseError(f"malformed material field: {exc}") from exc


# ---------------------------------------------------------------------------
# JSON parsing


def _fail(msg: str, where: str):
    raise AnnotationParseError(msg, field=where)


def _container(doc, key, kind=dict, where=None):
    """``doc[key]``, empty when absent; fails at ``where`` (``key`` by
    default) unless it is a ``kind``."""
    val = doc.get(key, kind())
    if not isinstance(val, kind):
        _fail(f"{key} must be {'an object' if kind is dict else 'a list'}",
              where or key)
    return val


def finite_number(x) -> bool:
    """A finite number; `json` also reads NaN, Infinity and ints past
    float range, which are not."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _interval(val, where, allow_unbounded=True) -> tuple[float, float]:
    if not (isinstance(val, (list, tuple)) and len(val) == 2):
        _fail("expected [min, max]", where)
    lo, hi = val
    # null, not an infinite number, marks an unbounded side
    if not all(finite_number(x) or allow_unbounded and x is None
               for x in val):
        _fail("interval endpoints must be finite numbers", where)
    lo = -math.inf if lo is None else lo
    hi = math.inf if hi is None else hi
    if lo > hi:
        _fail(f"interval min {lo} exceeds max {hi}", where)
    return float(lo), float(hi)


def _box3(val, where) -> np.ndarray:
    if not (isinstance(val, (list, tuple)) and len(val) == 3):
        _fail("expected a 3-vector or three [min, max] intervals", where)
    if all(finite_number(x) for x in val):
        point = np.asarray(val, dtype=np.float64)
        return np.column_stack([point, point])
    rows = [_interval(axis, f"{where}[{i}]") for i, axis in enumerate(val)]
    return np.asarray(rows, dtype=np.float64)


def _parse_vertex(doc, where) -> VertexAnnotation:
    if not isinstance(doc, dict):
        _fail("vertex annotation must be an object", where)
    known = {"displacement", "force", "temperature", "flux"}
    for key in doc:
        if key not in known:
            _fail(f"unknown vertex annotation key {key!r}", where)
    disp = doc.get("displacement", "unconstrained")
    if disp == "unconstrained":
        displacement = None
    elif disp == "fixed":
        displacement = np.zeros((3, 2))
    else:
        displacement = _box3(disp, f"{where}.displacement")
    force = doc.get("force", "free")
    force = None if force == "free" else _box3(force, f"{where}.force")
    temp = doc.get("temperature", "unconstrained")
    if temp == "unconstrained":
        temperature = None
    elif finite_number(temp):
        temperature = np.array([float(temp), float(temp)])
    else:
        temperature = np.asarray(
            _interval(temp, f"{where}.temperature"), dtype=np.float64
        )
    flux = doc.get("flux", "free")
    if flux == "free":
        flux_val = None
    elif finite_number(flux):
        flux_val = float(flux)
    else:
        _fail("flux must be a finite number or \"free\"", f"{where}.flux")
    return VertexAnnotation(displacement, force, temperature, flux_val)


def _check_range(param, lo, hi, where):
    if param == "poisson":
        if lo <= -1.0 or hi >= 0.5:
            _fail(f"poisson range [{lo}, {hi}] must lie inside (-1, 0.5)", where)
    elif lo <= 0.0:
        _fail(f"{param} range [{lo}, {hi}] must be strictly positive", where)


def _parse_ranges(doc, where) -> dict[str, tuple[float, float]]:
    if not isinstance(doc, dict):
        _fail("expected an object of parameter ranges", where)
    out = {}
    for param, val in doc.items():
        if param not in PARAMETERS:
            _fail(f"unknown material parameter {param!r}", where)
        lo, hi = _interval(val, f"{where}.{param}", allow_unbounded=False)
        _check_range(param, lo, hi, f"{where}.{param}")
        out[param] = (lo, hi)
    return out


def _parse_property(doc, where) -> PropertySpec:
    if not isinstance(doc, dict):
        _fail("property must be an object", where)
    quantity = doc.get("quantity")
    if not isinstance(quantity, str) or quantity not in _QUANTITIES:
        _fail(f"unknown property quantity {quantity!r}", where)
    ops, needs_tags = _QUANTITIES[quantity]
    op = doc.get("op", "le")
    if op not in ops:
        _fail(f"quantity {quantity!r} does not support op {op!r}", where)
    bound = doc.get("bound")
    if not finite_number(bound):
        _fail("property bound must be a finite number", f"{where}.bound")
    name = doc.get("name", quantity)
    if not isinstance(name, str):
        _fail("property name must be a string", where)
    vertices = doc.get("vertices", [])
    if not isinstance(vertices, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in vertices
    ):
        _fail("vertices must be a list of nonnegative integer ids", where)
    if needs_tags and not vertices:
        _fail(f"local property {quantity!r} needs a non-empty vertex set", where)
    if not needs_tags and vertices:
        _fail(f"global property {quantity!r} must not carry a vertex set", where)
    return PropertySpec(name, quantity, op, float(bound), tuple(vertices))


def _int_key(key, where) -> int:
    try:
        idx = int(key)
    except (TypeError, ValueError):
        idx = -1
    if idx < 0 or (isinstance(key, str) and not key.isdigit()):
        _fail(f"key {key!r} is not a nonnegative integer id", where)
    return idx


def layer_from_dict(doc: dict) -> SemanticLayer:
    if not isinstance(doc, dict):
        raise AnnotationParseError("annotation document must be a JSON object")
    known = {
        "units",
        "vertex_annotations",
        "element_annotations",
        "global_properties",
        "field_regularity",
    }
    for key in doc:
        if key not in known:
            _fail(f"unknown top-level section {key!r}", key)

    units = _container(doc, "units")
    for kind, unit in units.items():
        expected = CANONICAL_UNITS.get(kind)
        if expected is None:
            _fail(f"unknown unit kind {kind!r}", "units")
        if unit != expected:
            _fail(f"unsupported {kind} unit {unit!r} (expected {expected!r})", "units")

    vertex_annotations = {}
    for key, val in _container(doc, "vertex_annotations").items():
        where = f"vertex_annotations.{key}"
        vid = _int_key(key, where)
        vertex_annotations[vid] = _parse_vertex(val, where)

    elems = _container(doc, "element_annotations")
    for key in elems:
        if key not in ("default", "overrides"):
            _fail(f"unknown element_annotations key {key!r}", "element_annotations")
    defaults = _parse_ranges(
        elems.get("default", {}), "element_annotations.default"
    )
    overrides = {}
    for key, val in _container(elems, "overrides",
                               where="element_annotations.overrides").items():
        where = f"element_annotations.overrides.{key}"
        overrides[_int_key(key, where)] = _parse_ranges(val, where)

    props = _container(doc, "global_properties", list)
    properties = tuple(
        _parse_property(p, f"global_properties[{i}]") for i, p in enumerate(props)
    )

    regularity = None
    reg = doc.get("field_regularity")
    if reg is not None:
        if not isinstance(reg, dict):
            _fail("field_regularity must be an object", "field_regularity")
        gamma = reg.get("gamma")
        param = reg.get("parameter")
        if not finite_number(gamma) or gamma < 0:
            _fail("gamma must be a finite nonnegative number",
                  "field_regularity.gamma")
        if param not in PARAMETERS:
            _fail(
                f"unknown material parameter {param!r}", "field_regularity.parameter"
            )
        regularity = FieldRegularity(float(gamma), param)

    return SemanticLayer(
        vertex_annotations, defaults, overrides, properties, regularity
    )


def parse_semantic_layer(text) -> SemanticLayer:
    """Parse a JSON annotation document (str or bytes) into a SemanticLayer."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AnnotationParseError(f"not valid JSON: {exc}") from exc
    return layer_from_dict(doc)


# ---------------------------------------------------------------------------
# serialization


def _emit_interval(lo: float, hi: float):
    return [None if lo == -math.inf else lo, None if hi == math.inf else hi]


def _emit_box3(box: np.ndarray, fixed_keyword: bool):
    point = np.all(np.isfinite(box)) and np.all(box[:, 0] == box[:, 1])
    if point:
        if fixed_keyword and np.all(box == 0.0):
            return "fixed"
        return box[:, 0].tolist()
    return [_emit_interval(lo, hi) for lo, hi in box]


def _layer_to_dict(layer: SemanticLayer) -> dict:
    doc: dict = {"units": dict(CANONICAL_UNITS)}
    verts = {}
    for vid in sorted(layer.vertex_annotations):
        ann = layer.vertex_annotations[vid]
        entry = {}
        if ann.displacement is not None:
            entry["displacement"] = _emit_box3(ann.displacement, fixed_keyword=True)
        if ann.force is not None:
            entry["force"] = _emit_box3(ann.force, fixed_keyword=False)
        if ann.temperature is not None:
            lo, hi = ann.temperature
            entry["temperature"] = lo if lo == hi else _emit_interval(lo, hi)
        if ann.flux is not None:
            entry["flux"] = ann.flux
        if entry:
            verts[str(vid)] = entry
    if verts:
        doc["vertex_annotations"] = verts
    elem: dict = {}
    if layer.element_defaults:
        elem["default"] = {
            p: list(layer.element_defaults[p])
            for p in PARAMETERS
            if p in layer.element_defaults
        }
    if layer.element_overrides:
        elem["overrides"] = {
            str(eid): {p: list(r[p]) for p in PARAMETERS if p in r}
            for eid, r in sorted(layer.element_overrides.items())
        }
    if elem:
        doc["element_annotations"] = elem
    if layer.global_properties:
        props = []
        for prop in layer.global_properties:
            entry = {
                "name": prop.name,
                "quantity": prop.quantity,
                "op": prop.op,
                "bound": prop.bound,
            }
            if prop.vertices:
                entry["vertices"] = list(prop.vertices)
            props.append(entry)
        doc["global_properties"] = props
    if layer.field_regularity is not None:
        doc["field_regularity"] = {
            "gamma": layer.field_regularity.gamma,
            "parameter": layer.field_regularity.parameter,
        }
    return doc


def save_json(doc, path) -> None:
    """Write `doc` as strict JSON to `path`, indented by 2 with sorted keys
    and a final newline, whole or not at all: the dump streams into a
    temporary file beside `path`, which replaces `path` once the dump
    succeeds and is deleted if it fails."""
    tmp = Path(f"{os.fspath(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def serialize_semantic_layer(layer: SemanticLayer) -> str:
    return json.dumps(layer.to_dict(), indent=2) + "\n"


def save_semantic_layer(layer: SemanticLayer, path) -> None:
    Path(path).write_text(serialize_semantic_layer(layer))


def load_semantic_layer(path) -> SemanticLayer:
    return parse_semantic_layer(Path(path).read_text())


# ---------------------------------------------------------------------------
# binding


@dataclass(frozen=True)
class BoundSpecification:
    """A mesh plus fully resolved annotations; inputs to assembly and checks."""

    mesh: VolumetricMesh
    layer: SemanticLayer
    prescribed_displacements: dict[int, np.ndarray]
    applied_forces: dict[int, np.ndarray]
    prescribed_temperatures: dict[int, float]
    applied_fluxes: dict[int, float]
    parameter_ranges: dict[str, np.ndarray]  # name -> (m,2)
    properties: tuple[PropertySpec, ...]
    field_regularity: FieldRegularity | None

    def parameter_box(self, parameter: str) -> np.ndarray:
        return self.parameter_ranges[parameter]

    def midpoint_field(self) -> MaterialField:
        """Every parameter at the midpoint of its annotated range, tagged
        "commanded"; an unannotated parameter takes its default value."""
        defaults = {"young": 1.0, "poisson": 0.0, "conductivity": 1.0,
                    "density": 1.0}
        values = []
        for name in PARAMETERS:
            box = self.parameter_ranges[name]
            # inf - inf on an unannotated range would warn; nan is wanted
            with np.errstate(invalid="ignore"):
                mid = 0.5 * (box[:, 0] + box[:, 1])
            values.append(np.where(np.isfinite(mid), mid, defaults[name]))
        return MaterialField(
            *values, np.full(self.mesh.n_elements, "commanded", dtype="<U9")
        )

    def admissibility_mask(self, fld: MaterialField) -> np.ndarray:
        """Per-element True where every parameter sits inside its range."""
        ok = np.ones(self.mesh.n_elements, dtype=bool)
        for param in PARAMETERS:
            box = self.parameter_ranges[param]
            vals = fld.values(param)
            ok &= (vals >= box[:, 0]) & (vals <= box[:, 1])
        return ok

    def admissible(self, fld: MaterialField) -> bool:
        if fld.n_elements != self.mesh.n_elements:
            raise ValueError("field does not match mesh element count")
        return bool(np.all(self.admissibility_mask(fld)))


def _collinear(points: np.ndarray) -> bool:
    rel = points - points[0]
    return np.linalg.matrix_rank(rel, tol=1e-9 * max(1.0, np.abs(rel).max())) < 2


def bind_to_mesh(layer: SemanticLayer, mesh: VolumetricMesh) -> BoundSpecification:
    """Resolve all annotation references against a mesh.

    Raises BindError on dangling vertex/element ids and WellPosednessError
    when a referenced physics lacks the boundary data to pin down a unique
    solution (elasticity: at least 3 non-collinear fully fixed vertices;
    conduction: at least one prescribed temperature).
    """
    n, m = mesh.n_vertices, mesh.n_elements
    for vid in layer.vertex_annotations:
        if vid >= n:
            raise BindError(f"vertex annotation references id {vid}, mesh has {n}")
    for eid in layer.element_overrides:
        if eid >= m:
            raise BindError(f"element override references id {eid}, mesh has {m}")
    for prop in layer.global_properties:
        for vid in prop.vertices:
            if vid >= n:
                raise BindError(
                    f"property {prop.name!r} references vertex {vid}, mesh has {n}"
                )

    prescribed_disp: dict[int, np.ndarray] = {}
    applied_forces: dict[int, np.ndarray] = {}
    prescribed_temp: dict[int, float] = {}
    applied_flux: dict[int, float] = {}
    for vid, ann in layer.vertex_annotations.items():
        if ann.displacement_prescribed():
            prescribed_disp[vid] = ann.displacement[:, 0].copy()
        if ann.force is not None:
            applied_forces[vid] = ann.force.mean(axis=1)
        if ann.temperature_prescribed():
            prescribed_temp[vid] = float(ann.temperature[0])
        if ann.flux is not None:
            applied_flux[vid] = ann.flux

    ranges = {}
    for param in PARAMETERS:
        default = layer.element_defaults.get(param, (-math.inf, math.inf))
        box = np.tile(np.asarray(default, dtype=np.float64), (m, 1))
        for eid, override in layer.element_overrides.items():
            if param in override:
                box[eid] = override[param]
        ranges[param] = box

    mech_annotated = any(
        ann.displacement is not None or ann.force is not None
        for ann in layer.vertex_annotations.values()
    ) or any(
        p.quantity == "max_displacement" for p in layer.global_properties
    )
    if mech_annotated:
        if len(prescribed_disp) < 3:
            raise WellPosednessError(
                "elasticity needs at least 3 fully fixed vertices, "
                f"got {len(prescribed_disp)}"
            )
        anchors = mesh.vertices[sorted(prescribed_disp)]
        if _collinear(anchors):
            raise WellPosednessError(
                "fixed vertices are collinear; rotation about their axis is free"
            )

    therm_annotated = any(
        ann.temperature is not None or ann.flux is not None
        for ann in layer.vertex_annotations.values()
    ) or any(
        p.quantity in ("nodal_temperature", "average_temperature")
        for p in layer.global_properties
    )
    if therm_annotated and not prescribed_temp:
        raise WellPosednessError(
            "conduction needs at least one prescribed temperature"
        )

    return BoundSpecification(
        mesh=mesh,
        layer=layer,
        prescribed_displacements=prescribed_disp,
        applied_forces=applied_forces,
        prescribed_temperatures=prescribed_temp,
        applied_fluxes=applied_flux,
        parameter_ranges=ranges,
        properties=layer.global_properties,
        field_regularity=layer.field_regularity,
    )


# ---------------------------------------------------------------------------
# field evaluation and property checks


@dataclass
class RunStats:
    """What one run spent: the FEM solves it made, primal and adjoint.

    One instance is shared by everything that solves for a run, so each
    reported count is a difference of this one number.
    """

    fem_solves: int = 0


class FieldEvaluation:
    """The systems and solves of one material field on a specification.

    Each physics is assembled and solved at most once, however many
    quantities read its solution, and adjoint solves reuse its primal
    factor. Every solve is counted in `stats`, and every quantity that
    :func:`measure` reads off the evaluation is computed once and kept.
    `plan_for(physics)`, when given, supplies the assembly plan of `spec`
    for that physics. An evaluation is handed on, explicitly, to the next
    reader of the same field, so that field is not assembled, factored,
    solved or measured again.
    """

    def __init__(self, spec: BoundSpecification, fld: MaterialField,
                 plan_for=None, stats: RunStats | None = None):
        if fld.n_elements != spec.mesh.n_elements:
            raise ValueError("field does not match mesh element count")
        self.spec = spec
        self.field = fld
        self.stats = RunStats() if stats is None else stats
        self._plan_for = plan_for
        self._systems = {}
        self._solutions = {}
        self._measured = {}  # (quantity, vertices) -> measured value

    def system(self, physics: str) -> fem.FemSystem:
        if physics not in self._systems:
            plan = None if self._plan_for is None else self._plan_for(physics)
            self._systems[physics] = fem.assemble(
                self.spec, self.field, physics, plan=plan
            )
        return self._systems[physics]

    def solution(self, physics: str) -> fem.FieldSolution:
        if physics not in self._solutions:
            self._solutions[physics] = fem.solve(self.system(physics))
            self.stats.fem_solves += 1
        return self._solutions[physics]

    def adjoint(self, physics: str, weights: np.ndarray) -> np.ndarray:
        """K^-1 weights at the free dofs, zero at the prescribed ones, by one
        solve with the primal factor."""
        lam = fem.adjoint_solve(self.system(physics), weights)
        self.stats.fem_solves += 1
        return lam


def measure(evaluation: FieldEvaluation, quantity: str, vertices=()):
    """The value of a property quantity under the field of `evaluation`, on
    its specification.

    A local quantity (`max_displacement`, `nodal_temperature`) gives one
    value per vertex of `vertices`, in that order, as a read-only array,
    and its worst is their maximum; a global one gives a float. The
    evaluation keeps each (quantity, vertices) value it has measured, so
    asking again costs a lookup.
    """
    key = (quantity, tuple(vertices))
    if key not in evaluation._measured:
        value = _compute(evaluation, quantity, vertices)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        evaluation._measured[key] = value
    return evaluation._measured[key]


def _compute(evaluation: FieldEvaluation, quantity: str, vertices):
    """:func:`measure` without the evaluation's memo."""
    mesh = evaluation.spec.mesh
    if quantity == "volume":
        return float(mesh.volumes().sum())
    if quantity == "mass":
        return float(np.dot(evaluation.field.density, mesh.volumes()))
    if quantity == "max_displacement":
        disp = evaluation.solution("elasticity").values[list(vertices)]
        return np.linalg.norm(disp, axis=1)
    if quantity == "nodal_temperature":
        return evaluation.solution("conduction").values[list(vertices)]
    if quantity == "average_temperature":
        weights = vertex_volume_weights(mesh)
        temps = evaluation.solution("conduction").values
        return float(np.dot(weights, temps) / weights.sum())
    raise ValueError(f"unknown property quantity {quantity!r}")


def check(prop: PropertySpec, evaluation: FieldEvaluation):
    """Check `prop` under the field of `evaluation`, on its specification;
    this is the one judge of a field. Returns the :class:`Verdict` and the
    excesses it was judged on, as an array: one per vertex of a local
    property, in vertex order, or the one of a global property."""
    measured = measure(evaluation, prop.quantity, prop.vertices)
    worst = float(measured.max()) if prop.vertices else measured
    excess = worst - prop.bound if prop.op == "le" else prop.bound - worst
    # local quantities are "le" only; rounding is monotone, so the largest
    # of their excesses is the worst value's
    excesses = measured - prop.bound if prop.vertices else np.array([excess])
    return (Verdict(prop.name, prop.quantity, worst, prop.bound, excess,
                    excess <= 0.0),
            excesses)


def largest_excess(verdicts) -> float:
    """The largest excess of `verdicts`, negative when every bound holds
    with slack; 0.0 when there are none. A print history's and an optimizer
    trace's `max_violation`."""
    return max((v.excess for v in verdicts), default=0.0)


def verdict_to_dict(verdict: Verdict) -> dict:
    """A verdict as a report stores it and `semfab` prints it."""
    return {
        "name": verdict.name,
        "quantity": verdict.quantity,
        "passed": verdict.passed,
        "measured": verdict.measured,
        "margin": verdict.margin,
    }


def check_properties(evaluation: FieldEvaluation) -> tuple[Verdict, ...]:
    """Check every property of the evaluation's specification under its
    field; returns the verdicts in property order. The solves made are
    counted in `evaluation.stats`."""
    return tuple(
        check(prop, evaluation)[0]
        for prop in evaluation.spec.properties
    )


def vertex_volume_weights(mesh: VolumetricMesh) -> np.ndarray:
    """Nodal weights w_i = sum of V_e/4 over elements touching vertex i,
    computed once per mesh; the array is read-only."""
    return mesh.vertex_volume_weights()
