import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from semfab.errors import AnnotationParseError, BindError, WellPosednessError
from semfab.mesh import boundary_faces, generate_box_mesh, generate_shaft_mesh
from semfab.semantics import (
    FieldEvaluation,
    MaterialField,
    PropertySpec,
    bind_to_mesh,
    check,
    field_from_dict,
    field_to_dict,
    layer_from_dict,
    parse_semantic_layer,
    serialize_semantic_layer,
    vertex_volume_weights,
)


def shaft_layer_doc(mesh, total_load=100.0, young=(110000.0, 120000.0),
                    poisson=(0.30, 0.36)):
    """Base face fixed, total axial load split equally over the top face."""
    z = mesh.vertices[:, 2]
    bottom = np.flatnonzero(z == z.min())
    top = np.flatnonzero(z == z.max())
    per_vertex = [0.0, 0.0, -total_load / len(top)]
    verts = {str(int(v)): {"displacement": "fixed"} for v in bottom}
    for v in top:
        verts[str(int(v))] = {"force": per_vertex}
    return {
        "vertex_annotations": verts,
        "element_annotations": {
            "default": {"young": list(young), "poisson": list(poisson)}
        },
    }


def test_parse_shaft_annotation():
    mesh = generate_shaft_mesh(1.0, 10.0, 8, 3)
    layer = layer_from_dict(shaft_layer_doc(mesh))
    z = mesh.vertices[:, 2]
    bottom = np.flatnonzero(z == 0.0)
    top = np.flatnonzero(z == 10.0)
    for v in bottom:
        ann = layer.vertex_annotations[int(v)]
        assert ann.displacement_prescribed()
        assert np.all(ann.displacement == 0.0)
    for v in top:
        ann = layer.vertex_annotations[int(v)]
        assert ann.force is not None
        assert_allclose(ann.force.mean(axis=1), [0, 0, -100.0 / len(top)])
    assert layer.element_defaults["young"] == (110000.0, 120000.0)
    assert layer.element_defaults["poisson"] == (0.30, 0.36)


def test_serialize_parse_roundtrip_is_identity():
    mesh = generate_shaft_mesh(1.0, 10.0, 6, 2)
    doc = shaft_layer_doc(mesh)
    doc["global_properties"] = [
        {"name": "not too heavy", "quantity": "mass", "op": "le", "bound": 1e-3},
        {"name": "v", "quantity": "volume", "op": "ge", "bound": 20.0},
    ]
    doc["field_regularity"] = {"gamma": 0.25, "parameter": "young"}
    layer = layer_from_dict(doc)
    again = parse_semantic_layer(serialize_semantic_layer(layer))
    assert again == layer
    assert again.to_dict() == layer.to_dict()


def test_parse_accepts_bytes():
    text = json.dumps({"element_annotations": {"default": {"young": [1.0, 2.0]}}})
    layer = parse_semantic_layer(text.encode())
    assert layer.element_defaults["young"] == (1.0, 2.0)


def test_range_order_error_names_the_element():
    doc = {
        "element_annotations": {
            "overrides": {"3": {"young": [120000.0, 110000.0]}}
        }
    }
    with pytest.raises(AnnotationParseError) as err:
        layer_from_dict(doc)
    assert "overrides.3" in str(err.value)


@pytest.mark.parametrize(
    "ranges",
    [
        {"poisson": [0.2, 0.5]},
        {"poisson": [-1.0, 0.0]},
        {"young": [0.0, 1.0]},
        {"density": [-2.0, -1.0]},
        {"conductivity": [0.0, 0.0]},
    ],
)
def test_invalid_parameter_ranges_rejected(ranges):
    with pytest.raises(AnnotationParseError):
        layer_from_dict({"element_annotations": {"default": ranges}})


@pytest.mark.parametrize(
    "doc",
    [
        {"global_properties": [{"quantity": "girth", "op": "le", "bound": 1.0}]},
        {"global_properties": [{"quantity": "max_displacement", "op": "ge",
                                "bound": 1.0, "vertices": [0]}]},
        {"global_properties": [{"quantity": "max_displacement", "op": "le",
                                "bound": 1.0}]},
        {"global_properties": [{"quantity": "volume", "op": "le", "bound": 1.0,
                                "vertices": [0]}]},
        {"global_properties": [{"quantity": "mass", "op": "le", "bound": "big"}]},
        {"vertex_annotations": {"0": {"wrench": 1.0}}},
        {"vertex_annotations": {"-1": {"force": [0, 0, 1]}}},
        {"vertex_annotations": {"0": {"flux": "lots"}}},
        {"units": {"length": "inch"}},
        {"units": {"frequency": "Hz"}},
        {"torque_annotations": {}},
        {"field_regularity": {"gamma": -1.0, "parameter": "young"}},
        {"field_regularity": {"gamma": 1.0, "parameter": "stiffness"}},
    ],
)
def test_malformed_documents_rejected(doc):
    with pytest.raises(AnnotationParseError):
        layer_from_dict(doc)


@pytest.mark.parametrize("doc, field", [
    ({"vertex_annotations": [{"force": [0, 0, 1]}]}, "vertex_annotations"),
    ({"element_annotations": {"overrides": [{"young": [1.0, 2.0]}]}},
     "element_annotations.overrides"),
    ({"global_properties": [{"quantity": ["volume"], "bound": 1.0}]},
     "global_properties[0]"),
])
def test_malformed_containers_name_their_field(doc, field):
    with pytest.raises(AnnotationParseError) as err:
        layer_from_dict(doc)
    assert err.value.field == field


def test_parse_error_carries_field_path():
    with pytest.raises(AnnotationParseError) as err:
        layer_from_dict({"vertex_annotations": {"4": {"displacement": [[1, 0],
                                                                       [0, 1],
                                                                       [0, 1]]}}})
    assert err.value.field == "vertex_annotations.4.displacement[0]"


def test_bind_shaft_is_well_posed():
    mesh = generate_shaft_mesh(1.0, 10.0, 8, 3)
    spec = bind_to_mesh(layer_from_dict(shaft_layer_doc(mesh)), mesh)
    z = mesh.vertices[:, 2]
    assert len(spec.prescribed_displacements) == np.sum(z == 0.0)
    assert spec.prescribed_displacements or spec.applied_forces
    assert not (spec.prescribed_temperatures or spec.applied_fluxes)


def test_bind_rejects_free_floating_body():
    mesh = generate_shaft_mesh(1.0, 10.0, 8, 3)
    doc = shaft_layer_doc(mesh)
    doc["vertex_annotations"] = {
        k: v for k, v in doc["vertex_annotations"].items() if "force" in v
    }
    with pytest.raises(WellPosednessError):
        bind_to_mesh(layer_from_dict(doc), mesh)


def test_bind_rejects_collinear_anchors():
    mesh = generate_box_mesh(2, 1, 1, [2.0, 1.0, 1.0])
    on_axis = np.flatnonzero(
        (mesh.vertices[:, 1] == 0.0) & (mesh.vertices[:, 2] == 0.0)
    )
    assert len(on_axis) >= 3
    doc = {"vertex_annotations": {str(int(v)): {"displacement": "fixed"}
                                  for v in on_axis}}
    with pytest.raises(WellPosednessError):
        bind_to_mesh(layer_from_dict(doc), mesh)


def test_bind_rejects_dangling_references():
    mesh = generate_box_mesh(1, 1, 1, [1.0, 1.0, 1.0])
    with pytest.raises(BindError):
        bind_to_mesh(
            layer_from_dict({"vertex_annotations": {"1000000": {"flux": 1.0}}}),
            mesh,
        )
    with pytest.raises(BindError):
        bind_to_mesh(
            layer_from_dict(
                {"element_annotations": {"overrides": {"99": {"young": [1, 2]}}}}
            ),
            mesh,
        )
    with pytest.raises(BindError):
        bind_to_mesh(
            layer_from_dict(
                {"global_properties": [{"quantity": "max_displacement", "op": "le",
                                        "bound": 1.0, "vertices": [55]}]}
            ),
            mesh,
        )


def test_bind_thermal_only_layer_skips_mechanical_check():
    mesh = generate_box_mesh(1, 1, 2, [1.0, 1.0, 2.0])
    doc = {"vertex_annotations": {"0": {"temperature": 300.0}}}
    spec = bind_to_mesh(layer_from_dict(doc), mesh)
    assert spec.prescribed_temperatures or spec.applied_fluxes
    assert not (spec.prescribed_displacements or spec.applied_forces)
    doc_flux_only = {"vertex_annotations": {"0": {"flux": 5.0}}}
    with pytest.raises(WellPosednessError):
        bind_to_mesh(layer_from_dict(doc_flux_only), mesh)


def prop(quantity, op, bound, vertices=()):
    return PropertySpec(quantity, quantity, op, bound, tuple(vertices))


def test_direct_volume_checks_on_unit_cube():
    mesh = generate_box_mesh(1, 1, 1, [1.0, 1.0, 1.0])
    spec = bind_to_mesh(layer_from_dict({}), mesh)
    ev = FieldEvaluation(spec, spec.midpoint_field())
    v = check(prop("volume", "le", 1.5), ev)[0]
    assert v.passed and abs(v.measured - 1.0) < 1e-12 and abs(v.margin - 0.5) < 1e-12
    v = check(prop("volume", "le", 0.5), ev)[0]
    assert not v.passed and abs(v.measured - 1.0) < 1e-12


def test_direct_volume_on_shaft_polygon_deficit():
    mesh = generate_shaft_mesh(1.0, 10.0, 64, 10)
    spec = bind_to_mesh(layer_from_dict({}), mesh)
    v = check(prop("volume", "ge", 31.0),
              FieldEvaluation(spec, spec.midpoint_field()))[0]
    expected = 0.5 * 64 * math.sin(2 * math.pi / 64) * 10.0
    assert v.passed
    assert_allclose(v.measured, expected, rtol=1e-12)


def test_property_category_enforced():
    mesh = generate_box_mesh(1, 1, 1, [1.0, 1.0, 1.0])
    spec = bind_to_mesh(layer_from_dict({}), mesh)
    fld = MaterialField.uniform(mesh.n_elements)
    # a direct property is judged on any field's evaluation
    assert check(prop("volume", "le", 1.0), FieldEvaluation(spec, fld))[0].passed


def test_mass_check_equals_density_times_volume():
    mesh = generate_shaft_mesh(1.0, 4.0, 12, 4)
    spec = bind_to_mesh(layer_from_dict({}), mesh)
    rho = 2e-6
    fld = MaterialField.uniform(mesh.n_elements, density=rho)
    ev = FieldEvaluation(spec, fld)
    volume = check(prop("volume", "le", 1e9), ev)[0].measured
    mass = check(prop("mass", "le", 1.0), ev)[0]
    assert mass.passed
    assert_allclose(mass.measured, rho * volume, rtol=1e-12)


def test_mass_check_on_unit_cube():
    mesh = generate_box_mesh(1, 1, 1, [1.0, 1.0, 1.0])
    spec = bind_to_mesh(layer_from_dict({}), mesh)
    fld = MaterialField.uniform(mesh.n_elements, density=2e-6)
    v = check(prop("mass", "le", 3e-6), FieldEvaluation(spec, fld))[0]
    assert v.passed
    assert_allclose(v.measured, 2e-6, rtol=1e-12)


def shaft_displacement_setup(bound_scale):
    mesh = generate_shaft_mesh(1.0, 10.0, 16, 5)
    z = mesh.vertices[:, 2]
    top = [int(v) for v in np.flatnonzero(z == 10.0)]
    area = 0.5 * 16 * math.sin(2 * math.pi / 16)
    analytic = 100.0 * 10.0 / (110000.0 * area)
    doc = shaft_layer_doc(mesh)
    doc["global_properties"] = [
        {"name": "tip deflection", "quantity": "max_displacement", "op": "le",
         "bound": bound_scale * analytic, "vertices": top}
    ]
    spec = bind_to_mesh(layer_from_dict(doc), mesh)
    fld = MaterialField.uniform(mesh.n_elements, young=110000.0, poisson=0.0)
    return spec, fld


def test_displacement_property_with_generous_bound_passes():
    spec, fld = shaft_displacement_setup(2.0)
    verdict = check(spec.properties[0], FieldEvaluation(spec, fld))[0]
    assert verdict.passed


def test_displacement_property_with_tight_bound_fails():
    spec, fld = shaft_displacement_setup(0.5)
    verdict = check(spec.properties[0], FieldEvaluation(spec, fld))[0]
    assert not verdict.passed


def test_direct_verdicts_invariant_under_vertex_relabeling():
    rng = np.random.default_rng(7)
    mesh = generate_shaft_mesh(1.0, 6.0, 10, 3)
    doc = shaft_layer_doc(mesh, total_load=40.0)
    doc["global_properties"] = [
        {"name": "v", "quantity": "volume", "op": "le", "bound": 19.0}
    ]
    layer = layer_from_dict(doc)
    spec = bind_to_mesh(layer, mesh)
    before = check(spec.properties[0],
                   FieldEvaluation(spec, spec.midpoint_field()))[0]

    perm = rng.permutation(mesh.n_vertices)
    new_vertices = np.empty_like(mesh.vertices)
    new_vertices[perm] = mesh.vertices
    new_tets = perm[mesh.tets]
    iso_mesh = type(mesh)(new_vertices, new_tets)
    iso_doc = layer.to_dict()
    iso_doc["vertex_annotations"] = {
        str(int(perm[int(k)])): v
        for k, v in iso_doc.get("vertex_annotations", {}).items()
    }
    iso_spec = bind_to_mesh(layer_from_dict(iso_doc), iso_mesh)
    after = check(iso_spec.properties[0],
                  FieldEvaluation(iso_spec, iso_spec.midpoint_field()))[0]
    assert after.passed == before.passed
    assert_allclose(after.measured, before.measured, rtol=1e-12)


def test_admissibility_and_monotone_widening():
    mesh = generate_box_mesh(2, 2, 2, [1.0, 1.0, 1.0])
    narrow = {
        "element_annotations": {
            "default": {"young": [100.0, 200.0], "poisson": [0.2, 0.3]}
        }
    }
    wide = {
        "element_annotations": {
            "default": {"young": [50.0, 400.0], "poisson": [0.1, 0.4]}
        }
    }
    spec_narrow = bind_to_mesh(layer_from_dict(narrow), mesh)
    spec_wide = bind_to_mesh(layer_from_dict(wide), mesh)
    fld = MaterialField.uniform(mesh.n_elements, young=150.0, poisson=0.25)
    assert spec_narrow.admissible(fld)
    assert spec_wide.admissible(fld)
    bad = fld.with_values([0], "young", 250.0)
    assert not spec_narrow.admissible(bad)
    assert spec_wide.admissible(bad)  # widening never breaks admissibility
    mask = spec_narrow.admissibility_mask(bad)
    assert not mask[0] and mask[1:].all()


def test_material_field_copy_on_update():
    fld = MaterialField.uniform(4, young=10.0)
    out = fld.with_values([1, 2], "young", [20.0, 30.0], provenance="estimated")
    assert fld.young[1] == 10.0 and fld.provenance[1] == "commanded"
    assert out.young[1] == 20.0 and out.provenance[1] == "estimated"
    with pytest.raises(KeyError):
        fld.values("stiffness")
    with pytest.raises(ValueError):
        MaterialField(np.ones(3), np.ones(2), np.ones(3), np.ones(3),
                      np.full(3, "commanded"))


def test_with_values_copies_only_what_changes():
    fld = MaterialField.uniform(4, young=10.0, conductivity=2.0)
    before = fld.copy()
    out = fld.with_values([1, 2], "young", [20.0, 30.0])
    for name in ("young", "poisson", "conductivity", "density",
                 "provenance"):
        assert np.array_equal(getattr(fld, name), getattr(before, name))
        assert getattr(fld, name).flags.writeable
    assert not np.shares_memory(out.young, fld.young)
    for name in ("poisson", "conductivity", "density", "provenance"):
        shared = getattr(out, name)
        assert np.shares_memory(shared, getattr(fld, name))
        with pytest.raises(ValueError):
            shared[0] = shared[1]
    tagged = fld.with_values([3], "conductivity", 5.0, provenance="estimated")
    assert not np.shares_memory(tagged.provenance, fld.provenance)
    assert tagged.provenance[3] == "estimated"
    assert fld.provenance[3] == "commanded"
    writable = out.copy()
    writable.conductivity[0] = 7.0
    writable.provenance[0] = "achieved"
    assert fld.conductivity[0] == 2.0 and fld.provenance[0] == "commanded"


def test_material_field_dict_roundtrip():
    fld = MaterialField.uniform(3, young=5.0, poisson=0.1, conductivity=2.0,
                                density=1e-6, provenance="achieved")
    back = field_from_dict(field_to_dict(fld))
    for param in ("young", "poisson", "conductivity", "density"):
        assert_allclose(back.values(param), fld.values(param))
    assert list(back.provenance) == ["achieved"] * 3
    with pytest.raises(AnnotationParseError):
        field_from_dict({"young": [1.0]})


def test_vertex_volume_weights_sum_to_volume():
    mesh = generate_shaft_mesh(1.0, 3.0, 9, 3)
    w = vertex_volume_weights(mesh)
    assert np.all(w > 0)
    assert_allclose(w.sum(), mesh.volumes().sum(), rtol=1e-12)


# strategies for random valid layers -----------------------------------------

finite = st.floats(-50.0, 50.0, allow_nan=False)


def interval_strategy():
    return st.tuples(finite, st.floats(0.0, 10.0)).map(
        lambda t: [t[0], t[0] + t[1]]
    )


def box3_strategy():
    return st.one_of(
        st.lists(finite, min_size=3, max_size=3),
        st.lists(interval_strategy(), min_size=3, max_size=3),
    )


vertex_ann_strategy = st.fixed_dictionaries(
    {},
    optional={
        "displacement": st.one_of(st.just("fixed"), box3_strategy()),
        "force": box3_strategy(),
        "temperature": st.one_of(finite, interval_strategy()),
        "flux": finite,
    },
)

range_strategy = st.fixed_dictionaries(
    {},
    optional={
        "young": st.tuples(st.floats(0.1, 100.0), st.floats(0.0, 50.0)).map(
            lambda t: [t[0], t[0] + t[1]]
        ),
        "poisson": st.tuples(
            st.floats(-0.9, 0.4), st.floats(0.0, 0.05)
        ).map(lambda t: [t[0], min(t[0] + t[1], 0.49)]),
    },
)

property_strategy = st.one_of(
    st.fixed_dictionaries(
        {"quantity": st.sampled_from(["volume", "mass"]),
         "op": st.sampled_from(["le", "ge"]),
         "bound": finite}
    ),
    st.fixed_dictionaries(
        {"quantity": st.just("max_displacement"),
         "op": st.just("le"),
         "bound": st.floats(0.0, 10.0),
         "vertices": st.lists(st.integers(0, 7), min_size=1, max_size=4,
                              unique=True)}
    ),
)

layer_doc_strategy = st.fixed_dictionaries(
    {},
    optional={
        "vertex_annotations": st.dictionaries(
            st.integers(0, 7).map(str), vertex_ann_strategy, max_size=4
        ),
        "element_annotations": st.fixed_dictionaries(
            {}, optional={"default": range_strategy,
                          "overrides": st.dictionaries(
                              st.integers(0, 5).map(str), range_strategy,
                              max_size=3)}
        ),
        "global_properties": st.lists(property_strategy, max_size=3),
        "field_regularity": st.fixed_dictionaries(
            {"gamma": st.floats(0.0, 10.0),
             "parameter": st.sampled_from(["young", "conductivity"])}
        ),
    },
)


@settings(max_examples=60, deadline=None)
@given(doc=layer_doc_strategy)
def test_random_layers_roundtrip(doc):
    layer = layer_from_dict(doc)
    again = parse_semantic_layer(serialize_semantic_layer(layer))
    assert again == layer
