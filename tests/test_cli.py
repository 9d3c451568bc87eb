"""Command-level tests: exit codes, greppable failure lines, file outputs."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import (bar_tip_displacement, layered_bar_problem,
                      record_primal_solves, write_bar_files)

from semfab import cli, fem, mesh, optimize, printsim, semantics

ROOT = Path(__file__).resolve().parents[1]
DOCS_EXAMPLES = ROOT / "docs" / "examples"
BOX = (60000.0, 120000.0)
E_HI = BOX[1]


@pytest.fixture(scope="module")
def nominal_tip():
    probe = layered_bar_problem(4, 1.0, BOX)
    return bar_tip_displacement(probe, np.full(probe.n_variables, E_HI))


def run_cli(*args):
    return cli.main([str(a) for a in args])


def write_scenario(path, *, gain=1.0, actuator_noise=0.0, sensor_noise=0.0,
                   strategy="warm_start", control=True, plant=None, seed=7,
                   parameter="young", drift_rate=0.0):
    scenario = printsim.Scenario(
        mesh_path="bar_mesh.json",
        annotation_path="bar_annotation.json",
        actuator=printsim.ActuatorModel(gain=gain, drift_rate=drift_rate,
                                        noise_sd=actuator_noise),
        sensor=printsim.SensorModel(noise_sd=sensor_noise),
        policy=printsim.ControlPolicy(strategy=strategy,
                                      control_enabled=control,
                                      plant_model=plant),
        seed=seed,
        layer_height=1.0,
        objective="compliance",
        parameter=parameter,
    )
    printsim.save_scenario(scenario, path)


# ---------------------------------------------------------------------------
# gen-mesh


def test_gen_mesh_box_writes_valid_reloadable_file(tmp_path, capsys):
    out = tmp_path / "box.json"
    rc = run_cli("gen-mesh", "box", "--nx", 2, "--ny", 1, "--nz", 3,
                 "--size", "2,1,3", "-o", out)
    assert rc == 0
    assert str(out) in capsys.readouterr().out
    m = mesh.load_mesh(out)
    assert m.n_elements == 2 * 1 * 3 * 6
    assert mesh.validate_mesh(m).ok
    assert np.isclose(m.vertices[:, 0].max(), 2.0)


def test_gen_mesh_shaft_writes_valid_mesh(tmp_path):
    out = tmp_path / "shaft.json"
    rc = run_cli("gen-mesh", "shaft", "--radius", 1, "--height", 5,
                 "--n-radial", 8, "--n-axial", 3, "-o", out)
    assert rc == 0
    assert mesh.validate_mesh(mesh.load_mesh(out)).ok


def test_gen_mesh_negative_radius_exits_2_naming_the_flag(tmp_path, capsys):
    rc = run_cli("gen-mesh", "shaft", "--radius", -1, "--height", 5,
                 "-o", tmp_path / "never.json")
    err = capsys.readouterr().err
    assert rc == 2
    assert "--radius" in err
    assert "SEMFAB-ERR[usage]" in err
    assert not (tmp_path / "never.json").exists()


def test_gen_mesh_zero_division_count_exits_2(tmp_path, capsys):
    rc = run_cli("gen-mesh", "box", "--nx", 0, "--ny", 1, "--nz", 1,
                 "-o", tmp_path / "never.json")
    err = capsys.readouterr().err
    assert rc == 2
    assert "--nx" in err


@pytest.mark.parametrize("argv, flag", [
    (["optimize", "{mesh}", "{ann}", "--objective", "compliance",
      "-o", "{out}", "--tol", "nan"], "--tol"),
    (["optimize", "{mesh}", "{ann}", "--objective", "compliance",
      "-o", "{out}", "--tol", "inf"], "--tol"),
    (["gen-mesh", "box", "--nx", "1", "--ny", "1", "--nz", "1",
      "--size", "inf,1,1", "-o", "{out}"], "--size"),
    (["gen-mesh", "shaft", "--radius", "inf", "--height", "1",
      "-o", "{out}"], "--radius"),
    (["gen-mesh", "shaft", "--radius", "1", "--height", "nan",
      "-o", "{out}"], "--height"),
], ids=["tol-nan", "tol-inf", "size-inf", "radius-inf", "height-nan"])
def test_a_non_finite_length_or_tolerance_exits_2(tmp_path, capsys, argv,
                                                  flag):
    mesh_path, ann_path = write_bar_files(tmp_path, 2, 0.05, BOX)
    before = sorted(tmp_path.iterdir())
    rc = run_cli(*(arg.format(mesh=mesh_path, ann=ann_path,
                              out=tmp_path / "out.json") for arg in argv))
    err = capsys.readouterr().err
    assert rc == 2
    assert "SEMFAB-ERR[usage]" in err and flag in err
    assert sorted(tmp_path.iterdir()) == before


# ---------------------------------------------------------------------------
# verify


def test_verify_nominal_passing_bound_exits_0(tmp_path, capsys):
    mesh_path, ann_path = write_bar_files(tmp_path, 4, 0.05, BOX)
    rc = run_cli("verify", mesh_path, ann_path, "--nominal")
    out = capsys.readouterr().out
    assert rc == 0
    assert "tip" in out and "PASS" in out


def test_verify_nominal_failing_bound_exits_1(tmp_path, capsys):
    mesh_path, ann_path = write_bar_files(tmp_path, 4, 0.01, BOX)
    rc = run_cli("verify", mesh_path, ann_path, "--nominal")
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out
    assert "SEMFAB-FAIL[verify]" in out and "tip" in out


def test_verify_thermal_plate_solves_conduction_once(tmp_path, monkeypatch,
                                                    capsys):
    # hot_edge and bulk_heat both read the one conduction solution
    mesh_path = tmp_path / "plate_mesh.json"
    mesh.save_mesh(mesh.generate_box_mesh(4, 1, 4, (4.0, 1.0, 4.0)),
                   mesh_path)
    keys = record_primal_solves(monkeypatch)
    rc = run_cli("verify", mesh_path, DOCS_EXAMPLES / "thermal-plate.json",
                 "--nominal")
    out = capsys.readouterr().out
    assert rc == 0
    assert "hot_edge" in out and "bulk_heat" in out
    assert [physics for physics, _ in keys] == ["conduction"]


def test_verify_solves_at_the_fem_bound_whatever_the_config_tol(
        tmp_path, monkeypatch, capsys):
    # verify takes no --tol: its solves meet the FEM bound alone
    mesh_path, ann_path = write_bar_files(tmp_path, 2, 0.05, BOX)
    argv = ("verify", mesh_path, ann_path, "--nominal")
    assert run_cli(*argv) == 0
    capsys.readouterr()
    # a bound no solve can meet
    monkeypatch.setattr(fem, "BACKWARD_ERROR_TOL", 0.0)
    assert run_cli(*argv) == 3
    err = capsys.readouterr().err
    assert "SEMFAB-ERR[numeric]" in err and "BACKWARD_ERROR_TOL" in err


def test_verify_explicit_field_file(tmp_path, capsys):
    mesh_path, ann_path = write_bar_files(tmp_path, 4, 0.05, BOX)
    m = mesh.load_mesh(mesh_path)
    field = semantics.MaterialField.uniform(
        m.n_elements, young=E_HI, poisson=0.0, conductivity=1.0,
        density=8e-6, provenance="commanded")
    field_path = tmp_path / "field.json"
    field_path.write_text(json.dumps(semantics.field_to_dict(field)))
    rc = run_cli("verify", mesh_path, ann_path, "--field", field_path)
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def _field_edit(key, value):
    """An edit setting the field document's ``key`` to ``value(doc)``."""
    return lambda doc, tmp_path: {**doc, key: value(doc)}


def _aborted_achieved(doc, tmp_path):
    """The achieved field of an aborted print of the 4-layer bar, whose
    elements above the frontier hold null."""
    sim = tmp_path / "abort"
    sim.mkdir()
    write_bar_files(sim, 4, 0.05, BOX)
    write_scenario(sim / "scenario.json", gain=0.4)
    assert run_cli("simulate", sim / "scenario.json", "--out", sim) == 1
    report = json.loads((sim / "report.json").read_text())
    assert report["outcome"] == "aborted"
    return report["fields"]["achieved"]


@pytest.mark.parametrize("edit, key", [
    (_field_edit("young", lambda d: [[x] for x in d["young"]]), "young"),
    (_field_edit("young", lambda d: [True] * len(d["young"])), "young"),
    (_field_edit("density", lambda d: [float("nan")] * len(d["density"])),
     "density"),
    (_field_edit("provenance", lambda d: [1] * len(d["provenance"])),
     "provenance"),
    (_field_edit("provenance",
                 lambda d: ["whatever-long-tag"] * len(d["provenance"])),
     "provenance"),
    (_aborted_achieved, "young"),
], ids=["nested-young", "boolean-young", "nan-density", "integer-provenance",
        "long-provenance", "aborted-achieved"])
def test_verify_refuses_a_malformed_field_file(tmp_path, capsys, edit, key):
    # a mass bound reads only the density, so no solve would catch a bad
    # young modulus
    mesh_path, ann_path = write_bar_files(tmp_path, 4, 0.05, BOX)
    doc = json.loads(Path(ann_path).read_text())
    doc["global_properties"] = [
        {"name": "mass", "quantity": "mass", "op": "le", "bound": 1.0}]
    Path(ann_path).write_text(json.dumps(doc))
    field = semantics.MaterialField.uniform(
        24, young=E_HI, density=8e-6, provenance="commanded")
    field_path = tmp_path / "field.json"
    field_path.write_text(json.dumps(
        edit(semantics.field_to_dict(field), tmp_path)))
    capsys.readouterr()
    rc = run_cli("verify", mesh_path, ann_path, "--field", field_path)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(f"SEMFAB-ERR[usage] {key}: must be a "
                                   "list of ")


@pytest.mark.parametrize("edit, rc, failure", [
    (lambda k: np.full_like(k, 50.0), 1,
     "at 12 element(s), the first is element 0: conductivity 50.0 is not in "
     "[0.1, 0.4]"),
    (lambda k: np.where(np.arange(k.size) == 4, np.nextafter(0.4, 1.0), 0.4),
     1, "at 1 element(s), the first is element 4: conductivity "
     "0.4000000000000001 is not in [0.1, 0.4]"),
    (lambda k: np.where(np.arange(k.size) % 2, 0.1, 0.4), 0, None),
], ids=["outside", "just-outside", "on-its-bounds"])
def test_verify_fails_a_field_outside_the_annotated_ranges(
        tmp_path, capsys, edit, rc, failure):
    # a volume bound reads no parameter, so no property would catch it
    m = mesh.generate_box_mesh(1, 1, 2, [1.0, 1.0, 2.0])
    mesh.save_mesh(m, tmp_path / "mesh.json")
    (tmp_path / "annotation.json").write_text(json.dumps({
        "element_annotations": {"default": {"conductivity": [0.1, 0.4]}},
        "global_properties": [{"name": "volume", "quantity": "volume",
                               "op": "le", "bound": 10.0}]}))
    field = semantics.MaterialField.uniform(m.n_elements)
    field = field.with_values(slice(None), "conductivity",
                              edit(field.conductivity))
    (tmp_path / "field.json").write_text(
        json.dumps(semantics.field_to_dict(field)))
    capsys.readouterr()
    assert run_cli("verify", tmp_path / "mesh.json",
                   tmp_path / "annotation.json",
                   "--field", tmp_path / "field.json") == rc
    out = capsys.readouterr().out
    if failure is None:
        assert out.endswith("\nall 1 properties pass\n")
    else:
        assert out == ("SEMFAB-FAIL[verify] the field leaves the annotated "
                       f"ranges {failure}\n")


def test_verify_annotation_referencing_missing_vertex_exits_2(
        tmp_path, capsys):
    mesh_path, ann_path = write_bar_files(tmp_path, 2, 0.05, BOX)
    doc = json.loads((tmp_path / "bar_annotation.json").read_text())
    doc["global_properties"][0]["vertices"] = [999]
    (tmp_path / "bar_annotation.json").write_text(json.dumps(doc))
    rc = run_cli("verify", mesh_path, ann_path, "--nominal")
    err = capsys.readouterr().err
    assert rc == 2
    assert "SEMFAB-ERR[usage]" in err


def test_verify_without_field_choice_exits_2(tmp_path, capsys):
    mesh_path, ann_path = write_bar_files(tmp_path, 2, 0.05, BOX)
    rc = run_cli("verify", mesh_path, ann_path)
    assert rc == 2
    assert "SEMFAB-ERR[usage]" in capsys.readouterr().err


def test_verify_missing_mesh_file_exits_2(tmp_path, capsys):
    rc = run_cli("verify", tmp_path / "nope.json", tmp_path / "nope2.json",
                 "--nominal")
    assert rc == 2
    assert "SEMFAB-ERR[usage]" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("verify", "{dir}/mesh.json", "a.json", "--nominal"),
    ("simulate", "{dir}/s.json", "--out", "o"),
    ("gen-mesh", "box", "--nx", "1", "--ny", "1", "--nz", "1",
     "-o", "{dir}/m.json"),
], ids=["verify", "simulate", "gen-mesh"])
def test_a_path_through_a_plain_file_exits_2(tmp_path, capsys, argv):
    plain = tmp_path / "plain.txt"
    plain.write_text("not a directory\n")
    rc = run_cli(*(arg.format(dir=plain) for arg in argv))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("SEMFAB-ERR[usage] ") and "Not a directory" in err


def test_verify_refuses_a_non_finite_vertex_coordinate(tmp_path, capsys):
    mesh_path, ann_path = write_bar_files(tmp_path, 2, 0.05, BOX)
    doc = json.loads(Path(mesh_path).read_text())
    doc["vertices"][5][2] = float("nan")
    Path(mesh_path).write_text(json.dumps(doc))
    rc = run_cli("verify", mesh_path, ann_path, "--nominal")
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("SEMFAB-ERR[usage] ") and "vertex 5" in err


@pytest.mark.parametrize("key, row, value", [
    ("vertices", 5, [0.0, 0.0, 10**400]),
    ("tets", 0, [0, 1, 2, 10**30]),
], ids=["coordinate-past-float-range", "tet-id-past-int64"])
def test_verify_refuses_a_mesh_number_past_its_range(tmp_path, capsys, key,
                                                     row, value):
    mesh_path, ann_path = write_bar_files(tmp_path, 2, 0.05, BOX)
    doc = json.loads(Path(mesh_path).read_text())
    doc[key][row] = value
    Path(mesh_path).write_text(json.dumps(doc))
    rc = run_cli("verify", mesh_path, ann_path, "--nominal")
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("SEMFAB-ERR[usage] ") and f" {key}" in err


@pytest.mark.parametrize("path, value, where", [
    ("element_annotations.default.young", [float("nan"), 1e5],
     "element_annotations.default.young"),
    ("element_annotations.default.young", [6e4, float("inf")],
     "element_annotations.default.young"),
    ("vertex_annotations.{top}.force", [0.0, 0.0, float("nan")],
     "vertex_annotations.{top}.force"),
    ("vertex_annotations.{top}.temperature", [0.0, float("inf")],
     "vertex_annotations.{top}.temperature"),
    ("global_properties.0.bound", float("nan"), "global_properties[0].bound"),
    ("global_properties.0.bound", 10**400, "global_properties[0].bound"),
], ids=["nan-range", "infinite-range", "nan-force", "infinite-interval",
        "nan-bound", "bound-past-float-range"])
def test_verify_refuses_a_non_finite_annotation_number(tmp_path, capsys,
                                                       path, value, where):
    # json reads NaN and Infinity; an unbounded interval side is null
    mesh_path, ann_path = write_bar_files(tmp_path, 2, 0.05, BOX)
    doc = json.loads(Path(ann_path).read_text())
    top = next(v for v, a in doc["vertex_annotations"].items()
               if "force" in a)
    *keys, last = path.format(top=top).split(".")
    node = doc
    for key in keys:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[last] = value
    Path(ann_path).write_text(json.dumps(doc))
    rc = run_cli("verify", mesh_path, ann_path, "--nominal")
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"SEMFAB-ERR[usage] {where.format(top=top)}")


def _misspell_an_op(doc):
    doc["global_properties"][0]["opp"] = "ge"
    return "global_properties[0]: unknown property key 'opp'"


def _pad_a_vertex_id(doc):
    key = next(iter(doc["vertex_annotations"]))
    doc["vertex_annotations"]["0" + key] = doc["vertex_annotations"].pop(key)
    return f"vertex_annotations.0{key}: key '0{key}' "


@pytest.mark.parametrize("edit", [_misspell_an_op, _pad_a_vertex_id],
                         ids=["unknown-property-key", "padded-vertex-id"])
def test_verify_refuses_a_key_the_format_does_not_name(tmp_path, capsys,
                                                        edit):
    mesh_path, ann_path = write_bar_files(tmp_path, 2, 0.05, BOX)
    doc = json.loads(Path(ann_path).read_text())
    expected = edit(doc)
    Path(ann_path).write_text(json.dumps(doc))
    rc = run_cli("verify", mesh_path, ann_path, "--nominal")
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("SEMFAB-ERR") == 1
    assert err.startswith(f"SEMFAB-ERR[usage] {expected}")


# ---------------------------------------------------------------------------
# optimize


def test_optimize_writes_field_summary_and_trace(tmp_path, capsys):
    mesh_path, ann_path = write_bar_files(tmp_path, 4, 0.05, BOX)
    out = tmp_path / "field.json"
    trace = tmp_path / "trace.jsonl"
    rc = run_cli("optimize", mesh_path, ann_path, "--objective", "compliance",
                 "-o", out, "--trace", trace)
    assert rc == 0

    field = semantics.field_from_dict(json.loads(out.read_text()))
    np.testing.assert_allclose(field.young, E_HI)

    summary = json.loads((tmp_path / "field.json.summary.json").read_text())
    assert summary["feasible"] is True
    assert summary["parameter"] == "young"
    assert summary["fem_solves"] >= 1
    assert len(summary["values"]) == 24

    lines = trace.read_text().splitlines()
    assert len(lines) >= 1
    first = json.loads(lines[0])
    assert set(first) == {"iter", "objective", "max_violation", "step_norm"}

    rc = run_cli("verify", mesh_path, ann_path, "--field", out)
    assert rc == 0


def test_optimize_infeasible_bound_exits_1_with_certificate(tmp_path, capsys):
    mesh_path, ann_path = write_bar_files(tmp_path, 4, 0.001, BOX)
    rc = run_cli("optimize", mesh_path, ann_path, "--objective", "compliance",
                 "-o", tmp_path / "field.json")
    out = capsys.readouterr().out
    assert rc == 1
    assert "SEMFAB-FAIL[optimize]" in out and "tip" in out
    summary = json.loads((tmp_path / "field.json.summary.json").read_text())
    assert summary["feasible"] is False
    assert summary["violated"] == ["tip"]


def test_poisson_is_not_an_optimizable_parameter(tmp_path, capsys):
    mesh_path, ann_path = write_bar_files(tmp_path, 4, 0.05, BOX)
    rc = run_cli("optimize", mesh_path, ann_path, "--objective", "compliance",
                 "--parameter", "poisson", "-o", tmp_path / "field.json")
    assert rc == 2
    write_scenario(tmp_path / "scenario.json", parameter="poisson")
    rc = run_cli("simulate", tmp_path / "scenario.json",
                 "--out", tmp_path / "sim")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("SEMFAB-ERR[usage]") == 2 and "poisson" in err
    assert not (tmp_path / "field.json").exists()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_identity_plant_succeeds(tmp_path, capsys):
    mesh_path, ann_path = write_bar_files(tmp_path, 4, 0.05, BOX)
    write_scenario(tmp_path / "scenario.json")
    rc = run_cli("simulate", tmp_path / "scenario.json",
                 "--out", tmp_path / "sim")
    assert rc == 0
    assert "seed 7: success" in capsys.readouterr().out
    report = json.loads((tmp_path / "sim" / "report.json").read_text())
    assert report["outcome"] == "success"
    rows = (tmp_path / "sim" / "history.csv").read_text().splitlines()
    assert rows[0] == ("layer,strategy,objective,max_violation,"
                       "fem_solves,mean_commanded,fallback")
    assert len(rows) == 1 + 4


def test_simulate_degraded_gain_without_control_exits_1(
        tmp_path, capsys, nominal_tip):
    mesh_path, ann_path = write_bar_files(tmp_path, 4, 1.08 * nominal_tip,
                                          BOX)
    write_scenario(tmp_path / "scenario.json", gain=0.85, control=False)
    rc = run_cli("simulate", tmp_path / "scenario.json",
                 "--out", tmp_path / "sim")
    out = capsys.readouterr().out
    assert rc == 1
    assert "SEMFAB-FAIL[simulate]" in out and "spec_fail" in out
    report = json.loads((tmp_path / "sim" / "report.json").read_text())
    assert report["outcome"] == "spec_fail"
    assert [v["name"] for v in report["verdicts"] if not v["passed"]] == [
        "tip"
    ]


def test_simulate_degraded_gain_with_control_compensates(
        tmp_path, capsys, nominal_tip):
    mesh_path, ann_path = write_bar_files(tmp_path, 4, 1.08 * nominal_tip,
                                          BOX)
    plant = printsim.ActuatorModel(gain=0.85)
    write_scenario(tmp_path / "scenario.json", gain=0.85, plant=plant)
    rc = run_cli("simulate", tmp_path / "scenario.json",
                 "--out", tmp_path / "sim")
    assert rc == 0
    report = json.loads((tmp_path / "sim" / "report.json").read_text())
    assert report["outcome"] == "success"
    # compensation is visible in the command stream
    commanded = [rec["mean_commanded"] for rec in report["history"]]
    assert max(commanded[1:]) > E_HI


def test_simulate_collapsed_gain_aborts_with_exit_1(tmp_path, capsys):
    mesh_path, ann_path = write_bar_files(tmp_path, 4, 0.05, BOX)
    write_scenario(tmp_path / "scenario.json", gain=0.4)
    rc = run_cli("simulate", tmp_path / "scenario.json",
                 "--out", tmp_path / "sim")
    out = capsys.readouterr().out
    assert rc == 1
    assert "SEMFAB-FAIL[simulate]" in out
    assert "aborted" in out and "tip" in out
    report = json.loads((tmp_path / "sim" / "report.json").read_text())
    assert report["outcome"] == "aborted"
    assert report["abort"]["violated"] == ["tip"]


@pytest.mark.parametrize("role", ["actuator", "plant model"])
def test_simulate_refuses_a_factor_that_turns_negative_mid_print(
        tmp_path, capsys, monkeypatch, role):
    # 0.9 (1 - 0.15 * 7) = -0.045 at layer 7 of 10
    write_bar_files(tmp_path, 10, 0.2, BOX)
    sinking = printsim.ActuatorModel(gain=0.9, drift_rate=-0.15)
    write_scenario(tmp_path / "scenario.json", gain=0.9, actuator_noise=0.01,
                   sensor_noise=0.01, drift_rate=sinking.drift_rate
                   if role == "actuator" else 0.005,
                   plant=printsim.ActuatorModel(gain=0.9, drift_rate=0.005)
                   if role == "actuator" else sinking)
    plans = []
    monkeypatch.setattr(optimize, "inversion_solve",
                        lambda *args, **kwargs: plans.append(1))
    rc = run_cli("simulate", tmp_path / "scenario.json",
                 "--out", tmp_path / "sim")
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"SEMFAB-ERR[usage] the {role}'s factor at layer 7 "
                          "is -0.045")
    assert "positive on all 10 layers" in err
    # refused before the plan and before the output directory
    assert not plans and not (tmp_path / "sim").exists()


def test_simulate_max_iter_caps_the_plan_and_every_replan(tmp_path,
                                                          monkeypatch):
    # --max-iter reaches each layer's re-plan the way --tol does
    write_bar_files(tmp_path, 4, 0.05, BOX)
    write_scenario(tmp_path / "scenario.json", strategy="full")
    caps = []
    original = optimize.inversion_solve

    def recorded(*args, **kwargs):
        caps.append(kwargs["max_iter"])
        return original(*args, **kwargs)

    monkeypatch.setattr(optimize, "inversion_solve", recorded)
    rc = run_cli("simulate", tmp_path / "scenario.json",
                 "--out", tmp_path / "sim", "--max-iter", "1")
    assert rc == 0
    # the plan, then one full re-plan per layer
    assert caps == [1] * (1 + 4)


def test_simulate_seed_fanout_outputs_are_deterministic(tmp_path):
    mesh_path, ann_path = write_bar_files(tmp_path, 4, 0.06, BOX)
    write_scenario(tmp_path / "scenario.json", actuator_noise=0.02,
                   sensor_noise=0.01, strategy="full")
    for sub in ("a", "b"):
        rc = run_cli("simulate", tmp_path / "scenario.json",
                     "--out", tmp_path / sub, "--seeds", "5..7")
        assert rc == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == ["history_5.csv", "history_6.csv", "history_7.csv",
                     "report_5.json", "report_6.json", "report_7.json"]
    for name in names:
        # same seed: byte-identical; replay is exact
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "report_5.json").read_bytes() != \
        (tmp_path / "a" / "report_6.json").read_bytes()


def test_simulate_rejects_a_seed_of_2_63_before_any_work(tmp_path, capsys):
    write_bar_files(tmp_path, 4, 0.06, BOX)
    write_scenario(tmp_path / "scenario.json")
    rc = run_cli("simulate", tmp_path / "scenario.json", "--out",
                 tmp_path / "sim", "--seeds",
                 "9223372036854775807..9223372036854775808")
    captured = capsys.readouterr()
    assert rc == 2
    assert "SEMFAB-ERR[usage]" in captured.err and "2**63" in captured.err
    assert "seed" not in captured.out
    assert not (tmp_path / "sim").exists()


def test_simulate_runs_the_largest_seed(tmp_path, capsys):
    write_bar_files(tmp_path, 4, 0.06, BOX)
    write_scenario(tmp_path / "scenario.json")
    rc = run_cli("simulate", tmp_path / "scenario.json", "--out",
                 tmp_path / "sim", "--seeds", "9223372036854775807")
    assert rc == 0
    assert "seed 9223372036854775807: success" in capsys.readouterr().out
    report = json.loads((tmp_path / "sim" / "report.json").read_text())
    assert report["seed"] == 2**63 - 1


def test_a_seed_range_is_held_in_constant_memory():
    tracemalloc.start()
    try:
        seeds = cli._seed_range("0..999999")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000
    assert (seeds[0], seeds[-1]) == (0, 999999)


def test_the_full_seed_range_parses(tmp_path):
    args = cli.build_parser().parse_args(
        ["simulate", str(tmp_path / "scenario.json"), "--out",
         str(tmp_path / "sim"), "--seeds", "0..9223372036854775807"])
    assert (args.seeds[0], args.seeds[-1]) == (0, 2**63 - 1)


def imports_scipy_optimize(code):
    """Whether ``code``, run in a fresh interpreter, imports scipy.optimize."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys\nprint('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


CORNER_PLAN_AND_PRINT = """
import numpy as np
from conftest import bar_tip_displacement, layered_bar_problem
from semfab import optimize, printsim
box = (60e3, 120e3)
probe = layered_bar_problem(10, d_max=1.0, young_box=box)
nominal = bar_tip_displacement(probe, np.full(60, box[1]))
problem = layered_bar_problem(10, d_max=1.08 * nominal, young_box=box)
plan = optimize.inversion_solve(problem)
assert plan.iterations == 1 and np.all(plan.values == box[1])
plant = printsim.ActuatorModel(gain=0.9, drift_rate=0.005)
report = printsim.run_print(
    problem, plan,
    printsim.ActuatorModel(gain=0.9, drift_rate=0.005, noise_sd=0.01),
    printsim.SensorModel(noise_sd=0.01),
    printsim.ControlPolicy(strategy="full", plant_model=plant), 5, 1.0)
assert report.outcome == "success"
"""

ITERATING_PLAN = """
import numpy as np
from semfab import optimize
halfspace = optimize.SyntheticConstraint(
    "halfspace", lambda x: 1.0 - x[0] - x[1], lambda x: -np.ones(2))
problem = optimize.FunctionProblem(
    lambda x: float(x @ x), lambda x: 2.0 * x, [[-5, 5], [-5, 5]],
    constraints=[halfspace])
assert optimize.inversion_solve(problem).iterations > 1
"""


def test_only_an_iterating_plan_imports_scipy_optimize(tmp_path):
    # scipy.optimize adds about 15 MB of resident memory to the CLI's
    # import set; plans that stop at their start or face point, and the
    # re-plans of a corner plan, never load it
    assert not imports_scipy_optimize(CORNER_PLAN_AND_PRINT)
    probe = layered_bar_problem(10, 1.0, BOX)
    nominal = bar_tip_displacement(probe, np.full(probe.n_variables, E_HI))
    write_bar_files(tmp_path, 10, 1.08 * nominal, BOX)
    write_scenario(tmp_path / "scenario.json", gain=0.9, actuator_noise=0.01,
                   sensor_noise=0.01, strategy="full",
                   plant=printsim.ActuatorModel(gain=0.9))
    assert not imports_scipy_optimize(
        "from semfab import cli\n"
        f"assert cli.main(['simulate', {str(tmp_path / 'scenario.json')!r}, "
        f"'--out', {str(tmp_path / 'sim')!r}]) == 0")
    assert (tmp_path / "sim" / "report.json").is_file()
    assert imports_scipy_optimize(ITERATING_PLAN)


@pytest.mark.parametrize("command, name, text", [
    ("verify", "bar_mesh.json", b"{not json"),
    ("verify", "bar_annotation.json", b"{not json"),
    ("verify", "field.json", b"{not json"),
    ("simulate", "scenario.json", b"{not json"),
    ("simulate", "bar_mesh.json", b"{not json"),
    ("simulate", "bar_annotation.json", b"{not json"),
    ("report", "report.json", b"{not json"),
    ("report", "report.json", b'{"outcome": "\xe9"}'),
], ids=["verify-mesh", "verify-annotation", "verify-field",
        "simulate-scenario", "simulate-mesh", "simulate-annotation",
        "report", "report-not-utf8"])
def test_a_malformed_json_input_exits_2_naming_its_file(
        tmp_path, capsys, command, name, text):
    tmp_path = tmp_path.resolve()
    mesh_path, ann_path = write_bar_files(tmp_path, 2, 0.05, BOX)
    field = cli._load_bound_spec(mesh_path, ann_path).midpoint_field()
    (tmp_path / "field.json").write_text(
        json.dumps(semantics.field_to_dict(field)))
    write_scenario(tmp_path / "scenario.json")
    (tmp_path / name).write_bytes(text)
    argv = {
        "verify": ["verify", mesh_path, ann_path,
                   "--field", tmp_path / "field.json"],
        "simulate": ["simulate", tmp_path / "scenario.json",
                     "--out", tmp_path / "sim"],
        "report": ["report", tmp_path / "report.json"],
    }[command]
    rc = run_cli(*argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    # one line, naming the file
    assert captured.err.startswith(f"SEMFAB-ERR[usage] {tmp_path / name}: "
                                   "not valid JSON: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "sim").exists()


def test_simulate_rejects_unknown_scenario_key(tmp_path, capsys):
    mesh_path, ann_path = write_bar_files(tmp_path, 2, 0.05, BOX)
    write_scenario(tmp_path / "scenario.json")
    doc = json.loads((tmp_path / "scenario.json").read_text())
    doc["extruder"] = 3
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    rc = run_cli("simulate", tmp_path / "scenario.json",
                 "--out", tmp_path / "sim")
    err = capsys.readouterr().err
    assert rc == 2
    assert "extruder" in err


def _set(section, key, value):
    def edit(doc):
        target = doc
        for part in section.split(".") if section else ():
            target = target[part]
        target[key] = value
        return doc
    return edit


@pytest.mark.parametrize("edit, section", [
    (_set("actuator", "bogus", 1), "actuator"),
    (_set("actuator", "gain", "0.9"), "actuator"),
    (_set("policy", "speed", 2), "policy"),
    (_set("policy.plant_model", "noise", 1), "policy.plant_model"),
    (_set("", "policy", []), "policy"),
    (_set("sensor", "noise_sd", None), "sensor"),
    (_set("", "actuator", {}), "actuator"),
    (_set("", "layer_height", None), "layer_height"),
    (lambda doc: 5, "scenario"),
    (_set("", "seed", True), "seed"),
], ids=["actuator-unknown-key", "string-gain", "policy-unknown-key",
        "plant-unknown-key", "policy-list", "null-noise", "empty-actuator",
        "null-layer-height", "number-document", "boolean-seed"])
def test_simulate_refuses_a_malformed_scenario(tmp_path, capsys, edit,
                                               section):
    path = tmp_path / "scenario.json"
    write_scenario(path, plant=printsim.ActuatorModel(gain=1.0))
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    rc = run_cli("simulate", path, "--out", tmp_path / "sim")
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("SEMFAB-ERR[usage] ") and f" {section} " in err


@pytest.mark.parametrize("section, key, value", [
    ("actuator", "gain", float("nan")),
    ("actuator", "gain", float("inf")),
    ("actuator", "noise_sd", float("nan")),
    ("actuator", "noise_sd", float("inf")),
    ("actuator", "drift_rate", float("nan")),
    ("policy.plant_model", "gain", float("nan")),
    ("sensor", "noise_sd", float("nan")),
    ("sensor", "noise_sd", float("inf")),
    ("", "layer_height", float("inf")),
    pytest.param("actuator", "gain", 10**400,
                 id="actuator-gain-past-float-range"),
    pytest.param("", "layer_height", 10**400,
                 id="layer_height-past-float-range"),
])
def test_simulate_refuses_a_non_finite_scenario_number(
        tmp_path, capsys, monkeypatch, section, key, value):
    write_bar_files(tmp_path, 4, 0.06, BOX)
    path = tmp_path / "scenario.json"
    write_scenario(path, plant=printsim.ActuatorModel(gain=1.0))
    # json writes NaN and Infinity, and json.load reads them back
    path.write_text(json.dumps(_set(section, key, value)(
        json.loads(path.read_text()))))
    plans = []
    monkeypatch.setattr(optimize, "inversion_solve",
                        lambda *args, **kwargs: plans.append(1))
    rc = run_cli("simulate", path, "--out", tmp_path / "sim")
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("SEMFAB-ERR[usage] ") and f" {key} " in err
    assert "finite" in err and not plans


@pytest.mark.parametrize("height", [1e-300, 1e-6])
def test_simulate_refuses_more_layers_than_elements(tmp_path, capsys,
                                                    monkeypatch, height):
    # the 24-tet bar is 4 high: 4e6 or more layers, all but 24 empty
    write_bar_files(tmp_path, 4, 0.06, BOX)
    path = tmp_path / "scenario.json"
    write_scenario(path, plant=printsim.ActuatorModel(gain=1.0))
    path.write_text(json.dumps(_set("", "layer_height", height)(
        json.loads(path.read_text()))))
    plans = []
    monkeypatch.setattr(optimize, "inversion_solve",
                        lambda *args, **kwargs: plans.append(1))
    rc = run_cli("simulate", path, "--out", tmp_path / "sim")
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("SEMFAB-ERR[usage] layer_height ")
    # refused before the plan and before the output directory
    assert not plans and not (tmp_path / "sim").exists()


# ---------------------------------------------------------------------------
# report


def test_report_renders_table_and_svg(tmp_path, capsys):
    mesh_path, ann_path = write_bar_files(tmp_path, 4, 0.05, BOX)
    write_scenario(tmp_path / "scenario.json")
    assert run_cli("simulate", tmp_path / "scenario.json",
                   "--out", tmp_path / "sim") == 0
    capsys.readouterr()
    svg = tmp_path / "plot.svg"
    rc = run_cli("report", tmp_path / "sim" / "report.json", "--svg", svg)
    out = capsys.readouterr().out
    assert rc == 0
    assert "outcome: success" in out
    assert "tip" in out
    assert "warm_start" in out
    text = svg.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text


@pytest.mark.parametrize("case", ["aborted", "uncontrolled"])
def test_report_renders_a_print_without_an_objective_figure(
        tmp_path, capsys, nominal_tip, case):
    # neither an abort record nor a layer without control has an objective,
    # so the plot falls back to the mean command
    if case == "aborted":
        write_bar_files(tmp_path, 4, 0.05, BOX)
        write_scenario(tmp_path / "scenario.json", gain=0.4)
    else:
        write_bar_files(tmp_path, 4, 1.08 * nominal_tip, BOX)
        write_scenario(tmp_path / "scenario.json", gain=0.85, control=False)
    assert run_cli("simulate", tmp_path / "scenario.json",
                   "--out", tmp_path / "sim") == 1
    capsys.readouterr()
    svg = tmp_path / "plot.svg"
    rc = run_cli("report", tmp_path / "sim" / "report.json", "--svg", svg)
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    if case == "aborted":
        assert lines[0] == "outcome: aborted"
        # the abort certificate: its line, then its verdict table
        at = lines.index("aborted at layer 1; violated: tip")
        assert lines[at + 1].split() == ["property", "quantity", "measured",
                                         "margin", "status"]
        assert lines[at + 2].split()[::4] == ["tip", "FAIL"]
        assert lines[at + 2].split()[1] == "max_displacement"
        assert "final verification (achieved field):" not in lines
        assert lines[-3].split()[:2] == ["1", "abort"]
    else:
        assert lines[0] == "outcome: spec_fail"
        assert not any(line.startswith("aborted") for line in lines)
        assert "final verification (achieved field):" in lines
        assert [line.split()[1] for line in lines[-6:-2]] == ["none"] * 4
    assert lines[-1] == f"wrote {svg}"
    text = svg.read_text()
    assert "mean commanded" in text and ">objective<" not in text


def test_report_names_the_key_a_report_lacks(tmp_path, capsys):
    # an abort written before abort verdicts took the final shape: its
    # verdicts have a bound and an excess, not a quantity and a margin
    report = tmp_path / "report.json"
    report.write_text(json.dumps({
        "outcome": "aborted", "seed": 0, "n_layers": 4, "fem_solves": 5,
        "abort": {"layer": 1, "violated": ["tip"], "verdicts": [
            {"name": "tip", "measured": 0.02, "bound": 0.01,
             "excess": 0.01, "passed": False}]},
        "verdicts": [], "history": []}))
    rc = run_cli("report", report)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (f"SEMFAB-ERR[usage] {report}: the report has no "
                            "key 'quantity'\n")


def test_report_and_verify_print_the_same_verdict_rows(tmp_path, capsys):
    mesh_path, ann_path = write_bar_files(tmp_path, 4, 0.05, BOX)
    write_scenario(tmp_path / "scenario.json", gain=0.9, actuator_noise=0.02)
    assert run_cli("simulate", tmp_path / "scenario.json",
                   "--out", tmp_path / "sim") == 0
    report = tmp_path / "sim" / "report.json"
    achieved = tmp_path / "achieved.json"
    achieved.write_text(
        json.dumps(json.loads(report.read_text())["fields"]["achieved"]))
    capsys.readouterr()
    assert run_cli("report", report) == 0
    reported = capsys.readouterr().out
    assert run_cli("verify", mesh_path, ann_path, "--field", achieved) == 0
    verified = capsys.readouterr().out.splitlines()
    assert verified[-1] == "all 1 properties pass"
    table = reported.split("final verification (achieved field):\n")[1]
    assert table.split("\n\n")[0].splitlines() == verified[:-1]
    assert verified[1].startswith("tip ")


def test_report_missing_file_exits_2(tmp_path, capsys):
    rc = run_cli("report", tmp_path / "missing.json")
    assert rc == 2
    assert "SEMFAB-ERR[usage]" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# global flags


def test_config_mirrors_global_flags_with_flag_precedence(tmp_path):
    # each flag carries its own default; a flag given overrides it
    mesh_path, ann_path = write_bar_files(tmp_path, 2, 0.05, BOX)
    parser = cli.build_parser()
    argv = ["optimize", mesh_path, ann_path, "--objective", "compliance",
            "-o", str(tmp_path / "field.json")]
    args = parser.parse_args(argv)
    assert args.tol == optimize.DEFAULT_TOL
    assert args.max_iter == optimize.DEFAULT_MAX_ITER
    assert args.log_level == "warning"
    assert parser.parse_args(argv + ["--max-iter", "7"]).max_iter == 7


def _empty_report(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({
        "outcome": "success", "seed": 0, "n_layers": 0, "fem_solves": 0,
        "abort": None, "verdicts": [], "history": []}))
    return path


@pytest.mark.parametrize("command", ["verify", "gen-mesh", "report"])
def test_only_optimize_and_simulate_take_optimizer_flags(tmp_path, capsys,
                                                         command):
    mesh_path, ann_path = write_bar_files(tmp_path, 2, 0.05, BOX)
    argv = {
        "verify": ["verify", mesh_path, ann_path, "--nominal",
                   "--tol", "1e-8"],
        "gen-mesh": ["gen-mesh", "box", "--nx", "1", "--ny", "1", "--nz",
                     "1", "-o", tmp_path / "box.json", "--max-iter", "3"],
        "report": ["report", _empty_report(tmp_path), "--tol", "1"],
    }[command]
    assert run_cli(*argv) == 2
    assert "SEMFAB-ERR[usage]" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    rc = run_cli("frobnicate")
    assert rc == 2
    assert "SEMFAB-ERR[usage]" in capsys.readouterr().err
