"""Closed-loop print simulation tests: plant exactness and determinism,
conjugate estimator behavior, controller compensation against the
series-spring oracle, abort certificates, and file round-trips."""

import dataclasses
import gc
import json
import math
import weakref

import numpy as np
import pytest
from conftest import (bar_mesh_and_doc, bar_tip_displacement,
                      layered_bar_problem, record_primal_solves)
from hypothesis import given, settings
from hypothesis import strategies as st

from semfab import fem, mesh, optimize, printsim, semantics
from semfab.errors import CalibrationError, PrintCompleteError

E_HI = 120000.0
BOX = (60000.0, E_HI)


@pytest.fixture(scope="module")
def bar():
    """4-layer bar with the displacement bound sized so a gain-0.85 plant
    fails uncontrolled but can be compensated within the box."""
    probe = layered_bar_problem(4, d_max=1.0, young_box=BOX)
    nominal = bar_tip_displacement(probe, np.full(24, E_HI))
    problem = layered_bar_problem(4, d_max=1.08 * nominal, young_box=BOX)
    plan = optimize.inversion_solve(problem)
    assert plan.feasible
    return problem, plan, nominal


def start(problem, values, seed=7):
    """A print of ``values`` in the unit-height layers of ``problem``'s
    mesh."""
    return printsim.initial_state(
        problem, values, seed, mesh.layer_partition(problem.spec.mesh, 1.0))


def full_print(problem, plan, actuator, seed=7):
    state = start(problem, plan.values, seed)
    while not state.done:
        state = printsim.print_layer(state, actuator)
    return state


# ---------------------------------------------------------------------------
# actuator and print mechanics


def test_identity_plant_achieves_commanded_exactly(bar):
    problem, plan, _ = bar
    state = full_print(problem, plan, printsim.ActuatorModel(gain=1.0))
    assert np.array_equal(state.achieved.values("young"), plan.values)
    assert all(state.achieved.provenance == "achieved")


def test_plain_gain_scales_exactly(bar):
    problem, plan, _ = bar
    state = full_print(problem, plan, printsim.ActuatorModel(gain=0.8))
    assert np.array_equal(state.achieved.values("young"), 0.8 * plan.values)


def test_seeded_noise_replays_bitwise(bar):
    problem, plan, _ = bar
    noisy = printsim.ActuatorModel(gain=0.9, drift_rate=0.01, noise_sd=0.05)
    a = full_print(problem, plan, noisy, seed=42)
    b = full_print(problem, plan, noisy, seed=42)
    c = full_print(problem, plan, noisy, seed=43)
    assert np.array_equal(a.achieved.values("young"), b.achieved.values("young"))
    assert not np.array_equal(
        a.achieved.values("young"), c.achieved.values("young")
    )


def test_achieved_values_hidden_above_frontier(bar):
    problem, plan, _ = bar
    state = start(problem, plan.values)
    state = printsim.print_layer(state, printsim.ActuatorModel(gain=1.0))
    printed = state.printed_elements()
    unprinted = state.unprinted_elements()
    achieved = state.achieved.values("young")
    assert np.all(np.isfinite(achieved[printed]))
    assert np.all(np.isnan(achieved[unprinted]))
    assert all(state.achieved.provenance[printed] == "achieved")


def test_printing_past_the_last_layer_raises(bar):
    problem, plan, _ = bar
    state = full_print(problem, plan, printsim.ActuatorModel(gain=1.0))
    with pytest.raises(PrintCompleteError):
        printsim.print_layer(state, printsim.ActuatorModel(gain=1.0))


def test_actuator_validation():
    with pytest.raises(ValueError):
        printsim.ActuatorModel(gain=0.0)
    with pytest.raises(ValueError):
        printsim.ActuatorModel(gain=1.0, noise_sd=-0.1)
    with pytest.raises(ValueError):
        printsim.SensorModel(noise_sd=-1.0)


@pytest.mark.parametrize("build, field", [
    (lambda: printsim.ActuatorModel(gain=10**400), "actuator gain"),
    (lambda: printsim.ActuatorModel(gain=True), "actuator gain"),
    (lambda: printsim.ActuatorModel(gain=1.0, drift_rate=10**400),
     "actuator drift_rate"),
    (lambda: printsim.ActuatorModel(gain=1.0, noise_sd=10**400),
     "actuator noise_sd"),
    (lambda: printsim.SensorModel(noise_sd=10**400), "sensor noise_sd"),
    (lambda: printsim.SensorModel(noise_sd=False), "sensor noise_sd"),
], ids=["gain-past-float-range", "boolean-gain", "drift-past-float-range",
        "noise-past-float-range", "sensor-noise-past-float-range",
        "boolean-sensor-noise"])
def test_a_model_refuses_a_number_it_cannot_use(build, field):
    # such a gain or noise level used to be taken, and the first layer
    # then raised OverflowError, or printed with a gain of True
    with pytest.raises(ValueError, match=f"^{field} must be a finite number$"):
        build()


def test_a_model_stores_its_numbers_as_floats():
    actuator = printsim.ActuatorModel(gain=1, drift_rate=0, noise_sd=0)
    sensor = printsim.SensorModel(noise_sd=0)
    numbers = [actuator.gain, actuator.drift_rate, actuator.noise_sd,
               sensor.noise_sd]
    assert [type(x) for x in numbers] == [float] * 4


def test_a_plan_with_a_nonpositive_value_cannot_be_printed(bar):
    problem, plan, _ = bar
    values = plan.values.copy()
    values[3] = 0.0
    with pytest.raises(ValueError, match="positive"):
        start(problem, values)


def test_observation_requires_a_printed_layer(bar):
    problem, plan, _ = bar
    state = start(problem, plan.values)
    with pytest.raises(ValueError):
        printsim.observe_and_update(state, printsim.SensorModel())


# ---------------------------------------------------------------------------
# estimator


def test_exact_sensor_posterior_equals_measurement():
    est = printsim.EstimatorState.from_commanded(np.array([2.0, 3.0]))
    out = est.updated([0], np.log([2.5]), noise_sd=0.0, prior_value=[2.0])
    assert out.value[0] == pytest.approx(2.5, abs=1e-9)
    assert out.variance[0] == 0.0
    assert out.counts[0] == 1


def test_tie_measurement_keeps_mean_and_shrinks_variance():
    est = printsim.EstimatorState.from_commanded(np.array([3.0]))
    out = est.updated([0], np.array([est.mean_log[0]]), noise_sd=0.05,
                      prior_value=[3.0])
    assert out.mean_log[0] == est.mean_log[0]
    assert out.value[0] == 3.0  # linear cache untouched by a tie
    assert out.variance[0] < est.variance[0]


def test_untouched_elements_keep_commanded_prior():
    est = printsim.EstimatorState.from_commanded(np.array([2.0, 3.0, 4.0]))
    out = est.updated([1], np.log([3.3]), noise_sd=0.1, prior_value=[3.0])
    for idx in (0, 2):
        assert out.mean_log[idx] == est.mean_log[idx]
        assert out.variance[idx] == est.variance[idx]
        assert out.value[idx] == est.value[idx]


def test_posterior_variance_nonincreasing_over_measurements():
    est = printsim.EstimatorState.from_commanded(np.array([5.0]))
    variances = [est.variance[0]]
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = np.log(5.0) + 0.05 * rng.standard_normal(1)
        est = est.updated([0], m, noise_sd=0.05, prior_value=[5.0])
        variances.append(est.variance[0])
    assert np.all(np.diff(variances) < 0)


def test_conjugate_update_matches_closed_form():
    est = printsim.EstimatorState.from_commanded(np.array([2.0]))
    est = dataclasses.replace(est, variance=np.array([0.3**2]))
    m = math.log(2.6)
    out = est.updated([0], np.array([m]), noise_sd=0.1, prior_value=[2.0])
    p0, pm = 1 / 0.3**2, 1 / 0.1**2
    expected_mean = (p0 * math.log(2.0) + pm * m) / (p0 + pm)
    assert out.mean_log[0] == pytest.approx(expected_mean, rel=1e-14)
    assert out.variance[0] == pytest.approx(1 / (p0 + pm), rel=1e-14)


def test_replanned_commands_become_the_prior_on_first_measurement():
    est = printsim.EstimatorState.from_commanded(np.array([2.0]))
    m = math.log(3.0)
    out = est.updated([0], np.array([m]), noise_sd=0.1,
                      prior_value=np.array([2.5]))
    p0, pm = 1 / est.variance[0], 1 / 0.1**2
    expected = (p0 * math.log(2.5) + pm * m) / (p0 + pm)
    assert out.mean_log[0] == pytest.approx(expected, rel=1e-14)


def test_estimator_monte_carlo_consistency():
    truth = 5.0
    sd, n = 0.05, 100
    se = sd / math.sqrt(n)
    hits = 0
    seeds = 200
    for s in range(seeds):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([s, 0], dtype=np.uint64))
        )
        est = printsim.EstimatorState.from_commanded(np.array([truth]))
        draws = np.log(truth) + sd * rng.standard_normal(n)
        for k in range(n):
            est = est.updated([0], draws[k:k + 1], noise_sd=sd,
                              prior_value=[truth])
        hits += abs(est.mean_log[0] - np.log(truth)) <= 3 * se
    assert hits / seeds >= 0.99


def reference_update(est, ids, measured_log, noise_sd, prior_value):
    """The conjugate update of ``EstimatorState.updated``, one element at a
    time, as (mean_log, variance, value, counts)."""
    mean, var = est.mean_log.copy(), est.variance.copy()
    value, counts = est.value.copy(), est.counts.copy()
    prior_log = np.log(prior_value)
    for k, i in enumerate(ids):
        m0, v0, val0 = mean[i], var[i], value[i]
        if counts[i] == 0:
            m0, val0 = prior_log[k], prior_value[k]
        y = measured_log[k]
        if noise_sd == 0.0:
            m1, v1 = y, 0.0
        elif v0 == 0.0:  # an exact prior does not move
            m1, v1 = m0, 0.0
        else:
            p0, pm = 1.0 / v0, 1.0 / (noise_sd * noise_sd)
            v1 = 1.0 / (p0 + pm)
            m1 = v1 * (p0 * m0 + pm * y)
        if y == m0:  # a tie keeps the prior mean
            m1 = m0
        mean[i], var[i] = m1, v1
        value[i] = val0 if m1 == m0 else np.exp(m1)
        counts[i] += 1
    return mean, var, value, counts


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_estimator_update_matches_the_reference_bit_for_bit(data):
    n = data.draw(st.integers(1, 6))
    positive = st.floats(0.5, 2e5, allow_nan=False)
    est = printsim.EstimatorState.from_commanded(
        np.array(data.draw(st.lists(positive, min_size=n, max_size=n))))
    prior_sd = data.draw(st.sampled_from([0.05, 0.5, 1.5]))
    est = dataclasses.replace(est, variance=np.full(n, prior_sd**2))
    arrays = (est.mean_log, est.variance, est.value, est.counts)
    for _ in range(data.draw(st.integers(1, 4))):
        # fresh and re-read ids in any order; a noise-0 reading leaves an
        # exact (variance-0) prior for the next one
        ids = np.array(data.draw(st.permutations(range(n)))[
            :data.draw(st.integers(1, n))], dtype=np.intp)
        noise_sd = data.draw(st.sampled_from([0.0, 0.01, 0.3]))
        # the commands the state was created with, or re-planned ones
        prior_value = arrays[2][ids]
        if data.draw(st.booleans()):
            prior_value = np.array(data.draw(
                st.lists(positive, min_size=ids.size, max_size=ids.size)))
        prior_log = np.log(prior_value)
        measured = np.array(data.draw(st.lists(
            st.floats(-2.0, 13.0), min_size=ids.size, max_size=ids.size)))
        for k, i in enumerate(ids):
            if data.draw(st.booleans()):  # a reading equal to the prior
                fresh = arrays[3][i] == 0
                measured[k] = prior_log[k] if fresh else arrays[0][i]
        arrays = reference_update(
            dataclasses.replace(est, mean_log=arrays[0], variance=arrays[1],
                                value=arrays[2], counts=arrays[3]),
            ids, measured, noise_sd, prior_value)
        est = est.updated(ids, measured, noise_sd, prior_value)
        for got, want in zip((est.mean_log, est.variance, est.value,
                              est.counts), arrays):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# closed loop


def test_zero_drift_keeps_plan_with_zero_control_solves(bar):
    problem, plan, _ = bar
    report = printsim.run_print(
        problem, plan, printsim.ActuatorModel(gain=1.0),
        printsim.SensorModel(noise_sd=0.0), printsim.ControlPolicy(),
        seed=7, layer_height=1.0,
    )
    assert report.outcome == "success"
    assert np.array_equal(report.commanded.values("young"), plan.values)
    assert all(rec.strategy == "warm_start" for rec in report.history)
    assert all(rec.fem_solves == 0 for rec in report.history)


def test_control_disabled_identity_plant_keeps_plan_exactly(bar):
    problem, plan, _ = bar
    report = printsim.run_print(
        problem, plan, printsim.ActuatorModel(gain=1.0),
        printsim.SensorModel(noise_sd=0.0),
        printsim.ControlPolicy(control_enabled=False),
        seed=7, layer_height=1.0,
    )
    assert report.outcome == "success"
    assert np.array_equal(report.commanded.values("young"), plan.values)
    assert all(rec.strategy == "none" for rec in report.history)


def test_uncontrolled_degradation_fails_final_verification(bar):
    problem, plan, nominal = bar
    report = printsim.run_print(
        problem, plan, printsim.ActuatorModel(gain=0.85),
        printsim.SensorModel(noise_sd=0.0),
        printsim.ControlPolicy(control_enabled=False),
        seed=7, layer_height=1.0,
    )
    assert report.outcome == "spec_fail"
    tip = next(v for v in report.verdicts if v.name == "tip")
    assert not tip.passed
    assert tip.measured == pytest.approx(nominal / 0.85, rel=1e-9)


def test_controlled_degradation_compensates_and_passes(bar):
    problem, plan, nominal = bar
    actuator = printsim.ActuatorModel(gain=0.85)
    cmd = np.full(6, 100.0)
    calibrated = printsim.calibrate_actuator(
        [(cmd, actuator.apply(cmd, layer, seed=123)) for layer in range(3)]
    )
    report = printsim.run_print(
        problem, plan, actuator, printsim.SensorModel(noise_sd=0.0),
        printsim.ControlPolicy(plant_model=calibrated),
        seed=7, layer_height=1.0,
    )
    assert report.outcome == "success"
    tip = next(v for v in report.verdicts if v.name == "tip")
    assert tip.passed
    # only the first layer printed soft; compensation is visible as raised
    # commands for everything above it
    assert report.history[0].mean_commanded > plan.values.mean()
    bound = next(p for p in problem.spec.properties if p.name == "tip").bound
    assert tip.measured <= bound
    assert tip.measured > nominal  # layer 0 remains degraded


def test_same_seed_reports_are_bitwise_identical(bar):
    problem, plan, _ = bar
    actuator = printsim.ActuatorModel(gain=0.9, noise_sd=0.02)
    kwargs = dict(
        actuator=actuator,
        sensor=printsim.SensorModel(noise_sd=0.01),
        policy=printsim.ControlPolicy(strategy="full"),
        layer_height=1.0,
    )
    a = printsim.run_print(problem, plan, seed=11, **kwargs)
    b = printsim.run_print(problem, plan, seed=11, **kwargs)
    c = printsim.run_print(problem, plan, seed=12, **kwargs)
    assert printsim.report_to_dict(a) == printsim.report_to_dict(b)
    assert printsim.report_to_dict(a) != printsim.report_to_dict(c)


@pytest.mark.parametrize("strategy", ["full", "warm_start"])
def test_in_process_replay_reports_are_byte_identical(bar, tmp_path,
                                                      strategy):
    # seed A, seed B, seed A on one fresh problem: its assembly plans are
    # built during the first run and reused by the others, and nothing
    # they or the solver contexts keep may carry state from run to run
    _, _, nominal = bar
    problem = layered_bar_problem(4, d_max=1.08 * nominal, young_box=BOX)
    plan = optimize.inversion_solve(problem)
    kwargs = dict(
        actuator=printsim.ActuatorModel(gain=0.95, drift_rate=0.01,
                                        noise_sd=0.02),
        sensor=printsim.SensorModel(noise_sd=0.01, availability="all"),
        policy=printsim.ControlPolicy(strategy=strategy),
        layer_height=1.0,
    )
    reports = []
    for i, seed in enumerate((11, 12, 11)):
        path = tmp_path / f"report{i}.json"
        printsim.save_report(
            printsim.run_print(problem, plan, seed=seed, **kwargs), path)
        reports.append(path.read_bytes())
    assert reports[0] == reports[2]
    assert reports[0] != reports[1]


def test_a_report_is_written_whole_or_not_at_all(bar, tmp_path):
    problem, plan, _ = bar
    report = printsim.run_print(
        problem, plan, printsim.ActuatorModel(gain=0.4),
        printsim.SensorModel(noise_sd=0.0), printsim.ControlPolicy(),
        seed=7, layer_height=1.0,
    )
    # json refuses the height only after it has written the fields
    unwritable = dataclasses.replace(report, layer_height=math.inf)
    path = tmp_path / "report.json"
    with pytest.raises(ValueError):
        printsim.save_report(unwritable, path)
    assert list(tmp_path.iterdir()) == []
    printsim.save_report(report, path)
    written = path.read_bytes()
    with pytest.raises(ValueError):
        printsim.save_report(unwritable, path)
    assert path.read_bytes() == written
    assert list(tmp_path.iterdir()) == [path]


def drifting_print_kwargs(strategy, noise_sd=0.01):
    """Gain 0.9 with 0.5% drift per layer, a calibrated controller, and
    `noise_sd` on both the actuator and the sensor."""
    return dict(
        actuator=printsim.ActuatorModel(gain=0.9, drift_rate=0.005,
                                        noise_sd=noise_sd),
        sensor=printsim.SensorModel(noise_sd=noise_sd),
        policy=printsim.ControlPolicy(
            strategy=strategy,
            plant_model=printsim.ActuatorModel(gain=0.9, drift_rate=0.005),
        ),
        layer_height=1.0,
    )


def test_warm_start_engages_on_every_layer_under_drift():
    # the plan sits on the upper E bound, so every variable is bound-active
    # and the model reads the plan's own evaluation: no solve for compliance
    probe = layered_bar_problem(10, d_max=1.0, young_box=BOX)
    nominal = bar_tip_displacement(probe, np.full(60, E_HI))
    problem = layered_bar_problem(10, d_max=1.08 * nominal, young_box=BOX)
    plan = optimize.inversion_solve(problem)
    assert np.all(plan.values == E_HI)
    warm = printsim.run_print(problem, plan, seed=5,
                              **drifting_print_kwargs("warm_start"))
    assert warm.outcome == "success"
    assert len(warm.history) == 10
    assert all(rec.strategy == "warm_start" and rec.fallback is None
               for rec in warm.history)
    # the model, one feasibility check per layer, the final verification
    assert warm.fem_solves == 0 + 10 + 1


def upper_bound_bar_problem():
    """The 10-layer test bar whose plan sits on the upper E bound."""
    probe = layered_bar_problem(10, d_max=1.0, young_box=BOX)
    nominal = bar_tip_displacement(probe, np.full(60, E_HI))
    return layered_bar_problem(10, d_max=1.08 * nominal, young_box=BOX)


def test_warm_start_costs_what_a_full_replan_does_at_a_corner_plan():
    # each full layer stops at its start-point check, and the warm start's
    # model reads the plan's evaluation, so neither has a solve to spare
    problem = upper_bound_bar_problem()
    plan = optimize.inversion_solve(problem)
    solves = {}
    for strategy in ("warm_start", "full"):
        report = printsim.run_print(problem, plan, seed=5,
                                    **drifting_print_kwargs(strategy))
        assert report.outcome == "success"
        solves[strategy] = report.fem_solves
    assert solves == {"warm_start": 11, "full": 11}


def test_a_plan_and_its_prints_solve_no_field_twice(monkeypatch):
    # the warm start's model reads the plan's own evaluation instead of
    # solving the plan's field again; the two prints run other seeds, as
    # `simulate --seeds` does, so every field they reach is their own
    problem = upper_bound_bar_problem()
    keys = record_primal_solves(monkeypatch)
    plan = optimize.inversion_solve(problem)
    for seed, strategy in ((5, "warm_start"), (6, "full")):
        report = printsim.run_print(problem, plan, seed=seed,
                                    **drifting_print_kwargs(strategy))
        assert report.outcome == "success"
    # the plan's midpoint and corner; per print, ten layer checks and the
    # final verification
    assert len(keys) == 2 + 11 + 11
    assert len(set(keys)) == len(keys)


def test_failed_model_build_is_recorded_as_the_fallback(bar, tmp_path):
    # the mass objective does not depend on E, so its model is invalid and
    # every layer is re-solved in full; noise-free, so no layer aborts
    _, _, nominal = bar
    problem = layered_bar_problem(4, d_max=1.08 * nominal, young_box=BOX,
                                  objective="mass")
    plan = optimize.inversion_solve(problem)
    assert plan.feasible
    report = printsim.run_print(problem, plan, seed=5,
                                **drifting_print_kwargs("warm_start", 0.0))
    assert len(report.history) == 4
    assert all(rec.strategy == "full" and rec.fallback == "model_invalid"
               for rec in report.history)
    json_path = tmp_path / "report.json"
    printsim.save_report(report, json_path)
    doc = json.loads(json_path.read_text())
    assert {rec["fallback"] for rec in doc["history"]} == {"model_invalid"}
    csv_path = tmp_path / "history.csv"
    printsim.history_to_csv(report, csv_path)
    rows = csv_path.read_text().splitlines()
    assert all(row.endswith(",model_invalid") for row in rows[1:])


def test_nonstationary_plan_is_recorded_as_the_base_point_fallback(bar):
    # a plan stopped before its first step is not a minimizer, so the model
    # build raises BasePointError and every layer is re-solved in full
    _, _, nominal = bar
    problem = layered_bar_problem(4, d_max=1.5 * nominal, young_box=BOX)
    plan = optimize.inversion_solve(problem, max_iter=0)
    assert plan.feasible and plan.iterations == 0
    report = printsim.run_print(problem, plan, seed=5,
                                **drifting_print_kwargs("warm_start"))
    assert report.outcome == "success"
    assert len(report.history) == 4
    assert all(rec.strategy == "full" and rec.fallback == "base_point"
               for rec in report.history)
    # the failed build reads the plan's evaluation (no solve), 7 on the
    # layers, the final check
    assert report.fem_solves == 0 + 7 + 1


def test_plan_reported_feasible_passes_final_verification(bar):
    # nothing in the mass objective pulls E down, so the penalty alone stops
    # the plan at the tip bound; a plan called feasible must meet it exactly,
    # as final verification demands, and a compensated print of it succeed
    _, _, nominal = bar
    problem = layered_bar_problem(4, d_max=1.08 * nominal, young_box=BOX,
                                  objective="mass")
    plan = optimize.inversion_solve(problem)
    assert plan.feasible
    verdicts = printsim.final_verification(
        problem, problem.field_for(plan.values))
    assert all(v.passed for v in verdicts)
    # the bound binds: a long step past it, which only the penalty would
    # pull back, leaves the tip far inside and fails here
    tip = next(v for v in verdicts if v.name == "tip")
    assert tip.measured == pytest.approx(1.08 * nominal, rel=1e-4)
    report = printsim.run_print(problem, plan, seed=5,
                                **drifting_print_kwargs("full", 0.0))
    assert report.outcome == "success"


def test_severe_degradation_aborts_with_certificate(bar):
    problem, plan, _ = bar
    report = printsim.run_print(
        problem, plan, printsim.ActuatorModel(gain=0.4),
        printsim.SensorModel(noise_sd=0.0), printsim.ControlPolicy(),
        seed=7, layer_height=1.0,
    )
    assert report.outcome == "aborted"
    assert report.abort is not None
    assert report.abort.layer == 0  # caught right away, not at the end
    assert "tip" in report.abort.violated
    assert report.verdicts == ()
    assert report.history[-1].strategy == "abort"


def test_the_abort_is_the_last_layer_record(bar, tmp_path):
    problem, plan, _ = bar
    report = printsim.run_print(
        problem, plan, printsim.ActuatorModel(gain=0.4),
        printsim.SensorModel(noise_sd=0.0), printsim.ControlPolicy(),
        seed=7, layer_height=1.0,
    )
    record = report.history[-1]
    assert report.abort is record
    assert record.strategy == "abort" and record.violated == ("tip",)
    # the warm step failed its check before the full re-plan found no
    # completion, and the record keeps that reason
    assert record.objective is None and record.fallback == "warm_infeasible"
    assert record.max_violation == -min(v.margin for v in record.verdicts) > 0
    # the failed re-plan leaves the commands as they were
    assert np.array_equal(report.commanded.values("young"), plan.values)
    assert record.mean_commanded == float(plan.values.mean())
    path = tmp_path / "report.json"
    printsim.save_report(report, path)
    doc = json.loads(path.read_text())
    last = doc["history"][-1]
    assert doc["abort"]["layer"] == last["layer"] == record.layer == 0
    assert doc["abort"]["fem_solves"] == last["fem_solves"] \
        == record.fem_solves > 0
    assert last["max_violation"] == -min(
        v["margin"] for v in doc["abort"]["verdicts"])


def test_a_failed_model_build_then_an_abort_is_recorded(bar, tmp_path):
    # the mass objective does not depend on E, so the warm start's model is
    # invalid and the layers re-plan in full until one cannot be completed;
    # the abort record keeps that fallback
    _, _, nominal = bar
    problem = layered_bar_problem(4, d_max=1.08 * nominal, young_box=BOX,
                                  objective="mass")
    plan = optimize.inversion_solve(problem)
    kwargs = drifting_print_kwargs("warm_start")
    kwargs["policy"] = printsim.ControlPolicy(strategy="warm_start")
    report = printsim.run_print(problem, plan, seed=5, **kwargs)
    assert report.outcome == "aborted"
    assert [(rec.strategy, rec.fallback) for rec in report.history] == [
        ("full", "model_invalid"), ("abort", "model_invalid")]
    path = tmp_path / "report.json"
    printsim.save_report(report, path)
    history = json.loads(path.read_text())["history"]
    assert [rec["fallback"] for rec in history] == ["model_invalid"] * 2


def test_a_replan_records_its_largest_excess(bar, tmp_path):
    # every bound holds with slack after each re-plan, so the history's
    # max_violation is negative, as an optimizer trace line's is
    problem, plan, _ = bar
    report = printsim.run_print(problem, plan, seed=3,
                                **drifting_print_kwargs("full"))
    assert report.outcome == "success"
    path = tmp_path / "report.json"
    printsim.save_report(report, path)
    history = json.loads(path.read_text())["history"]
    for rec, doc in zip(report.history, history, strict=True):
        assert rec.strategy == "full" and rec.violated == ()
        assert rec.max_violation == max(v.excess for v in rec.verdicts) < 0
        assert doc["max_violation"] == rec.max_violation


def test_controller_never_reads_achieved_values(bar):
    problem, plan, _ = bar
    state = start(problem, plan.values)
    state = printsim.print_layer(state, printsim.ActuatorModel(gain=0.85))
    state = printsim.observe_and_update(state, printsim.SensorModel())
    tampered_field = state.achieved.copy()
    tampered_field.young[:] = 1e12  # sentinel the controller must not see
    tampered = dataclasses.replace(state, achieved=tampered_field)
    out_clean = printsim.control_step(state, problem, "full", plan)
    out_tampered = printsim.control_step(tampered, problem, "full", plan)
    assert np.array_equal(
        out_clean.commanded.values("young"),
        out_tampered.commanded.values("young"),
    )


def test_estimated_field_provenance_split(bar):
    problem, plan, _ = bar
    state = start(problem, plan.values)
    state = printsim.print_layer(state, printsim.ActuatorModel(gain=0.9))
    state = printsim.observe_and_update(state, printsim.SensorModel())
    printed = state.printed_elements()
    unprinted = state.unprinted_elements()
    assert all(state.estimated.provenance[printed] == "estimated")
    assert all(state.estimated.provenance[unprinted] == "commanded")
    assert state.estimated.values("young")[printed] == pytest.approx(
        0.9 * plan.values[printed], rel=1e-12
    )


def _exact_print(problem, plan, actuator, availability, control=True):
    return printsim.run_print(
        problem, plan, actuator,
        printsim.SensorModel(noise_sd=0.0, availability=availability),
        printsim.ControlPolicy(control_enabled=control),
        seed=7, layer_height=1.0,
    )


@pytest.mark.parametrize("availability, expected",
                         [("layer", 24), ("all", 6 + 12 + 18 + 24)])
def test_reading_count_follows_sensor_availability(bar, availability,
                                                   expected):
    problem, plan, _ = bar
    report = _exact_print(problem, plan, printsim.ActuatorModel(gain=1.0),
                          availability)
    assert report.outcome == "success"
    assert printsim.report_to_dict(report)["n_measurements"] == expected


# reaches layer 2 of 4 under control, then aborts: achieved drops 15% a layer
SINKING = printsim.ActuatorModel(gain=1.0, drift_rate=-0.15)


@pytest.mark.parametrize("availability, expected",
                         [("layer", 6 + 6 + 6), ("all", 6 + 12 + 18)])
def test_an_aborted_print_counts_only_the_layers_it_observed(
        bar, availability, expected):
    problem, plan, _ = bar
    report = _exact_print(problem, plan, SINKING, availability)
    assert report.outcome == "aborted"
    assert report.abort.layer == 2
    assert printsim.report_to_dict(report)["n_measurements"] == expected


# 1 - 0.4 * 3 = -0.2: the factor turns negative at the last of 4 layers
SUNK = printsim.ActuatorModel(gain=0.9, drift_rate=-0.4)


@pytest.mark.parametrize("role", ["actuator", "plant model"])
def test_a_model_whose_factor_turns_nonpositive_is_refused_before_printing(
        bar, role):
    problem, plan, _ = bar
    actuator = SUNK if role == "actuator" else printsim.ActuatorModel(0.9)
    plant = SUNK if role == "plant model" else printsim.ActuatorModel(0.9)
    solves = problem.stats.fem_solves
    with pytest.raises(ValueError, match=rf"the {role}'s factor at layer 3 "
                       r"is -0\.18\d*; it must be positive on all 4 layers"):
        printsim.run_print(
            problem, plan, actuator, printsim.SensorModel(noise_sd=0.01),
            printsim.ControlPolicy(strategy="full", plant_model=plant),
            seed=7, layer_height=1.0)
    assert problem.stats.fem_solves == solves
    # a factor that sinks but stays positive is printed
    assert SINKING.deterministic_factor(3) == pytest.approx(0.55)
    report = _exact_print(problem, plan, SINKING, "layer")
    assert report.outcome == "aborted"


def test_a_layer_without_control_has_no_violation_figure(bar, tmp_path):
    problem, plan, _ = bar
    report = _exact_print(problem, plan, printsim.ActuatorModel(gain=0.9),
                          "layer", control=False)
    assert [rec.strategy for rec in report.history] == ["none"] * 4
    assert all(rec.max_violation is None and rec.verdicts == ()
               for rec in report.history)
    path = tmp_path / "report.json"
    printsim.save_report(report, path)
    history = json.loads(path.read_text())["history"]
    assert [rec["max_violation"] for rec in history] == [None] * 4
    csv_path = tmp_path / "history.csv"
    printsim.history_to_csv(report, csv_path)
    rows = [row.split(",") for row in csv_path.read_text().splitlines()]
    assert [row[3] for row in rows[1:]] == [""] * 4


def test_a_replan_without_bounds_records_a_zero_violation():
    # nothing to check, so the largest excess defaults to 0
    m, doc = bar_mesh_and_doc(4, 1.0, BOX)
    del doc["global_properties"]
    spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)
    problem = optimize.InversionProblem(spec, "compliance", parameter="young")
    plan = optimize.inversion_solve(problem)
    assert plan.verdicts == () and plan.feasible
    report = _exact_print(problem, plan, printsim.ActuatorModel(gain=0.9),
                          "layer")
    assert report.outcome == "success"
    assert [rec.max_violation for rec in report.history] == [0.0] * 4


@pytest.mark.parametrize("case", ["uncontrolled", "aborted"])
def test_reported_estimate_is_tagged_on_exactly_the_printed_elements(bar,
                                                                     case):
    problem, plan, _ = bar
    if case == "uncontrolled":
        report = _exact_print(problem, plan,
                              printsim.ActuatorModel(gain=0.9), "layer",
                              control=False)
        assert report.outcome == "spec_fail"
    else:
        report = _exact_print(problem, plan, SINKING, "layer")
        assert report.outcome == "aborted"
    printed = report.achieved.provenance == "achieved"
    assert printed.sum() == (24 if case == "uncontrolled" else 18)
    assert np.array_equal(report.estimated.provenance == "estimated", printed)
    assert all(report.estimated.provenance[~printed] == "commanded")
    estimated = report.estimated.values("young")
    assert np.array_equal(estimated[~printed],
                          report.commanded.values("young")[~printed])
    # an exact sensor reads the achieved values
    assert estimated[printed] == pytest.approx(
        report.achieved.values("young")[printed], rel=1e-12)


def test_infeasible_plan_is_rejected(bar):
    problem, plan, _ = bar
    # a plan is infeasible when one of its verdicts fails
    tip = next(v for v in plan.verdicts if v.name == "tip")
    failed = dataclasses.replace(tip, measured=2.0 * tip.bound,
                                 excess=tip.bound, passed=False)
    bad_plan = dataclasses.replace(plan, verdicts=(failed,))
    assert not bad_plan.feasible and bad_plan.violated == ("tip",)
    with pytest.raises(ValueError, match="feasible"):
        printsim.run_print(
            problem, bad_plan, printsim.ActuatorModel(gain=1.0),
            printsim.SensorModel(), printsim.ControlPolicy(),
            seed=7, layer_height=1.0,
        )


# ---------------------------------------------------------------------------
# calibration


def test_calibration_recovers_noiseless_plant_exactly():
    plant = printsim.ActuatorModel(gain=0.9, drift_rate=0.01)
    commanded = np.array([50.0, 80.0, 120.0])
    records = [
        (commanded, commanded * plant.deterministic_factor(layer))
        for layer in range(5)
    ]
    fitted = printsim.calibrate_actuator(records)
    assert fitted.gain == pytest.approx(0.9, abs=1e-9)
    assert fitted.drift_rate == pytest.approx(0.01, abs=1e-9)
    assert fitted.noise_sd == pytest.approx(0.0, abs=1e-9)


def test_calibration_with_noise_recovers_gain():
    plant = printsim.ActuatorModel(gain=0.9, drift_rate=0.01, noise_sd=0.05)
    commanded = np.full(40, 100.0)
    records = [
        (commanded, plant.apply(commanded, layer, seed=5))
        for layer in range(5)
    ]
    fitted = printsim.calibrate_actuator(records)
    assert fitted.gain == pytest.approx(0.9, rel=0.02)
    assert fitted.noise_sd == pytest.approx(0.05, rel=0.35)


def test_calibration_needs_at_least_two_layers():
    with pytest.raises(CalibrationError):
        printsim.calibrate_actuator([(np.array([1.0]), np.array([0.9]))])


def test_calibration_rejects_bad_records():
    a = np.array([1.0, 2.0])
    with pytest.raises(CalibrationError):
        printsim.calibrate_actuator([(a, a[:1]), (a, a)])
    with pytest.raises(CalibrationError):
        printsim.calibrate_actuator([(a, -a), (a, a)])


# ---------------------------------------------------------------------------
# files


def test_scenario_round_trip(tmp_path):
    scenario = printsim.Scenario(
        mesh_path="bar.mesh.json",
        annotation_path="bar.sem.json",
        actuator=printsim.ActuatorModel(gain=0.85, drift_rate=0.0,
                                        noise_sd=0.01),
        sensor=printsim.SensorModel(noise_sd=0.02, availability="all"),
        policy=printsim.ControlPolicy(
            strategy="full", control_enabled=True,
            plant_model=printsim.ActuatorModel(gain=0.85),
        ),
        seed=42,
        layer_height=1.0,
        objective="compliance",
        parameter="young",
    )
    path = tmp_path / "scenario.json"
    printsim.save_scenario(scenario, path)
    loaded = printsim.load_scenario(path)
    assert loaded == scenario
    assert printsim.scenario_to_dict(loaded) == printsim.scenario_to_dict(
        scenario
    )


def test_scenario_rejects_unknown_and_missing_keys():
    doc = printsim.scenario_to_dict(
        printsim.Scenario(
            "m", "a", printsim.ActuatorModel(gain=1.0),
            printsim.SensorModel(), printsim.ControlPolicy(), 1, 1.0,
        )
    )
    with pytest.raises(ValueError, match="unknown"):
        printsim.scenario_from_dict({**doc, "extra": 1})
    missing = dict(doc)
    del missing["seed"]
    with pytest.raises(ValueError, match="seed"):
        printsim.scenario_from_dict(missing)


@pytest.mark.parametrize("section, value, message", [
    ("actuator", 10**400, "actuator gain must be a finite number"),
    ("plant_model", True, "policy.plant_model gain must be a finite number"),
    ("plant_model", -1.0, "policy.plant_model gain must be positive and "
     "finite"),
])
def test_a_scenario_model_number_is_named_by_its_section(section, value,
                                                         message):
    # the model checks each number once; the scenario names the section
    doc = printsim.scenario_to_dict(printsim.Scenario(
        "m", "a", printsim.ActuatorModel(gain=1.0), printsim.SensorModel(),
        printsim.ControlPolicy(plant_model=printsim.ActuatorModel(gain=1.0)),
        1, 1.0))
    model = doc["actuator"] if section == "actuator" else doc["policy"][
        "plant_model"]
    model["gain"] = value
    with pytest.raises(ValueError, match=f"^scenario {message}$"):
        printsim.scenario_from_dict(doc)


def test_a_boolean_seed_is_refused(bar):
    problem, plan, _ = bar
    with pytest.raises(ValueError, match="seed must be an integer"):
        printsim.run_print(problem, plan, seed=True,
                           **drifting_print_kwargs("full"))


def test_report_and_csv_serialization(bar, tmp_path):
    problem, plan, _ = bar
    report = printsim.run_print(
        problem, plan, printsim.ActuatorModel(gain=0.4),
        printsim.SensorModel(noise_sd=0.0), printsim.ControlPolicy(),
        seed=7, layer_height=1.0,
    )
    json_path = tmp_path / "report.json"
    printsim.save_report(report, json_path)  # NaNs must serialize as null
    doc = json.loads(json_path.read_text())
    assert set(doc) == {"outcome", "seed", "layer_height", "parameter",
                        "fem_solves", "n_layers", "n_measurements", "abort",
                        "verdicts", "history", "fields"}
    assert set(doc["fields"]) == {"commanded", "achieved", "estimated"}
    assert doc["outcome"] == "aborted"
    assert doc["abort"]["violated"] == ["tip"]
    assert any(v is None for v in doc["fields"]["achieved"]["young"])

    csv_path = tmp_path / "history.csv"
    printsim.history_to_csv(report, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("layer,strategy,objective,max_violation,"
                        "fem_solves,mean_commanded,fallback")
    assert len(lines) == 1 + len(report.history)


def test_reported_solve_counts_equal_the_solves_made(bar, monkeypatch):
    # every fem.solve and fem.adjoint_solve call, counted from outside
    calls = []
    for name in ("solve", "adjoint_solve"):
        original = getattr(fem, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(fem, name, counted)
    _, _, nominal = bar
    problem = layered_bar_problem(4, d_max=1.08 * nominal, young_box=BOX)
    plan = optimize.inversion_solve(problem)
    assert plan.fem_solves == len(calls) > 0
    for strategy in ("full", "warm_start"):
        calls.clear()
        report = printsim.run_print(problem, plan, seed=3,
                                    **drifting_print_kwargs(strategy))
        assert report.outcome == "success"
        assert report.fem_solves == len(calls) > 0
    calls.clear()
    aborted = printsim.run_print(
        problem, plan, printsim.ActuatorModel(gain=0.4),
        printsim.SensorModel(noise_sd=0.0), printsim.ControlPolicy(),
        seed=7, layer_height=1.0,
    )
    assert aborted.outcome == "aborted"
    assert aborted.fem_solves == len(calls) > 0


def test_printed_and_unprinted_elements_split_the_mesh_at_every_frontier():
    from semfab.semantics import MaterialField

    plate = mesh.generate_box_mesh(8, 8, 8, [8.0, 8.0, 8.0])
    partition = mesh.layer_partition(plate, 1.0)
    assert partition.n_layers == 8
    n = plate.n_elements
    fld = MaterialField.uniform(n)
    est = printsim.EstimatorState.from_commanded(fld.conductivity)
    for frontier in range(partition.n_layers + 1):
        state = printsim.PrintState(partition, frontier, "conductivity", 0,
                                    fld, fld, est)
        printed = state.printed_elements()
        unprinted = state.unprinted_elements()
        for ids in (printed, unprinted):
            assert ids.dtype == np.intp
            assert np.all(np.diff(ids) > 0)
        assert np.array_equal(np.sort(np.concatenate([printed, unprinted])),
                              np.arange(n))
        assert np.array_equal(
            unprinted, np.setdiff1d(np.arange(n, dtype=np.intp), printed))


def heated_block_problem():
    """A 2x2x3 block of three layers, held at 300 K below and heated from
    above, that plans its conductivity for the lowest average temperature
    under a hot-face and an average-temperature bound."""
    m = mesh.generate_box_mesh(2, 2, 3, (1.0, 1.0, 3.0))
    z = m.vertices[:, 2]
    top = [int(v) for v in np.flatnonzero(z > 3.0 - 1e-9)]
    annotations = {str(v): {"temperature": 300.0}
                   for v in np.flatnonzero(z < 1e-9)}
    annotations.update({str(v): {"flux": 0.3} for v in top})
    doc = {
        "units": dict(semantics.CANONICAL_UNITS),
        "vertex_annotations": annotations,
        "element_annotations": {"default": {
            "conductivity": [0.1, 0.4], "young": [1.0, 1.0],
            "poisson": [0.0, 0.0], "density": [1.0, 1.0]}},
        "global_properties": [
            {"name": "hot_face", "quantity": "nodal_temperature", "op": "le",
             "bound": 330.0, "vertices": top},
            {"name": "bulk_heat", "quantity": "average_temperature",
             "op": "le", "bound": 315.0}],
    }
    spec = semantics.bind_to_mesh(semantics.layer_from_dict(doc), m)
    return optimize.InversionProblem(spec, "average_temperature")


@pytest.mark.parametrize("build, strategy", [
    (upper_bound_bar_problem, "warm_start"),
    (heated_block_problem, "full"),
], ids=["bar", "conduction block"])
def test_a_dropped_problem_is_freed_without_the_cycle_collector(build,
                                                                strategy):
    # nothing the optimizer or a print keeps points back at the problem, so
    # reference counting frees it and its assembly plans once they are
    # dropped, and no cycle is left for the collector to find
    gc.collect()
    gc.disable()
    try:
        problem = build()
        plan = optimize.inversion_solve(problem)
        report = printsim.run_print(problem, plan, seed=5,
                                    **drifting_print_kwargs(strategy))
        assert report.outcome == "success"
        refs = [weakref.ref(problem)] + [
            weakref.ref(problem.assembly_plan(physics))
            for physics in problem._plans]
        del problem, plan, report
        assert [ref() for ref in refs] == [None] * len(refs)
        assert gc.collect() == 0
    finally:
        gc.enable()
