"""Layer-by-layer print simulation with in-process estimation and re-planning.

Each layer goes through the same loop: the actuator turns commanded parameter
values into achieved ones (gain, per-layer drift, lognormal noise), a sensor
measures the just-printed elements, a conjugate Gaussian estimator carried on
the print state updates per-element posteriors on the log-parameter, and,
when control is enabled, the remaining layers are re-optimized with every
printed element frozen at its posterior mean.  Control reads the estimator
and the commanded field, never the achieved one; final verification always
runs against the achieved ground truth, never against estimates.

All randomness is drawn from counter-based Philox streams keyed by
(seed, layer, purpose), so a run is bitwise reproducible from its seed and
independent runs never share a stream.
"""

import csv
import dataclasses
import json
import math

import numpy as np

from . import mesh as mesh_mod
from . import optimize, semantics
from .errors import CalibrationError, PrintCompleteError
from .semantics import MaterialField

_ACTUATOR_STREAM = 0
_SENSOR_STREAM = 1

DEFAULT_PRIOR_SD = 0.5  # broad prior on log-parameter before any measurement
SEED_LIMIT = 2**63  # a seed is an integer in [0, SEED_LIMIT)


def _stream(seed, layer, purpose):
    """Philox generator for one (layer, purpose) event of one run."""
    key = np.array([seed, (layer << 1) | purpose], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_seed(seed):
    if (not isinstance(seed, (int, np.integer)) or seed < 0
            or seed >= SEED_LIMIT):
        raise ValueError("seed must be an integer in [0, 2**63)")
    return int(seed)


# ---------------------------------------------------------------------------
# plant, sensor, estimator


@dataclasses.dataclass(frozen=True)
class ActuatorModel:
    """Multiplicative plant: achieved = commanded * gain * (1 + drift_rate *
    layer) * exp(eps), eps ~ Normal(0, noise_sd^2) per element."""

    gain: float
    drift_rate: float = 0.0
    noise_sd: float = 0.0

    def __post_init__(self):
        if self.gain <= 0.0:
            raise ValueError("actuator gain must be positive")
        if self.noise_sd < 0.0:
            raise ValueError("actuator noise_sd must be nonnegative")

    def deterministic_factor(self, layer):
        return self.gain * (1.0 + self.drift_rate * np.asarray(layer, float))

    def apply(self, commanded, layer, seed):
        commanded = np.asarray(commanded, dtype=float)
        rng = _stream(seed, layer, _ACTUATOR_STREAM)
        eps = rng.standard_normal(commanded.size)
        return commanded * self.deterministic_factor(layer) * np.exp(
            self.noise_sd * eps
        )


@dataclasses.dataclass(frozen=True)
class SensorModel:
    """Relative Gaussian noise on the log-parameter of printed elements.

    ``availability`` picks which printed elements each observation event
    sees: "layer" reads the just-printed layer, "all" re-reads everything
    at or below the frontier.
    """

    noise_sd: float = 0.0
    availability: str = "layer"

    def __post_init__(self):
        if self.noise_sd < 0.0:
            raise ValueError("sensor noise_sd must be nonnegative")
        if self.availability not in ("layer", "all"):
            raise ValueError("availability must be 'layer' or 'all'")

    def observed_elements(self, state):
        if state.frontier < 1:
            raise ValueError("nothing printed yet, nothing to observe")
        if self.availability == "all":
            return state.printed_elements()
        return state.partition.layers[state.frontier - 1]


@dataclasses.dataclass(frozen=True)
class EstimatorState:
    """Per-element Gaussian posterior on the log-parameter.

    ``value`` caches the linear posterior mean; it starts at the commanded
    value and is only re-derived through exp() when a measurement actually
    moves the posterior, so an exact sensor reading of an identity plant
    leaves the commanded floats bitwise untouched.
    """

    mean_log: np.ndarray
    variance: np.ndarray
    value: np.ndarray
    counts: np.ndarray
    prior_variance: float

    @classmethod
    def from_commanded(cls, commanded_values, prior_sd=DEFAULT_PRIOR_SD):
        values = np.asarray(commanded_values, dtype=float)
        if np.any(values <= 0.0):
            raise ValueError("log-domain estimation needs positive values")
        n = values.size
        return cls(
            mean_log=np.log(values),
            variance=np.full(n, float(prior_sd) ** 2),
            value=values.copy(),
            counts=np.zeros(n, dtype=np.intp),
            prior_variance=float(prior_sd) ** 2,
        )

    def updated(self, element_ids, measured_log, noise_sd,
                prior_log=None, prior_value=None):
        """Conjugate update; posterior precision = prior + measurement.

        ``prior_log``/``prior_value`` re-seed the prior of elements measured
        for the first time, so re-planned commands (issued after this state
        was created) still serve as the prior belief for their own layer.
        """
        ids = np.asarray(element_ids, dtype=np.intp)
        measured_log = np.asarray(measured_log, dtype=float)
        mean = self.mean_log.copy()
        var = self.variance.copy()
        value = self.value.copy()
        counts = self.counts.copy()
        if prior_log is not None:
            fresh = counts[ids] == 0
            mean[ids[fresh]] = np.asarray(prior_log, float)[fresh]
            var[ids[fresh]] = self.prior_variance
            if prior_value is not None:
                value[ids[fresh]] = np.asarray(prior_value, float)[fresh]

        prior_mean = mean[ids]
        prior_var = var[ids]
        if noise_sd == 0.0:
            post_mean = measured_log.copy()
            post_var = np.zeros_like(prior_var)
        else:
            meas_prec = 1.0 / (noise_sd * noise_sd)
            exact = prior_var == 0.0
            safe_var = np.where(exact, 1.0, prior_var)
            prior_prec = 1.0 / safe_var
            post_var = 1.0 / (prior_prec + meas_prec)
            post_mean = post_var * (
                prior_prec * prior_mean + meas_prec * measured_log
            )
            # an exact prior (variance 0) cannot be moved by a noisy reading
            post_mean = np.where(exact, prior_mean, post_mean)
            post_var = np.where(exact, 0.0, post_var)
        # a measurement equal to the prior mean must not drift it by roundoff
        tie = measured_log == prior_mean
        post_mean = np.where(tie, prior_mean, post_mean)
        keep = post_mean == prior_mean
        value[ids] = np.where(keep, value[ids], np.exp(post_mean))
        mean[ids] = post_mean
        var[ids] = post_var
        counts[ids] += 1
        return EstimatorState(
            mean_log=mean,
            variance=var,
            value=value,
            counts=counts,
            prior_variance=self.prior_variance,
        )


# ---------------------------------------------------------------------------
# print state and loop records


@dataclasses.dataclass(frozen=True)
class LayerRecord:
    layer: int
    strategy: str  # "warm_start" | "full" | "none" | "abort"
    objective: float
    max_violation: float
    fem_solves: int
    mean_commanded: float
    # why a "full" layer of a warm-start policy did not take the warm step:
    # "model_invalid", "base_point" or "warm_infeasible"; None otherwise
    fallback: str | None = None


@dataclasses.dataclass(frozen=True)
class AbortDecision:
    """Infeasibility certificate raised mid-print by a control step."""

    layer: int
    violated: tuple
    verdicts: tuple
    fem_solves: int = 0

    def __post_init__(self):
        if not self.violated:
            raise ValueError("an abort must name at least one constraint")


@dataclasses.dataclass(frozen=True)
class ControlPolicy:
    strategy: str = "warm_start"
    control_enabled: bool = True
    plant_model: ActuatorModel | None = None

    def __post_init__(self):
        if self.strategy not in ("warm_start", "full"):
            raise ValueError("strategy must be 'warm_start' or 'full'")


@dataclasses.dataclass(frozen=True)
class PrintState:
    """Snapshot of a print in progress.

    ``achieved`` is simulator-private ground truth: its values are NaN above
    the frontier and controllers must never read it (control decisions are
    functions of ``estimator`` and ``commanded`` only).  ``estimator`` holds
    the posterior of every element; ``estimated`` is derived from it.
    """

    partition: mesh_mod.LayerPartition
    frontier: int
    parameter: str
    seed: int
    commanded: MaterialField
    achieved: MaterialField
    estimator: EstimatorState
    history: tuple = ()

    @property
    def n_layers(self):
        return self.partition.n_layers

    @property
    def done(self):
        return self.frontier >= self.partition.n_layers

    def printed_elements(self):
        return np.flatnonzero(self.partition.element_layer < self.frontier)

    def unprinted_elements(self):
        return np.flatnonzero(self.partition.element_layer >= self.frontier)

    @property
    def estimated(self):
        """Posterior means tagged "estimated" on printed elements; the
        commanded values everywhere else."""
        printed = self.printed_elements()
        return self.commanded.with_values(
            printed, self.parameter, self.estimator.value[printed],
            provenance="estimated",
        )


@dataclasses.dataclass(frozen=True)
class PrintReport:
    outcome: str  # "success" | "spec_fail" | "aborted"
    verdicts: tuple  # final semantics.Verdicts under the achieved field
    history: tuple
    commanded: MaterialField
    achieved: MaterialField
    estimated: MaterialField
    fem_solves: int
    seed: int
    layer_height: float
    parameter: str
    n_measurements: int  # sensor readings taken
    abort: AbortDecision | None = None

    def __post_init__(self):
        if self.outcome == "success" and any(
            not v.passed for v in self.verdicts
        ):
            raise ValueError("a successful print cannot have failed verdicts")
        if self.outcome == "aborted" and self.abort is None:
            raise ValueError("aborted reports must carry the abort decision")


def initial_state(problem, plan_values, seed, layer_height):
    """Set up a print of ``plan_values`` (full-length parameter vector)."""
    seed = _check_seed(seed)
    values = np.asarray(plan_values, dtype=float)
    m = problem.spec.mesh
    if values.shape != (m.n_elements,):
        raise ValueError("plan must provide one value per element")
    partition = mesh_mod.layer_partition(m, layer_height)
    commanded = problem.field_for(values)
    achieved = commanded.copy()
    for name in semantics.PARAMETERS:
        achieved.values(name)[:] = np.nan
    return PrintState(
        partition=partition,
        frontier=0,
        parameter=problem.parameter,
        seed=seed,
        commanded=commanded,
        achieved=achieved,
        estimator=EstimatorState.from_commanded(values),
    )


def print_layer(state, actuator):
    """Actuate the next layer; deterministic given (seed, frontier, plan)."""
    if state.done:
        raise PrintCompleteError(
            f"all {state.n_layers} layers are already printed"
        )
    layer = state.frontier
    ids = state.partition.layers[layer]
    achieved = state.achieved.copy()
    for name in semantics.PARAMETERS:
        achieved.values(name)[ids] = state.commanded.values(name)[ids]
    achieved.values(state.parameter)[ids] = actuator.apply(
        state.commanded.values(state.parameter)[ids], layer, state.seed
    )
    achieved.provenance[ids] = "achieved"
    return dataclasses.replace(state, frontier=layer + 1, achieved=achieved)


def observe_and_update(state, sensor):
    """Measure printed elements and fold them into the state's posterior."""
    ids = sensor.observed_elements(state)
    if ids.size == 0:
        return state
    layer = state.frontier - 1
    truth = state.achieved.values(state.parameter)[ids]
    rng = _stream(state.seed, layer, _SENSOR_STREAM)
    noise = rng.standard_normal(ids.size)
    measured_log = np.log(truth) + sensor.noise_sd * noise
    commanded_now = state.commanded.values(state.parameter)[ids]
    estimator = state.estimator.updated(
        ids,
        measured_log,
        sensor.noise_sd,
        prior_log=np.log(commanded_now),
        prior_value=commanded_now,
    )
    return dataclasses.replace(state, estimator=estimator)


def control_step(state, problem, strategy, previous_result, model=None,
                 plant_model=None, tol=optimize.DEFAULT_TOL, fallback=None):
    """Re-plan the unprinted remainder around the estimated printed state.

    Freezes printed elements at posterior means, re-optimizes the rest, and
    writes new commanded values.  Reads only the estimator and the commanded
    field.  Returns the updated PrintState, or an AbortDecision when no
    admissible completion satisfies the constraints.  ``fallback`` is
    recorded as the reason a warm-start policy re-plans with
    ``strategy="full"``, unless the re-plan reports its own.
    """
    printed = state.printed_elements()
    if printed.size == 0:
        return state
    estimates = state.estimator.value[printed]
    shifted = problem.with_frozen(printed, estimates)
    delta_y = estimates - previous_result.values[printed]
    result = optimize.reoptimize_after_drift(
        shifted, previous_result, delta_y,
        strategy=strategy, model=model, tol=tol,
    )
    layer = state.frontier - 1
    if not result.feasible:
        return AbortDecision(
            layer=layer,
            violated=result.violated,
            verdicts=result.verdicts,
            fem_solves=result.fem_solves,
        )
    unprinted = state.unprinted_elements()
    desired = result.values[unprinted]
    commanded_vals = desired
    if plant_model is not None and unprinted.size:
        # invert the calibrated deterministic plant so the achieved values
        # land on the re-optimized design
        commanded_vals = desired / plant_model.deterministic_factor(
            state.partition.element_layer[unprinted]
        )
    commanded = state.commanded.with_values(
        unprinted, state.parameter, commanded_vals
    )
    excesses = [v.excess for v in result.verdicts]
    record = LayerRecord(
        layer=layer,
        strategy=result.strategy,
        objective=result.objective,
        max_violation=max(excesses) if excesses else 0.0,
        fem_solves=result.fem_solves,
        mean_commanded=float(commanded.values(state.parameter).mean()),
        fallback=result.fallback or fallback,
    )
    return dataclasses.replace(
        state,
        commanded=commanded,
        history=state.history + (record,),
    )


def final_verification(problem, achieved_field):
    """Check every annotated property under the ground-truth field, at the
    problem's FEM tolerance; the solves count in ``problem.stats``."""
    return semantics.check_properties(problem.evaluation(achieved_field))


def run_print(problem, initial_plan, actuator, sensor, policy, seed,
              layer_height, tol=optimize.DEFAULT_TOL):
    """Run the full closed loop and report the outcome.

    Per layer: print, observe, update the posterior, and (when the policy
    enables control) re-plan the remainder.  The loop stops early on an
    AbortDecision.  Completed prints are verified under the achieved field.
    The report's ``fem_solves`` is what ``problem.stats`` counted meanwhile.
    """
    if not initial_plan.feasible:
        raise ValueError("initial plan must be feasible")
    state = initial_state(problem, initial_plan.values, seed, layer_height)
    solves_start = problem.stats.fem_solves
    model = None
    strategy = policy.strategy
    fallback = None
    abort = None

    while not state.done:
        state = print_layer(state, actuator)
        state = observe_and_update(state, sensor)
        if not policy.control_enabled:
            record = LayerRecord(
                layer=state.frontier - 1,
                strategy="none",
                objective=math.nan,
                max_violation=math.nan,
                fem_solves=0,
                mean_commanded=float(
                    state.commanded.values(state.parameter).mean()
                ),
            )
            state = dataclasses.replace(
                state, history=state.history + (record,)
            )
            continue
        if strategy == "warm_start" and model is None:
            printed = state.printed_elements()
            drifted = not np.array_equal(
                state.estimator.value[printed],
                initial_plan.values[printed],
            )
            # build the model once, at the plan base, and only when some
            # drift actually occurred (zero drift never needs it)
            if drifted:
                try:
                    model = optimize.build_quadratic_model(
                        problem, initial_plan.values, initial_plan.evaluation
                    )
                except optimize.ModelInvalidError:
                    strategy, fallback = "full", "model_invalid"
                except optimize.BasePointError:
                    strategy, fallback = "full", "base_point"
        outcome = control_step(
            state, problem, strategy, initial_plan,
            model=model, plant_model=policy.plant_model,
            tol=tol, fallback=fallback,
        )
        if isinstance(outcome, AbortDecision):
            abort = outcome
            record = LayerRecord(
                layer=abort.layer,
                strategy="abort",
                objective=math.nan,
                max_violation=max(v.excess for v in abort.verdicts)
                if abort.verdicts else math.nan,
                fem_solves=abort.fem_solves,
                mean_commanded=float(
                    state.commanded.values(state.parameter).mean()
                ),
            )
            state = dataclasses.replace(
                state, history=state.history + (record,)
            )
            break
        state = outcome

    verdicts, outcome = (), "aborted"
    if abort is None:
        verdicts = final_verification(problem, state.achieved)
        outcome = "success" if all(v.passed for v in verdicts) else "spec_fail"
    return PrintReport(
        outcome=outcome,
        verdicts=verdicts,
        history=state.history,
        commanded=state.commanded,
        achieved=state.achieved,
        estimated=state.estimated,
        fem_solves=problem.stats.fem_solves - solves_start,
        seed=state.seed,
        layer_height=layer_height,
        parameter=state.parameter,
        n_measurements=int(state.estimator.counts.sum()),
        abort=abort,
    )


# ---------------------------------------------------------------------------
# calibration


def calibrate_actuator(test_prints):
    """Fit (gain, drift_rate, noise_sd) from test-build records.

    ``test_prints`` is a sequence of (commanded, measured) pairs, one per
    test layer in print order.  The deterministic law is linear in
    (gain, gain*drift): measured/commanded = gain + gain*drift*layer, so a
    linear least-squares fit recovers noiseless data exactly; the residual
    spread on the log scale estimates the actuation noise.
    """
    if len(test_prints) < 2:
        raise CalibrationError(
            f"need at least 2 test layers, got {len(test_prints)}"
        )
    layers = []
    ratios = []
    for layer, (commanded, measured) in enumerate(test_prints):
        commanded = np.atleast_1d(np.asarray(commanded, dtype=float))
        measured = np.atleast_1d(np.asarray(measured, dtype=float))
        if commanded.shape != measured.shape:
            raise CalibrationError("commanded/measured shapes differ")
        if np.any(commanded <= 0.0) or np.any(measured <= 0.0):
            raise CalibrationError("calibration values must be positive")
        layers.append(np.full(commanded.size, float(layer)))
        ratios.append(measured / commanded)
    x = np.concatenate(layers)
    r = np.concatenate(ratios)
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, r, rcond=None)
    gain, slope = float(coef[0]), float(coef[1])
    if gain <= 0.0:
        raise CalibrationError("fitted gain is not positive")
    drift = slope / gain
    predicted = gain * (1.0 + drift * x)
    if np.any(predicted <= 0.0):
        raise CalibrationError("fitted plant predicts nonpositive output")
    residual = np.log(r) - np.log(predicted)
    dof = residual.size - 2
    noise_sd = float(np.sqrt((residual @ residual) / dof)) if dof > 0 else 0.0
    return ActuatorModel(gain=gain, drift_rate=drift, noise_sd=noise_sd)


# ---------------------------------------------------------------------------
# scenario and report files


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One reproducible closed-loop run, referencing mesh/annotation files."""

    mesh_path: str
    annotation_path: str
    actuator: ActuatorModel
    sensor: SensorModel
    policy: ControlPolicy
    seed: int
    layer_height: float
    objective: str = "compliance"
    parameter: str | None = None


def _actuator_to_dict(model):
    return {
        "gain": model.gain,
        "drift_rate": model.drift_rate,
        "noise_sd": model.noise_sd,
    }


def scenario_to_dict(scenario):
    return {
        "mesh": scenario.mesh_path,
        "annotation": scenario.annotation_path,
        "actuator": _actuator_to_dict(scenario.actuator),
        "sensor": {
            "noise_sd": scenario.sensor.noise_sd,
            "availability": scenario.sensor.availability,
        },
        "policy": {
            "strategy": scenario.policy.strategy,
            "control_enabled": scenario.policy.control_enabled,
            "plant_model": (
                None if scenario.policy.plant_model is None
                else _actuator_to_dict(scenario.policy.plant_model)
            ),
        },
        "seed": scenario.seed,
        "layer_height": scenario.layer_height,
        "objective": scenario.objective,
        "parameter": scenario.parameter,
    }


def scenario_from_dict(doc):
    known = {"mesh", "annotation", "actuator", "sensor", "policy", "seed",
             "layer_height", "objective", "parameter"}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    for key in ("mesh", "annotation", "actuator", "sensor", "policy", "seed",
                "layer_height"):
        if key not in doc:
            raise ValueError(f"scenario is missing required key {key!r}")
    policy_doc = dict(doc["policy"])
    plant_doc = policy_doc.pop("plant_model", None)
    plant = None if plant_doc is None else ActuatorModel(**plant_doc)
    return Scenario(
        mesh_path=str(doc["mesh"]),
        annotation_path=str(doc["annotation"]),
        actuator=ActuatorModel(**doc["actuator"]),
        sensor=SensorModel(**doc["sensor"]),
        policy=ControlPolicy(plant_model=plant, **policy_doc),
        seed=_check_seed(doc["seed"]),
        layer_height=float(doc["layer_height"]),
        objective=str(doc.get("objective", "compliance")),
        parameter=doc.get("parameter"),
    )


def save_scenario(scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path):
    with open(path, encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


def _finite_or_none(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _field_doc(fld):
    doc = semantics.field_to_dict(fld)
    for name in semantics.PARAMETERS:
        doc[name] = [_finite_or_none(v) for v in doc[name]]
    return doc


def report_to_dict(report):
    """JSON-ready dict; NaN placeholders become null."""
    abort = None
    if report.abort is not None:
        abort = {
            "layer": report.abort.layer,
            "violated": list(report.abort.violated),
            "fem_solves": report.abort.fem_solves,
            "verdicts": [
                {
                    "name": v.name,
                    "measured": _finite_or_none(v.measured),
                    "bound": v.bound,
                    "excess": v.excess,
                    "passed": v.passed,
                }
                for v in report.abort.verdicts
            ],
        }
    return {
        "outcome": report.outcome,
        "seed": report.seed,
        "layer_height": report.layer_height,
        "parameter": report.parameter,
        "fem_solves": report.fem_solves,
        "n_layers": len(report.history),
        "n_measurements": report.n_measurements,
        "abort": abort,
        "verdicts": [semantics.verdict_to_dict(v) for v in report.verdicts],
        "history": [
            {
                "layer": rec.layer,
                "strategy": rec.strategy,
                "objective": _finite_or_none(rec.objective),
                "max_violation": _finite_or_none(rec.max_violation),
                "fem_solves": rec.fem_solves,
                "mean_commanded": rec.mean_commanded,
                "fallback": rec.fallback,
            }
            for rec in report.history
        ],
        "fields": {
            "commanded": _field_doc(report.commanded),
            "achieved": _field_doc(report.achieved),
            "estimated": _field_doc(report.estimated),
        },
    }


def save_report(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def history_to_csv(report, path):
    """One row per layer for plotting; floats keep full precision."""

    def cell(x):
        return "" if (isinstance(x, float) and not math.isfinite(x)) else repr(x)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["layer", "strategy", "objective", "max_violation",
             "fem_solves", "mean_commanded", "fallback"]
        )
        for rec in report.history:
            writer.writerow(
                [rec.layer, rec.strategy, cell(rec.objective),
                 cell(rec.max_violation), rec.fem_solves,
                 cell(rec.mean_commanded), rec.fallback or ""]
            )
