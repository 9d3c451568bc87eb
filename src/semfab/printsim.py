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
independent runs never share a stream.  A print builds one generator and
keys it afresh for each stream.

Each step returns a new state and writes only what the layer changed, into
copies of the arrays it changes: the printed layer's entries of
``achieved``, the measured elements' posteriors and the re-planned
commands.
"""

import csv
import dataclasses
import json

import numpy as np

from . import mesh as mesh_mod
from . import optimize, semantics
from .errors import CalibrationError, PrintCompleteError
from .semantics import MaterialField

_ACTUATOR_STREAM = 0
_SENSOR_STREAM = 1

PRIOR_SD = 0.5  # broad prior on log-parameter before any measurement
SEED_LIMIT = 2**63  # a seed is an integer in [0, SEED_LIMIT)


def _generator():
    """A Philox generator for :func:`_stream` to key; a print makes one."""
    return np.random.Generator(np.random.Philox(key=np.zeros(2, np.uint64)))


def _stream(generator, seed, layer, purpose):
    """``generator`` keyed for one (layer, purpose) event of one run: its
    Philox restarts at counter 0 under the key (seed, 2 layer + purpose),
    so it draws what a new Philox of that key draws, for the cost of
    setting its state rather than building one."""
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64),
                  "key": np.array([seed, (layer << 1) | purpose],
                                  dtype=np.uint64)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator


def _check_factor(model, name, n_layers):
    """Raise ValueError, naming the model ``name``, the layer and the
    factor, unless ``model``'s factor is positive on each of ``n_layers``
    layers."""
    factors = model.deterministic_factor(np.arange(n_layers))
    bad = np.flatnonzero(~(factors > 0.0))
    if bad.size:
        layer = int(bad[0])
        raise ValueError(
            f"the {name}'s factor at layer {layer} is "
            f"{float(factors[layer])!r}; it must be positive on all "
            f"{n_layers} layers")


def _check_seed(seed):
    if (not isinstance(seed, (int, np.integer)) or isinstance(seed, bool)
            or seed < 0 or seed >= SEED_LIMIT):
        raise ValueError("seed must be an integer in [0, 2**63)")
    return int(seed)


# ---------------------------------------------------------------------------
# plant, sensor, estimator


def _store_floats(model, name):
    """Store each float field of the frozen dataclass ``model`` as a float;
    raises ValueError, naming the model ``name`` and the field, unless it
    holds a finite number (not a boolean, nor an int past float range)."""
    for f in dataclasses.fields(model):
        if f.type is float:
            value = getattr(model, f.name)
            if not semantics.finite_number(value):
                raise ValueError(f"{name} {f.name} must be a finite number")
            object.__setattr__(model, f.name, float(value))


@dataclasses.dataclass(frozen=True)
class ActuatorModel:
    """Multiplicative plant: achieved = commanded * gain * (1 + drift_rate *
    layer) * exp(eps), eps ~ Normal(0, noise_sd^2) per element."""

    gain: float
    drift_rate: float = 0.0
    noise_sd: float = 0.0

    def __post_init__(self):
        _store_floats(self, "actuator")
        if not self.gain > 0.0:
            raise ValueError("actuator gain must be positive and finite")
        if not self.noise_sd >= 0.0:
            raise ValueError("actuator noise_sd must be nonnegative and "
                             "finite")

    def deterministic_factor(self, layer):
        return self.gain * (1.0 + self.drift_rate * np.asarray(layer, float))

    def apply(self, commanded, layer, seed):
        return self._actuate(commanded, layer, seed, _generator())

    def _actuate(self, commanded, layer, seed, generator):
        """:meth:`apply`, drawing its noise from ``generator`` keyed."""
        commanded = np.asarray(commanded, dtype=float)
        eps = _stream(generator, seed, layer, _ACTUATOR_STREAM
                      ).standard_normal(commanded.size)
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
        _store_floats(self, "sensor")
        if not self.noise_sd >= 0.0:
            raise ValueError("sensor noise_sd must be nonnegative and finite")
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
    leaves the commanded floats bitwise untouched.  An element not yet
    measured keeps the prior variance it was created with.
    """

    mean_log: np.ndarray
    variance: np.ndarray
    value: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_commanded(cls, commanded_values):
        values = np.asarray(commanded_values, dtype=float)
        if np.any(values <= 0.0):
            raise ValueError("log-domain estimation needs positive values")
        n = values.size
        return cls(
            mean_log=np.log(values),
            variance=np.full(n, PRIOR_SD ** 2),
            value=values.copy(),
            counts=np.zeros(n, dtype=np.intp),
        )

    def updated(self, element_ids, measured_log, noise_sd, prior_value):
        """Conjugate update; posterior precision = prior + measurement.

        ``prior_value`` (one per id) is the prior mean of an element
        measured for the first time, with its log as the log-mean, so
        re-planned commands (issued after this state was created) still
        serve as the prior belief for their own layer; its variance is the
        one the element was created with.  The update is worked out on the
        measured elements alone and written into copies of this state's
        arrays.
        """
        ids = np.asarray(element_ids, dtype=np.intp)
        measured_log = np.asarray(measured_log, dtype=float)
        prior_value = np.asarray(prior_value, dtype=float)
        counts = self.counts[ids]
        fresh = counts == 0
        prior_mean = np.where(fresh, np.log(prior_value), self.mean_log[ids])
        prior_var = self.variance[ids]
        prior_val = np.where(fresh, prior_value, self.value[ids])

        if noise_sd == 0.0:
            post_mean = measured_log
            post_var = 0.0
        else:
            meas_prec = 1.0 / (noise_sd * noise_sd)
            # an exact prior (variance 0) cannot be moved by a noisy reading;
            # only a reading without noise leaves one
            exact = prior_var == 0.0
            any_exact = exact.any()
            if any_exact:
                prior_var = np.where(exact, 1.0, prior_var)
            prior_prec = 1.0 / prior_var
            post_var = 1.0 / (prior_prec + meas_prec)
            post_mean = post_var * (
                prior_prec * prior_mean + meas_prec * measured_log
            )
            if any_exact:
                post_mean = np.where(exact, prior_mean, post_mean)
                post_var = np.where(exact, 0.0, post_var)
        # a measurement equal to the prior mean must not drift it by roundoff
        post_mean = np.where(measured_log == prior_mean, prior_mean,
                             post_mean)
        mean = self.mean_log.copy()
        var = self.variance.copy()
        value = self.value.copy()
        new_counts = self.counts.copy()
        mean[ids] = post_mean
        var[ids] = post_var
        value[ids] = np.where(post_mean == prior_mean, prior_val,
                              np.exp(post_mean))
        new_counts[ids] = counts + 1
        return EstimatorState(
            mean_log=mean,
            variance=var,
            value=value,
            counts=new_counts,
        )


# ---------------------------------------------------------------------------
# print state and loop records


@dataclasses.dataclass(frozen=True)
class LayerRecord:
    """What the controller did after one layer; ``verdicts`` are its
    re-plan's.  An "abort" record ends a print's history."""

    layer: int
    strategy: str  # "warm_start" | "full" | "none" | "abort"
    objective: float | None  # None on a "none" or "abort" record
    fem_solves: int
    mean_commanded: float
    # why a "full" layer of a warm-start policy did not take the warm step:
    # "model_invalid", "base_point" or "warm_infeasible"; None otherwise
    fallback: str | None = None
    verdicts: tuple = ()

    @property
    def max_violation(self):
        """:func:`semantics.largest_excess` of the verdicts; None on a layer
        without control."""
        if self.strategy == "none":
            return None
        return semantics.largest_excess(self.verdicts)

    @property
    def violated(self):
        return tuple(v.name for v in self.verdicts if not v.passed)


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
    ``generator`` is the print's one Philox generator, which each layer's
    streams key afresh (see :func:`_stream`), so a layer builds none.
    """

    partition: mesh_mod.LayerPartition
    frontier: int
    parameter: str
    seed: int
    commanded: MaterialField
    achieved: MaterialField
    estimator: EstimatorState
    history: tuple = ()
    generator: np.random.Generator = dataclasses.field(
        default_factory=_generator, compare=False, repr=False)

    @property
    def n_layers(self):
        return self.partition.n_layers

    @property
    def done(self):
        return self.frontier >= self.partition.n_layers

    def printed_elements(self):
        return (self.partition.element_layer < self.frontier).nonzero()[0]

    def unprinted_elements(self):
        return (self.partition.element_layer >= self.frontier).nonzero()[0]

    @property
    def estimated(self):
        """Posterior means tagged "estimated" on printed elements; the
        commanded values everywhere else."""
        printed = self.printed_elements()
        return self.commanded.with_values(
            printed, self.parameter, self.estimator.value[printed],
            provenance="estimated",
        )

    def _with(self, frontier=None, commanded=None, achieved=None,
              estimator=None, history=None):
        """This state with the given parts replaced, as
        ``dataclasses.replace`` makes it at half its cost; each layer makes
        three."""
        return PrintState(
            self.partition,
            self.frontier if frontier is None else frontier,
            self.parameter,
            self.seed,
            self.commanded if commanded is None else commanded,
            self.achieved if achieved is None else achieved,
            self.estimator if estimator is None else estimator,
            self.history if history is None else history,
            self.generator,
        )


def _mean(values):
    """``float(values.mean())``, the same sum over the same count, without
    the cost of ``mean``'s argument handling."""
    return float(values.sum() / values.size)


def _last_abort(history):
    """The last record of ``history`` when it is an abort, else None."""
    return history[-1] if history and history[-1].strategy == "abort" else None


@dataclasses.dataclass(frozen=True)
class PrintReport:
    """A finished or aborted print.  ``abort`` is the history's abort
    record, if any; an aborted print is not verified, so ``verdicts`` is
    empty.  ``outcome`` is "aborted", "success" or "spec_fail"."""

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

    @property
    def abort(self):
        return _last_abort(self.history)

    @property
    def outcome(self):
        if self.abort is not None:
            return "aborted"
        passed = all(v.passed for v in self.verdicts)
        return "success" if passed else "spec_fail"


def print_partition(m, layer_height, actuator, plant_model):
    """The layers of a print of mesh ``m``; raises ValueError when
    ``layer_height`` does not cut ``m`` into layers, or when the actuator's
    or the plant model's (if any) deterministic factor is not positive on
    some layer."""
    partition = mesh_mod.layer_partition(m, layer_height)
    _check_factor(actuator, "actuator", partition.n_layers)
    if plant_model is not None:
        _check_factor(plant_model, "plant model", partition.n_layers)
    return partition


def initial_state(problem, plan_values, seed, partition):
    """Set up a print of ``plan_values`` (full-length parameter vector) in
    the layers of ``partition``."""
    seed = _check_seed(seed)
    values = np.asarray(plan_values, dtype=float)
    if values.shape != (problem.spec.mesh.n_elements,):
        raise ValueError("plan must provide one value per element")
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
    """Actuate the next layer; deterministic given (seed, frontier, plan).
    The layer's entries are written into copies of ``achieved``'s arrays."""
    if state.done:
        raise PrintCompleteError(
            f"all {state.n_layers} layers are already printed"
        )
    layer = state.frontier
    ids = state.partition.layers[layer]
    commanded = state.commanded
    achieved = state.achieved.copy()
    for name in semantics.PARAMETERS:
        if name != state.parameter:
            achieved.values(name)[ids] = commanded.values(name)[ids]
    achieved.values(state.parameter)[ids] = actuator._actuate(
        commanded.values(state.parameter)[ids], layer, state.seed,
        state.generator,
    )
    achieved.provenance[ids] = "achieved"
    return state._with(frontier=layer + 1, achieved=achieved)


def observe_and_update(state, sensor):
    """Measure printed elements and fold them into the state's posterior."""
    ids = sensor.observed_elements(state)
    if ids.size == 0:
        return state
    layer = state.frontier - 1
    truth = state.achieved.values(state.parameter)[ids]
    noise = _stream(state.generator, state.seed, layer, _SENSOR_STREAM
                    ).standard_normal(ids.size)
    measured_log = np.log(truth) + sensor.noise_sd * noise
    commanded_now = state.commanded.values(state.parameter)[ids]
    estimator = state.estimator.updated(ids, measured_log, sensor.noise_sd,
                                        commanded_now)
    return state._with(estimator=estimator)


def control_step(state, problem, strategy, previous_result, model=None,
                 plant_model=None, tol=optimize.DEFAULT_TOL,
                 max_iter=optimize.DEFAULT_MAX_ITER, fallback=None):
    """Re-plan the unprinted remainder around the estimated printed state.

    Freezes printed elements at posterior means, re-optimizes the rest, and
    writes new commanded values.  Reads only the estimator and the commanded
    field.  Returns the PrintState with the layer's record appended; when
    no admissible completion satisfies the constraints the commands stay
    and the record is an abort.  ``fallback`` is recorded as the reason a
    warm-start policy re-plans with ``strategy="full"``, unless the re-plan
    reports its own.  ``tol`` and ``max_iter`` go to the re-plan's solver.
    """
    printed = state.printed_elements()
    if printed.size == 0:
        return state
    estimates = state.estimator.value[printed]
    shifted = problem.with_frozen(printed, estimates)
    result = optimize.reoptimize_after_drift(
        shifted, previous_result,
        strategy=strategy, model=model, tol=tol, max_iter=max_iter,
    )
    commanded = state.commanded
    fallback = result.fallback or fallback
    if result.feasible:
        # the re-plan's free variables are the unprinted elements
        unprinted = shifted.free_idx
        commanded_vals = result.values[unprinted]
        if plant_model is not None and unprinted.size:
            # invert the calibrated deterministic plant so the achieved
            # values land on the re-optimized design
            commanded_vals = commanded_vals / plant_model.deterministic_factor(
                state.partition.element_layer[unprinted]
            )
        commanded = commanded.with_values(
            unprinted, state.parameter, commanded_vals
        )
        strategy, objective = result.strategy, result.objective
    else:
        strategy, objective = "abort", None
    record = LayerRecord(
        layer=state.frontier - 1,
        strategy=strategy,
        objective=objective,
        fem_solves=result.fem_solves,
        mean_commanded=_mean(commanded.values(state.parameter)),
        fallback=fallback,
        verdicts=result.verdicts,
    )
    return state._with(commanded=commanded,
                       history=state.history + (record,))


def final_verification(problem, achieved_field):
    """Check every annotated property under the ground-truth field; the
    solves count in ``problem.stats``."""
    return semantics.check_properties(problem.evaluation(achieved_field))


def run_print(problem, initial_plan, actuator, sensor, policy, seed,
              layer_height, tol=optimize.DEFAULT_TOL,
              max_iter=optimize.DEFAULT_MAX_ITER):
    """Run the full closed loop and report the outcome.

    Per layer: print, observe, update the posterior, and (when the policy
    enables control) re-plan the remainder with ``tol`` and ``max_iter``.
    The loop stops at the first abort record, which ends the history.  A
    print that was not aborted is verified under the achieved field.  The
    report's ``fem_solves`` is what ``problem.stats`` counted meanwhile.
    Raises ValueError before the first layer on the inputs
    :func:`print_partition` refuses.
    """
    partition = print_partition(problem.spec.mesh, layer_height, actuator,
                                policy.plant_model)
    if not initial_plan.feasible:
        raise ValueError("initial plan must be feasible")
    state = initial_state(problem, initial_plan.values, seed, partition)
    solves_start = problem.stats.fem_solves
    model = None
    strategy = policy.strategy
    fallback = None

    while not state.done and _last_abort(state.history) is None:
        state = print_layer(state, actuator)
        state = observe_and_update(state, sensor)
        if not policy.control_enabled:
            mean = _mean(state.commanded.values(state.parameter))
            record = LayerRecord(layer=state.frontier - 1, strategy="none",
                                 objective=None, fem_solves=0,
                                 mean_commanded=mean)
            state = state._with(history=state.history + (record,))
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
        state = control_step(
            state, problem, strategy, initial_plan,
            model=model, plant_model=policy.plant_model,
            tol=tol, max_iter=max_iter, fallback=fallback,
        )

    verdicts = (() if _last_abort(state.history)
                else final_verification(problem, state.achieved))
    return PrintReport(
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


def scenario_to_dict(scenario):
    return {
        "mesh": scenario.mesh_path,
        "annotation": scenario.annotation_path,
        "actuator": dataclasses.asdict(scenario.actuator),
        "sensor": dataclasses.asdict(scenario.sensor),
        "policy": dataclasses.asdict(scenario.policy),
        "seed": scenario.seed,
        "layer_height": scenario.layer_height,
        "objective": scenario.objective,
        "parameter": scenario.parameter,
    }


def _check_keys(doc, name, known, required):
    """Raises ValueError unless ``doc``, the scenario part ``name``, is an
    object whose keys are among ``known`` and include ``required``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{name} must be an object")
    unknown = set(doc) - set(known)
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    for key in required:
        if key not in doc:
            raise ValueError(f"{name} is missing required key {key!r}")


def _finite_number(value, name):
    """``value`` as a float, when it is a number within float range."""
    if not semantics.finite_number(value):
        raise ValueError(f"scenario {name} must be a finite number")
    return float(value)


def _section(doc, name, cls):
    """The dataclass ``cls`` from scenario section ``name``, whose float,
    bool and str fields must hold a finite number, a boolean and a
    string."""
    fields = dataclasses.fields(cls)
    _check_keys(doc, f"scenario {name}", [f.name for f in fields],
                [f.name for f in fields if f.default is dataclasses.MISSING])
    doc = dict(doc)
    for f in fields:
        if f.name not in doc:
            continue
        if f.type is float:
            doc[f.name] = _finite_number(doc[f.name], f"{name} {f.name}")
        elif f.type in (bool, str) and not isinstance(doc[f.name], f.type):
            raise ValueError(f"scenario {name} {f.name} must be a "
                             f"{f.type.__name__}")
    return cls(**doc)


def scenario_from_dict(doc):
    keys = ("mesh", "annotation", "actuator", "sensor", "policy", "seed",
            "layer_height", "objective", "parameter")
    _check_keys(doc, "scenario", keys, keys[:7])
    policy = doc["policy"]
    if isinstance(policy, dict) and policy.get("plant_model") is not None:
        policy = {**policy, "plant_model": _section(
            policy["plant_model"], "policy.plant_model", ActuatorModel)}
    return Scenario(
        mesh_path=str(doc["mesh"]),
        annotation_path=str(doc["annotation"]),
        actuator=_section(doc["actuator"], "actuator", ActuatorModel),
        sensor=_section(doc["sensor"], "sensor", SensorModel),
        policy=_section(policy, "policy", ControlPolicy),
        seed=_check_seed(doc["seed"]),
        layer_height=_finite_number(doc["layer_height"], "layer_height"),
        objective=str(doc.get("objective", "compliance")),
        parameter=doc.get("parameter"),
    )


def save_scenario(scenario, path):
    semantics.save_json(scenario_to_dict(scenario), path)


def load_scenario(path):
    with open(path, encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


# the columns of a print's layer history, in report.json and in the CSV
_HISTORY_COLUMNS = ("layer", "strategy", "objective", "max_violation",
                    "fem_solves", "mean_commanded", "fallback")


def _history_row(rec):
    """(column, value) of each history column of a layer record."""
    return [(name, getattr(rec, name)) for name in _HISTORY_COLUMNS]


def report_to_dict(report):
    """JSON-ready dict; a missing value is null."""
    abort = None
    if report.abort is not None:
        abort = {
            "layer": report.abort.layer,
            "violated": list(report.abort.violated),
            "fem_solves": report.abort.fem_solves,
            "verdicts": [semantics.verdict_to_dict(v)
                         for v in report.abort.verdicts],
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
        "history": [dict(_history_row(rec)) for rec in report.history],
        "fields": {
            "commanded": semantics.field_to_dict(report.commanded),
            "achieved": semantics.field_to_dict(report.achieved),
            "estimated": semantics.field_to_dict(report.estimated),
        },
    }


def save_report(report, path):
    semantics.save_json(report_to_dict(report), path)


def history_to_csv(report, path):
    """One row per layer for plotting; floats keep full precision."""

    def cell(x):
        return "" if x is None else x

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_HISTORY_COLUMNS)
        for rec in report.history:
            writer.writerow([cell(v) for _, v in _history_row(rec)])
