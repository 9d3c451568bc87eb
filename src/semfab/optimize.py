"""Material-field selection by constrained minimization, with warm restarts.

Two problem flavors share one duck-typed interface: :class:`FunctionProblem`
wraps plain callables (used for synthetic studies and for exercising the
quadratic-model machinery), while :class:`InversionProblem` drives the finite
element solvers in :mod:`semfab.fem` to pick per-element material values that
meet annotated bounds.

The solver is an augmented Lagrangian over box-normalized coordinates
(Conn, Gould & Toint 1991; Nocedal & Wright, section 17.4) with SciPy's
L-BFGS-B as its inner solver.  After an inner solve whose point fails the
penalty-free check, the multipliers take their first-order update; if the
outer steps run out, the last point is returned with its failed verdicts
as a certificate, which ``feasible`` and ``violated`` read.  The result
carries the multiplier estimates at its point.

Each constraint, the Lipschitz surrogate too, has two methods.  ``check``
gives its :class:`semantics.Verdict` and its excesses c(x) on the evaluation
it is handed, one per vertex of a local property, one per pair of the
surrogate and one otherwise, by the test :func:`semantics.check` applies in
final verification.  ``add_gradient`` adds w . (gradient of c) for a weight
vector w to the accumulator it is handed.  A constraint holds no problem:
it reads the specification off the evaluation and the optimized parameter
off the accumulator, so a dropped problem frees its assembly plans at once.
:func:`_check` is the one loop over the constraints and runs once per
point; its hinges aim ``FEAS_TOL * max(1, |bound|)`` inside each property
bound.  :func:`verify_constraints` reads its verdicts, and the merit and
its gradient weigh its hinges by the multipliers, so a point the
multipliers move is not checked again.

The first inner solve opens with a face trial: every free coordinate moves
to the box face its merit gradient points at.  It is kept when the merit
and the objective fall, so a plan whose optimum is a box corner gets there
in one step, without L-BFGS-B.  An objective of another parameter than the
one optimized (``mass`` over E, say) cannot fall, so its plan makes none.

A gradient costs one adjoint solve per physics. The objective and every
active constraint hand their quantity to one accumulator, which adds its
:data:`semantics.QUANTITIES` entry's terms when it varies with the
optimized parameter: a direct gradient, an adjoint load w for a solved
quantity w . u, or for the self-adjoint compliance f . u the vector u
itself. The loads of a physics are summed and solved once with the
primal factor, and the element sensitivities of the sum come from one
product with the transpose of the assembly plan's operator (see
:mod:`semfab.fem`).

After upstream values drift, :func:`reoptimize_after_drift` either re-runs the
solver from the previous optimum or applies a second-order warm start from a
quadratic model of the objective around the plan's optimum. The caller
builds that model once and hands it to every re-plan of the print.

:func:`build_quadratic_model` first splits the free variables at the base
point. A variable is *active* when it sits exactly on a box bound and the
gradient pushes outward; it stays pinned at its base value, as first-order
sensitivity theory for bound constraints prescribes. The model holds the
Hessian rows of the k inactive variables only (k x n), from central
differences of the gradient: two evaluations per inactive variable. The
base-point gradient reads the plan's own evaluation, handed on through
:class:`OptimizationResult`, so a model whose variables are all active
costs no solve for the self-adjoint compliance and at most one adjoint
solve on the plan's factor otherwise.

The model keeps only what the base point determines. Each re-plan freezes
a different set of printed elements, so :func:`warm_start_update` slices
the blocks of the split it is given and solves ``F_zz dz = -F_yz dy``
there.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json

import numpy as np
import scipy.linalg

from . import _files, fem, semantics
from .errors import BasePointError, ModelInvalidError
from .mesh import face_adjacency

# each global quantity with a gradient -> the parameter it varies with
OBJECTIVES = {name: quantity.parameter
              for name, quantity in semantics.QUANTITIES.items()
              if not quantity.local and quantity.gradient is not None}

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 500
# feasibility slack, relative to max(1, |bound|): property hinges aim this
# far inside their bounds, and the Lipschitz verdict accepts this excess
FEAS_TOL = 1e-6
# largest projected-gradient norm accepted at a quadratic model's base point
MODEL_GRAD_TOL = 1e-6
# the augmented Lagrangian's first penalty parameter, at which each hinge
# term is the squared hinge, and the most inner solves a plan makes
RHO_START = 2.0
MAX_OUTER = 10


@dataclasses.dataclass(frozen=True)
class LipschitzSpec:
    """Smoothness surrogate: |x_a - x_b| <= gamma * dist for each pair.

    It is a constraint like the others, with one excess per pair and a
    hinge margin of 0. The per-pair bounds ``gamma * distances`` and the
    two columns of ``pairs`` are made once, as contiguous arrays, so the
    excesses of a point are one gather-subtract, an abs and a subtraction.
    """

    name = "field_regularity"
    margin = 0.0

    gamma: float
    pairs: np.ndarray  # (k, 2) variable indices
    distances: np.ndarray  # (k,)
    limits: np.ndarray = dataclasses.field(init=False, repr=False)
    first: np.ndarray = dataclasses.field(init=False, repr=False)
    second: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "limits", self.gamma * self.distances)
        object.__setattr__(self, "first",
                           np.ascontiguousarray(self.pairs[:, 0]))
        object.__setattr__(self, "second",
                           np.ascontiguousarray(self.pairs[:, 1]))

    def check(self, x, ctx):
        """The verdict of :func:`_lipschitz_verdict` and one excess per
        pair."""
        excess, diffs = _lipschitz_excesses(self, x)
        return _lipschitz_verdict(self, excess, diffs), excess

    def add_gradient(self, x, ctx, w, grad):
        """Adds w . (gradient of the excesses) to the :class:`_Gradient`
        ``grad``; ``w`` is ordered like the pairs."""
        _, diffs = _lipschitz_excesses(self, x)
        active = w > 0.0
        coeff = w[active] * np.sign(diffs[active])
        pairs_grad = np.zeros_like(x)
        np.add.at(pairs_grad, self.first[active], coeff)
        np.add.at(pairs_grad, self.second[active], -coeff)
        grad.add(pairs_grad)


@dataclasses.dataclass(frozen=True)
class OptimizationResult:
    """A plan or re-plan; ``feasible`` and ``violated`` are read off the
    ``verdicts`` of the penalty-free check at ``values``."""

    values: np.ndarray  # full-length parameter vector, frozen entries pinned
    objective: float
    verdicts: tuple
    iterations: int
    fem_solves: int
    strategy: str
    trace: tuple
    # why a warm start fell back to a full solve: "model_invalid",
    # "base_point" or "warm_infeasible"; None when it did not
    fallback: str | None = None
    # the semantics.FieldEvaluation of ``values``, handed on to the next
    # reader of that field (build_quadratic_model); None for a
    # FunctionProblem, which has no field
    evaluation: semantics.FieldEvaluation | None = dataclasses.field(
        default=None, compare=False, repr=False)
    # first-order multiplier estimates at ``values``, one array per
    # constraint in ``problem.constraints`` order and one entry per excess;
    # empty for a warm-start step, which runs no augmented Lagrangian
    multipliers: tuple = dataclasses.field(
        default=(), compare=False, repr=False)

    @property
    def feasible(self):
        return all(v.passed for v in self.verdicts)

    @property
    def violated(self):
        return tuple(v.name for v in self.verdicts if not v.passed)


@dataclasses.dataclass(frozen=True)
class QuadraticModel:
    """Second-order expansion of the objective at an approximate minimizer.

    ``rows`` holds the Hessian rows of the bound-inactive variables
    ``inactive_idx`` (k x n); the ``active_idx`` variables stay at their
    ``base_values``. Nothing here depends on a frozen/free split:
    :func:`warm_start_update` slices the blocks of the split it is given,
    with the masks ``inactive`` and ``covered`` (inactive or active) over
    all n variables, made once per model.
    """

    base_values: np.ndarray
    inactive_idx: np.ndarray
    active_idx: np.ndarray
    rows: np.ndarray
    inactive: np.ndarray = dataclasses.field(init=False, repr=False)
    covered: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        inactive = np.zeros(self.base_values.size, dtype=bool)
        inactive[self.inactive_idx] = True
        covered = inactive.copy()
        covered[self.active_idx] = True
        object.__setattr__(self, "inactive", inactive)
        object.__setattr__(self, "covered", covered)


def _feas_margin(bound):
    """How far inside ``bound`` a property's penalty hinge aims."""
    return FEAS_TOL * max(1.0, abs(bound))


class _Gradient:
    """The gradient terms of one evaluation, summed before any solve.

    :meth:`add_quantity` adds a quantity's terms only when it varies with
    the optimized parameter: a direct gradient, an adjoint load w for a
    solved quantity w . u, or for the self-adjoint compliance f . u the
    vector u itself. :meth:`total` then makes one adjoint solve per physics
    for the summed load W and contracts once: the gradient of the sum is
    -lam . (dK/dp_e) u with lam = K^-1 W, plus u for the compliance. Each
    method rebinds what it changes, so a shallow copy takes more terms and
    leaves the original as it was.
    """

    def __init__(self, problem):
        self.direct = np.zeros(problem.n_variables)
        self.parameter = problem.parameter
        self.loads = {}  # physics -> summed dof weights
        self.self_adjoint = {}  # physics -> summed weight of its u

    def add_quantity(self, evaluation, quantity, vertices, w):
        """Adds w . (gradient of ``quantity``) unless flat in ``parameter``."""
        entry = semantics.QUANTITIES[quantity]
        if entry.parameter == self.parameter:
            entry.gradient(evaluation, vertices, w, self)

    def add(self, grad, scale=1.0):
        self.direct = self.direct + scale * grad

    def add_load(self, physics, weights, scale=1.0):
        load = self.loads.get(physics, 0.0) + scale * weights
        self.loads = {**self.loads, physics: load}

    def add_self_adjoint(self, physics, scale):
        weight = self.self_adjoint.get(physics, 0.0) + scale
        self.self_adjoint = {**self.self_adjoint, physics: weight}

    def total(self, ctx):
        grad = self.direct.copy()
        for physics in sorted(self.loads.keys() | self.self_adjoint.keys()):
            u = ctx.solution(physics).values.reshape(-1)
            weight = self.self_adjoint.get(physics)
            lam = np.zeros(u.size) if weight is None else weight * u
            load = self.loads.get(physics)
            if load is not None and np.any(load):
                lam = ctx.adjoint(physics, load) + lam
            # u solves K u = f, so d(lam . u)/dp_e = -lam . (dK/dp_e) u
            grad -= fem.element_sensitivity(ctx.system(physics), lam, u)
        return grad


class SyntheticConstraint:
    """Inequality for FunctionProblem tests; excess > 0 means violated."""

    def __init__(self, name, excess_fn, grad_fn=None, bound=0.0):
        self.name = name
        self.bound = float(bound)
        self.margin = _feas_margin(self.bound)
        self._excess_fn = excess_fn
        self._grad_fn = grad_fn

    def check(self, x, ctx):
        """The verdict and the one excess, as :func:`semantics.check`."""
        excess = float(self._excess_fn(x))
        verdict = semantics.Verdict(self.name, "synthetic",
                                    self.bound + excess, self.bound, excess,
                                    excess <= 0.0)
        return verdict, np.array([excess])

    def add_gradient(self, x, ctx, w, grad):
        """Adds ``w[0]`` times the excess gradient to the :class:`_Gradient`
        ``grad``."""
        if self._grad_fn is not None:
            grad.add(np.asarray(self._grad_fn(x), dtype=float), w[0])


class _BoxProblem:
    """The boxes and the frozen/free split both problem kinds share."""

    def _set_boxes(self, boxes):
        """Keep ``boxes``, refusing a box that is not finite, or empty:
        every variable starts free."""
        if not np.isfinite(boxes).all():
            raise ValueError("free elements need finite parameter ranges")
        if np.any(boxes[:, 1] < boxes[:, 0]):
            raise ValueError("empty parameter range on a free element")
        self.boxes = boxes
        self.n_variables = boxes.shape[0]

    def _split(self, frozen_idx, frozen_values):
        n = self.n_variables
        self.frozen_idx = np.asarray(frozen_idx, dtype=np.intp).reshape(-1)
        self.frozen_values = np.asarray(frozen_values, dtype=float).reshape(-1)
        if self.frozen_idx.size != self.frozen_values.size:
            raise ValueError("frozen indices and values must align")
        if self.frozen_idx.size and (
            self.frozen_idx.min() < 0 or self.frozen_idx.max() >= n
        ):
            raise ValueError("frozen element index out of range")
        mask = np.ones(n, dtype=bool)
        mask[self.frozen_idx] = False
        self.free_idx = mask.nonzero()[0]

    def with_frozen(self, frozen_idx, frozen_values):
        """Same problem with another frozen/free split; this shallow copy
        shares everything else, the solve count, the constraints and the
        boxes among it, and an inversion's spec and assembly plans."""
        problem = object.__new__(type(self))  # copy.copy is slower
        problem.__dict__.update(self.__dict__)
        problem._split(frozen_idx, frozen_values)
        return problem

    def pin(self, x):
        x = np.array(x, dtype=float)
        x[self.frozen_idx] = self.frozen_values
        return x

    def start_values(self):
        return self.pin(0.5 * (self.boxes[:, 0] + self.boxes[:, 1]))


class FunctionProblem(_BoxProblem):
    """Box-constrained problem over a plain vector.

    ``stats.fem_solves`` counts objective evaluations, one per point, as an
    :class:`InversionProblem` counts one primal solve per field; it stands
    in for FEM solves when this class benchmarks restart strategies.
    """

    parameter = None  # no material parameter, so no adjoint loads
    face_trial = True  # the objective may depend on every variable

    def __init__(
        self,
        objective,
        gradient,
        boxes,
        constraints=(),
    ):
        self._objective = objective
        self._gradient = gradient
        boxes = np.asarray(boxes, dtype=float)
        if boxes.ndim != 2 or boxes.shape[1] != 2:
            raise ValueError("boxes must have shape (n, 2)")
        self._set_boxes(boxes)
        self._split((), ())
        self.constraints = tuple(constraints)
        self.stats = semantics.RunStats()

    def context(self, x):
        return None

    def objective_value(self, x, ctx=None, grad=None):
        """The objective; adds its gradient to ``grad`` when one is given."""
        self.stats.fem_solves += 1
        if grad is not None:
            grad.add(np.asarray(self._gradient(x), dtype=float))
        return float(self._objective(x))

    def objective_and_gradient(self, x, ctx=None):
        grad = _Gradient(self)
        return self.objective_value(x, ctx, grad), grad.total(ctx)


class _PropertyConstraint:
    """Annotated bound on a quantity of :data:`semantics.QUANTITIES`.

    ``check`` gives the verdict and the excesses of :func:`semantics.check`:
    one per vertex of a local property, which keeps a sum of per-vertex
    hinges differentiable when several vertices tie at the maximum.
    ``add_gradient`` hands the quantity's gradient to the accumulator's
    one rule.
    """

    def __init__(self, prop):
        self.prop = prop
        self.name = prop.name
        self.margin = _feas_margin(float(prop.bound))

    def check(self, x, ctx):
        return semantics.check(self.prop, ctx)

    def add_gradient(self, x, ctx, w, grad):
        """Adds w . (gradient of the excesses), ``w`` ordered like them, to
        the :class:`_Gradient` ``grad``; a "ge" excess negates the value."""
        sign = 1.0 if self.prop.op == "le" else -1.0
        grad.add_quantity(ctx, self.prop.quantity, self.prop.vertices,
                          sign * w)


class InversionProblem(_BoxProblem):
    """Pick per-element material values meeting a bound specification.

    One material parameter is optimized; the others are held at
    ``base_field``, the specification's midpoint field.  Every element is
    free; :meth:`with_frozen` holds some at given values (already-printed
    material, say), where they only enter through the physics.
    """

    def __init__(self, spec, objective, parameter=None):
        if objective not in OBJECTIVES:
            raise ValueError(f"unknown objective: {objective!r}")
        self.spec = spec
        self.objective = objective
        self.parameter = parameter or OBJECTIVES[objective]
        if self.parameter not in OBJECTIVES.values():
            # K is not linear in poisson, so no quantity varies with it
            raise ValueError(f"cannot optimize {self.parameter!r}: the "
                             "parameters are young, conductivity and density")
        # an objective of another parameter is flat in this one, and a face
        # trial is kept only when the objective falls
        self.face_trial = OBJECTIVES[objective] == self.parameter
        self._set_boxes(spec.parameter_box(self.parameter))
        self._split((), ())
        self.base_field = spec.midpoint_field()
        self.lipschitz = _lipschitz_from_spec(spec, self.parameter)
        # the Lipschitz surrogate, when there is one, is the last constraint
        self.constraints = tuple(
            _PropertyConstraint(prop) for prop in spec.properties
        ) + (() if self.lipschitz is None else (self.lipschitz,))
        self.stats = semantics.RunStats()
        self.plans = {}  # physics -> fem.AssemblyPlan, shared by evaluations

    def field_for(self, x):
        return self.base_field.with_values(slice(None), self.parameter, x)

    def evaluation(self, fld):
        """A :class:`semantics.FieldEvaluation` of ``fld`` on this problem's
        plans, counting its solves in this problem's stats."""
        return semantics.FieldEvaluation(self.spec, fld, self.plans,
                                         self.stats)

    def context(self, x):
        return self.evaluation(self.field_for(x))

    def objective_value(self, x, ctx=None, grad=None):
        """The objective; adds its gradient terms to the :class:`_Gradient`
        ``grad`` when one is given."""
        ctx = ctx or self.context(x)
        if grad is not None:
            grad.add_quantity(ctx, self.objective, (), (1.0,))
        return semantics.measure(ctx, self.objective)

    def objective_and_gradient(self, x, ctx=None):
        ctx = ctx or self.context(x)
        grad = _Gradient(self)
        return self.objective_value(x, ctx, grad), grad.total(ctx)


def _lipschitz_from_spec(spec, parameter):
    reg = spec.field_regularity
    if reg is None or reg.parameter != parameter:
        return None
    pairs = face_adjacency(spec.mesh)
    if not pairs.size:
        return None
    centroids = spec.mesh.centroids()
    dists = np.linalg.norm(centroids[pairs[:, 0]] - centroids[pairs[:, 1]], axis=1)
    return LipschitzSpec(gamma=float(reg.gamma), pairs=pairs, distances=dists)


def _lipschitz_excesses(lip, x):
    diffs = x[lip.first] - x[lip.second]
    return np.abs(diffs) - lip.limits, diffs


def _lipschitz_verdict(lip, excess, diffs):
    """The verdict on the worst pair, which final verification does not
    check and which passes up to ``_feas_margin(gamma)``."""
    worst = int(np.argmax(excess)) if excess.size else 0
    max_excess = float(excess[worst]) if excess.size else 0.0
    ratio = 0.0
    if excess.size and lip.distances[worst] > 0.0:
        ratio = float(abs(diffs[worst]) / lip.distances[worst])
    return semantics.Verdict(
        "field_regularity", "field_regularity", ratio, lip.gamma, max_excess,
        max_excess <= _feas_margin(lip.gamma),
    )


@dataclasses.dataclass(frozen=True)
class _Check:
    """One point's check; no part of it depends on the multipliers."""

    x: np.ndarray
    ctx: object
    objective: float
    verdicts: tuple
    hinges: list  # one array per constraint, excess + margin
    terms: _Gradient  # the objective's, with no constraint term yet


def _check(problem, x, ctx=None):
    """The penalty-free check of ``x``, made once per point: its context,
    objective, verdicts and hinges, and the objective's gradient terms.
    ``ctx``, when given, is a context at ``x`` whose solves are reused."""
    if ctx is None:
        ctx = problem.context(x)
    terms = _Gradient(problem)
    objective = problem.objective_value(x, ctx, terms)
    verdicts, hinges = [], []
    for constraint in problem.constraints:
        verdict, excesses = constraint.check(x, ctx)
        verdicts.append(verdict)
        hinges.append(excesses + constraint.margin)
    return _Check(x, ctx, objective, tuple(verdicts), hinges, terms)


def _merit(check, lam, rho):
    """The augmented Lagrangian at a checked point (Nocedal & Wright,
    section 17.4), and its gradient weights.

    Each constraint's hinges h add (max(0, lam + rho h)^2 - lam^2) /
    (2 rho) to the objective, and their gradient weights are the multiplier
    estimates max(0, lam + rho h); ``lam`` holds one array per constraint.
    At lam = 0 and rho = 2 that is the squared hinge h^2, bit for bit.
    """
    merit, estimates = check.objective, _estimates(lam, rho, check.hinges)
    for m, weights in zip(lam, estimates):
        active = weights > 0.0
        merit += float((weights[active] ** 2).sum()
                       - (m ** 2).sum()) / (2.0 * rho)
    return merit, estimates


def _merit_gradient(problem, check, estimates):
    """The gradient of :func:`_merit`: each constraint with a positive
    weight adds its terms to a copy of the objective's."""
    terms = copy.copy(check.terms)
    for constraint, weights in zip(problem.constraints, estimates):
        if np.any(weights > 0.0):
            constraint.add_gradient(check.x, check.ctx, weights, terms)
    return terms.total(check.ctx)


def _trace_record(iteration, check, step_norm):
    """One trace line; ``max_violation`` is
    :func:`semantics.largest_excess` of the point's verdicts."""
    return {"iter": iteration, "objective": check.objective,
            "max_violation": semantics.largest_excess(check.verdicts),
            "step_norm": step_norm}


def verify_constraints(problem, x, ctx=None):
    """Penalty-free feasibility check; returns (feasible, verdicts, objective).

    A property passes only at excess <= 0, the test final verification
    applies; the Lipschitz surrogate, which final verification does not
    check, passes up to ``FEAS_TOL * max(1, gamma)``.  ``ctx``, when given,
    is a context at ``x`` whose solves are reused.
    """
    check = _check(problem, x, ctx)
    feasible = all(v.passed for v in check.verdicts)
    return feasible, check.verdicts, check.objective


class _Point:
    """A point of the box, checked unless its ``check`` is given, weighed
    at multipliers ``lam`` and penalty ``rho``. Its merit gradient is made
    when first read."""

    def __init__(self, box, xi, lam, rho, check=None):
        self.box, self.xi = box, xi
        self.check = check or _check(box.problem, box.values(xi))
        self.merit, self.estimates = _merit(self.check, lam, rho)

    @functools.cached_property
    def gradient(self):
        """The merit gradient in box coordinates."""
        grad = _merit_gradient(self.box.problem, self.check, self.estimates)
        return grad[self.box.free] * self.box.width

    def stationary(self, tol):
        return _projected_norm(self.xi, self.gradient) <= tol


class _Box:
    """The free variables of ``x`` in box-normalized coordinates, xi in
    [0, 1], where the inner solves work."""

    def __init__(self, problem, x):
        self.problem, self.x = problem, x
        self.free = problem.free_idx
        self.lo = problem.boxes[self.free, 0]
        self.hi = problem.boxes[self.free, 1]
        self.width = self.hi - self.lo

    def coordinates(self, x):
        scale = np.where(self.width > 0.0, self.width, 1.0)
        return np.clip((x[self.free] - self.lo) / scale, 0.0, 1.0)

    def values(self, xi):
        # lo + width can round past hi; a coordinate clipped to 1 must land
        # on the bound bit for bit, where the warm start's active set looks
        full = self.x.copy()
        full[self.free] = np.where(xi == 1.0, self.hi,
                                   self.lo + xi * self.width)
        return full


def _inner_solve(box, point, lam, rho, tol, max_iter, face, trace):
    """Minimize the augmented Lagrangian at fixed ``lam`` and ``rho`` over
    the box from ``point``, in at most ``max_iter`` iterations.

    With ``face``, the first iteration tries the face point: each
    coordinate at 1 where the merit gradient is negative, at 0 where it is
    positive, and unchanged where it is zero, the far end of the
    projection arc (Bertsekas 1976).  It is kept when the merit and the
    objective itself both fall; a step that lowers the penalty alone would
    overshoot a bound no objective pulls against.  Otherwise it has cost
    one evaluation.  L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) goes on from
    there unless the projected gradient is already within ``tol``.

    Returns the final point, with its check, and the iteration count.
    """
    if max_iter <= 0 or point.stationary(tol):
        return point, 0
    iterations = 0
    if face:
        g = point.gradient
        trial = _Point(box, np.where(g < 0.0, 1.0,
                                     np.where(g > 0.0, 0.0, point.xi)),
                       lam, rho)
        if (trial.merit < point.merit
                and trial.check.objective < point.check.objective):
            step = np.linalg.norm((trial.xi - point.xi) * box.width)
            point = trial
            iterations = 1
            trace.append(_trace_record(len(trace), point.check, float(step)))
            if iterations == max_iter or point.stationary(tol):
                return point, iterations
    # scipy.optimize adds about 15 MB of resident memory and 0.2 s to the
    # first import; a plan that stops at its start point or its face point
    # never pays for it
    from scipy.optimize import minimize

    # the last evaluation, the last iterate and the lowest merit since it
    # (the latest of ties), all the start point at first: L-BFGS-B asks for
    # that first and ends at the last point or the iterate.  A line search
    # at the noise floor comes back to its best point, with steps too short
    # to change the field, so a point is known by its values
    memo = {"last": point, "iterate": point, "best": point}

    def merit_and_gradient(xi):
        x = box.values(xi)
        known = next((p for p in memo.values()
                      if np.array_equal(x, p.check.x)), None)
        if known is None:
            known = _Point(box, xi.copy(), lam, rho)
            if known.merit <= memo["best"].merit:
                memo["best"] = known
        memo["last"] = known
        return known.merit, known.gradient

    def callback(xk):
        # an iteration ends at the point its line search evaluated last
        new, old = memo["last"], memo["iterate"]
        step = np.linalg.norm((new.xi - old.xi) * box.width)
        trace.append(_trace_record(len(trace), new.check, float(step)))
        memo["iterate"] = memo["best"] = new

    # ftol 0: the default relative test would stop at once on a merit of
    # 1e-7, a bound held against a flat objective.  A line search that
    # fails at the noise floor of the FEM gradients (status 2) ends the
    # inner solve like any other stop
    res = minimize(merit_and_gradient, point.xi, jac=True, method="L-BFGS-B",
                   bounds=[(0.0, 1.0)] * point.xi.size, callback=callback,
                   options={"maxiter": max_iter - iterations, "gtol": tol,
                            "ftol": 0.0})
    for candidate in (memo["last"], memo["iterate"]):
        if np.array_equal(box.values(res.x), candidate.check.x):
            return candidate, iterations + res.nit
    return _Point(box, res.x, lam, rho), iterations + res.nit


def inversion_solve(problem, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
                    x0=None):
    """Minimize the objective over free elements subject to annotated bounds.

    An augmented Lagrangian (Conn, Gould & Toint 1991): each inner solve
    minimizes :func:`_merit` at fixed multipliers, from lam = 0 and
    rho = 2, and only the first tries the face point.  When the
    penalty-free check fails after it, lam <- max(0, lam + rho h), and
    rho grows tenfold when the largest hinge did not fall to a quarter of
    the last one; the point is then weighed again, not checked again.
    ``max_iter`` caps each inner solve.

    Returns an :class:`OptimizationResult`, with the evaluation of its final
    point and the multiplier estimates max(0, lam + rho h) there;
    infeasibility shows in its verdicts, and so in ``feasible`` and
    ``violated``, and is never raised.
    """
    start = problem.stats.fem_solves
    free = problem.free_idx
    if x0 is None:
        x = problem.start_values()
    else:
        x = problem.pin(x0)
        x[free] = np.clip(x[free], *problem.boxes[free].T)
    check = _check(problem, x)
    trace = [_trace_record(0, check, 0.0)]
    lam = [np.zeros(h.size) for h in check.hinges]
    rho = RHO_START
    iterations = 0
    # with everything pinned by the frozen set there is nothing to
    # optimize: the configuration is simply checked as-is
    if free.size:
        box = _Box(problem, x)
        xi = box.coordinates(x)
        if not np.array_equal(box.values(xi), x):
            check = None
        point = _Point(box, xi, lam, rho, check)
        worst = np.inf
        for outer in range(MAX_OUTER):
            if outer:
                last, worst = worst, max(
                    [0.0] + [float(h.max()) for h in check.hinges if h.size])
                lam = point.estimates
                if worst > 0.25 * last:
                    rho *= 10.0
                point = _Point(box, point.xi, lam, rho, check)
            point, n = _inner_solve(box, point, lam, rho, tol, max_iter,
                                    outer == 0 and problem.face_trial, trace)
            iterations += n
            check = point.check
            if all(v.passed for v in check.verdicts):
                break
    return OptimizationResult(
        values=check.x,
        objective=check.objective,
        verdicts=check.verdicts,
        iterations=iterations,
        fem_solves=problem.stats.fem_solves - start,
        strategy="full",
        trace=tuple(trace),
        evaluation=check.ctx,
        multipliers=tuple(_estimates(lam, rho, check.hinges)),
    )


def _estimates(lam, rho, hinges):
    """The first-order multiplier estimates max(0, lam + rho h)."""
    return [np.maximum(0.0, m + rho * h) for m, h in zip(lam, hinges)]


def write_trace(result, path) -> None:
    """Write the iteration trace as strict JSON lines."""
    _files.write_whole(path, lambda fh: fh.writelines(
        json.dumps(record, allow_nan=False) + "\n" for record in result.trace))


def _projected_norm(xi, grad_xi):
    """The largest entry of the projected gradient in box coordinates."""
    projected = xi - np.clip(xi - grad_xi, 0.0, 1.0)
    return float(np.linalg.norm(projected, np.inf)) if projected.size else 0.0


def _projected_gradient_norm(problem, x, grad):
    box = _Box(problem, x)
    return _projected_norm(box.coordinates(x), grad[box.free] * box.width)


def _context_at(problem, x, evaluation):
    """``evaluation`` when it can stand for ``problem.context(x)``: it is on
    the problem's specification and solve counter, and its field holds the
    bits of the one at ``x`` in every parameter. Otherwise a new context."""
    if (evaluation is not None and evaluation.spec is problem.spec
            and evaluation.stats is problem.stats):
        fld = problem.field_for(x)
        if all(evaluation.field.values(p).tobytes() == fld.values(p).tobytes()
               for p in semantics.PARAMETERS):
            return evaluation
    return problem.context(x)


def build_quadratic_model(problem, base_values, evaluation=None):
    """Quadratic expansion of the objective at an approximate minimizer.

    A free variable that sits exactly on a box bound with the gradient
    pushing outward is active and stays pinned; the model holds the Hessian
    rows of the k inactive variables only, from central differences of the
    analytic gradient with steps of 1e-3 times each variable's box width:
    the base-point gradient plus two evaluations per inactive variable.
    ``evaluation`` (the plan's, from :class:`OptimizationResult`) stands
    for the base point's when it is on ``problem``'s specification and
    solve counter at a bitwise-equal field; then the base-point gradient
    makes no new factor, and no solve at all for the self-adjoint
    compliance. Otherwise the base point is evaluated afresh,
    with the same bits.  Raises :class:`BasePointError` when the base point
    is not near-stationary and :class:`ModelInvalidError`, before any row,
    when the objective is flat in the optimized parameter and a variable is
    free, or when the model fails the checks of :func:`warm_start_update`
    on ``problem``'s own frozen/free split.
    """
    x = problem.pin(base_values)
    _, grad = problem.objective_and_gradient(
        x, _context_at(problem, x, evaluation))
    pg = _projected_gradient_norm(problem, x, grad)
    if pg > MODEL_GRAD_TOL:
        raise BasePointError(
            f"projected gradient norm {pg:.3e} exceeds {MODEL_GRAD_TOL:.3e} "
            "at the model base point"
        )
    free = problem.free_idx
    if not problem.face_trial and free.size:
        # a zero Hessian block, which warm_start_update would refuse
        raise ModelInvalidError("the objective is flat in the optimized "
                                "parameter")
    g = grad[free]
    active = (((x[free] == problem.boxes[free, 1]) & (g < 0.0))
              | ((x[free] == problem.boxes[free, 0]) & (g > 0.0)))
    inactive = free[~active]
    widths = problem.boxes[inactive, 1] - problem.boxes[inactive, 0]
    steps = 1e-3 * np.where(np.isfinite(widths) & (widths > 0.0), widths,
                            np.maximum(1.0, np.abs(x[inactive])))
    # the Hessian is symmetric, so column j of it is row j
    rows = np.empty((inactive.size, problem.n_variables))
    for i, (j, h) in enumerate(zip(inactive, steps)):
        forward = x.copy()
        forward[j] += h
        backward = x.copy()
        backward[j] -= h
        _, gf = problem.objective_and_gradient(forward, problem.context(forward))
        _, gb = problem.objective_and_gradient(backward, problem.context(backward))
        rows[i] = (gf - gb) / (2.0 * h)
    model = QuadraticModel(x, inactive, free[active], rows)
    # a zero shift on this problem's own split runs the model's checks
    warm_start_update(model, problem, np.zeros(problem.frozen_idx.size))
    return model


def warm_start_update(model, problem, delta_y):
    """Free-value shift predicted by the model for a frozen perturbation.

    Slices the model for ``problem``'s frozen/free split: z are the free
    inactive variables, F_zz their Hessian block and F_yz the mixed block
    against the frozen ones, so the frozen shift ``delta_y`` (ordered like
    ``problem.frozen_idx``) moves z by ``-F_zz^-1 (F_yz @ delta_y)``.  The
    shift is ordered like ``problem.free_idx`` and is zero on the active
    variables.  Raises :class:`ModelInvalidError` when the model does not
    cover every free variable or F_zz is not positive definite.
    """
    delta_y = np.asarray(delta_y, dtype=float).reshape(-1)
    if delta_y.size != problem.frozen_idx.size:
        raise ValueError("delta_y must align with the problem's frozen set")
    free = problem.free_idx
    if not model.covered[free].all():
        raise ModelInvalidError("the model does not cover every free variable")
    shift = np.zeros(free.size)
    if not model.inactive_idx.size:
        return shift
    is_free = np.zeros(problem.n_variables, dtype=bool)
    is_free[free] = True
    pos = np.flatnonzero(is_free[model.inactive_idx])
    if not pos.size:
        return shift
    z_idx = model.inactive_idx[pos]
    F_zz = model.rows[np.ix_(pos, z_idx)]
    try:
        chol = scipy.linalg.cho_factor(0.5 * (F_zz + F_zz.T))
    except scipy.linalg.LinAlgError as exc:
        raise ModelInvalidError(
            "free-block Hessian is not positive definite"
        ) from exc
    F_yz = model.rows[np.ix_(pos, problem.frozen_idx)]
    shift[model.inactive[free]] = -scipy.linalg.cho_solve(chol, F_yz @ delta_y)
    return shift


def reoptimize_after_drift(
    problem,
    previous_result,
    strategy="warm_start",
    model=None,
    tol=DEFAULT_TOL,
    max_iter=DEFAULT_MAX_ITER,
):
    """Update the free elements after the frozen ones drifted.

    The warm strategy needs the caller's ``model``, built once with
    :func:`build_quadratic_model` at the plan's optimum, which may have
    another frozen/free split than ``problem``.  The drift is
    ``problem.frozen_values`` less the model's base values at
    ``problem.frozen_idx``, or less ``previous_result.values`` without a
    model; with no drift the previous result is returned, and a drift
    without a model raises ValueError.  The warm strategy applies the
    quadratic-model shift and keeps it only if a penalty-free feasibility
    check passes; otherwise, and when the model does not fit this split,
    it falls back to a full solve seeded at the previous values, and the
    result's ``fallback`` says why.
    """
    if strategy not in ("warm_start", "full"):
        raise ValueError(f"unknown strategy: {strategy!r}")
    start = problem.stats.fem_solves

    fallback = None
    if strategy == "warm_start":
        base = previous_result.values if model is None else model.base_values
        delta_y = problem.frozen_values - base[problem.frozen_idx]
        if not delta_y.any():
            return dataclasses.replace(
                previous_result,
                strategy="warm_start",
                fem_solves=0,
                trace=(),
            )
        if model is None:
            raise ValueError("a warm-start re-plan under drift needs the "
                             "model of its plan")
        try:
            delta_z = warm_start_update(model, problem, delta_y)
            free = problem.free_idx
            x = problem.pin(model.base_values)
            x[free] = np.clip(model.base_values[free] + delta_z,
                              *problem.boxes[free].T)
            ctx = problem.context(x)
            feasible, verdicts, objective = verify_constraints(problem, x, ctx)
            if feasible:
                return OptimizationResult(
                    values=x,
                    objective=objective,
                    verdicts=verdicts,
                    iterations=0,
                    fem_solves=problem.stats.fem_solves - start,
                    strategy="warm_start",
                    trace=(),
                    evaluation=ctx,
                )
            fallback = "warm_infeasible"
        except ModelInvalidError:
            fallback = "model_invalid"

    result = inversion_solve(
        problem, tol=tol, max_iter=max_iter, x0=previous_result.values
    )
    return dataclasses.replace(
        result, fem_solves=problem.stats.fem_solves - start, fallback=fallback
    )
