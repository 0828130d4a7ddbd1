"""Predictor-corrector consensus ensemble iteration.

N particles evolve toward their Boltzmann-weighted consensus point: an
explicit Euler drift plus multiplicative noise proposes new positions (the
predictor), and projection onto the feasible set repairs them (the
corrector), so iterates never leave the constraint set.

Consensus weights are computed as ``exp(-beta * (L_i - min_j L_j))``; the
shift keeps the weight of the best particle at exactly 1, so the weight
vector never underflows to all zeros even for beta around 1e6.

Noise modes:

* ``COMMON`` (default): one standard-normal d-vector per iteration shared
  by every particle.  Pairwise coordinate differences then contract by the
  same random factor each step, which is what the decay diagnostics check.
* ``INDEPENDENT``: a fresh d-vector per particle per iteration.

All randomness flows through numpy ``Generator`` streams seeded from one
``SeedSequence``, so runs are bit-reproducible for a given seed and do not
depend on how the surrounding code schedules work.

An :class:`Ensemble` is checked once, when it is made, so every ensemble
is finite and nothing that takes one re-checks it.  Every step's predictor
and corrector is one private kernel, :func:`_advance`: :func:`run` and
:func:`cbo_step` call it through :func:`_step`, which evaluates the new
positions and returns a new, so checked, ``Ensemble``, and
``decay_experiment`` calls it on ranges of its stacked runs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericDomainError
from .metaio import (
    _SHORT_ROW, _all_finite, _each_block, _is_int, _mean, _part, _row_sq, _write_csv,
    fmt_float,
)

__all__ = [
    "NoiseMode",
    "CboParams",
    "Ensemble",
    "TraceRecord",
    "RunTrace",
    "RunResult",
    "init_ensemble",
    "consensus_point",
    "draw_step_noise",
    "predictor_step",
    "cbo_step",
    "run",
    "mean_pairwise_sq",
    "write_trace_csv",
]


class NoiseMode(enum.Enum):
    COMMON = "common"
    INDEPENDENT = "independent"


@dataclass(frozen=True)
class CboParams:
    """Solver parameters.

    Construction validates basic ranges only (positivity and the like);
    whether the parameters also satisfy the contraction conditions is the
    diagnostics module's job, and intentionally never blocks a run.

    Fields
    ------
    lam : drift rate toward the consensus point, > 0
    sigma : noise intensity, >= 0
    beta : Boltzmann concentration parameter, > 0
    h : Euler step size, > 0
    n_particles : ensemble size, >= 2
    noise_mode : COMMON (shared per-step vector) or INDEPENDENT
    seed : master seed for initialization and the noise stream
    max_iters : hard iteration cap (0 means "do not step at all")
    residual_tol : stop once max_i ||w_i - consensus|| drops below this
    """

    lam: float
    sigma: float
    beta: float
    h: float
    n_particles: int
    noise_mode: NoiseMode = NoiseMode.COMMON
    seed: int = 0
    max_iters: int = 10_000
    residual_tol: float = 1e-8

    def __post_init__(self):
        if not (float(self.lam) > 0) or not math.isfinite(self.lam):
            raise ConfigurationError("lam must be finite and > 0")
        if not (float(self.sigma) >= 0) or not math.isfinite(self.sigma):
            raise ConfigurationError("sigma must be finite and >= 0")
        if not (float(self.beta) > 0) or not math.isfinite(self.beta):
            raise ConfigurationError("beta must be finite and > 0")
        if not (float(self.h) > 0) or not math.isfinite(self.h):
            raise ConfigurationError("h must be finite and > 0")
        if not _is_int(self.n_particles) or self.n_particles < 2:
            raise ConfigurationError("n_particles must be an integer >= 2")
        if not isinstance(self.noise_mode, NoiseMode):
            raise ConfigurationError("noise_mode must be a NoiseMode")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigurationError("seed must be a nonnegative integer")
        if not _is_int(self.max_iters) or self.max_iters < 0:
            raise ConfigurationError("max_iters must be an integer >= 0")
        # NaN fails this comparison too; +inf is allowed (stop immediately).
        if not (float(self.residual_tol) >= 0):
            raise ConfigurationError("residual_tol must be >= 0")


@dataclass(frozen=True)
class Ensemble:
    """Particle ensemble with a coherent objective-value cache.

    Positions are ``(N, d)``, or ``(R, N, d)`` for R runs stepped together;
    objective values drop the last axis.  Construction checks the shapes,
    then that the values (naming ``iteration``) and the positions are finite.
    """

    positions: np.ndarray
    objective_values: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        vals = np.asarray(self.objective_values, dtype=float)
        if pos.ndim not in (2, 3) or pos.shape[-2] < 2:
            raise ConfigurationError("positions must be (N, d) or (R, N, d) with N >= 2")
        if vals.shape != pos.shape[:-1]:
            raise ConfigurationError("objective_values must have one entry per particle")
        if not _all_finite(vals):
            raise NumericDomainError(f"non-finite objective value at iteration {self.iteration}")
        if not _all_finite(pos):
            raise NumericDomainError("ensemble positions must be finite")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "objective_values", vals)

    @property
    def dim(self) -> int:
        return self.positions.shape[-1]

    @property
    def n_particles(self) -> int:
        return self.positions.shape[-2]


@dataclass
class TraceRecord:
    """One trace row: the ensemble state at one iteration plus the running
    path sums.

    ``a_n`` accumulates the mean particle-to-consensus distance through the
    current iterate; ``b_n`` accumulates the mean norm of the noise term
    ``(w_i - consensus) * eta`` over all steps taken so far (the current
    step's noise is drawn after the record, so ``b_n`` covers p < n).
    ``err_ref`` stays ``None`` until an error trace against a reference
    point is attached.
    """

    iteration: int
    consensus: np.ndarray
    dispersion: float
    residual: float
    best_value: float
    center_of_mass: np.ndarray
    a_n: float
    b_n: float
    err_ref: float | None = None


@dataclass
class RunTrace:
    """Ordered, strictly-increasing-in-iteration trace records."""

    records: list[TraceRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def iterations(self) -> np.ndarray:
        return np.array([r.iteration for r in self.records], dtype=np.int64)

    def residuals(self) -> np.ndarray:
        return np.array([r.residual for r in self.records], dtype=float)

    def dispersions(self) -> np.ndarray:
        return np.array([r.dispersion for r in self.records], dtype=float)

    def centers_of_mass(self) -> np.ndarray:
        return np.array([r.center_of_mass for r in self.records], dtype=float)

    def a_values(self) -> np.ndarray:
        return np.array([r.a_n for r in self.records], dtype=float)

    def b_values(self) -> np.ndarray:
        return np.array([r.b_n for r in self.records], dtype=float)


@dataclass(frozen=True)
class RunResult:
    """Outcome of :func:`run`.

    ``point`` is the final consensus point projected onto the feasible set;
    ``best_point``/``best_value`` track the best particle ever observed.
    """

    ensemble: Ensemble
    trace: RunTrace
    point: np.ndarray
    best_point: np.ndarray
    best_value: float


def mean_pairwise_sq(positions):
    """Mean of ``||w_i - w_j||^2`` over unordered particle pairs.

    Uses the center-of-mass identity
    ``sum_{i<j} ||w_i - w_j||^2 = N * sum_i ||w_i - com||^2``,
    so the cost is O(N d) instead of O(N^2 d).  An ``(N, d)`` input gives
    a float; ``(R, N, d)`` gives one value per run.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim not in (2, 3) or pos.shape[-2] < 2:
        raise ConfigurationError("need (N, d) or (R, N, d) positions with N >= 2")
    return _pairwise_sq(pos, _center_of_mass(pos))


def _center_of_mass(pos: np.ndarray) -> np.ndarray:
    """``_mean(pos, axis=-2, keepdims=True)`` of ``(N, d)`` or ``(R, N, d)``
    positions, with its bits.

    numpy adds the particles of each run in order, one ``d``-wide loop per
    particle and run.  For ``(R, N, d)`` with 2 <= d < ``metaio._SHORT_ROW``
    the same adds run on a particle-major copy, each over all R runs: a
    (200, 8, 4) call takes about 16 us instead of 40-47.  At d = 1 numpy sums
    8 or more particles pairwise, so that case, like longer rows, keeps the
    reduction.
    """
    if pos.ndim == 3 and 2 <= pos.shape[-1] < _SHORT_ROW:
        total = np.add.reduce(pos.transpose(1, 0, 2).copy(), axis=0)
        return (total / pos.shape[1])[:, None, :]
    return _mean(pos, axis=-2, keepdims=True)


def _pairwise_sq(pos: np.ndarray, com: np.ndarray):
    """:func:`mean_pairwise_sq` of validated positions with center of mass ``com``.

    The squares are summed over each run's whole ``N*d`` block at once,
    into the center if :func:`metaio._part` repeated it (a new array).
    """
    com = _part(com, 0, len(pos), pos)
    dev = np.subtract(pos, com, out=com if com.shape == pos.shape else None)
    np.multiply(dev, dev, out=dev)
    sq = dev.reshape(pos.shape[:-2] + (-1,)).sum(axis=-1)
    out = 2.0 * sq / (pos.shape[-2] - 1)
    return float(out) if pos.ndim == 2 else out


def init_ensemble(
    dim: int,
    params: CboParams,
    init_mean=None,
    init_std: float = 1.0,
    projector=None,
    objective=None,
    seed=None,
) -> Ensemble:
    """Draw N Gaussian rows and project each onto the feasible set.

    ``init_mean`` defaults to the projection of the origin onto the set
    (for the simplex that is the barycenter).  ``seed`` accepts anything
    ``numpy.random.default_rng`` does; it defaults to ``params.seed``.
    """
    mean = _start_mean(dim, init_mean, init_std, projector, objective)
    positions, values = _starts(
        params, mean, init_std, projector, objective, [params.seed if seed is None else seed]
    )
    return Ensemble(positions[0], values[0], iteration=0)


def _start_mean(dim: int, init_mean, init_std, projector, objective) -> np.ndarray:
    """The checked start mean of :func:`init_ensemble`'s arguments."""
    if projector is None or objective is None:
        raise ConfigurationError("init_ensemble requires a projector and an objective")
    if projector.dim != dim:
        raise ConfigurationError(
            f"projector dimension {projector.dim} does not match dim={dim}"
        )
    if not (float(init_std) > 0) or not math.isfinite(init_std):
        raise ConfigurationError("init_std must be finite and > 0")
    if init_mean is None:
        init_mean = projector.project(np.zeros(dim))
    mean = np.asarray(init_mean, dtype=float)
    if mean.shape != (dim,) or not _all_finite(mean):
        raise ConfigurationError(f"init_mean must be a finite {dim}-vector")
    return mean


def _starts(params: CboParams, mean, init_std, projector, objective, seeds):
    """Positions ``(R, N, d)`` and objective values ``(R, N)`` of R starts:
    run r's rows are ``default_rng(seeds[r])``'s standard normals, times
    ``init_std``, plus ``mean``.

    All R·N rows are projected in one call, in place (``out`` is the draw,
    and another array the projector returns is copied into it), which gives
    the bits of one call per run because the projection is row-wise.  Each
    run is then evaluated by its own ``eval_many`` call, as a lone run would
    be: a batched evaluation is a BLAS call of another shape, whose bits are
    not the same.
    """
    raw = np.empty((len(seeds), params.n_particles, mean.shape[0]))
    for r, seed in enumerate(seeds):
        np.random.default_rng(seed).standard_normal(out=raw[r])
    with np.errstate(all="ignore"):  # the projection and Ensemble report what is not finite
        # init_std * z, then mean + that: the bits of the plain expression.
        raw *= init_std
        raw += mean
        flat = raw.reshape(-1, raw.shape[-1])
        positions = projector.project_rows(flat, out=flat)
        if positions is not flat:
            flat[...] = np.reshape(positions, flat.shape)
        values = np.empty(raw.shape[:-1])
        for r, pos in enumerate(raw):
            values[r] = objective.eval_many(pos)
    return raw, values


def consensus_point(ensemble: Ensemble, beta: float) -> np.ndarray:
    """Boltzmann-weighted ensemble average with underflow-safe weights.

    Weights are ``exp(-beta * (L_i - min_j L_j))``: the best particle always
    has weight 1, so the normalizer is >= 1 for any beta.  ``beta = 0``
    yields the plain arithmetic mean.  The result is a convex combination
    of particle positions and therefore lies in their convex hull.  A
    batched ensemble gives one ``(R, d)`` row per run.
    """
    beta = float(beta)
    if not (beta >= 0) or not math.isfinite(beta):
        raise ConfigurationError("beta must be finite and >= 0")
    values = ensemble.objective_values
    # values.min(axis=-1, keepdims=True): numpy reduces each run in a loop of
    # its own, while N - 1 minimums over a particle-major copy take all runs
    # at once (about 3 us instead of 14 at (200, 8)).  A tie of -0.0 and +0.0
    # may yield the other zero, which gives the same weights, all bits alike.
    w = np.exp(-beta * (values - np.minimum.reduce(values.T.copy())[..., None]))
    return np.matmul(w[..., None, :], ensemble.positions)[..., 0, :] / w.sum(-1)[..., None]


def draw_step_noise(params: CboParams, dim: int, rng, steps=None) -> np.ndarray:
    """Draw one step's standard-normal noise in the configured mode.

    The array has shape ``(d,)`` in COMMON mode (broadcast over particles)
    and ``(N, d)`` in INDEPENDENT mode.  ``rng`` is one ``Generator``, or a
    sequence of them with one per run; the values then gain a leading run
    axis, row r drawn from ``rng[r]``.

    ``steps=K`` draws K steps at once: the values gain a step axis, after
    the run axis if there is one.  A ``Generator`` fills an array one value
    after another, so step k holds the bits of the (k+1)-th of K successive
    single-step draws.
    """
    shape = (dim,) if params.noise_mode is NoiseMode.COMMON else (params.n_particles, dim)
    if steps is not None:
        if not _is_int(steps) or steps < 1:
            raise ConfigurationError("steps must be a positive integer")
        shape = (int(steps), *shape)
    if isinstance(rng, np.random.Generator):
        values = rng.standard_normal(shape)
    else:
        gens = list(rng)
        values = np.empty((len(gens), *shape))
        for r, g in enumerate(gens):
            g.standard_normal(out=values[r])
    return values


def predictor_step(
    ensemble: Ensemble, consensus: np.ndarray, params: CboParams, eta: np.ndarray, out=None
) -> np.ndarray:
    """Propose raw (unconstrained) positions for the next iterate.

    ``w_i - lam*h*(w_i - consensus) + sigma*sqrt(h)*(w_i - consensus)*eta``
    evaluated rowwise, with ``eta`` as :func:`draw_step_noise` returns it;
    the input ensemble is not mutated.  A batched ensemble takes one
    consensus row per run.  As in numpy, the proposal is written to ``out``
    and it is returned: ``None`` allocates it, and any other ``out`` must be
    a writeable float64 array of the positions' shape that shares no memory
    with them.

    The expression is evaluated in row blocks (whole runs when batched),
    on every usable CPU, by in-place ufuncs with the same operands in the
    same order, so the bits are those of the whole-array expression; each
    block computes its own ``w_i - consensus``, and repeats short per-run
    rows to its particles (:func:`metaio._part`).
    """
    pos = ensemble.positions
    consensus = np.asarray(consensus, dtype=float)
    if consensus.shape != pos.shape[:-2] + (ensemble.dim,):
        raise ConfigurationError("consensus point has the wrong dimension")
    eta = np.asarray(eta)
    mode = params.noise_mode  # noise of the other mode has another shape
    shape = pos.shape[:-2] + pos.shape[-1:] if mode is NoiseMode.COMMON else pos.shape
    if eta.shape != shape:
        raise ConfigurationError(
            f"noise shape {eta.shape} does not match {shape} ({mode.value} noise)"
        )
    if pos.ndim == 3:  # one consensus row, and in COMMON mode one noise row, per run
        consensus = consensus[:, None, :]
        eta = eta if params.noise_mode is NoiseMode.INDEPENDENT else eta[:, None, :]
    if out is None:
        out = np.empty(pos.shape)
    elif not (isinstance(out, np.ndarray) and out.shape == pos.shape and out.dtype == np.float64
              and out.flags.writeable) or np.may_share_memory(out, pos):
        raise ConfigurationError(
            f"out must be a writeable float64 array of shape {pos.shape} apart from the positions"
        )
    drift = params.lam * params.h
    spread = params.sigma * math.sqrt(params.h)

    def body(lo, hi, dev):
        w, new, d = pos[lo:hi], out[lo:hi], dev[: hi - lo]
        np.subtract(w, _part(consensus, lo, hi, w), out=d)
        np.multiply(drift, d, out=new)
        np.subtract(w, new, out=new)
        np.multiply(spread, d, out=d)
        np.multiply(d, _part(eta, lo, hi, w), out=d)
        np.add(new, d, out=new)

    _each_block(pos.shape, body)
    return out


def _record(ensemble: Ensemble, cons, residual, best_value, a_n, b_n) -> TraceRecord:
    """The trace row for ``ensemble``.

    The center of mass and the dispersion are computed here, so only for
    the rows a trace keeps.
    """
    pos = ensemble.positions
    com = _mean(pos, axis=0)
    return TraceRecord(ensemble.iteration, cons, _pairwise_sq(pos, com), residual, best_value,
                       com, a_n, b_n)


def _advance(ensemble: Ensemble, cons, eta, params: CboParams, projector, out=None):
    """Predictor -> corrector with this step's ``cons`` and ``eta``: the new
    positions as ``(rows, d)``.  The proposal goes to ``out`` (see
    :func:`predictor_step`) and nothing reads it again, so R stacked runs
    are projected in place as one ``(R*N, d)`` block.  The array the
    projector returns is used, and copied to ``out`` if it is another.  The
    projector scans its input (a predictor overflow)."""
    raw = predictor_step(ensemble, cons, params, eta, out)
    flat = raw.reshape(-1, raw.shape[-1])
    positions = projector.project_rows(flat, out=flat)
    if out is not None and positions is not flat:
        flat[...] = np.reshape(positions, flat.shape)
    return positions


def _step(ensemble: Ensemble, cons, eta, params: CboParams, projector, objective):
    """:func:`_advance`, then the evaluation of the new positions as one
    block.  A step allocates one full-size array, its new positions; the
    new :class:`Ensemble` checks the values and the positions (a duck-typed
    projector may return NaN)."""
    positions = _advance(ensemble, cons, eta, params, projector)
    values = objective.eval_many(positions)
    shape = ensemble.positions.shape
    return Ensemble(np.reshape(positions, shape), np.reshape(values, shape[:-1]),
                    ensemble.iteration + 1)


def cbo_step(
    ensemble: Ensemble,
    params: CboParams,
    projector,
    objective,
    rng: np.random.Generator,
) -> tuple[Ensemble, TraceRecord]:
    """One full iteration: consensus, noise, predictor, corrector, cache.

    Returns the advanced ensemble and the row :func:`run` writes for the
    *input* state (its consensus is the one the update used): ``a_n`` is
    the mean distance to consensus and ``b_n`` is 0.
    """
    if ensemble.positions.ndim != 2:
        raise ConfigurationError("a step record needs a single (N, d) run")
    cons = consensus_point(ensemble, params.beta)
    dist = np.sqrt(_row_sq(ensemble.positions, cons))
    record = _record(
        ensemble, cons, float(dist.max()), float(ensemble.objective_values.min()),
        float(_mean(dist)), 0.0,
    )
    eta = draw_step_noise(params, ensemble.dim, rng)
    return _step(ensemble, cons, eta, params, projector, objective), record


def run(
    objective,
    projector,
    params: CboParams,
    init_mean=None,
    init_std: float = 1.0,
    thin: int = 1,
) -> RunResult:
    """Run the solver until the residual drops below tolerance or the
    iteration cap is reached.

    The trace records every ``thin``-th iteration plus, always, the final
    state.  The returned ``point`` is the final consensus point projected
    onto the feasible set.
    """
    if not _is_int(thin) or thin < 1:
        raise ConfigurationError("thin must be an integer >= 1")
    ss = np.random.SeedSequence(params.seed)
    init_ss, noise_ss = ss.spawn(2)
    ensemble = init_ensemble(
        projector.dim, params, init_mean, init_std, projector, objective, seed=init_ss
    )
    rng = np.random.default_rng(noise_ss)

    trace = RunTrace()
    a_sum = 0.0
    b_sum = 0.0
    best_value = math.inf
    best_point = ensemble.positions[0].copy()
    with np.errstate(all="ignore"):  # the steps' checks report what is not finite
        while True:
            cons = consensus_point(ensemble, params.beta)
            pos = ensemble.positions
            dist = np.sqrt(_row_sq(pos, cons))
            residual = float(dist.max())
            a_sum += float(_mean(dist))
            i = int(np.argmin(ensemble.objective_values))
            current = float(ensemble.objective_values[i])
            if current < best_value:
                best_value = current
                best_point = ensemble.positions[i].copy()
            stop = (residual < params.residual_tol) or (ensemble.iteration >= params.max_iters)
            if ensemble.iteration % thin == 0 or stop:
                trace.records.append(_record(ensemble, cons, residual, current, a_sum, b_sum))
            if stop:
                break
            eta = draw_step_noise(params, ensemble.dim, rng)
            ensemble = _step(ensemble, cons, eta, params, projector, objective)
            b_sum += float(_mean(np.sqrt(_row_sq(pos, cons, eta))))

    point = projector.project(cons)
    return RunResult(ensemble, trace, point, best_point, best_value)


def trace_csv_header(dim: int) -> str:
    cols = ["iter", "residual", "dispersion", "best_L"]
    cols += [f"consensus_{i}" for i in range(dim)]
    cols += [f"com_{i}" for i in range(dim)]
    cols += ["A_n", "B_n", "err_ref"]
    return ",".join(cols)


def write_trace_csv(trace: RunTrace, path) -> None:
    """Persist a trace as CSV with full round-trip float precision.

    The ``err_ref`` field is left empty for records with no reference
    error attached.  Large traces are formatted on up to one process per
    usable CPU; the bytes are the same for every CPU count.
    """
    if not trace.records:
        raise ConfigurationError("cannot write an empty trace")
    recs = trace.records
    _write_csv(path, trace_csv_header(recs[0].consensus.shape[0]), [
        [str(r.iteration) for r in recs], trace.residuals(), trace.dispersions(),
        [r.best_value for r in recs], [r.consensus for r in recs], trace.centers_of_mass(),
        trace.a_values(), trace.b_values(),
        ["" if r.err_ref is None else fmt_float(r.err_ref) for r in recs],
    ])
