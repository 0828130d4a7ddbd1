"""Parameter health checks and convergence diagnostics.

The solver contracts pairwise particle distances at a geometric rate when
its parameters satisfy three conditions:

* ``sigma > 0``
* ``2*lam > sigma**2``                     (drift dominates the noise)
* ``0 < h < (2*lam - sigma**2) / lam**2``  (step small enough)

The associated decay rate is ``m = 2*lam - lam**2*h - sigma**2``; a
positive ``m`` makes ``exp(-n*h*m)`` an upper envelope for the mean
squared pairwise distance.  ``check_params`` classifies a parameter set as
Satisfied / Boundary (``2*lam == sigma**2`` exactly) / Violated, and never
blocks a run: callers decide what to do with the verdict.

``decay_experiment`` measures the envelope empirically over many seeded
runs; ``laplace_sweep`` measures how fast the consensus point concentrates
on the best particle as beta grows; ``error_trace`` attaches per-iteration
distances to a reference point onto an existing run trace.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CboParams,
    Ensemble,
    NoiseMode,
    RunTrace,
    _center_of_mass,
    _pairwise_sq,
    _start_mean,
    _starts,
    _step,
    consensus_point,
    draw_step_noise,
)
from .errors import ConfigurationError, NumericDomainError
from .metaio import _blocks, _is_int, _mean, _row_sq, _write_csv, fmt_float, format_metadata

__all__ = [
    "Verdict",
    "ParamReport",
    "check_params",
    "summary_text",
    "DecayReport",
    "decay_experiment",
    "LaplacePoint",
    "laplace_sweep",
    "write_laplace_csv",
    "error_trace",
    "write_error_csv",
]

# Noise values drawn at once by decay_experiment, over all runs: 256 KB, so
# a block of steps stays in cache while the steps use it.
_NOISE_CELLS = 1 << 15


class Verdict(enum.Enum):
    SATISFIED = "satisfied"
    BOUNDARY = "boundary"
    VIOLATED = "violated"


@dataclass(frozen=True)
class ParamReport:
    """Decay-rate and condition checks for one parameter set."""

    m: float
    cond_sigma: bool
    cond_drift: bool
    cond_h: bool
    verdict: Verdict


def _square(name: str, x) -> float:
    """``x**2``, or a ``NumericDomainError`` where it overflows a float.  Not
    ``x * x``: that differs from ``pow`` in the last bit for some doubles."""
    try:
        return x**2
    except OverflowError:
        raise NumericDomainError(f"{name}**2 overflows a float ({name}={x!r})") from None


def check_params(params: CboParams) -> ParamReport:
    """Classify parameters against the contraction conditions.

    ``m`` is evaluated as ``(2*lam - sigma**2) - lam**2*h``: grouping the
    cancellation-prone pair first keeps the boundary case ``2*lam ==
    sigma**2`` exact in floating point (the result is then exactly
    ``-lam**2*h``).  A ``lam`` or ``sigma`` whose square overflows raises
    ``NumericDomainError``.
    """
    two_lam = 2.0 * params.lam
    sig_sq = _square("sigma", params.sigma)
    lam_sq = _square("lam", params.lam)
    m = (two_lam - sig_sq) - lam_sq * params.h
    cond_sigma = params.sigma > 0
    cond_drift = two_lam > sig_sq
    # lam**2 underflows to 0 below lam ~ 1.5e-154; the step bound is then +inf.
    h_max = (two_lam - sig_sq) / lam_sq if lam_sq > 0 else math.inf
    cond_h = bool(cond_drift and 0 < params.h < h_max)
    if cond_sigma and cond_drift and cond_h:
        verdict = Verdict.SATISFIED
    elif two_lam == sig_sq:
        verdict = Verdict.BOUNDARY
    else:
        verdict = Verdict.VIOLATED
    return ParamReport(m, cond_sigma, cond_drift, cond_h, verdict)


def summary_text(report: ParamReport) -> str:
    """Human-readable condition summary with explicit warnings."""
    text = format_metadata({
        "m": report.m,
        "condition_sigma_positive": report.cond_sigma,
        "condition_drift_dominates": report.cond_drift,
        "condition_step_small": report.cond_h,
        "verdict": report.verdict.value,
    })
    if report.verdict is Verdict.BOUNDARY:
        text += (
            "WARNING Boundary: 2λ = σ² exactly; decay rate "
            f"m={fmt_float(report.m)} is not positive and the geometric "
            "contraction envelope does not apply.\n"
        )
    elif report.verdict is Verdict.VIOLATED:
        failed = []
        if not report.cond_sigma:
            failed.append("sigma > 0")
        if not report.cond_drift:
            failed.append("2λ > σ²")
        if not report.cond_h:
            failed.append("h < (2λ - σ²)/λ²")
        text += "WARNING Violated: failed condition(s): " + "; ".join(failed) + ".\n"
    return text


@dataclass
class DecayReport:
    """Empirical pairwise/consensus decay against the geometric envelope.

    Arrays are indexed by iteration 0..horizon.  ``*_bound`` columns carry
    the envelope ``initial * exp(-n*h*m)`` (with the empirical initial
    level), ``*_ok`` the per-iteration comparison with multiplicative slack
    ``1 + 5/sqrt(runs)``.  ``applicable`` is False unless the parameter
    verdict is Satisfied; the report is still produced so callers can look
    at boundary or violating configurations.
    """

    iterations: np.ndarray
    mean_pairwise_sq: np.ndarray
    pairwise_bound: np.ndarray
    pairwise_ok: np.ndarray
    mean_consensus_sq: np.ndarray
    consensus_bound: np.ndarray
    consensus_ok: np.ndarray
    m: float
    verdict: Verdict
    applicable: bool
    slack: float
    runs: int
    n_particles: int
    initial_variance: float

    def write_csv(self, path) -> None:
        header = (
            "n,mean_pairwise_sq,pairwise_bound,pairwise_ok,"
            "mean_consensus_sq,consensus_bound,consensus_ok"
        )
        _write_csv(path, header, [
            [str(int(n)) for n in self.iterations], self.mean_pairwise_sq, self.pairwise_bound,
            self.pairwise_ok, self.mean_consensus_sq, self.consensus_bound, self.consensus_ok,
        ])


def decay_experiment(
    objective,
    projector,
    params: CboParams,
    runs: int,
    horizon: int,
    seed: int,
    init_mean=None,
    init_std: float = 1.0,
) -> DecayReport:
    """Average pairwise and particle-to-consensus squared distances over
    ``runs`` independent seeded trajectories and compare them with the
    geometric envelope.

    Each run draws its start and noise from its own spawned seed, as
    :func:`~cbopt.core.init_ensemble` would; the starts of all runs are
    projected in one call, each run is evaluated on its own, all runs
    advance together, one batched step per iteration, and are summed in
    run-index order.  Each run's noise is drawn for a block of steps at a
    time (about ``_NOISE_CELLS`` values over all runs), which gives the bits
    of one draw per step.
    """
    if not _is_int(runs) or runs < 1:
        raise ConfigurationError("runs must be a positive integer")
    if not _is_int(horizon) or horizon < 0:
        raise ConfigurationError("horizon must be a nonnegative integer")
    report = check_params(params)
    dim = projector.dim
    mean = _start_mean(dim, init_mean, init_std, projector, objective)
    seeds = [child.spawn(2) for child in np.random.SeedSequence(seed).spawn(runs)]
    w0, values = _starts(params, mean, init_std, projector, objective, [s for s, _ in seeds])
    ens = Ensemble(w0, values)
    rngs = [np.random.default_rng(s) for _, s in seeds]
    step_cells = runs * (dim if params.noise_mode is NoiseMode.COMMON else w0[0].size)
    block_steps = max(1, _NOISE_CELLS // step_cells)
    squares = np.empty(w0.shape)
    work = _blocks(w0.shape, keep=True)  # the steps' scratch, made once
    run_pair = np.empty((runs, horizon + 1))
    run_cons_sq = np.empty((runs, horizon + 1))
    with np.errstate(all="ignore"):  # the steps' checks report what is not finite
        for n in range(horizon + 1):
            pos = ens.positions
            run_pair[:, n] = _pairwise_sq(pos, _center_of_mass(pos), squares)
            cons = consensus_point(ens, params.beta)
            run_cons_sq[:, n] = _mean(_row_sq(pos, cons[:, None, :], blocks=work), axis=-1)
            if n < horizon:
                if n % block_steps == 0:
                    steps = min(block_steps, horizon - n)
                    block = draw_step_noise(params, dim, rngs, steps=steps)
                eta = block[:, n % block_steps]
                ens = _step(ens, cons, eta, params, projector, objective, work)

    # np.add.accumulate adds the runs one at a time in run-index order, so
    # the totals do not depend on how the runs were batched.
    pair = np.add.accumulate(run_pair)[-1] / runs
    cons_sq = np.add.accumulate(run_cons_sq)[-1] / runs
    sum_w0 = np.add.accumulate(w0.sum(axis=1))[-1]
    sum_sq0 = float(np.add.accumulate((w0 * w0).reshape(runs, -1).sum(axis=1))[-1])
    total_particles = runs * params.n_particles
    mean_w0 = sum_w0 / total_particles
    initial_variance = sum_sq0 / total_particles - float(mean_w0 @ mean_w0)

    ratio = math.exp(-params.h * report.m)
    n_idx = np.arange(horizon + 1)
    factors = np.concatenate([[1.0], np.cumprod(np.full(horizon, ratio))])
    pairwise_bound = pair[0] * factors
    n = params.n_particles
    consensus_bound = 2.0 * ((n - 1) / n) ** 2 * initial_variance * factors
    slack = 1.0 + 5.0 / math.sqrt(runs)
    pairwise_ok = pair <= pairwise_bound * slack
    consensus_ok = cons_sq <= consensus_bound * slack
    return DecayReport(
        iterations=n_idx,
        mean_pairwise_sq=pair,
        pairwise_bound=pairwise_bound,
        pairwise_ok=pairwise_ok,
        mean_consensus_sq=cons_sq,
        consensus_bound=consensus_bound,
        consensus_ok=consensus_ok,
        m=report.m,
        verdict=report.verdict,
        applicable=report.verdict is Verdict.SATISFIED,
        slack=slack,
        runs=int(runs),
        n_particles=params.n_particles,
        initial_variance=initial_variance,
    )


@dataclass(frozen=True)
class LaplacePoint:
    """Consensus point and its gap to the best particle at one beta."""

    beta: float
    consensus: np.ndarray
    gap: float


def check_betas(betas) -> list[float]:
    """``betas`` as floats, once they are nonempty, finite, ``>= 0`` and
    strictly ascending.

    :func:`laplace_sweep` checks its input with it, and the ``diagnose``
    command before it writes any artifact; left out of ``__all__``.
    """
    betas = [float(b) for b in betas]
    if not betas:
        raise ConfigurationError("betas must be nonempty")
    if any(not (b >= 0) or not math.isfinite(b) for b in betas):
        raise ConfigurationError("betas must be finite and >= 0")
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ConfigurationError("betas must be strictly ascending")
    return betas


def laplace_sweep(ensemble: Ensemble, betas) -> list[LaplacePoint]:
    """Gap between the consensus point and the best particle for each beta.

    ``betas`` must be nonnegative and strictly ascending (0 is allowed and
    yields the arithmetic mean).  As beta grows the consensus point
    concentrates on the minimizing particle, so the gap decays to zero;
    ties among best particles make it converge to their midpoint instead.
    """
    betas = check_betas(betas)
    if ensemble.positions.ndim != 2:
        raise ConfigurationError("laplace_sweep needs a single (N, d) run")
    best = ensemble.positions[int(np.argmin(ensemble.objective_values))]
    out = []
    for beta in betas:
        cons = consensus_point(ensemble, beta)
        gap = float(np.linalg.norm(cons - best))
        out.append(LaplacePoint(beta, cons, gap))
    return out


def write_laplace_csv(points: list[LaplacePoint], path) -> None:
    if not points:
        raise ConfigurationError("no laplace points to write")
    dim = points[0].consensus.shape[0]
    header = "beta,gap," + ",".join(f"consensus_{i}" for i in range(dim))
    _write_csv(path, header, [
        [p.beta for p in points], [p.gap for p in points], [p.consensus for p in points],
    ])


def error_trace(trace: RunTrace, reference) -> np.ndarray:
    """L2 distance of each recorded center of mass to a reference point.

    Mutates the trace records' ``err_ref`` fields in place and returns the
    error array in record order.
    """
    ref = np.asarray(getattr(reference, "weights", reference), dtype=float)
    if not trace.records:
        raise ConfigurationError("trace has no records")
    dim = trace.records[0].center_of_mass.shape[0]
    if ref.shape != (dim,):
        raise ConfigurationError(
            f"reference dimension {ref.shape} does not match trace dimension {dim}"
        )
    errs = np.empty(len(trace.records))
    for i, rec in enumerate(trace.records):
        err = float(np.linalg.norm(rec.center_of_mass - ref))
        rec.err_ref = err
        errs[i] = err
    return errs


def write_error_csv(iterations, errors, path) -> None:
    _write_csv(path, "iter,err_ref", [[str(int(n)) for n in iterations], list(errors)])
