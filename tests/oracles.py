"""Whole-array references for the fast paths, one copy each.

Every fast path in the package (row blocks, threads, column passes,
batched runs, in-place buffers) must give the bits of a plain numpy
expression or loop, the one it replaced.  Those expressions and loops are
kept here, frozen, and every fast-path test compares against them:

* kernels: :func:`predictor`, :func:`consensus` (with the per-run minimum),
  :func:`row_sq` (squared row distances, with or without the noise
  factor), :func:`pairwise_sq`, the :func:`ball` and :func:`simplex`
  projections, :func:`sphere` and :func:`rastrigin`, and the
  :func:`start` draw;
* loops: :func:`run`, :func:`cbo_step` and :func:`decay`, built from the
  kernels above.  They call only the projector and objective under test
  (through ``project_rows``, ``project`` and ``eval_many``) and
  ``Ensemble``, so their numbers do not depend on the package's
  iteration code.

A new fast-path test imports this module and compares bits
(``conftest.assert_same_bits``); a new fast path adds the expression it
replaces here.
"""

import math

import numpy as np

from cbopt.core import Ensemble, NoiseMode

# ------------------------------------------------------------------ kernels


def predictor(ensemble, consensus, params, eta):
    """``w - lam*h*(w - c) + sigma*sqrt(h)*(w - c)*eta``, one consensus row
    (and in COMMON mode one noise row) per run."""
    dev = ensemble.positions - consensus[..., None, :]
    eta = eta if params.noise_mode is NoiseMode.INDEPENDENT else eta[..., None, :]
    return (
        ensemble.positions
        - (params.lam * params.h) * dev
        + (params.sigma * math.sqrt(params.h)) * dev * eta
    )


def consensus(ens, beta):
    """The Boltzmann-weighted mean, weights shifted by each run's minimum."""
    values = ens.objective_values
    w = np.exp(-beta * (values - values.min(axis=-1, keepdims=True)))
    return np.matmul(w[..., None, :], ens.positions)[..., 0, :] / w.sum(-1)[..., None]


def row_sq(rows, center, eta=None):
    """``||rows - center||**2`` per row, of ``(rows - center) * eta`` if given."""
    t = rows - center
    if eta is not None:
        t = t * eta
    return (t * t).sum(axis=-1)


def pairwise_sq(pos):
    """The mean squared pairwise distance of each run, by the center of mass."""
    dev = pos - pos.mean(axis=-2, keepdims=True)
    sq = (dev * dev).reshape(pos.shape[:-2] + (-1,)).sum(axis=-1)
    return 2.0 * sq / (pos.shape[-2] - 1)


def ball(projector, vs):
    dev = vs - projector.center
    dist = np.sqrt((dev * dev).sum(axis=1))
    scale = np.ones_like(dist)
    np.divide(projector.radius, dist, out=scale, where=dist > projector.radius)
    return projector.center + dev * scale[:, None]


def simplex(vs):
    """The simplex projection before row blocking: exact on the rows whose
    entries stay below the projector's bound."""
    vs = np.asarray(vs, dtype=float)
    dim = vs.shape[1]
    u = np.sort(vs, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    ks = np.arange(1, dim + 1, dtype=float)
    valid = u - (css - 1.0) / ks > 0.0
    k_idx = dim - 1 - np.argmax(valid[:, ::-1], axis=1)
    theta = (css[np.arange(len(vs)), k_idx] - 1.0) / (k_idx + 1.0)
    return np.maximum(vs - theta[:, None], 0.0)


def sphere(c, rows):
    dev = rows - c
    return (dev * dev).sum(axis=1)


def rastrigin(s, scale, rows):
    z = (rows - s) / scale
    return (z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0).sum(axis=1)


def start(dim, params, init_mean, init_std, projector, objective, seed):
    """One run's start, as ``init_ensemble`` drew it before the batched
    start: positions and objective values."""
    if init_mean is None:
        init_mean = projector.project(np.zeros(dim))
    mean = np.asarray(init_mean, dtype=float)
    raw = np.random.default_rng(seed).standard_normal((params.n_particles, dim))
    raw *= init_std
    raw += mean
    positions = projector.project_rows(raw)
    return positions, objective.eval_many(positions)


# -------------------------------------------------------------------- loops


def _noise_shape(params, dim):
    return (dim,) if params.noise_mode is NoiseMode.COMMON else (params.n_particles, dim)


def _advance(ens, cons, params, projector, objective, eta):
    """predictor -> corrector -> cache refresh, as ``core._advance`` did."""
    raw = predictor(ens, cons, params, eta)
    positions = projector.project_rows(raw.reshape(-1, raw.shape[-1]))
    values = objective.eval_many(positions)
    assert np.all(np.isfinite(values))
    return Ensemble(positions.reshape(raw.shape), values.reshape(raw.shape[:-1]),
                    ens.iteration + 1)


def _record(ens, cons, residual, best, a_n, b_n):
    com = ens.positions.mean(axis=0)
    return (ens.iteration, cons, pairwise_sq(ens.positions), residual, best, com, a_n, b_n)


def run(objective, projector, params, thin=1):
    """``core.run`` from the default start, before the step kernel:
    ``(ensemble, records, point, best_point, best_value)``, each record a
    tuple of the trace fields."""
    init_ss, noise_ss = np.random.SeedSequence(params.seed).spawn(2)
    ens = Ensemble(*start(projector.dim, params, None, 1.0, projector, objective, init_ss))
    rng = np.random.default_rng(noise_ss)
    records = []
    a_sum = b_sum = 0.0
    best_value = math.inf
    best_point = ens.positions[0].copy()
    while True:
        cons = consensus(ens, params.beta)
        pos = ens.positions
        dist = np.sqrt(row_sq(pos, cons))
        residual = float(dist.max())
        a_sum += float(dist.mean())
        i = int(np.argmin(ens.objective_values))
        current = float(ens.objective_values[i])
        if current < best_value:
            best_value = current
            best_point = pos[i].copy()
        stop = residual < params.residual_tol or ens.iteration >= params.max_iters
        if ens.iteration % thin == 0 or stop:
            records.append(_record(ens, cons, residual, current, a_sum, b_sum))
        if stop:
            break
        eta = rng.standard_normal(_noise_shape(params, ens.dim))
        ens = _advance(ens, cons, params, projector, objective, eta)
        b_sum += float(np.sqrt(row_sq(pos, cons, eta)).mean())
    return ens, records, projector.project(cons), best_point, best_value


def cbo_step(ens, params, projector, objective, rng):
    """``core.cbo_step`` before the step kernel: the next ensemble and the
    record (a tuple, as :func:`run` gives) of ``ens``."""
    cons = consensus(ens, params.beta)
    dist = np.sqrt(row_sq(ens.positions, cons))
    rec = _record(ens, cons, float(dist.max()), float(ens.objective_values.min()),
                  float(dist.mean()), 0.0)
    eta = rng.standard_normal(_noise_shape(params, ens.dim))
    return _advance(ens, cons, params, projector, objective, eta), rec


def decay(objective, projector, params, runs, horizon, seed, init_mean=None, init_std=1.0):
    """``decay_experiment``'s mean pairwise and mean consensus squared
    distances per iteration, and its initial variance: every run started on
    its own and stepped as one stack, one noise draw per run and step."""
    dim = projector.dim
    seeds = [child.spawn(2) for child in np.random.SeedSequence(seed).spawn(runs)]
    starts = [start(dim, params, init_mean, init_std, projector, objective, s) for s, _ in seeds]
    ens = Ensemble(np.stack([p for p, _ in starts]), np.stack([v for _, v in starts]))
    rngs = [np.random.default_rng(n) for _, n in seeds]
    pair = np.empty((runs, horizon + 1))
    cons_sq = np.empty((runs, horizon + 1))
    for n in range(horizon + 1):
        pos = ens.positions
        pair[:, n] = pairwise_sq(pos)
        cons = consensus(ens, params.beta)
        cons_sq[:, n] = row_sq(pos, cons[:, None, :]).mean(axis=-1)
        if n < horizon:
            eta = np.stack([g.standard_normal(_noise_shape(params, dim)) for g in rngs])
            ens = _advance(ens, cons, params, projector, objective, eta)
    sum_w0, sum_sq0 = np.zeros(dim), 0.0
    for w0, _ in starts:
        sum_w0 += w0.sum(axis=0)
        sum_sq0 += float((w0 * w0).sum())
    total = runs * params.n_particles
    mean_w0 = sum_w0 / total
    var0 = sum_sq0 / total - float(mean_w0 @ mean_w0)
    return np.add.accumulate(pair)[-1] / runs, np.add.accumulate(cons_sq)[-1] / runs, var0
