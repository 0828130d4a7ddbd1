"""Rows shorter than ``metaio._SHORT_ROW`` values, reduced column by column,
against the row path they replace, bit for bit.

Three kernels take whole-column operations when a row holds fewer than 8
float64 values: the simplex corrector (``SimplexProjector._column_thresholds``,
from ``16 * d**2`` rows on), the row sums of ``metaio._row_sq`` (from
``4 * d**2`` rows on) and the ``(R, N, d)`` center of mass of
``core._center_of_mass``.  Each must give the
bits of the numpy row reductions it stands in for, on every input.  The
stacked step's ufuncs with a per-run ``(R, 1, d)`` operand repeat it to
every particle's row first (``np.repeat`` in ``metaio._part``), with the
bits of the broadcast.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from cbopt import CboParams, Ensemble, NoiseMode, core, metaio, predictor_step, simplex
from cbopt.core import _center_of_mass, mean_pairwise_sq
from cbopt.metaio import _row_sq
from conftest import assert_same_bits

SHORT = range(1, metaio._SHORT_ROW)
# Rows the threshold rule redoes: a largest entry of 2**53 or more, or
# partial sums that overflow.
REDO = [[1e16, 0.0, 0.0], [2.0**53 + 2, 0.0, 0.0], [-1e308, -1e308, 5.0]]


def rows(seed, m, d, redo=True) -> np.ndarray:
    """Normal draws mixed with +-0, values rounded to 0.1, exact ties, an
    all-zero row and, with ``redo``, the rows the rule redoes (cut or padded
    with zeros to ``d`` columns)."""
    rng = np.random.default_rng(seed)
    out = rng.standard_normal((m, d)) + 1.0 / d
    flat = out.reshape(-1)
    pick = rng.random(flat.shape)
    flat[pick < 0.05] = 0.0
    flat[(pick >= 0.05) & (pick < 0.1)] = -0.0
    tenths = (pick >= 0.1) & (pick < 0.3)
    flat[tenths] = np.round(flat[tenths], 1)
    if d > 1:
        tie = rng.random(m) < 0.2
        out[tie, d - 1] = out[tie, 0]
    extra = [[0.0] * d, [-0.0] * d, [0.1] * d] + [(r + [0.0] * d)[:d] for r in REDO] * redo
    for i, row in zip(rng.permutation(m), extra):
        out[i] = row
    return out


def projector(d: int, path: str):
    """``simplex(d)`` held to one path: ``"column"`` from one row on, or ``"row"``."""
    p = simplex(d)
    p._column_rows = 1 if path == "column" else None
    return p


def test_short_rows_switch_to_columns_at_16_d_squared_rows():
    for d in SHORT:
        assert simplex(d)._column_rows == 16 * d * d
    assert simplex(metaio._SHORT_ROW)._column_rows is None


@pytest.mark.parametrize("d", SHORT)
def test_each_row_count_takes_the_path_it_names(d, monkeypatch):
    taken = []
    column = type(simplex(d))._column_thresholds
    monkeypatch.setattr(type(simplex(d)), "_column_thresholds",
                        lambda self, v, out: taken.append(len(v)) or column(self, v, out))
    switch = 16 * d * d
    for m in (1, switch - 1, switch, 1600):
        simplex(d).project_rows(rows(m, m, d, redo=False))
    assert taken == [m for m in (switch, 1600) if m >= switch]


@pytest.mark.parametrize("d", SHORT)
@pytest.mark.parametrize("m", [1, 8, 300, 1600, "switch-1", "switch"])
def test_the_corrector_keeps_the_row_path_bits(d, m):
    switch = 16 * d * d
    m = {"switch-1": switch - 1, "switch": switch}.get(m, m)
    vs = rows((d, m), m, d, redo=m >= 8)
    before = vs.copy()
    want = projector(d, "row").project_rows(vs)
    assert_same_bits(simplex(d).project_rows(vs), want)
    assert_same_bits(projector(d, "column").project_rows(vs), want)
    assert_same_bits(vs, before)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_redone_rows_in_a_column_block_land_on_the_simplex(d):
    vs = np.array([(r + [0.0] * d)[:d] for r in REDO] * 4 * d * d)
    got = simplex(d).project_rows(vs)
    assert_same_bits(got, projector(d, "row").project_rows(vs))
    assert np.all(got >= 0) and np.all(np.abs(got.sum(axis=1) - 1) <= 1e-12)


# Near ties whose valid columns (u_k > t_k) are not a prefix: theta is t at
# the last valid column, not at the one before the first invalid.
GAPPED = [
    [0.6250000000000001, 0.2500000000000001, 0.1250000000000001, 1e-16, 1e-16],
    [0.1250000000000001, 0.25, 0.7500000000000001, 0.1250000000000001, 0.3750000000000001,
     0.1250000000000001],
    [0.3323333333333333, 0.3329583333333333, 0.3339583333333333, 0.0002500000000001,
     -0.000125, -0.000125, -0.0011249999999999002],
]


@pytest.mark.parametrize("row", GAPPED)
def test_theta_is_taken_at_the_last_valid_column(row):
    d = len(row)
    _u, _t, valid = simplex(d)._thresholds(np.array([row]))
    assert np.logical_and.accumulate(valid[0]).sum() != valid[0].sum()
    vs = np.array([row] * 16 * d * d)
    want = projector(d, "row").project_rows(vs)
    assert_same_bits(simplex(d).project_rows(vs), want)
    assert_same_bits(projector(d, "column").project_rows(vs[:1]), want[:1])


def test_all_zero_and_tied_rows_keep_their_bits():
    vs = np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [0.5, 0.5, 0.5],
                   [-2.0, -2.0, -2.0], [0.1, 0.1, 0.2], [1.0, 0.0, -0.0]] * 30)
    assert_same_bits(simplex(3).project_rows(vs), projector(3, "row").project_rows(vs))


moderate = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda d: arrays(np.float64, st.tuples(st.integers(1, 40), st.just(d)), elements=moderate)))
def test_the_column_path_matches_the_row_path_on_moderate_rows(vs):
    d = vs.shape[1]
    assert_same_bits(projector(d, "column").project_rows(vs),
                     projector(d, "row").project_rows(vs))


@pytest.mark.parametrize("d", range(0, metaio._SHORT_ROW + 2))
@pytest.mark.parametrize("shape", [(1,), (8,), (300,), (200, 8), (3, 30), "switch-1", "switch"])
def test_row_sq_keeps_the_row_sum_bits(d, shape):
    # Blocks of 4 * d**2 rows or more take the column adds.
    shape = {"switch-1": (max(4 * d * d - 1, 1),), "switch": (2, 2 * d * d)}.get(shape, shape)
    rng = np.random.default_rng(d)
    pts = rows(d, int(np.prod(shape)), max(d, 1), redo=False)[:, :d].reshape(*shape, d)
    pts *= 10.0 ** rng.integers(-8, 9, pts.shape)
    center = rng.standard_normal(d)
    eta = rng.standard_normal(pts.shape)
    assert_same_bits(_row_sq(pts, center), oracles.row_sq(pts, center))
    assert_same_bits(_row_sq(pts, center, eta), oracles.row_sq(pts, center, eta))


def test_rows_of_no_values_sum_to_zero():
    assert_same_bits(_row_sq(np.zeros((5, 0)), np.zeros(0)), np.zeros(5))
    assert_same_bits(_row_sq(np.zeros((2, 3, 0)), np.zeros(0), np.zeros((2, 3, 0))),
                     np.zeros((2, 3)))


@pytest.mark.parametrize("d", SHORT)
@pytest.mark.parametrize("runs, n", [(1, 2), (200, 8), (3, 30), (5, 9), (4, 1)])
def test_the_center_of_mass_keeps_the_reduction_bits(d, runs, n):
    # At d = 1 numpy sums 8 or more particles pairwise; those shapes are here.
    rng = np.random.default_rng((d, runs, n))
    pos = rows((d, runs, n), runs * n, d, redo=False).reshape(runs, n, d)
    pos *= 10.0 ** rng.integers(-16, 17, pos.shape)
    want = np.add.reduce(pos, axis=-2, keepdims=True) / n
    assert_same_bits(_center_of_mass(pos), want)
    assert_same_bits(_center_of_mass(pos[0]), want[0])
    if n > 1:
        assert_same_bits(mean_pairwise_sq(pos), oracles.pairwise_sq(pos))


@pytest.mark.parametrize("d", [1, 4, 7, 8])
@pytest.mark.parametrize("runs, n", [(200, 8), (3, 30), (5, 2)])
@pytest.mark.parametrize("cells", [None, 40])  # None: one block; 40: threaded blocks
def test_expanded_run_operands_keep_the_broadcast_bits(block_cells, cpus, monkeypatch, d, runs,
                                                       n, cells):
    # Rows shorter than _SHORT_ROW repeat each run's (1, d) operand row to
    # its n particles before the ufunc; 8 values keep the broadcast.
    block_cells(cells)
    cpus(1 if cells is None else 3)
    expanded = []
    part = metaio._part

    def spy(operand, lo, hi, block):  # records whether the part gained the block's rows
        got = part(operand, lo, hi, block)
        expanded.append(got.shape[1:] != operand.shape[1:])
        return got

    for module in (metaio, core):
        monkeypatch.setattr(module, "_part", spy)
    rng = np.random.default_rng((d, runs, n))
    pos = rng.standard_normal((runs, n, d)) * 10.0 ** rng.integers(-8, 9, (runs, n, d))
    cons = rng.standard_normal((runs, d))
    eta = rng.standard_normal((runs, d))
    assert_same_bits(_row_sq(pos, cons[:, None, :]), oracles.row_sq(pos, cons[:, None, :]))
    params = CboParams(lam=1.0, sigma=0.7, beta=1.0, h=0.1, n_particles=n,
                       noise_mode=NoiseMode.COMMON)
    ens = Ensemble(pos, np.zeros((runs, n)))
    assert_same_bits(predictor_step(ens, cons, params, eta),
                     oracles.predictor(ens, cons, params, eta))
    assert_same_bits(mean_pairwise_sq(pos), oracles.pairwise_sq(pos))
    assert any(expanded) == (d < metaio._SHORT_ROW)
