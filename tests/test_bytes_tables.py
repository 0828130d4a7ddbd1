"""CSV tables rendered as bytes, from the float kernel to the file, are the
bytes of the str renderer they replaced (kept below as the reference).

An all-float table passes the kernel's block through as it is; a table with
string or boolean columns splits the block into cells and joins them as
bytes.  Each shape is checked on empty, one-row and one-column pieces and
through ``_write_csv`` on one and on two processes.
"""

import itertools
import os

import numpy as np
import pytest

from cbopt import metaio
from cbopt.metaio import _fmt_block, _table_rows, _write_csv


def old_table_rows(cols, lo: int, hi: int) -> str:
    cells = []
    for kind, group in itertools.groupby((col[lo:hi] for col in cols), lambda c: c.dtype.kind):
        if kind == "U":
            cells += [col.tolist() for col in group]
        elif kind == "b":
            cells += [["true" if v else "false" for v in col.tolist()] for col in group]
        else:
            block = np.column_stack(list(group))
            cells.append(_fmt_block(block).decode().split("\n") if len(block) else [])
    return "\n".join(itertools.chain(map(",".join, zip(*cells)), [""]))


def floats(rng, *shape) -> np.ndarray:
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 20, shape)
    out.reshape(-1)[::97] = -0.0
    out.reshape(-1)[::89] = 5e-324
    return out


def iters(rows: int) -> np.ndarray:
    return np.array([str(3 * i) for i in range(rows)])


def trace_shaped(rng, rows, d=3):
    block = floats(rng, rows, 2 * d + 6)
    err = np.array(["" if i % 3 == 1 else repr(v) for i, v in enumerate(block[:, -1].tolist())])
    return [iters(rows), block[:, 0], block[:, 1], block[:, 2], block[:, 3:3 + d],
            block[:, 3 + d:3 + 2 * d], block[:, -3], block[:, -2], err]


def frontier_shaped(rng, rows, d=4):
    block = floats(rng, rows, d + 3)
    return [block[:, 0], block[:, 1], block[:, 2], block[:, 3:]]


def decay_shaped(rng, rows):
    block = floats(rng, rows, 4)
    ok = rng.random((rows, 2)) < 0.5
    return [iters(rows), block[:, 0], block[:, 1], ok[:, 0], block[:, 2], block[:, 3], ok[:, 1]]


def prices_shaped(rng, rows, d=4):
    dates = np.array([f"2020-01-{i % 28 + 1:02d}" for i in range(rows)])
    return [dates, np.abs(floats(rng, rows, d))]


SHAPES = {
    "trace": trace_shaped,
    "frontier": frontier_shaped,
    "decay": decay_shaped,
    "prices": prices_shaped,
    "one float column": lambda rng, rows: [floats(rng, rows)],
    "one string column": lambda rng, rows: [iters(rows)],
    "one bool column": lambda rng, rows: [rng.random(rows) < 0.5],
}


def row_cells(cols) -> int:
    return sum(int(np.prod(col.shape[1:])) for col in cols if col.dtype.kind not in "Ub")


@pytest.mark.parametrize("shape", SHAPES)
def test_table_rows_are_the_bytes_of_the_str_renderer(shape):
    cols = SHAPES[shape](np.random.default_rng(3), 40)
    for lo, hi in [(0, 0), (7, 7), (0, 1), (39, 40), (3, 17), (0, 40)]:
        assert _table_rows(cols, lo, hi) == old_table_rows(cols, lo, hi).encode()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("shape", SHAPES)
def test_write_csv_writes_the_bytes_of_the_str_renderer(tmp_path, monkeypatch, shape, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    probe = SHAPES[shape](np.random.default_rng(4), 1)
    # Two pieces and a few rows of a third, so two processes share them.
    pieces = 2 * (metaio._PIECE_CELLS // max(1, row_cells(probe))) + 3
    for rows in (0, 1, pieces):
        cols = SHAPES[shape](np.random.default_rng(4), rows)
        _write_csv(tmp_path / "t.csv", "h1,h2", cols, workers)
        want = "h1,h2\n" + old_table_rows(cols, 0, rows)
        assert (tmp_path / "t.csv").read_bytes() == want.encode()
    assert len(forks) == workers - 1
