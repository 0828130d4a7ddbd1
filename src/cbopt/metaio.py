"""Small text formats: ``key=value`` metadata blocks and float formatting.

Every float this package writes is rendered with Python's shortest
round-trip ``repr`` of the float64 value: :func:`fmt_float` for one value,
:func:`fmt_vector` for a vector and :func:`fmt_rows` for a 2-D block.  That
keeps files byte-stable across repeated runs and lets a reader recover the
exact binary value.  ``repr`` costs about a microsecond per float on one
core.  Every CSV table is rendered by :func:`_table_rows`, and every table
file but the prices CSV is written by :func:`_write_csv`, which formats a
large one in pieces on several forked processes (:func:`_pieces`).  The
same row ranges (:func:`_row_ranges`) cut the numeric kernels' ``(N, d)``
arrays into cache-sized blocks (:func:`_blocks`), and :func:`_each_block`
runs a kernel's blocks on short-lived threads, up to one per usable CPU,
joined before it returns.  Every block keeps its operands and ufunc order,
so the bits do not depend on the number of threads.  :func:`_row_sq`, the
squared distance of each row to a center, is the kernel the solver's
residuals, the sphere objective, the ball's membership test and the decay
experiment share.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import warnings

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "fmt_float",
    "fmt_vector",
    "fmt_rows",
    "parse_vector",
    "format_metadata",
    "write_metadata",
    "parse_metadata",
]

# Cells per formatted piece: small enough that a piece's text (~1.3 MB) is
# cheap to hold and to pipe, large enough (tens of ms to format) that the
# per-piece overhead stays small.
_PIECE_CELLS = 1 << 16

# Cells per kernel block: 1 MB of float64, so a block and the scratch arrays
# of an in-place ufunc chain over it stay in a core's L2 cache.
_BLOCK_CELLS = 1 << 17


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fmt_float(x) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


def fmt_vector(vec) -> str:
    """Space-joined round-trip floats of a 1-D vector."""
    # float.__repr__ rather than repr: a 2-D input then raises TypeError on
    # its row lists instead of printing them.
    return " ".join(map(float.__repr__, np.asarray(vec, dtype=float).tolist()))


def fmt_rows(block) -> list[str]:
    """One comma-joined line of round-trip floats per row of a 2-D block.

    The same bytes as :func:`fmt_float` on each cell, but converted to
    Python floats once per block rather than once per cell.
    """
    return [",".join(map(repr, row)) for row in np.asarray(block, dtype=float).tolist()]


def _table_rows(cols, lo: int, hi: int) -> str:
    """CSV lines for rows ``lo:hi``, each row taking its cells from the
    arrays ``cols`` in turn.

    A column of strings is written as it is, a boolean column as
    ``true``/``false`` and any other column as floats with :func:`fmt_rows`
    (a 2-D one gives several cells per row).  Adjacent float columns are
    formatted as one block.
    """
    cells = []
    for kind, group in itertools.groupby((col[lo:hi] for col in cols), lambda c: c.dtype.kind):
        if kind == "U":
            cells += [col.tolist() for col in group]
        elif kind == "b":
            cells += [["true" if v else "false" for v in col.tolist()] for col in group]
        else:
            cells.append(fmt_rows(np.column_stack(list(group))))
    # The trailing "" ends the last row with a newline, without copying the
    # text; a one-cell row joins to its own string, so it is not copied either.
    return "\n".join(itertools.chain(map(",".join, zip(*cells)), [""]))


def _write_csv(path, header: str, columns, workers: int = 1) -> None:
    """Write ``header`` and the :func:`_table_rows` of ``columns``; rows stop
    at the shortest column.

    The rows are rendered in pieces of about ``_PIECE_CELLS`` float cells
    on up to ``workers`` processes (:func:`_pieces`, capped at the usable
    CPUs); the bytes are the same for every ``workers``.  The header is
    flushed before the first piece is drawn, so no forked child inherits
    unwritten output.
    """
    cols = [np.asarray(col) for col in columns]
    rows = min(len(col) for col in cols)
    row_cells = sum(math.prod(col.shape[1:]) for col in cols if col.dtype.kind not in "Ub")
    pieces = _pieces(rows, row_cells, lambda lo, hi: _table_rows(cols, lo, hi), workers)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.flush()
        fh.writelines(pieces)


def _row_ranges(n_rows: int, row_cells: int, cells: int) -> list[tuple[int, int]]:
    """Consecutive ``(lo, hi)`` ranges over ``n_rows`` rows of ``row_cells``
    cells each: about ``cells`` cells per range, and at least one row."""
    step = max(1, cells // max(1, row_cells))
    return [(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def _block_ranges(shape) -> list[tuple[int, int]]:
    """Row ranges of about ``_BLOCK_CELLS`` cells over the first axis of an
    array of ``shape``; one range, the whole array, if it fits in a block."""
    row_cells = math.prod(shape[1:])
    if shape[0] * row_cells <= _BLOCK_CELLS:
        return [(0, shape[0])]
    return _row_ranges(shape[0], row_cells, _BLOCK_CELLS)


def _blocks(shape) -> tuple[list[tuple[int, int]], np.ndarray]:
    """:func:`_block_ranges` of ``shape`` and one uninitialized scratch array
    that holds the largest of them.

    Elementwise ufuncs give the same bits on a block as on the whole array,
    and every row sum stays one reduction over one contiguous row, so a
    kernel's output does not depend on the block size.
    """
    ranges = _block_ranges(shape)
    return ranges, np.empty((ranges[0][1], *shape[1:]))


def _each_block(ranges, body, *scratch) -> None:
    """``body(lo, hi, *buffers)`` for every ``(lo, hi)`` in ``ranges``.

    One range runs inline on ``scratch``.  More are shared by
    P = ``min(len(ranges) // 2, usable_cpus())`` threads, each taking the
    next range in turn, so a thread the host starts late takes fewer.  P
    leaves at least two ranges per thread: one 1 MB block is about as much
    work as starting a thread and faulting in its output.  Thread 0 is the
    caller and uses ``scratch``; every other thread gets fresh arrays shaped
    like it, allocated here on the calling thread.  Each worker runs
    under the caller's numpy error state; every thread is joined before this
    returns or raises, so :func:`_pieces` may fork again afterwards, and the
    first worker exception is re-raised here.

    ``body`` must write only rows ``lo:hi`` of its outputs and its own
    buffers, allocate nothing full-size and call no public function.  Its
    blocks then get the same bits on any number of threads.
    """
    if len(ranges) == 1:
        body(*ranges[0], *scratch)
        return
    procs = min(len(ranges) // 2, usable_cpus())
    todo = iter(ranges)  # shared by the threads: next() holds the GIL
    settings = np.geterr()
    call = np.geterrcall()
    errors = []

    def share(buffers) -> None:
        try:
            with np.errstate(call=call, **settings):
                for lo, hi in todo:
                    body(lo, hi, *buffers)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = []
    try:
        for k in range(1, procs):
            buffers = tuple(np.empty_like(a) for a in scratch)
            threads.append(threading.Thread(target=share, args=(buffers,), name=f"block-{k}"))
            threads[-1].start()
        for lo, hi in todo:
            body(lo, hi, *scratch)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _part(operand: np.ndarray, lo: int, hi: int, ndim: int) -> np.ndarray:
    """The part of ``operand`` that row block ``[lo, hi)`` of an ``ndim``-rank
    array uses: an operand of that rank is cut with it, and a lower-rank one
    broadcasts whole."""
    return operand[lo:hi] if operand.ndim == ndim else operand


def _row_sq(rows: np.ndarray, center: np.ndarray, eta=None, blocks=None) -> np.ndarray:
    """``(t * t).sum(axis=-1)`` for ``t = rows - center``, times ``eta`` if given.

    ``rows`` is ``(m, d)`` or ``(R, N, d)``; ``center`` and ``eta`` either
    have its rank (cut with its row blocks) or broadcast whole.  The package's
    one squared row distance: the sums are computed in the row blocks of
    ``blocks`` (``_blocks(rows.shape)`` unless given; its scratch may be any
    array holding the largest block), on every usable CPU and without a
    full-size temporary, with the bits of the whole-array expression.
    """
    out = np.empty(rows.shape[:-1])
    ranges, scratch = _blocks(rows.shape) if blocks is None else blocks

    def body(lo, hi, buf):
        t = np.subtract(rows[lo:hi], _part(center, lo, hi, rows.ndim), out=buf[: hi - lo])
        if eta is not None:
            np.multiply(t, _part(eta, lo, hi, rows.ndim), out=t)
        np.multiply(t, t, out=t)
        t.sum(axis=-1, out=out[lo:hi])

    _each_block(ranges, body, scratch)
    return out


def _is_int(value) -> bool:
    """True for an ``int`` or numpy integer, but not a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _all_finite(arr: np.ndarray) -> bool:
    """``np.all(np.isfinite(arr))``, usually from one sum and no temporary.

    Any NaN or infinity makes the sum non-finite, so a finite sum proves
    every entry finite; a non-finite one (which finite entries give when
    the sum overflows) takes the full test.  The sum's overflow and
    ``inf - inf`` signals are ignored, so the verdict neither warns nor
    raises under any numpy error state.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = arr.sum()
    return math.isfinite(total) or bool(np.isfinite(arr).all())


def _pieces(n_rows: int, row_cells: int, render, workers: int):
    """``render(lo, hi)`` for consecutive row ranges of ``n_rows``, in row order.

    Each range holds about ``_PIECE_CELLS`` cells (at least one row of
    ``row_cells``).  Piece i is rendered by process i mod P, where P is
    ``min(workers, pieces, usable_cpus())``: process 0 is the caller and the
    others are forked children, so ``render`` may be any closure.  P is 1,
    and nothing forks, without ``os.fork`` or while other threads run.
    ``render`` must be deterministic; the text is then the same for every
    ``workers``.  The one caller, :func:`_write_csv`, flushes its file
    before drawing the first piece, so no child inherits unwritten output.
    """
    if not _is_int(workers) or workers < 1:
        raise ConfigurationError("workers must be a positive integer")
    bounds = _row_ranges(n_rows, row_cells, _PIECE_CELLS)
    procs = min(workers, len(bounds), usable_cpus())
    if procs < 2 or not hasattr(os, "fork") or threading.active_count() != 1:
        return (render(lo, hi) for lo, hi in bounds)
    return _forked_pieces(bounds, procs, render)


def _forked_pieces(bounds, procs: int, render):
    children = []  # (pid, pipe read end) of processes 1 .. procs-1
    complete = False
    try:
        for k in range(1, procs):
            r, w = os.pipe()
            try:
                # Python >= 3.12 warns here, in the parent, when other OS
                # threads (a BLAS pool) exist.  The child only formats text
                # and ends with os._exit, so the warning is ignored; raised,
                # it would leave a child whose pid is lost.
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                for _pid, reader in children:
                    reader.close()
                _send_pieces(w, bounds[k::procs], render)
            os.close(w)
            children.append((pid, open(r, "rb")))
        for i, (lo, hi) in enumerate(bounds):
            k = i % procs
            yield render(lo, hi) if k == 0 else _receive_piece(children[k - 1][1])
        complete = True
    finally:
        # Closing the read ends first makes a child still writing (the
        # consumer stopped early) fail with EPIPE and exit, so no wait hangs.
        for _pid, reader in children:
            reader.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _r in children]
        if complete and any(codes):
            raise OSError(f"formatter processes exited with status {codes}")


def _send_pieces(fd: int, bounds, render):
    """Body of a forked child: length-prefixed pieces into ``fd``; never returns."""
    status = 1
    try:
        with open(fd, "wb") as out:
            for lo, hi in bounds:
                data = render(lo, hi).encode()
                out.write(len(data).to_bytes(8, "little"))
                out.write(data)
        status = 0
    finally:
        os._exit(status)


def _receive_piece(reader) -> str:
    size = int.from_bytes(_read_exact(reader, 8), "little")
    return _read_exact(reader, size).decode()


def _read_exact(reader, n: int) -> bytes:
    data = reader.read(n)
    if len(data) != n:
        raise OSError("a formatter process ended before sending its piece")
    return data


def parse_vector(text: str):
    return [float(tok) for tok in text.split()]


def format_metadata(items: dict) -> str:
    """Render an ordered mapping as ``key=value`` lines.

    Floats get round-trip precision; sequences become space-joined floats;
    everything else is rendered with ``str``.
    """
    lines = []
    for key, value in items.items():
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = fmt_float(value)
        elif isinstance(value, (list, tuple)) or type(value).__name__ == "ndarray":
            rendered = fmt_vector(value)
        else:
            rendered = str(value)
        lines.append(f"{key}={rendered}")
    return "\n".join(lines) + "\n"


def write_metadata(path, items: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(format_metadata(items))


def parse_metadata(text: str) -> dict:
    """Inverse of :func:`format_metadata` (values stay strings)."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out
