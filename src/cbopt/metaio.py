"""Small text formats: ``key=value`` metadata blocks and float formatting.

Every float this package writes is rendered with Python's shortest
round-trip ``repr`` of the float64 value: :func:`fmt_float` for one value,
:func:`fmt_vector` for a vector and :func:`_fmt_block` for a 2-D block.
That keeps files byte-stable across repeated runs and lets a reader recover
the exact binary value.  :func:`_fmt_block` computes those bytes on whole
arrays: for a finite cell with 1e-4 <= |x| < 2**53 and a mantissa that is
not a power of two, int64 arithmetic decides exactly which of the nearest
17-, 16- and 15-digit decimals is ``repr``'s, and every other cell, and
every tie or distance on the half-ulp boundary, gets ``repr``'s own text.
Every CSV table is rendered by :func:`_table_rows`,
and every table file but the prices CSV is written by :func:`_write_csv`,
which formats a large one in pieces on several forked processes
(:func:`_pieces`); a piece stays bytes from the kernel to the file.
:func:`_fmt_2f_rows` is the ``.2f`` kernel of the SVG's circles.  The same
row ranges (:func:`_row_ranges`) cut the numeric kernels' ``(N, d)``
arrays, and the decay experiment's stacked runs, into cache-sized blocks:
:func:`_each_block` runs a kernel's blocks on short-lived threads, up to
one per usable CPU, each with its own scratch, joined before it returns;
a kernel called from such a block runs inline.  Both count CPUs by
:func:`usable_cpus` alone.
Every block keeps its operands and ufunc order, so the bits do not depend
on the number of threads.  :func:`_row_sq`, the squared distance of each
row to a center, is the kernel of every distance the package reports (the
residuals, sphere objective, ball membership, decay experiment, error trace
and Laplace gap); it sums a block of many rows shorter than ``_SHORT_ROW``
values column by column (:func:`_row_sum`), with numpy's bits.
"""

from __future__ import annotations

import contextvars
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

# Rows of fewer float64 values than this (one 64-byte cache line) are reduced
# column by column: numpy reduces each such row in its own short loop, and
# adds its values in order, so d - 1 whole-column adds give the same bits.
_SHORT_ROW = 8

_CPU_CAP = contextvars.ContextVar("cpu_cap", default=None)  # cli.main's --workers
# .active: this thread runs the ranges of a multi-thread _each_block call.
_SHARING = threading.local()


def usable_cpus() -> int:
    """CPUs this process may run on (affinity mask, else CPU count), at most ``_CPU_CAP``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, _CPU_CAP.get() or cpus)


def fmt_float(x) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


def fmt_vector(vec) -> str:
    """Space-joined round-trip floats of a 1-D vector."""
    # float.__repr__ rather than repr: a 2-D input then raises TypeError on
    # its row lists instead of printing them.
    return " ".join(map(float.__repr__, np.asarray(vec, dtype=float).tolist()))


# Tables of the shortest round-trip kernel (_fmt_block).  10**k is exact in
# float64 and 5**k < 2**49 for k < 22.  "00" .. "99" are 2-byte items, taken
# and viewed back as bytes, so no byte order is assumed.
_POW10 = 10.0 ** np.arange(22)
_POW5 = 5 ** np.arange(22, dtype=np.int64)
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint16)
_CELL = 44  # bytes per cell: separator, sign, "0.000" prefix (6), 9 x (pair, gap)
_FMT_CELLS = 1 << 13  # cells per kernel pass: about 2 MB of scratch


def _cell_layouts():
    """Keep masks and literal bytes, by ``17 * (q + 4) + n - 1``, of a cell
    of ``n`` digits and decimal exponent ``q``: character t of the 9 pairs
    of ``w`` (the digits, times 10 if ``q`` is negative or odd so the point
    falls between pairs) is byte 8 + 4 * (t // 2) + t % 2.  The literals
    are the point, or the ``0.`` and zeros that lead a cell below 1.
    """
    q = np.arange(-4, 16)[:, None, None]
    n = np.arange(1, 18)[:, None]
    t = np.arange(18)
    shift = (q < 0) | (q % 2 == 1)
    # the last digit kept; an integer keeps one fraction digit ("12.0")
    last = np.where(q < 0, n, np.maximum(n, q + 2)) - shift
    mask = np.zeros((20, 17, _CELL), np.uint8)
    mask[:, :, 8 + 4 * (t // 2) + t % 2] = 255 * ((t >= 1 - shift) & (t <= last))
    text = np.zeros((20, 17, _CELL), np.uint8)
    for i, qi in enumerate(range(-4, 16)):
        if qi < 0:
            text[i, :, 2:3 - qi] = list(b"0." + b"0" * (-qi - 1))
        else:
            text[i, :, 10 + 4 * (qi // 2)] = ord(".")
    return (mask.reshape(340, _CELL).view(f"V{_CELL}").ravel(),
            text.reshape(340, _CELL).view(f"V{_CELL}").ravel())


_MASKS, _TEXTS = _cell_layouts()


def _fmt_block(block: np.ndarray, end: bytes = b"") -> bytes:
    """The ASCII bytes of ``"\\n".join(",".join(map(repr, row)) for row in
    block.tolist())``, then ``end``, for a 2-D float block, computed on
    whole arrays.

    ``repr`` prints the shortest decimal that reads back as the same float
    and, of those, the nearest (Steele & White; Gay, "Correctly rounded
    binary-decimal and decimal-binary conversions", 1990).  For a finite
    cell with 1e-4 <= |x| < 2**53 whose mantissa is not a power of two:

    - ``frexp`` gives |x| = m * 2**(e - 54), m even.  With q = floor(log10
      |x|) and k = 16 - q, T = |x| * 10**k is in [1e16, 1e17) and equals
      m * 5**k / 2**s, s = 54 - e - k in [0, 47].
    - C = int(|x| * 10**k) is one rounding from T, so |C - T| <= 8 and
      m * 5**k - C * 2**s, taken modulo 2**64, is exact: it gives
      N = floor(T) and the remainder r / 2**s.
    - In units of 2**-s, half the gap to either neighbour of x is 5**k: a
      decimal reads back as x if its distance to T is below that, and not
      if above.  That interval is wider than 1 and narrower than 23 units
      of T, so the nearest multiple of 1 (17 digits) reads back and at most
      one multiple of 100 does.  That one, if any, is ``repr``'s digits
      with the trailing zeros dropped; if none, the nearest multiple of 10
      (16 digits) is, if it reads back; if not, the nearest multiple of 1.

    Every other cell gets ``repr``'s own text: 0, inf, nan, magnitudes out
    of range, power-of-two mantissas, a distance of exactly 5**k, a tie, a
    misjudged q and a carry to 18 digits.  Each pass of ``_FMT_CELLS``
    cells fills ``_CELL`` bytes per cell and drops the zero bytes; ``end``
    joins the passes, so appending it copies nothing.
    """
    rows, cols = block.shape
    flat = block.reshape(-1)
    out = np.empty((min(flat.size, _FMT_CELLS), _CELL), np.uint8)
    parts = []
    for lo in range(0, flat.size, _FMT_CELLS):
        cells = _fmt_cells(flat[lo:lo + _FMT_CELLS], out)
        cells[:, 0] = ord(",")
        cells[-lo % cols::cols, 0] = ord("\n")
        if not lo:
            cells[0, 0] = 0  # the first cell has no separator
        parts.append(cells.tobytes().translate(None, b"\0"))
    # Rows of no cells are empty lines.
    return b"".join([*parts, end]) if flat.size else b"\n" * max(rows - 1, 0) + end


def _fmt_cells(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows of ``out`` holding the cells of 1-D ``x`` (see :func:`_fmt_block`);
    byte 0 of each, the separator, is left to the caller."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 2.0**53)
    a[~fast] = 1.5
    f, e = np.frexp(a)
    q = np.floor(np.log10(a)).astype(np.int64)
    k = 16 - q
    s = 54 - k - e
    half = _POW5.take(k)
    c = (a * _POW10.take(k)).astype(np.int64)
    d = (f * 2.0**54).astype(np.int64) * half - (c << s)
    n = c + (d >> s)
    one = np.left_shift(1, s)
    r = d & (one - 1)
    n10, n100 = n - n // 10 * 10, n - n // 100 * 100
    r10, r100 = n10 * one + r, n100 * one + r
    d10, d100 = np.minimum(r10, 10 * one - r10), np.minimum(r100, 100 * one - r100)
    by10, by100 = d10 < half, d100 < half
    v = np.where(by10, n - n10 + 10 * (r10 > 5 * one), n + (2 * r > one))
    v = np.where(by100, n - n100 + 100 * (r100 > 50 * one), v)
    tie = np.where(by10, r10 == 5 * one, 2 * r == one)
    fast &= (f != 0.5) & (by100 | ~tie) & (d10 != half) & (d100 != half)
    fast &= (n >= 10**16) & (v < 10**17)
    q[~fast], v[~fast] = 0, 10**16
    shift = (q < 0) | (q & 1 == 1)
    w = v * (1 + 9 * shift)
    pairs = np.empty((9, x.size), np.int64)
    for i in range(8, -1, -1):
        hi = w // 100
        pairs[i] = w - 100 * hi
        w = hi
    cells = out[:x.size]
    cells.view(np.uint16)[:, 4::2] = _PAIRS.take(pairs).T
    digits = 17 - by10 - by100
    short = np.flatnonzero(by100 & fast)
    if short.size:  # drop the trailing zeros of a multiple of 100
        tail = pairs[:, short]
        zero_pairs = (tail[::-1] != 0).argmax(axis=0)
        last = tail[8 - zero_pairs, np.arange(short.size)]
        digits[short] = 17 + shift[short] - 2 * zero_pairs - (last % 10 == 0)
    key = 17 * (q + 4) + digits - 1
    cells &= _MASKS.take(key).view(np.uint8).reshape(-1, _CELL)
    cells |= _TEXTS.take(key).view(np.uint8).reshape(-1, _CELL)
    cells[:, 1] = np.signbit(x) * np.uint8(ord("-"))
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array([repr(t) for t in x[slow].tolist()], dtype=f"S{_CELL - 1}")
        cells[slow, 1:] = text.view(np.uint8).reshape(-1, _CELL - 1)
    return cells


def _fmt_2f_rows(texts, *columns) -> bytes:
    """``t0 + format(v1, ".2f") + t1 + ... + tk`` for each row, as ASCII
    bytes: ``texts`` are k + 1 byte strings and ``columns`` k float arrays.

    ``.2f`` prints 100 * v rounded half to even.  For 1 <= v < 10**4,
    ``frexp`` gives v = m * 2**(e - 53), integer m < 2**53 and 1 <= e <= 14,
    so 100 * m < 2**60 is exact in int64: its bits above s = 53 - e are
    floor(100 * v) and the low s bits the remainder that decides the
    rounding.  A cell is 8 bytes: the ``_PAIRS`` of the integer part, the
    point, a gap and the hundredths, with zero bytes in the gap and for the
    leading zeros; they are dropped.  A row with a cell outside that domain
    (below 1, not finite, or rounding to 10**4) gets ``format``'s text.
    """
    literals = [t + b"\0" * (len(t) % 2) for t in texts]  # cells start on even bytes
    row = b"".join(t + b"\0\0\0\0.\0\0\0" for t in literals[:-1]) + literals[-1]
    out = np.tile(np.frombuffer(row, np.uint8), (len(columns[0]), 1))
    ok = np.ones(len(out), bool)
    for c, v in zip((np.cumsum([len(t) + 8 for t in literals[:-1]]) - 8).tolist(), columns):
        fits = (v >= 1) & (v < 1e4)
        f, e = np.frexp(np.where(fits, v, 1.0))
        s = 53 - e.astype(np.int64)
        m100 = (f * 2.0**53).astype(np.int64) * 100
        n = m100 >> s
        n += m100 - (n << s) + (n & 1) > np.left_shift(1, s - 1)  # half to even
        fits &= n < 10**6
        ok &= fits
        n[~fits] = 100
        whole = n // 100
        out.view(np.uint16)[:, [c // 2, c // 2 + 1, c // 2 + 3]] = _PAIRS.take(
            np.column_stack([whole // 100, whole % 100, n % 100]))
        out[:, c:c + 3] *= whole[:, None] >= [1000, 100, 10]
    parts, lo = [], 0
    for i in np.flatnonzero(~ok).tolist():
        cells = [format(float(col[i]), ".2f").encode() for col in columns]
        parts += [out[lo:i].tobytes(), b"".join(itertools.chain(*zip(texts, cells), texts[-1:]))]
        lo = i + 1
    return b"".join(parts + [out[lo:].tobytes()]).translate(None, b"\0")


def _table_rows(cols, lo: int, hi: int) -> bytes:
    """CSV lines, as UTF-8 bytes, for rows ``lo:hi``, each row taking its
    cells from the arrays ``cols`` in turn.

    A column of strings is written as it is, a boolean column as
    ``true``/``false`` and any other column as floats with :func:`_fmt_block`
    (a 2-D one gives several cells per row).  Adjacent float columns are
    formatted as one block, and a table of floats only is one block's bytes.
    """
    parts = [col[lo:hi] for col in cols]
    if all(part.dtype.kind not in "Ub" for part in parts):
        block = np.column_stack(parts).astype(float, copy=False)
        return _fmt_block(block, b"\n") if len(block) else b""
    cells = []
    for kind, group in itertools.groupby(parts, lambda c: c.dtype.kind):
        if kind == "U":
            cells += [list(map(str.encode, col.tolist())) for col in group]
        elif kind == "b":
            cells += [[b"true" if v else b"false" for v in col.tolist()] for col in group]
        else:
            block = np.column_stack(list(group)).astype(float, copy=False)
            cells.append(_fmt_block(block).split(b"\n") if len(block) else [])
    # The trailing b"" ends the last row with a newline.
    return b"\n".join(itertools.chain(map(b",".join, zip(*cells)), [b""]))


def _write_csv(path, header: str, columns) -> None:
    """Write ``header`` and the :func:`_table_rows` of ``columns``; rows stop
    at the shortest column.  A column with a ``dtype`` is used as it is: an
    array, or an object with a ``shape`` whose ``[lo:hi]`` makes those rows'
    array (a sampled frontier's weights, drawn per piece).

    The rows are rendered in pieces of about ``_PIECE_CELLS`` float cells
    on up to one process per usable CPU (:func:`_pieces`), and go to the
    file as bytes that do not depend on the CPU count.  The header is
    flushed first, so no forked child inherits unwritten output.
    """
    cols = [col if hasattr(col, "dtype") else np.asarray(col) for col in columns]
    rows = min(col.shape[0] for col in cols)
    row_cells = sum(math.prod(col.shape[1:]) for col in cols if col.dtype.kind not in "Ub")
    pieces = _pieces(rows, row_cells, lambda lo, hi: _table_rows(cols, lo, hi))
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.flush()
        fh.writelines(pieces)


def _row_ranges(n_rows: int, row_cells: int, cells: int) -> list[tuple[int, int]]:
    """Consecutive ``(lo, hi)`` ranges over ``n_rows`` rows of ``row_cells``
    cells each: about ``cells`` cells per range, and at least one row."""
    step = max(1, cells // max(1, row_cells))
    return [(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def _each_block(shape, body, buffers: int = 1, cells: int | None = None) -> None:
    """``body(lo, hi, *scratch)`` for every row range of about ``cells``
    cells (``_BLOCK_CELLS`` by default) over the first axis of an array of
    ``shape`` (one range, the whole array, if it fits); ``scratch`` is
    ``buffers`` uninitialized arrays shaped like the largest range.

    Fewer than four ranges run inline.  More are shared by
    P = ``min(len(ranges) // 2, usable_cpus())`` threads, each taking the
    next range in turn, so a thread the host starts late takes fewer.  P
    leaves at least two ranges per thread: one 1 MB block is about as much
    work as starting a thread and faulting in its output.  Every thread,
    the caller's included, gets its own scratch, allocated here on the
    calling thread.  Each worker runs under the caller's numpy error state;
    every thread is joined before this returns or raises, so :func:`_pieces`
    may fork again afterwards, and the first exception, the caller's or a
    worker's, is re-raised here.  A call made by a body of a multi-thread
    call runs all its ranges inline: the workers do not see ``_CPU_CAP``,
    and P threads that each started more would exceed it.

    ``body`` must write only rows ``lo:hi`` of its outputs and its own
    scratch, and allocate nothing full-size.  It may call other kernels,
    and any function that is safe to run on disjoint rows at once (the
    decay experiment's run ranges call the projector).  Elementwise ufuncs
    give the same bits on a block as on the whole array, and every row sum
    stays one reduction over one contiguous row, so its blocks get the bits
    of the whole-array expression on any number of threads.
    """
    cells = _BLOCK_CELLS if cells is None else cells
    row_cells = math.prod(shape[1:])
    ranges = ([(0, shape[0])] if shape[0] * row_cells <= cells
              else _row_ranges(shape[0], row_cells, cells))

    def scratch() -> tuple:
        return tuple(np.empty((ranges[0][1], *shape[1:])) for _ in range(buffers))

    if len(ranges) < 4 or getattr(_SHARING, "active", False):
        arrays = scratch()
        for lo, hi in ranges:
            body(lo, hi, *arrays)
        return
    procs = min(len(ranges) // 2, usable_cpus())
    todo = iter(ranges)  # shared by the threads: next() holds the GIL
    settings = np.geterr()
    call = np.geterrcall()
    errors = []

    def share(arrays) -> None:
        _SHARING.active = True
        try:
            with np.errstate(call=call, **settings):
                for lo, hi in todo:
                    body(lo, hi, *arrays)
        except BaseException as exc:  # re-raised once every thread is joined
            errors.append(exc)
        finally:
            _SHARING.active = False

    threads = []
    try:
        for k in range(1, procs):
            threads.append(threading.Thread(target=share, args=(scratch(),), name=f"block-{k}"))
            threads[-1].start()
        share(scratch())
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _part(operand: np.ndarray, lo: int, hi: int, block: np.ndarray) -> np.ndarray:
    """The part of ``operand`` that ``block``, rows ``[lo, hi)`` of an array,
    uses: an operand of the block's rank is cut with it, and a lower-rank one
    broadcasts whole.

    An ``(R, 1, d)`` operand of rows shorter than ``_SHORT_ROW`` is
    repeated to the block's particles instead (``np.repeat``, a new array).
    numpy applies a ufunc with the ``(m, 1, d)`` part one d-wide row at a
    time: at (200, 8, 4) a subtract takes about 13 us with it and 4 with a
    full-size operand, and this call about 3.  The ufuncs are elementwise,
    so no bit changes.
    """
    if operand.ndim != block.ndim:
        return operand
    part = operand[lo:hi]
    if block.ndim == 3 and part.shape[1] == 1 < block.shape[1] and part.shape[2] < _SHORT_ROW:
        return np.repeat(part, block.shape[1], axis=1)
    return part


def _row_sq(rows: np.ndarray, center: np.ndarray, eta=None):
    """``(t * t).sum(axis=-1)`` for ``t = rows - center``, times ``eta`` if given.

    ``rows`` is ``(m, d)`` or ``(R, N, d)``; ``center`` and ``eta`` either
    have its rank (cut with its row blocks) or broadcast whole.  The package's
    one squared row distance: the sums are computed in the row blocks of
    :func:`_each_block`, on every usable CPU and without a full-size
    temporary, with the bits of the whole-array expression.

    A block of many rows shorter than ``_SHORT_ROW`` is summed by
    :func:`_row_sum`'s column adds, one call per column over the whole block
    instead of numpy's loop over rows: a (200, 8, 4) call takes about 30 us
    instead of 55."""
    out = np.empty(rows.shape[:-1])

    def body(lo, hi, buf):
        w, t = rows[lo:hi], buf[: hi - lo]
        np.subtract(w, _part(center, lo, hi, w), out=t)
        if eta is not None:
            np.multiply(t, _part(eta, lo, hi, w), out=t)
        np.multiply(t, t, out=t)
        _row_sum(t, out[lo:hi])

    _each_block(rows.shape, body)
    return out


def _row_sum(p: np.ndarray, out: np.ndarray) -> None:
    """``p.sum(axis=-1, out=out)``, with its bits: ``4 * d**2`` or more rows of
    2 <= d < ``_SHORT_ROW`` values, which numpy sums in order, are summed by
    d - 1 column adds.  Fewer rows keep numpy's sum, which then costs less
    than the column calls (the crossover measured for d = 3..7).  The one
    caller sums squares, never -0.0, so no numpy version's choice of a
    starting zero (+0.0 or -0.0) can change a bit."""
    d = p.shape[-1]
    if not 2 <= d < _SHORT_ROW or out.size < 4 * d * d:
        p.sum(axis=-1, out=out)
        return
    np.add(p[..., 0], p[..., 1], out=out)
    for k in range(2, d):
        out += p[..., k]


def _mean(arr: np.ndarray, axis=None, keepdims: bool = False):
    """``arr.mean(axis, keepdims=keepdims)`` of a float array, with the same
    bits: ``np.mean`` is this ``add.reduce`` and a true divide by the count,
    behind some microseconds of Python that the per-step callers skip."""
    count = arr.size if axis is None else arr.shape[axis]
    return np.add.reduce(arr, axis=axis, keepdims=keepdims) / count


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


def _pieces(n_rows: int, row_cells: int, render):
    """``render(lo, hi)`` for consecutive row ranges of ``n_rows``, in row order.

    Each range holds about ``_PIECE_CELLS`` cells (at least one row of
    ``row_cells``).  Piece i is rendered by process i mod P, where P is
    ``min(pieces, usable_cpus())``: process 0 is the caller and the others
    are forked children, so ``render`` may be any closure.  P is 1, and
    nothing forks, without ``os.fork`` or while other threads run.
    ``render`` must return deterministic bytes; they are then the same for
    every P.  A caller flushes its open files first (:func:`_write_csv`).
    """
    bounds = _row_ranges(n_rows, row_cells, _PIECE_CELLS)
    procs = min(len(bounds), usable_cpus())
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
                data = render(lo, hi)
                out.write(len(data).to_bytes(8, "little"))
                out.write(data)
        status = 0
    finally:
        os._exit(status)


def _receive_piece(reader) -> bytes:
    size = int.from_bytes(_read_exact(reader, 8), "little")
    return _read_exact(reader, size)


def _read_exact(reader, n: int) -> bytes:
    data = reader.read(n)
    if len(data) != n:
        raise OSError("a formatter process ended before sending its piece")
    return data


def parse_vector(text: str):
    return [float(tok) for tok in text.split()]


def format_metadata(items: dict) -> str:
    """Render an ordered mapping as ``key=value`` lines.

    The one renderer of every ``key=value`` artifact: booleans (numpy's
    too) become ``true``/``false``, floats get round-trip precision,
    sequences become space-joined floats, and everything else is rendered
    with ``str``.
    """
    lines = []
    for key, value in items.items():
        if isinstance(value, (bool, np.bool_)):
            rendered = "true" if value else "false"
        elif isinstance(value, (float, np.floating)):
            rendered = fmt_float(value)
        elif isinstance(value, (list, tuple, np.ndarray)):
            rendered = fmt_vector(value)
        else:
            rendered = str(value)
        lines.append(f"{key}={rendered}")
    return "\n".join(lines) + "\n"


def write_metadata(path, items: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(format_metadata(items))


def parse_metadata(text: str) -> dict:
    """Inverse of :func:`format_metadata` (values stay strings; a key may appear once)."""
    out: dict[str, str] = {}
    first: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if first.setdefault(key, lineno) != lineno:
            raise ConfigurationError(
                f"line {lineno}: duplicate key {key!r} (first on line {first[key]})")
        out[key] = value.strip()
    return out
