"""Command-line front end.

Subcommands:

    curvature   per-vertex curvature table for a dimension
    verify      sweep one semigroup inequality/identity over a function corpus
    heat        evaluate P_t f for one function and time

Exit codes: 0 success, 2 usage or input error, 3 verified violation,
1 internal error.  Reports are JSON with floats rendered as %.12e and
stable key order, so identical invocations produce byte-identical output.
Files are read and reports written as UTF-8, whatever the locale: as bytes,
straight to the binary file of --output, --csv or stdout.  Every subcommand
opens its outputs, and checks every flag but verify's --functions, before
it reads the graph.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import re
import stat
import sys
import types

import numpy as np

from . import __version__
from .curvature import _check_dimension, curvature_all, min_curvature
from .graph import (
    GraphFormatError,
    csv_text,
    label_order,
    load_graph,
    load_vertex_function,
    save_vertex_function,
)
from .semigroup import _propagator_for, heat_apply
from .verify import (
    CHECKS, _check_of, _distinct_times, _sweep_propagator, _violation_indices, function_corpus,
    random_functions, run_verification, witness_functions)


# ---------------------------------------------------------------------------
# deterministic report text
# ---------------------------------------------------------------------------

def _char_words(*chars):
    """uint32 words of four bytes each: word i holds chars[0][i], ...,
    chars[3][i] (arrays of byte values, or one value for every word), in
    that order in memory."""
    return np.stack(np.broadcast_arrays(*chars), axis=1).astype(np.uint8).view(np.uint32).ravel()


# Report text is laid out in byte grids whose rows are padded with _PAD,
# a byte that no UTF-8 text contains, and written with every _PAD deleted.
_PAD = b"\xff"
# bytes of a float's slot: its widest text, -1.000000000000e-100
_SLOT = 20
# bytes a block's grid may take (a grid holds one record at least)
_BLOCK_BYTES = 1 << 20

# %.12e text of a float x with |x| = M * 10**(e - 12), M 0 or a 13-digit integer,
# as five words: sign, first digit, "." and second digit, looked up by the
# sign and M's first two digits; two 4-digit words; 3 digits and "e"; and the
# exponent's sign and 2 digits with a _PAD after them.  A _PAD stands for
# the "+" sign.
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")  # row i: digits of i
_LEAD = _char_words(np.repeat([_PAD[0], ord("-")], 100), np.tile(_DIGITS[:100, 2], 2), ord("."),
                    np.tile(_DIGITS[:100, 3], 2))
_QUAD = _char_words(*_DIGITS.T)
_TRIPLE_E = _char_words(*_DIGITS[:1000, 1:].T, ord("e"))
# e in [_E_MIN, _E_MAX], the exponents of two digits
_E_MIN, _E_MAX = -99, 99
_e = np.arange(_E_MIN, _E_MAX + 1)
_EXP = _char_words(np.where(_e < 0, ord("-"), ord("+")), *_DIGITS[abs(_e), 2:].T, _PAD[0])
# _SCALE[e - _E_MIN] is 10**(12 - e) correctly rounded (made from exact ints)
_SCALE = np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in (12 - _e).tolist()])
del _DIGITS, _e
# |s - |x| * 10**(12 - e)| <= 2u s < 2.3e-3 after two correct roundings,
# _SCALE's and the product's, u = 2**-53 and s < 1e13, so rint(s) is the
# correctly rounded M wherever s is farther than _TIE_MARGIN = 3.9e-3 from
# a half-integer
_TIE_MARGIN = 1 / 256
# e in [_EXACT_E_MIN, _EXACT_E_MAX]: _SCALE's entry, at most 10**22 = 2**22 * 5**22
# with 5**22 < 2**53, is exact, so the product's rounding error is s's only one
_EXACT_E_MIN, _EXACT_E_MAX = -10, 12
# Veltkamp's splitter 2**27 + 1: a double v is hi + lo, each of 26 bits or fewer
_SPLITTER = 134217729.0


def _split(v):
    """(hi, lo) with hi + lo = v exactly and hi * hi, hi * lo, lo * lo exact."""
    c = _SPLITTER * v
    hi = c - (c - v)
    return hi, v - hi


def _product_error(a, b, p):
    """a * b - p exactly, for p the rounded a * b (Dekker's two-product; no
    product of the halves underflows or overflows in the ranges used)."""
    ah, al = _split(a)
    bh, bl = _split(b)
    return al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _certain_mantissas(x):
    """(m, e, certain) of a 1-d float64 array x: |x| = m * 10**(e - 12)
    rounded to 13 significant digits, with m an integer in [1e12, 1e13)
    (m = e = 0 for 0 and -0), wherever certain is True.

    m is rint(s) for s = |x| * _SCALE[e - _E_MIN], e = floor(log10|x|),
    and certain says that this rounding is the correctly rounded one: x is
    0 or -0, or s >= 1e12, rint(s) <= 1e13 and s is farther than
    _TIE_MARGIN from a half-integer.  That rules out subnormals, inf, nan,
    |x| outside [1e-99, 1e100) and near-ties.  An e one too large passes
    only for s within 2.3e-3 above 1e12, where the exact s / 10 rounds up
    to 10**12 as well, and one too small only where s rounds to 1e13.

    A near-tie with e in [_EXACT_E_MIN, _EXACT_E_MAX] and s < 1e13 (so
    that floor(s) + 1 <= 1e13) is rounded exactly:
    s + lo is |x| * 10**(12 - e) exactly, lo the product's error, and with
    h = floor(s) + 1/2 the difference s - h is exact (Sterbenz's lemma), a
    multiple of s's ulp, and so larger than |lo| unless it is 0.  Its sign
    decides, else lo's, else (an exact tie) the even neighbour wins, as in
    Python's own formatting.  An m of 1e13 is 1e12 at e + 1 (uncertain at
    e = _E_MAX).  Where certain is False, m is 1e12 and e is some exponent
    in range, for the caller to overwrite.
    """
    a = np.abs(x)
    with np.errstate(all="ignore"):  # 0, inf and nan have no finite log10
        e = np.floor(np.log10(a))
        in_range = (e >= _E_MIN) & (e <= _E_MAX)
        e = np.where(in_range, e, 0).astype(np.intp)
        s = a * _SCALE[e - _E_MIN]
        m = np.rint(s)
        scaled = in_range & (s >= 1e12) & (m <= 1e13)
        certain = scaled & (np.abs(s - m) < 0.5 - _TIE_MARGIN)
        tie = np.flatnonzero(scaled & ~certain)
        tie = tie[(e[tie] >= _EXACT_E_MIN) & (e[tie] <= _EXACT_E_MAX) & (s[tie] < 1e13)]
        p = s[tie]
        lo = _product_error(a[tie], _SCALE[e[tie] - _E_MIN], p)
        n = np.floor(p)
        d = p - (n + 0.5)
        m[tie] = n + ((d > 0) | (d == 0) & ((lo > 0) | (lo == 0) & (n % 2 == 1)))
        certain[tie] = True
        carry = np.flatnonzero(m == 1e13)
        m[carry] = 1e12
        certain[carry] &= e[carry] < _E_MAX
        e[carry] += certain[carry]
        certain |= a == 0
    return np.where(certain, m, 1e12), e, certain


def _padded(texts, width=None):
    """(len(texts), width) uint8 rows: the UTF-8 bytes of each text padded
    with _PAD, to the longest text's length if width is None."""
    data = [t.encode() for t in texts]
    if width is None:
        width = max(map(len, data), default=0)
    rows = b"".join(d.ljust(width, _PAD) for d in data)
    return np.frombuffer(rows, np.uint8).reshape(len(data), width)


def _float_slots(values):
    """(CSV slots, JSON slots) of a 1-d array or a sequence of floats: one
    _SLOT-byte row per float, its report text padded with _PAD.

    A finite float is written %.12e in both, and where every float is
    finite the two are one array.  inf, -inf and nan are those words
    (Python's own %e text for them): bare in CSV, strings in JSON.  The
    %.12e text is made by table lookups where _certain_mantissas is
    certain, 0.0 and -0.0 among them, and by Python for the rest.
    """
    x = np.asarray(values, dtype=np.float64)
    m, e, certain = _certain_mantissas(x)
    # the digit groups by floor division and a multiply-subtract: numpy's
    # // by a constant is several times faster than its divmod
    q3 = m.astype(np.int64)
    q2 = q3 // 1000
    q1 = q2 // 10000
    q0 = q1 // 10000
    words = np.empty((x.size, 5), dtype=np.uint32)
    words[:, 0] = _LEAD[q0 + 100 * np.signbit(x)]
    words[:, 1] = _QUAD[q1 - q0 * 10000]
    words[:, 2] = _QUAD[q2 - q1 * 10000]
    words[:, 3] = _TRIPLE_E[q3 - q2 * 1000]
    words[:, 4] = _EXP[e - _E_MIN]
    slots = words.view(np.uint8)
    slow = np.flatnonzero(~certain)
    floats = x[slow].tolist()
    texts = [f"{v:.12e}" for v in floats]
    slots[slow] = _padded(texts, _SLOT)
    special = [j for j, v in enumerate(floats) if not math.isfinite(v)]
    if not special:
        return slots, slots
    json_slots = slots.copy()
    json_slots[slow[special]] = _padded([json.dumps(texts[j]) for j in special], _SLOT)
    return slots, json_slots


def _emit_json(obj, out):
    """JSON with floats as _float_slots writes them and insertion-order keys."""
    if obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, float):
        text = f"{obj:.12e}"
        out.append(text if math.isfinite(obj) else json.dumps(text))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _emit_json(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit_json(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_report(obj) -> str:
    out = []
    _emit_json(obj, out)
    return "".join(out) + "\n"


def _frame(before, key, after):
    """(head, tail): the text of dumps_report({**before, key: [...], **after})
    before and after the list's members (before and after are not empty)."""
    head = dumps_report(before)[:-2]  # without its closing "}\n"
    tail = dumps_report(after)[1:]    # without its opening "{"
    return f"{head}, {json.dumps(key)}: [", "], " + tail


class _Rows(list):
    """A file for csv.writer that keeps each row it writes as an item: the
    writer hands each row to write() whole."""

    write = list.append


def _csv_fields(texts):
    """Each text, not empty, quoted as the csv module quotes a field of a
    row (a row of one empty field would be quoted where a longer row's is
    not), through one writer."""
    rows = _Rows()
    csv.writer(rows, lineterminator="").writerows((t,) for t in texts)
    return rows


def _blocks(shape, width):
    """Index tuples of slices that cut an array of the given shape, in
    report order, into blocks whose grids of width-byte rows stay within
    _BLOCK_BYTES: runs of whole subarrays along the first axis where one
    fits, else each subarray's blocks in turn (a record at least).  Every
    block's shape is the first's, or the first's with fewer along the one
    axis cut before its whole axes, so its rows in row order are a prefix
    of the first block's."""
    n = max(1, _BLOCK_BYTES // width)  # records a block may hold
    size = math.prod(shape[1:])        # records of a subarray
    if n >= size:
        k = n // size
        rest = (slice(None),) * (len(shape) - 1)
        yield from ((slice(i, i + k), *rest) for i in range(0, shape[0], k))
    else:
        yield from ((slice(i, i + 1), *index)
                    for i in range(shape[0]) for index in _blocks(shape[1:], width))


class _KeptGrid:
    """A file's byte grid, kept for all the blocks of a report: a bytearray
    the size of the first block's grid, each later block's grid a view of a
    prefix of it (_blocks).  A part is written into the grid only where it
    differs from what the rows hold: bytes, alike in every row, once; a
    column (table, axis), whose table has a row for each record index
    along axis, when the block's slice along axis changes; and a uint8
    array, the block's own (it broadcasts to (*block, its width)), in every
    block.  Parts keep their place and width from block to block.  A
    column is skipped only while its slice stays the same, in the later
    blocks of a run along a later axis, and none of those is larger than
    the run's first, which wrote it: so the rows still hold it."""

    def __init__(self, block, parts):
        self.widths = [len(p) if isinstance(p, bytes) else
                       (p[0] if isinstance(p, tuple) else p).shape[-1] for p in parts]
        self.buffer = bytearray(math.prod(block) * sum(self.widths))
        self.held = [None] * len(parts)  # each part's key as last written

    def fill(self, block, index, parts):
        """The grid of the block at index, a view of the buffer, its parts
        written where they change."""
        grid = np.ndarray((*block, sum(self.widths)), np.uint8, self.buffer)
        at = 0
        for j, (part, w) in enumerate(zip(parts, self.widths)):
            key = None
            if isinstance(part, bytes):
                key, part = (), np.frombuffer(part, np.uint8)
            elif isinstance(part, tuple):
                table, axis = part
                key = index[axis]
                part = table[key].reshape(-1, *(1,) * (len(block) - 1 - axis), w)
            if key is None or key != self.held[j]:
                grid[..., at:at + w] = part
                self.held[j] = key
            at += w
        return grid


def _write_grid(fh, grid, cut):
    """Write the text of grid, a uint8 array or a view of a bytearray's
    prefix (its base), to the binary file fh, every _PAD deleted, less its
    first cut bytes."""
    buffer = grid.base if isinstance(grid.base, bytearray) else grid.tobytes()
    text = (buffer if grid.nbytes == len(buffer) else buffer[:grid.nbytes]).translate(None, _PAD)
    fh.write(text[cut:] if cut else text)


def _write_blocks(shape, width, grids, lists):
    """Write the records of an array of the given shape a block at a time
    (_blocks) through one _KeptGrid per file: grids(index) yields (binary
    file, parts) for each file, in the same order for every block, parts
    (see _KeptGrid) of block index's records in rows no wider than width.
    A record of a file in lists is a JSON list's member, which starts ", ":
    the writer cuts it from the first block's text."""
    kept = []  # by place: a stdout with no binary buffer cannot be a dict key
    for i, index in enumerate(_blocks(shape, width)):
        block = tuple(len(range(n)[s]) for n, s in zip(shape, index))
        for j, (fh, parts) in enumerate(grids(index)):
            if i == 0:
                kept.append(_KeptGrid(block, parts))
            _write_grid(fh, kept[j].fill(block, index, parts), 2 if i == 0 and fh in lists else 0)


def _stream_records(report, json_fh, csv_fh):
    """Write the records of a VerificationReport to json_fh as the members of
    a JSON list and, unless csv_fh is None, to csv_fh as CSV with its header.

    The records are written by _write_blocks, each block laid out as one
    (functions, times, vertices, width) byte grid per file: row (i, j, k)
    is the text of record (i, j, k), made of parts padded with _PAD that
    broadcast over the grid (the function's, the time's and the vertex's
    text, made once for the report, and the record's float slots).
    """
    fids, vertices = report.function_ids, report.vertices
    f_json = _padded([f', {{"function": {json.dumps(f)}, "t": ' for f in fids])
    v_json = _padded([f', "vertex": {json.dumps(v)}, "lhs": ' for v in vertices])
    # at least the row width of each grid
    width = f_json.shape[1] + v_json.shape[1]
    if csv_fh is not None:
        f_csv = _padded([f + "," for f in _csv_fields(fids)])
        v_csv = _padded(["," + v + "," for v in _csv_fields(vertices)])
        width = max(width, f_csv.shape[1] + v_csv.shape[1])
        _write(csv_fh, csv_text(("function", "t", "vertex", "lhs", "rhs", "slack"), ()))
    t_csv, t_json = _float_slots(report.times)
    rhs_key, slack_key, close = b', "rhs": ', b', "slack": ', b"}"
    width += 4 * _SLOT + len(rhs_key + slack_key + close)

    def grids(index):
        values = np.stack([a[index] for a in (report.lhs, report.rhs, report.slack)], -1)
        shape = values.shape[:3]
        # one _float_slots call for both files: formatting is the writer's main cost
        csv_slots, json_slots = (s.reshape(*shape, 3, _SLOT) for s in _float_slots(values.ravel()))
        yield json_fh, ((f_json, 0), (t_json, 1), (v_json, 2),
                        json_slots[..., 0, :], rhs_key, json_slots[..., 1, :],
                        slack_key, json_slots[..., 2, :], close)
        if csv_fh is not None:
            yield csv_fh, ((f_csv, 0), (t_csv, 1), (v_csv, 2),
                           csv_slots[..., 0, :], b",", csv_slots[..., 1, :],
                           b",", csv_slots[..., 2, :], b"\n")

    _write_blocks(report.slack.shape, width, grids, (json_fh,))


def _require_finite(labels, values, what):
    """ValueError naming the first label whose value is inf or nan, so that
    no report holding one is written with exit 0."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{what} at vertex {labels[bad[0]]!r} not finite: {values[bad[0]]}")


def _stdout():
    """stdout's binary file, once its text is flushed; for one with none (an
    io.StringIO), a file whose writes, each whole UTF-8 text, go to it."""
    sys.stdout.flush()
    return sys.stdout.buffer if hasattr(sys.stdout, "buffer") else types.SimpleNamespace(
        write=lambda b: sys.stdout.write(b.decode()))


def _stat(fh):
    """os.fstat of the binary file fh; None for one with no descriptor."""
    with contextlib.suppress(AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return os.fstat(fh.fileno())


@contextlib.contextmanager
def _output(*paths):
    """A context manager of a function that returns the binary files of
    paths, stdout's for None.  All are opened for writing on entry, with no
    truncation, so a path that cannot be opened is refused before the work
    that makes the report, and so are two that are one regular file, by any
    path or hard link, stdout among them (the null device may take both
    reports).  Each is written from byte 0, over the bytes of an earlier
    report: once the function is called, the regular files of paths are cut
    on exit to the bytes this run wrote (stdout's is never cut, others
    cannot be), also if the body raises.  A refused path, or a run that
    fails before the call, changes no earlier file.  If the body raises,
    each file the context created is removed (through a dangling symlink,
    the file and not the link)."""
    created = []
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for p in paths:
                if p is None:
                    files.append(_stdout())
                    continue
                target = None if os.path.exists(p) else os.path.realpath(p)
                fd = os.open(p, os.O_WRONLY | os.O_CREAT, 0o666)
                files.append(stack.enter_context(open(fd, "wb")))
                # only once opened: the realpath of a symlink loop, which the
                # open refuses, is one of its links
                if target is not None:
                    created.append(target)
            regular = [(p, fh, st) for p, fh, st in zip(paths, files, map(_stat, files))
                       if st is not None and stat.S_ISREG(st.st_mode)]
            if len({(st.st_dev, st.st_ino) for _, _, st in regular}) < len(regular):
                first = "stdout" if paths[0] is None else "--output"
                raise ValueError(f"{first} and --csv are the same file {paths[-1]!r}")

            def rewritten():
                for p, fh, _ in regular:
                    if p is not None:
                        stack.callback(fh.truncate)  # at its position: before the file closes
                return files

            yield rewritten
    except BaseException:
        for p in created:
            with contextlib.suppress(OSError):
                os.remove(p)
        raise


def _write(fh, text):
    """Write text to the binary file fh as UTF-8."""
    fh.write(text.encode())


def _graph_name(path):
    base = os.path.basename(path)
    stem, _, _ = base.partition(".")
    return stem or base


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_curvature(args, files) -> int:
    n = _check_dimension(args.dimension)
    if args.format == "csv" and args.witness:
        raise ValueError("--witness is only available with --format json")
    with open(args.graph, encoding="utf-8") as fh:
        g = load_graph(fh)
    # each label as the report writes it, made before the solve's columns are held
    keys = _padded(_csv_fields(g.labels) if args.format == "csv" else map(json.dumps, g.labels))

    columns = curvature_all(g, n)
    order = label_order(g)
    if args.format == "csv":
        head, tail = csv_text(("vertex", "kappa"), ()), ""
        frame = b"", b",", b"\n"
    else:
        head, tail = _frame({"graph_name": _graph_name(args.graph), "dimension": n}, "rows",
                            {"min_kappa": min_curvature(g, n), "tool_version": __version__})
        frame = (b', {"vertex_label": ', b', "kappa": ',
                 b', "witness": {' if args.witness else b"}")
    if args.witness and not np.isfinite(columns.values).all():
        # no report holds a witness value that is inf or nan: the first one,
        # in report order and then in vertex-id order, is named
        bad = ~np.isfinite(columns.values)
        x = next(x for x in order if bad[columns.ball(x)].any())
        vertex, values = _witness_entries(columns, np.array([x]))
        _require_finite([g.labels[y] for y in vertex.tolist()], values,
                        f"witness of {g.labels[x]!r}")

    (fh,) = files()
    _write(fh, head)
    at, cut = 0, 2 if args.format == "json" else 0  # the first JSON row's ", "
    while at < len(order):
        grid, count = _report_rows(order[at:], keys, columns, frame, args.witness)
        _write_grid(fh, grid, cut)
        at, cut = at + count, 0
    _write(fh, tail)
    return 0


def _side_by_side(count, *parts):
    """(count, width) uint8 rows of parts side by side, each bytes or count rows."""
    return np.hstack([np.broadcast_to(np.frombuffer(p, np.uint8), (count, len(p)))
                      if isinstance(p, bytes) else p for p in parts])


def _witness_entries(columns, ids):
    """(vertex ids, values) of the witnesses of the vertices ids in turn, each
    over its 2-ball with its center (value 0), in vertex-id order."""
    size = columns.size[ids]
    at = np.repeat(columns.start[ids] - np.cumsum(size) + size, size) + np.arange(int(size.sum()))
    vertex = np.concatenate([columns.support[at], ids])
    row = np.concatenate([np.repeat(np.arange(len(ids)), size), np.arange(len(ids))])
    order = np.lexsort((vertex, row))
    return vertex[order], np.concatenate([columns.values[at], np.zeros(len(ids))])[order]


def _report_rows(ids, keys, columns, frame, witness):
    """(grid, count): the byte grid of the curvature report's rows of the
    first count vertices of ids, as many as fit in _BLOCK_BYTES (one at
    least).  Row x is its lead, frame's first bytes, keys[x], frame's middle
    bytes, x's kappa and frame's last bytes, then with witness an entry per
    vertex y of x's 2-ball (_witness_entries): keys[y], ": ", y's value and
    ", " ("}}" after the last), a grid row each, after the lead in rows as wide."""
    first, middle, last = frame
    lead_width = len(first) + keys.shape[1] + len(middle) + _SLOT + len(last)
    width = keys.shape[1] + len(b": , ") + _SLOT if witness else lead_width
    per = -(-lead_width // width)  # grid rows per lead
    ids = ids[:max(1, _BLOCK_BYTES // (per * width))]  # at most those that fit with no entries
    size = columns.size[ids] + 1 if witness else np.zeros_like(ids)  # entries per row
    count = max(1, int(np.searchsorted(np.cumsum(per + size), _BLOCK_BYTES // width, "right")))
    ids, size = ids[:count], size[:count]
    # kappa is finite (_solve): its CSV and JSON slots are one
    leads = _side_by_side(count, first, keys[ids], middle, _float_slots(columns.kappa[ids])[0],
                          last, _PAD * (per * width - lead_width))
    if not witness:
        return leads, count
    vertex, values = _witness_entries(columns, ids)
    entries = _side_by_side(len(vertex), keys[vertex], b": ", _float_slots(values)[1], b", ")
    entries[np.cumsum(size) - 1, -2:] = np.frombuffer(b"}}", np.uint8)
    at = np.repeat(np.cumsum(size) - size, per)  # each lead before its row's first entry
    return np.insert(entries, at, leads.reshape(-1, width), axis=0), count


def _build_corpus(g, spec, dimension):
    if spec is None:
        return function_corpus(g, dimension=dimension)
    if spec == "witnesses":
        return witness_functions(g, dimension)
    if spec.startswith("random:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("--functions random takes the form random:<seed>:<count>")
        seed, count = int(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("--functions random count must be >= 1")
        return random_functions(g, seed, count)
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        with open(path, encoding="utf-8") as fh:
            f = load_vertex_function(fh, g)
        return [(f"file:{os.path.basename(path)}", f)]
    raise ValueError(f"unknown --functions specification {spec!r}")


def cmd_verify(args, files) -> int:
    name = next(name for name, check in CHECKS.items() if check.flag == args.inequality)
    if args.K.strip() == "auto":
        K = "auto"
    else:
        try:
            K = float(args.K)
        except ValueError:
            raise ValueError(f"cannot parse --K {args.K!r}") from None
        if not math.isfinite(K):
            raise ValueError(f"--K must be finite or 'auto', got {args.K!r}")

    n = None if args.n is None else _check_dimension(args.n)
    _check_of(name, n)

    try:
        times = [float(tok) for tok in args.times.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"cannot parse --times {args.times!r}") from None
    if not times or any(not (t > 0) or not math.isfinite(t) for t in times):
        raise ValueError("--times needs a comma list of positive reals")
    times = _distinct_times(times)

    with open(args.graph, encoding="utf-8") as fh:
        g = load_graph(fh)
    functions = _build_corpus(g, args.functions, math.inf if n is None else n)
    sd = _sweep_propagator(g, name, K, n, times, len(functions))
    report = run_verification(g, sd, name, K, times, functions, n=n)
    head, tail = _frame({"inequality": report.inequality_name, "K": report.K,
                         "n": report.n, "graph": _graph_name(args.graph)}, "records",
                        {"min_slack": report.min_slack,
                         "quadrature_error": report.quadrature_error_estimate,
                         "tool_version": __version__})
    json_fh, *csv_fh = files()
    _write(json_fh, head)
    _stream_records(report, json_fh, csv_fh[0] if csv_fh else None)
    _write(json_fh, tail)

    # the count, and a record for each of the first 20 only
    violations = _violation_indices(report)
    if violations.size:
        records = report.records
        for i in violations[:20].tolist():
            r = records[i]
            print(
                f"violation: function={r.function_id} t={r.t} vertex={r.vertex} "
                f"slack={r.slack:.6e}",
                file=sys.stderr,
            )
        if violations.size > 20:
            print(f"... and {violations.size - 20} more", file=sys.stderr)
        return 3
    return 0


def cmd_heat(args, files) -> int:
    try:
        t = float(args.t)
    except ValueError:
        raise ValueError(f"cannot parse --t {args.t!r}") from None
    if not 0 <= t < math.inf:
        raise ValueError(f"--t must be finite and >= 0, got {t}")
    with open(args.graph, encoding="utf-8") as fh:
        g = load_graph(fh)
    with open(args.f, encoding="utf-8") as fh:
        f = load_vertex_function(fh, g)
    sd = _propagator_for(g, t, 1)
    result = heat_apply(sd, g, t, f)
    _require_finite(g.labels, result, "P_t f")
    _write(files()[0], save_vertex_function(g, result))
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphcd",
        description="Curvature bounds and heat-semigroup estimates on finite weighted graphs",
    )
    parser.add_argument("--version", action="version", version=f"graphcd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curvature", help="per-vertex curvature table")
    p.add_argument("--graph", required=True, help="graph file path")
    p.add_argument("--dimension", required=True, help="positive real or 'inf'")
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--witness", action="store_true", help="include witness functions")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("verify", help="verify a semigroup inequality or identity")
    p.add_argument("--graph", required=True)
    p.add_argument("--inequality", required=True, choices=sorted(c.flag for c in CHECKS.values()))
    p.add_argument("--K", default="auto", help="real constant or 'auto' (min curvature)")
    # before Python 3.13 argparse takes -1e-3 or -2.5E1 for an option: read what starts
    # like a negative number as a value (-inf does not, so --K still refuses it)
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    p.add_argument("--n", default=None, help="dimension, for cdn only")
    p.add_argument("--times", required=True, help="comma list of positive times")
    p.add_argument(
        "--functions",
        default=None,
        help="random:<seed>:<count> | file:<path> | witnesses (default: full corpus)",
    )
    p.add_argument("--output", default=None)
    p.add_argument("--csv", default=None, help="also write records as CSV")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("heat", help="evaluate P_t f")
    p.add_argument("--graph", required=True)
    p.add_argument("--f", required=True, help="vertex function CSV path")
    p.add_argument("--t", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_heat)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    # each subcommand's outputs (verify's --csv too) are opened before its work
    paths = [args.output] if getattr(args, "csv", None) is None else [args.output, args.csv]
    try:
        with _output(*paths) as files:
            return args.func(args, files)
    except np.linalg.LinAlgError as exc:  # ahead of ValueError, its base class
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is an internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
