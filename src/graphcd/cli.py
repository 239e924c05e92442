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
opens its outputs before its work.
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
    load_graph,
    load_vertex_function,
    save_vertex_function,
)
from .semigroup import _propagator_for, heat_apply
from .verify import (
    CHECKS, _check_of, _sweep_propagator, _violation_indices, function_corpus, random_functions,
    run_verification, witness_functions)


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


def _certain_mantissas(x):
    """(m, e, certain) of a 1-d float64 array x: |x| = m * 10**(e - 12)
    rounded to 13 significant digits, with m an integer in [1e12, 1e13)
    (m = e = 0 for 0 and -0), wherever certain is True.

    m is rint(s) for s = |x| * _SCALE[e - _E_MIN], e = floor(log10|x|),
    and certain says that this rounding is the correctly rounded one: x is
    0 or -0, or s is in [1e12, 1e13) before rounding, rint(s) < 1e13 and s
    is farther than _TIE_MARGIN from a half-integer.  That rules out
    subnormals, inf, nan, |x| outside [1e-99, 1e100), near-ties and an e
    one too small.  An e one too large passes only for s within 2.3e-3
    above 1e12, where the exact s / 10 rounds up to 10**12 as well.  Where
    certain is False, m is 1e12 and e is some exponent in range, for the
    caller to overwrite.
    """
    a = np.abs(x)
    with np.errstate(all="ignore"):  # 0, inf and nan have no finite log10
        e = np.floor(np.log10(a))
        in_range = (e >= _E_MIN) & (e <= _E_MAX)
        e = np.where(in_range, e, 0).astype(np.intp)
        s = a * _SCALE[e - _E_MIN]
        m = np.rint(s)
        certain = in_range & (s >= 1e12) & (m < 1e13) & (np.abs(s - m) < 0.5 - _TIE_MARGIN)
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


def _grid(shape, parts):
    """The uint8 array of shape (*shape, width), a view of a new bytearray
    (its base), whose rows are the parts side by side: each a uint8 array
    that broadcasts to (*shape, its width), or bytes, alike in every row."""
    parts = [np.frombuffer(p, np.uint8) if isinstance(p, bytes) else p for p in parts]
    shape = (*shape, sum(p.shape[-1] for p in parts))
    grid = np.ndarray(shape, np.uint8, bytearray(math.prod(shape)))
    i = 0
    for p in parts:
        grid[..., i:i + p.shape[-1]] = p
        i += p.shape[-1]
    return grid


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
    q, r3 = np.divmod(m.astype(np.int64), 1000)
    q, r2 = np.divmod(q, 10000)
    q, r1 = np.divmod(q, 10000)
    words = np.empty((x.size, 5), dtype=np.uint32)
    words[:, 0] = _LEAD[np.where(np.signbit(x), q + 100, q)]
    words[:, 1] = _QUAD[r1]
    words[:, 2] = _QUAD[r2]
    words[:, 3] = _TRIPLE_E[r3]
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
    fits, else each subarray's blocks in turn (a record at least)."""
    n = max(1, _BLOCK_BYTES // width)  # records a block may hold
    size = math.prod(shape[1:])        # records of a subarray
    if n >= size:
        k = n // size
        rest = (slice(None),) * (len(shape) - 1)
        yield from ((slice(i, i + k), *rest) for i in range(0, shape[0], k))
    else:
        yield from ((slice(i, i + 1), *index)
                    for i in range(shape[0]) for index in _blocks(shape[1:], width))


def _write_blocks(shape, width, grids, lists):
    """Write the records of an array of the given shape a block at a time
    (_blocks), a byte grid per file and block: grids(index) yields (binary
    file, parts) for each file, parts (see _grid) of block index's records
    in rows no wider than width.  A record of a file in lists is a JSON
    list's member, which starts ", ": the writer deletes it from the first."""
    for i, index in enumerate(_blocks(shape, width)):
        block = tuple(len(range(n)[s]) for n, s in zip(shape, index))
        for fh, parts in grids(index):
            grid = _grid(block, parts)
            if i == 0 and fh in lists:
                grid.flat[:2] = _PAD[0]
            fh.write(grid.base.translate(None, _PAD))


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
        fs, ts, vs = index
        values = np.stack([a[index] for a in (report.lhs, report.rhs, report.slack)], -1)
        shape = values.shape[:3]
        # one _float_slots call for both files: formatting is the writer's main cost
        csv_slots, json_slots = (s.reshape(*shape, 3, _SLOT) for s in _float_slots(values.ravel()))
        yield json_fh, (f_json[fs, None, None], t_json[ts, None], v_json[vs],
                        json_slots[..., 0, :], rhs_key, json_slots[..., 1, :],
                        slack_key, json_slots[..., 2, :], close)
        if csv_fh is not None:
            yield csv_fh, (f_csv[fs, None, None], t_csv[ts, None], v_csv[vs],
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


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _graph_name(path):
    base = os.path.basename(path)
    stem, _, _ = base.partition(".")
    return stem or base


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_curvature(args, files) -> int:
    g = load_graph(_read(args.graph))
    n = _check_dimension(args.dimension)
    if args.format == "csv" and args.witness:
        raise ValueError("--witness is only available with --format json")

    columns = curvature_all(g, n)
    rows = sorted(range(g.vertex_count), key=g.labels.__getitem__)  # report order
    labels = [g.labels[x] for x in rows]
    kappa = columns.kappa[rows]
    kappa_slots = _float_slots(kappa)[0]  # finite (_solve): the CSV's and the JSON's
    if args.format == "csv":
        head, tail = csv_text(("vertex", "kappa"), ()), ""
        heads = _padded([f + "," for f in _csv_fields(labels)])
        ends = b"\n"
    else:
        head, tail = _frame({"graph_name": _graph_name(args.graph), "dimension": n}, "rows",
                            {"min_kappa": min_curvature(g, n), "tool_version": __version__})
        heads = _padded([f', {{"vertex_label": {json.dumps(x)}, "kappa": ' for x in labels])
        ends = b"}"
    if args.witness:
        count, width, parts = _witness_rows(g, columns, rows, heads, kappa_slots)
    else:
        count, width = len(rows), heads.shape[1] + _SLOT + len(ends)

        def parts(s):
            return heads[s], kappa_slots[s], ends

    (fh,) = files()
    _write(fh, head)
    _write_blocks((count,), width, lambda index: [(fh, parts(*index))],
                  (fh,) if args.format == "json" else ())
    _write(fh, tail)
    return 0


def _witness_rows(g, columns, rows, heads, kappa_slots):
    """(count, width, parts) for _write_blocks, parts(s) giving the parts of
    the grid rows s: the JSON rows of the vertices rows, with witnesses.

    Row i's text is its lead (its head, its kappa and '"witness": {'), then
    an entry per vertex of its 2-ball, its center (value 0) included, in
    vertex-id order: the vertex's key, its value and ", ", or "}}" after the
    last.  The grid has a row per entry, as wide as the widest entry, and
    before row i's first entry its lead, cut into rows of that width.  A
    witness value that is not finite is a ValueError.
    """
    size = columns.size[rows] + 1
    first = np.cumsum(size) - size      # each row's first entry
    last = first + size - 1
    # the punctured ball, then the center, of each row; then vertex-id order
    at = np.repeat(columns.start[rows] - first, size) + np.arange(int(size.sum()))
    at[last] = 0
    ids, values = columns.support[at], columns.values[at]
    ids[last], values[last] = rows, 0.0
    row = np.repeat(np.arange(len(rows)), size)
    order = np.lexsort((ids, row))
    ids, values = ids[order], values[order]
    bad = ~np.isfinite(values)
    if bad.any():
        i = row[np.argmax(bad)]
        s = slice(first[i], last[i] + 1)
        _require_finite([g.labels[x] for x in ids[s]], values[s],
                        f"witness of {g.labels[rows[i]]!r}")

    # the grid's parts: a key, a float slot and an end, each lead row's
    # width cut into the same three
    keys = _padded([json.dumps(x) + ": " for x in g.labels])
    kw = keys.shape[1]
    width = kw + _SLOT + 2
    leads = _grid((len(rows),), (heads, kappa_slots, b', "witness": {'))
    per = -(-leads.shape[1] // width)   # grid rows per lead
    leads = np.pad(leads, ((0, 0), (0, per * width - leads.shape[1])),
                   constant_values=_PAD[0]).reshape(len(rows) * per, width)
    keys = np.vstack([keys, leads[:, :kw]])
    lead_slots = leads[:, kw:kw + _SLOT]
    ends = np.vstack([_padded([", ", "}}"]), leads[:, kw + _SLOT:]])
    # row i's per lead rows, then its entries
    entry_at = np.arange(len(ids)) + per * (row + 1)
    lead = np.ones(len(ids) + len(leads), dtype=bool)
    lead[entry_at] = False
    key = np.empty(len(lead), dtype=np.intp)   # rows of keys
    key[lead], key[entry_at] = g.vertex_count + np.arange(len(leads)), ids
    end = np.zeros(len(lead), dtype=np.intp)   # rows of ends
    end[lead], end[entry_at[last]] = 2 + np.arange(len(leads)), 1
    grid_values = np.zeros(len(lead))
    grid_values[entry_at] = values

    def parts(s):
        slots = _float_slots(grid_values[s])[1]
        chunk = key[s][lead[s]] - g.vertex_count
        slots[lead[s]] = lead_slots[chunk]
        return keys[key[s]], slots, ends[end[s]]

    return len(lead), width, parts


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
        f = load_vertex_function(_read(path), g)
        return [(f"file:{os.path.basename(path)}", f)]
    raise ValueError(f"unknown --functions specification {spec!r}")


def cmd_verify(args, files) -> int:
    g = load_graph(_read(args.graph))
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
    g = load_graph(_read(args.graph))
    f = load_vertex_function(_read(args.f), g)
    try:
        t = float(args.t)
    except ValueError:
        raise ValueError(f"cannot parse --t {args.t!r}") from None
    if not 0 <= t < math.inf:
        raise ValueError(f"--t must be finite and >= 0, got {t}")
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
