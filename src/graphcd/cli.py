"""Command-line front end.

Subcommands:

    curvature   per-vertex curvature table for a dimension
    verify      sweep one semigroup inequality/identity over a function corpus
    heat        evaluate P_t f for one function and time

Exit codes: 0 success, 2 usage or input error, 3 verified violation,
1 internal error.  Reports are JSON with floats rendered as %.12e and
stable key order, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .curvature import CurvatureInternalError, _check_dimension, curvature_all
from .graph import (
    GraphFormatError,
    csv_text,
    load_graph,
    load_vertex_function,
    save_vertex_function,
)
from .semigroup import _propagator_for, heat_apply
from .verify import (
    _dimension_for,
    _sweep_propagator,
    find_violations,
    run_verification,
    function_corpus,
)

_INEQUALITY_BY_FLAG = {
    "gradient": "gradient_estimate",
    "variance": "variance_bound",
    "cdn": "cdn_bound",
    "variance-identity": "variance_identity",
    "gamma2-identity": "gamma2_identity",
}


# ---------------------------------------------------------------------------
# deterministic report text
# ---------------------------------------------------------------------------

def _char_words(*chars):
    """uint32 words of four ASCII characters each: word i holds chars[0][i],
    ..., chars[3][i] (arrays of codes, or one code for every word), in that
    order in memory."""
    return np.stack(np.broadcast_arrays(*chars), axis=1).astype(np.uint8).view(np.uint32).ravel()


# %.12e text of a float x with |x| = M * 10**(e - 12), M a 13-digit integer,
# as five words: sign, first digit, "." and second digit, looked up by the
# sign and M's first two digits; two 4-digit words; 3 digits and "e"; and the
# exponent's sign and 2 digits with a space after them.  A space stands for
# the "+" sign, so that split() separates the texts and drops it.
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")  # row i: digits of i
_LEAD = _char_words(np.repeat([ord(" "), ord("-")], 100), np.tile(_DIGITS[:100, 2], 2), ord("."),
                    np.tile(_DIGITS[:100, 3], 2))
_QUAD = _char_words(*_DIGITS.T)
_TRIPLE_E = _char_words(*_DIGITS[:1000, 1:].T, ord("e"))
# e in [_E_MIN, _E_MAX] is the range in which |x| * 10**(12 - e) takes at
# most two steps, each by an exact power of ten, 10**0 to 10**22
_E_MIN, _E_MAX = 12 - 44, 12 + 44
_e = np.arange(_E_MIN, _E_MAX + 1)
_EXP = _char_words(np.where(_e < 0, ord("-"), ord("+")), *_DIGITS[abs(_e), 2:].T, ord(" "))
# the two steps of 10**(12 - e), for e = _E_MAX, ..., _E_MIN: a factor to
# multiply by, then one to divide by, each 1 or an exact power of ten
_k = 12 - _e[::-1]
_k1 = np.clip(_k, -22, 22)
_p = np.array([10**i for i in range(23)], dtype=np.float64)
_k2 = _k - _k1
_MUL1, _DIV1 = np.where(_k1 > 0, _p[abs(_k1)], 1.0), np.where(_k1 < 0, _p[abs(_k1)], 1.0)
_MUL2, _DIV2 = np.where(_k2 > 0, _p[abs(_k2)], 1.0), np.where(_k2 < 0, _p[abs(_k2)], 1.0)
del _DIGITS, _e, _k, _k1, _k2, _p
# |s - |x| * 10**(12 - e)| <= 2u s < 2.3e-3 after two correctly rounded
# steps, u = 2**-53 and s < 1e13, so rint(s) is the correctly rounded M
# wherever s is farther than this from a half-integer
_TIE_MARGIN = 1 / 128


def _certain_mantissas(x):
    """(m, e, certain) of a 1-d float64 array x: |x| = m * 10**(e - 12)
    rounded to 13 significant digits, with m an integer in [1e12, 1e13),
    wherever certain is True.

    m is rint(s) for s = |x| * 10**(12 - e), e = floor(log10|x|), and
    certain says that this rounding is the correctly rounded one: s is in
    [1e12, 1e13) before rounding, rint(s) < 1e13 and s is farther than
    _TIE_MARGIN from a half-integer.  That rules out 0, -0, subnormals,
    inf, nan, |x| outside [1e-32, 1e57), near-ties and an e one too small.
    An e one too large passes only for s within 2.3e-3 above 1e12, where
    the exact s / 10 rounds up to 10**12 as well.  Where certain is False,
    m is 1e12 and e is some exponent in range, for the caller to overwrite.
    """
    a = np.abs(x)
    with np.errstate(all="ignore"):  # 0, inf and nan are not certain
        e = np.floor(np.log10(a))
        in_range = (e >= _E_MIN) & (e <= _E_MAX)
        e = np.where(in_range, e, 0).astype(np.intp)
        i = _E_MAX - e
        s = a * _MUL1[i] / _DIV1[i] * _MUL2[i] / _DIV2[i]
        m = np.rint(s)
        certain = in_range & (s >= 1e12) & (m < 1e13) & (np.abs(s - m) < 0.5 - _TIE_MARGIN)
    return np.where(certain, m, 1e12), e, certain


def _e12_texts(x):
    """[f"{v:.12e}" for v in x] of a 1-d float64 array x, formatted in bulk:
    by table lookups where _certain_mantissas is certain, by Python where
    it is not."""
    m, e, certain = _certain_mantissas(x)
    q, r3 = np.divmod(m.astype(np.int64), 1000)
    q, r2 = np.divmod(q, 10000)
    q, r1 = np.divmod(q, 10000)
    words = np.empty((x.size, 5), dtype=np.uint32)
    words[:, 0] = _LEAD[np.where(x < 0, q + 100, q)]
    words[:, 1] = _QUAD[r1]
    words[:, 2] = _QUAD[r2]
    words[:, 3] = _TRIPLE_E[r3]
    words[:, 4] = _EXP[e - _E_MIN]
    texts = words.tobytes().decode("ascii").split()
    slow = np.flatnonzero(~certain)
    for j, v in zip(slow.tolist(), x[slow].tolist()):
        texts[j] = f"{v:.12e}"
    return texts


def _float_texts(values):
    """(CSV texts, JSON texts) of a 1-d array or a sequence of floats.

    A finite float is written %.12e in both.  inf, -inf and nan are those
    words (Python's own %e text for them): bare in CSV, strings in JSON.
    """
    values = np.asarray(values, dtype=np.float64)
    texts = _e12_texts(values)
    finite = np.isfinite(values)
    if finite.all():
        return texts, texts
    return texts, [t if ok else json.dumps(t) for t, ok in zip(texts, finite.tolist())]


def _emit_json(obj, out):
    """JSON with floats as _float_texts writes them and insertion-order keys."""
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


def _percent_escaped(text):
    """text with each % doubled, to stand for itself in a %-template."""
    return text.replace("%", "%%")


def _csv_field(text):
    """text, not empty, quoted as the csv module quotes a field of a row
    (a row of one empty field would be quoted where a longer row's is not)."""
    return csv_text((text,), ())[:-1]


def _stream_records(report, json_fh, csv_fh):
    """Write the records of a VerificationReport to json_fh as the members of
    a JSON list and, unless csv_fh is None, to csv_fh as CSV with its header.

    One function's (time x vertex) block is written at a time.  Its floats
    are formatted once, by _float_texts, and fill one %-template per file
    that holds the block's keys, each escaped once per function id, time
    and vertex.
    """
    t_csv, t_json = _float_texts(report.times)
    json_tails = [
        ', "vertex": %s, "lhs": %%s, "rhs": %%s, "slack": %%s}' % _percent_escaped(json.dumps(v))
        for v in report.vertices
    ]
    csv_tails = ["%s,%%s,%%s,%%s\n" % _percent_escaped(_csv_field(v)) for v in report.vertices]
    if csv_fh is not None:
        csv_fh.write(csv_text(("function", "t", "vertex", "lhs", "rhs", "slack"), ()))
    for i, fid in enumerate(report.function_ids):
        values = np.stack((report.lhs[i], report.rhs[i], report.slack[i]), axis=-1)
        texts, json_texts = _float_texts(values.ravel())
        # a record is its head {"function": ..., "t": ... and its vertex's tail
        f = _percent_escaped(json.dumps(fid))
        heads = [f'{{"function": {f}, "t": {t}' for t in t_json]
        template = ", ".join(h + (", " + h).join(json_tails) for h in heads)
        json_fh.write((", " if i else "") + template % tuple(json_texts))
        if csv_fh is not None:
            f = _percent_escaped(_csv_field(fid))
            heads = [f"{f},{t}," for t in t_csv]
            template = "".join(h + h.join(csv_tails) for h in heads)
            csv_fh.write(template % tuple(texts))


def _require_finite(labels, values, what):
    """ValueError naming the first label whose value is inf or nan, so that
    no report holding one is written with exit 0."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{what} at vertex {labels[bad[0]]!r} not finite: {values[bad[0]]}")


def _write(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _graph_name(path):
    base = os.path.basename(path)
    stem, _, _ = base.partition(".")
    return stem or base


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_curvature(args) -> int:
    with open(args.graph) as fh:
        g = load_graph(fh.read())
    n = _check_dimension(args.dimension)
    if args.format == "csv" and args.witness:
        raise ValueError("--witness is only available with --format json")

    results = curvature_all(g, n)
    rows = sorted((g.labels[r.vertex], r) for r in results)
    labels = [label for label, _ in rows]
    kappas = np.array([r.kappa for _, r in rows])
    _require_finite(labels, kappas, "kappa")
    if args.format == "csv":
        texts, _ = _float_texts(kappas)
        _write(csv_text(("vertex", "kappa"), zip(labels, texts)), args.output)
        return 0

    all_labels = np.array(g.labels, dtype=object)
    report_rows = []
    for label, r in rows:
        row = {"vertex_label": label, "kappa": r.kappa}
        if args.witness:
            # the witness on the 2-ball, center (value 0) included, in vertex-id order
            ball = np.append(r.support, r.vertex)
            order = np.argsort(ball)
            ball_labels, values = all_labels[ball[order]], np.append(r.values, 0.0)[order]
            _require_finite(ball_labels, values, f"witness of {label!r}")
            row["witness"] = dict(zip(ball_labels, values.tolist()))
        report_rows.append(row)
    report = {
        "graph_name": _graph_name(args.graph),
        "dimension": n,
        "rows": report_rows,
        "min_kappa": min(r.kappa for r in results),
        "tool_version": __version__,
    }
    _write(dumps_report(report), args.output)
    return 0


def _build_corpus(g, spec, dimension):
    if spec is None:
        return function_corpus(g, dimension=dimension)
    if spec == "witnesses":
        return function_corpus(
            g,
            dimension=dimension,
            random_count=0,
            include_constant=False,
            include_indicators=False,
        )
    if spec.startswith("random:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("--functions random takes the form random:<seed>:<count>")
        seed, count = int(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("--functions random count must be >= 1")
        return function_corpus(
            g,
            random_count=count,
            seed=seed,
            include_constant=False,
            include_indicators=False,
            include_witnesses=False,
        )
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        with open(path) as fh:
            f = load_vertex_function(fh.read(), g)
        return [(f"file:{os.path.basename(path)}", f)]
    raise ValueError(f"unknown --functions specification {spec!r}")


def cmd_verify(args) -> int:
    if (args.output is not None and args.csv is not None
            and os.path.realpath(args.output) == os.path.realpath(args.csv)):
        raise ValueError(f"--output and --csv name the same file {args.csv!r}")
    with open(args.graph) as fh:
        g = load_graph(fh.read())
    name = _INEQUALITY_BY_FLAG[args.inequality]

    if args.K.strip() == "auto":
        K = "auto"
    else:
        try:
            K = float(args.K)
        except ValueError:
            raise ValueError(f"cannot parse --K {args.K!r}") from None
        if not math.isfinite(K):
            raise ValueError(f"--K must be finite or 'auto', got {args.K!r}")

    n = _dimension_for(name, None if args.n is None else _check_dimension(args.n))

    try:
        times = [float(tok) for tok in args.times.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"cannot parse --times {args.times!r}") from None
    if not times or any(not (t > 0) or not math.isfinite(t) for t in times):
        raise ValueError("--times needs a comma list of positive reals")

    functions = _build_corpus(g, args.functions, math.inf if n is None else n)

    sd = _sweep_propagator(g, name, K, n, times, len(functions))
    report = run_verification(g, sd, name, K, times, functions, n=n)
    # the report object around "records", split at it: the head without its
    # closing "}\n", the tail without its opening "{"
    head = dumps_report({
        "inequality": report.inequality_name,
        "K": report.K,
        "n": report.n,
        "graph": _graph_name(args.graph),
    })[:-2]
    tail = dumps_report({
        "min_slack": report.min_slack,
        "quadrature_error": report.quadrature_error_estimate,
        "tool_version": __version__,
    })[1:]
    json_fh = csv_fh = None
    try:
        json_fh = sys.stdout if args.output is None else open(args.output, "w")
        csv_fh = None if args.csv is None else open(args.csv, "w")
        json_fh.write(head + ', "records": [')
        _stream_records(report, json_fh, csv_fh)
        json_fh.write("], " + tail)
    finally:
        for fh in (json_fh, csv_fh):
            if fh is not None and fh is not sys.stdout:
                fh.close()

    violations = find_violations(report)
    if violations:
        for r in violations[:20]:
            print(
                f"violation: function={r.function_id} t={r.t} vertex={r.vertex} "
                f"slack={r.slack:.6e}",
                file=sys.stderr,
            )
        if len(violations) > 20:
            print(f"... and {len(violations) - 20} more", file=sys.stderr)
        return 3
    return 0


def cmd_heat(args) -> int:
    with open(args.graph) as fh:
        g = load_graph(fh.read())
    with open(args.f) as fh:
        f = load_vertex_function(fh.read(), g)
    t = float(args.t)
    if not 0 <= t < math.inf:
        raise ValueError(f"--t must be finite and >= 0, got {t}")
    sd = _propagator_for(g, t, 1)
    result = heat_apply(sd, g, t, f)
    _require_finite(g.labels, result, "P_t f")
    _write(save_vertex_function(g, result), args.output)
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
    p.add_argument("--inequality", required=True, choices=sorted(_INEQUALITY_BY_FLAG))
    p.add_argument("--K", default="auto", help="real constant or 'auto' (min curvature)")
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
    try:
        return args.func(args)
    except CurvatureInternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:
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
