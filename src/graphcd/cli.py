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
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .curvature import CurvatureInternalError, curvature_all
from .graph import (
    GraphFormatError,
    csv_text,
    load_graph,
    load_vertex_function,
    save_vertex_function,
)
from .semigroup import decompose, heat_apply
from .verify import (
    QuadratureSpec,
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

def _float_texts(values):
    """(CSV texts, JSON texts) of a sequence of floats.

    A finite float is written %.12e in both.  inf, -inf and nan are those
    words (Python's own %e text for them): bare in CSV, strings in JSON.
    """
    texts = [f"{x:.12e}" for x in values]
    if all(map(math.isfinite, values)):
        return texts, texts
    return texts, [t if math.isfinite(x) else json.dumps(t) for x, t in zip(values, texts)]


class _JsonText(str):
    """Text that is already JSON; _emit_json copies it as it is."""


def _emit_json(obj, out):
    """JSON with floats as _float_texts writes them and insertion-order keys."""
    if obj is None:
        out.append("null")
    elif isinstance(obj, _JsonText):
        out.append(obj)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, float):
        out.append(_float_texts([obj])[1][0])
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


def _parse_dimension(token):
    try:  # float() reads inf and infinity too
        n = float(token)
    except ValueError:
        raise ValueError(f"cannot parse dimension {token!r}") from None
    if not n > 0:
        raise ValueError(f"dimension must be positive, got {token}")
    return n


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_curvature(args) -> int:
    with open(args.graph) as fh:
        g = load_graph(fh.read())
    n = _parse_dimension(args.dimension)
    if args.format == "csv" and args.witness:
        raise ValueError("--witness is only available with --format json")

    results = curvature_all(g, n)
    rows = sorted((g.labels[r.vertex], r) for r in results)
    labels = [label for label, _ in rows]
    kappas = [r.kappa for _, r in rows]
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

    n = None
    if args.n is not None:
        n = _parse_dimension(args.n)
    if name == "cdn_bound" and n is None:
        raise ValueError("--inequality cdn requires --n")

    try:
        times = [float(tok) for tok in args.times.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"cannot parse --times {args.times!r}") from None
    if not times or any(not (t > 0) or not math.isfinite(t) for t in times):
        raise ValueError("--times needs a comma list of positive reals")

    quad = QuadratureSpec(panels=args.panels)
    corpus_dim = n if (name == "cdn_bound" and n is not None) else math.inf
    functions = _build_corpus(g, args.functions, corpus_dim)

    sd = decompose(g)
    report = run_verification(g, sd, name, K, times, functions, n=n, quad=quad)
    t_csv, t_json = _float_texts(report.times)
    (lhs, lhs_json), (rhs, rhs_json), (slack, slack_json) = (
        _float_texts(a.ravel().tolist()) for a in (report.lhs, report.rhs, report.slack)
    )
    keys = itertools.product(
        [json.dumps(fid) for fid in report.function_ids],
        t_json,
        [json.dumps(label) for label in report.vertices],
    )
    records = ", ".join(
        f'{{"function": {f}, "t": {t}, "vertex": {v}, "lhs": {a}, "rhs": {b}, "slack": {c}}}'
        for (f, t, v), a, b, c in zip(keys, lhs_json, rhs_json, slack_json)
    )
    payload = {
        "inequality": report.inequality_name,
        "K": report.K,
        "n": report.n,
        "graph": _graph_name(args.graph),
        "records": _JsonText(f"[{records}]"),
        "min_slack": report.min_slack,
        "quadrature_error": report.quadrature_error_estimate,
        "tool_version": __version__,
    }
    _write(dumps_report(payload), args.output)

    if args.csv is not None:
        keys = itertools.product(report.function_ids, t_csv, report.vertices)
        rows = ((*key, a, b, c) for key, a, b, c in zip(keys, lhs, rhs, slack))
        _write(csv_text(("function", "t", "vertex", "lhs", "rhs", "slack"), rows), args.csv)

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
    sd = decompose(g)
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
    p.add_argument("--n", default=None, help="dimension for cdn")
    p.add_argument("--times", required=True, help="comma list of positive times")
    p.add_argument(
        "--functions",
        default=None,
        help="random:<seed>:<count> | file:<path> | witnesses (default: full corpus)",
    )
    p.add_argument("--panels", type=int, default=256)
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
