"""The curvature report bytes: pinned on two graphs, equal to a writer
that builds one dict per row on random graphs, and written from the
curvature columns without a CurvatureResult."""

import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import graphcd.curvature
from graphcd import __version__, cli
from graphcd.cli import dumps_report, main
from graphcd.curvature import curvature_all, curvature_at, min_curvature
from graphcd.graph import csv_text, load_graph, save_graph
from graphcd.verify import function_corpus

# labels that JSON or CSV escape, a self-loop at z, and a second sphere
# (y is two steps from most vertices)
GOLD_GRAPH = (
    'vertex a"b 1.1\nvertex a\\b 2.3\nvertex a,1 0.6\nvertex é 1.7\nvertex z 0.9\n'
    'vertex y 1.3\nedge a"b a\\b 1.3\nedge a\\b a,1 2.1\nedge a,1 é 0.7\n'
    'edge é z 3.2\nedge z z 1.9\nedge z y 0.8\nedge a"b é 1.1\n'
)
# the complete graph K4: every 2-ball is the 1-ball, k2 = 0
K4_GRAPH = (
    "vertex p 1.2\nvertex q 0.7\nvertex r 2.5\nvertex s 1.4\nedge p q 1.6\nedge q r 0.9\n"
    "edge r s 2.2\nedge s p 1.3\nedge p r 0.4\nedge q s 1.7\n"
)
GRAPHS = {"gold": GOLD_GRAPH, "k4": K4_GRAPH}
FLAGS = {"csv": ["--format", "csv"], "json": [], "witness": ["--witness"]}
# every value but a center's 0 is at least 1e-2 from zero, so its 13
# digits do not hang on roundoff; VERSION stands for the tool version
GOLDEN = {
    ("gold", "inf", "csv"): (
        'vertex,kappa\n'
        '"a""b",2.634991514136e-02\n'
        '"a,1",-1.425747159955e+00\n'
        'a\\b,2.376178648558e+00\n'
        'y,-1.367521367521e-01\n'
        'z,-1.081433211095e+00\n'
        'é,-2.763315274719e-01\n'
    ),
    ("gold", "inf", "json"): (
        '{"graph_name": "gold", "dimension": "inf", "rows": [{"vertex_label": "a\\"b", "kappa": 2.634991514136e-02}, '
        '{"vertex_label": "a,1", "kappa": -1.425747159955e+00}, '
        '{"vertex_label": "a\\\\b", "kappa": 2.376178648558e+00}, '
        '{"vertex_label": "y", "kappa": -1.367521367521e-01}, '
        '{"vertex_label": "z", "kappa": -1.081433211095e+00}, '
        '{"vertex_label": "\\u00e9", "kappa": -2.763315274719e-01}], "min_kappa": -1.425747159955e+00, "tool_version": VERSION}\n'
    ),
    ("gold", "inf", "witness"): (
        '{"graph_name": "gold", "dimension": "inf", "rows": [{"vertex_label": "a\\"b", "kappa": 2.634991514136e-02, "witness": {"a\\"b": 0.000000000000e+00, "a\\\\b": 6.365900232762e-01, "a,1": 2.402399004026e-01, "\\u00e9": -1.233317434971e+00, "z": -2.466634869943e+00}}, '
        '{"vertex_label": "a,1", "kappa": -1.425747159955e+00, "witness": {"a\\"b": -2.977400460265e-01, "a\\\\b": 2.627890775768e-01, "a,1": 0.000000000000e+00, "\\u00e9": -1.227644662109e+00, "z": -2.455289324218e+00}}, '
        '{"vertex_label": "a\\\\b", "kappa": 2.376178648558e+00, "witness": {"a\\"b": 1.872716353460e+00, "a\\\\b": 0.000000000000e+00, "a,1": 1.394094642707e-01, "\\u00e9": 1.480578371713e+00}}, '
        '{"vertex_label": "y", "kappa": -1.367521367521e-01, "witness": {"\\u00e9": 3.605551275464e+00, "z": 1.802775637732e+00, "y": 0.000000000000e+00}}, '
        '{"vertex_label": "z", "kappa": -1.081433211095e+00, "witness": {"a\\"b": 5.298050917723e-01, "a,1": 5.298050917723e-01, "\\u00e9": 2.649025458861e-01, "z": 0.000000000000e+00, "y": -1.403319836934e+00}}, '
        '{"vertex_label": "\\u00e9", "kappa": -2.763315274719e-01, "witness": {"a\\"b": 1.170885518683e+00, "a\\\\b": 2.842687205032e+00, "a,1": 1.554239728632e+00, "\\u00e9": 0.000000000000e+00, "z": -2.506036577654e-01, "y": -5.012073155307e-01}}], "min_kappa": -1.425747159955e+00, "tool_version": VERSION}\n'
    ),
    ("k4", "2", "csv"): (
        'vertex,kappa\n'
        'p,-9.283389095660e-02\n'
        'q,-1.744904890150e+00\n'
        'r,9.164805456283e-01\n'
        's,-1.022540037920e-01\n'
    ),
    ("k4", "2", "json"): (
        '{"graph_name": "k4", "dimension": 2.000000000000e+00, "rows": [{"vertex_label": "p", "kappa": -9.283389095660e-02}, '
        '{"vertex_label": "q", "kappa": -1.744904890150e+00}, '
        '{"vertex_label": "r", "kappa": 9.164805456283e-01}, '
        '{"vertex_label": "s", "kappa": -1.022540037920e-01}], "min_kappa": -1.744904890150e+00, "tool_version": VERSION}\n'
    ),
    ("k4", "2", "witness"): (
        '{"graph_name": "k4", "dimension": 2.000000000000e+00, "rows": [{"vertex_label": "p", "kappa": -9.283389095660e-02, "witness": {"p": 0.000000000000e+00, "q": 6.013667138332e-01, "r": 1.437928040473e+00, "s": 8.745627922910e-01}}, '
        '{"vertex_label": "q", "kappa": -1.744904890150e+00, "witness": {"p": 4.177757604704e-01, "q": 0.000000000000e+00, "r": 8.678894075201e-01, "s": 5.103820028545e-01}}, '
        '{"vertex_label": "r", "kappa": 9.164805456283e-01, "witness": {"p": 1.849263877082e+00, "q": 1.190379650505e+00, "r": 0.000000000000e+00, "s": 1.035019961174e+00}}, '
        '{"vertex_label": "s", "kappa": -1.022540037920e-01, "witness": {"p": 6.482082204119e-01, "q": 4.707712991803e-01, "r": 9.236809726857e-01, "s": 0.000000000000e+00}}], "min_kappa": -1.744904890150e+00, "tool_version": VERSION}\n'
    ),
}


def _report(path, dimension, mode, output=None):
    """graphcd curvature's report text (from stdout where output is None)."""
    argv = ["curvature", "--graph", path, "--dimension", dimension, *FLAGS[mode]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ([] if output is None else ["--output", output]))
    assert code == 0
    if output is None:
        return out.getvalue()
    with open(output, encoding="utf-8") as fh:
        return fh.read()


def test_curvature_reports_match_the_golden_bytes(tmp_path):
    for (name, dimension, mode), want in GOLDEN.items():
        path = tmp_path / f"{name}.graph"
        path.write_text(GRAPHS[name], encoding="utf-8")
        want = want.replace("VERSION", json.dumps(__version__))
        assert _report(str(path), dimension, mode) == want, (name, mode)
        out = str(tmp_path / f"{name}.{mode}")
        assert _report(str(path), dimension, mode, out) == want, (name, mode)


def _dict_per_row_report(g, name, n, mode):
    """The report as the CLI wrote it before its byte grids: a dict per row,
    written by dumps_report, and the CSV through csv_text."""
    results = curvature_all(g, n)
    rows = sorted((g.labels[r.vertex], r) for r in results)
    if mode == "csv":
        return csv_text(("vertex", "kappa"), [(x, f"{r.kappa:.12e}") for x, r in rows])
    report_rows = []
    for label, r in rows:
        row = {"vertex_label": label, "kappa": r.kappa}
        if mode == "witness":
            ball = np.append(r.support, r.vertex)
            order = np.argsort(ball)
            values = np.append(r.values, 0.0)[order]
            row["witness"] = dict(zip([g.labels[x] for x in ball[order]], values.tolist()))
        report_rows.append(row)
    return dumps_report({"graph_name": name, "dimension": n, "rows": report_rows,
                         "min_kappa": min(r.kappa for r in results),
                         "tool_version": __version__})


_labels = st.text(st.sampled_from(list('aéÿ€\U0001d53e,"%{\\#')),
                  min_size=1, max_size=4)
_weights = st.floats(0.05, 20.0)


@st.composite
def _graphs(draw):
    """Graph text of a random connected graph: a random tree, extra edges
    and self-loops."""
    labels = draw(st.lists(_labels, min_size=2, max_size=8, unique=True))
    nv = len(labels)
    edges = {(draw(st.integers(0, v - 1)), v): draw(_weights) for v in range(1, nv)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)),
                              max_size=2 * nv)):
        edges[min(u, v), max(u, v)] = draw(_weights)
    return "".join(f"vertex {x} {draw(_weights)!r}\n" for x in labels) + "".join(
        f"edge {labels[u]} {labels[v]} {w!r}\n" for (u, v), w in edges.items())


@settings(max_examples=60, deadline=None)
@given(_graphs(), st.sampled_from(["inf", "2", "0.5", "7.25"]),
       st.sampled_from(list(FLAGS)), st.integers(1, 600) | st.just(1 << 20))
def test_curvature_report_equals_the_dict_per_row_writer(text, dimension, mode, budget):
    g = load_graph(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "h.graph")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(save_graph(g))
        with mock.patch.object(cli, "_BLOCK_BYTES", budget):
            got = _report(path, dimension, mode)
    assert got == _dict_per_row_report(g, "h", float(dimension), mode)


def test_witness_report_names_the_first_non_finite_value(tmp_path, capsys, monkeypatch):
    path = tmp_path / "gold.graph"
    path.write_text(GOLD_GRAPH, encoding="utf-8")
    g = load_graph(GOLD_GRAPH)
    columns = curvature_all(g, math.inf).columns
    # spoil the witness of z (the fifth row) at y, and of a,1 (the second
    # row) at a\b and at é: the error names a,1's first, in vertex-id order
    values = columns.values.copy()
    for x, at in (("z", "y"), ("a,1", "a\\b"), ("a,1", "é")):
        s = columns.ball(g.id_of(x))
        values[s][columns.support[s] == g.id_of(at)] = np.inf
    spoiled = graphcd.curvature._Columns(columns.dimension, columns.kappa, columns.start,
                                         columns.size, columns.support, values)
    monkeypatch.setattr(graphcd.curvature, "_table", lambda g, n: spoiled)
    code = main(["curvature", "--graph", str(path), "--dimension", "inf", "--witness"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: witness of 'a,1' at vertex 'a\\\\b' not finite: inf\n"


def test_min_kappa_is_the_first_least_in_vertex_order(tmp_path, monkeypatch):
    # kappa 0.0 and -0.0 tie: min() keeps the first in vertex order
    path = tmp_path / "k4.graph"
    path.write_text(K4_GRAPH, encoding="utf-8")
    g = load_graph(K4_GRAPH)
    columns = curvature_all(g, 2.0).columns
    for kappa, sign in (([0.0, -0.0, 1.0, 2.0], "0.0"), ([2.0, -0.0, 1.0, 0.0], "-0.0")):
        tied = dataclasses.replace(columns, kappa=np.array(kappa))
        monkeypatch.setattr(graphcd.curvature, "_table", lambda g, n: tied)
        assert str(min_curvature(g, 2.0)) == sign
        report = json.loads(_report(str(path), "2", "json"))
        assert str(report["min_kappa"]) == sign


def test_curvature_reports_and_corpus_build_no_curvature_result(tmp_path, monkeypatch):
    built = []

    class Spy(graphcd.curvature.CurvatureResult):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(graphcd.curvature, "CurvatureResult", Spy)
    path = tmp_path / "gold.graph"
    path.write_text(GOLD_GRAPH, encoding="utf-8")
    for mode in FLAGS:
        for dimension in ("inf", "2"):
            _report(str(path), dimension, mode)
    g = load_graph(GOLD_GRAPH)   # a new graph: nothing solved for it yet
    min_curvature(g, 2.0)
    corpus = function_corpus(g, dimension=2.0)
    assert built == []
    # the witnesses of the corpus are the results' witnesses, which the spy sees
    witnesses = [f for name, f in corpus if name.startswith("witness:")]
    assert len(witnesses) == g.vertex_count and built == []
    for x in range(g.vertex_count):
        w = curvature_at(g, x, 2.0).witness
        assert np.array_equal(witnesses[x], w) and not witnesses[x].flags.writeable
    assert built == list(range(g.vertex_count))
