import contextlib
import csv
import errno
import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphcd.semigroup
import graphcd.verify
from graphcd import __version__, cli
from graphcd.cli import _PAD, _certain_mantissas, _float_slots, _grid, main
from graphcd.curvature import curvature_at
from graphcd.graph import load_graph, load_vertex_function, save_graph, save_vertex_function
from graphcd.semigroup import decompose, heat_apply
from graphcd.verify import (
    VerificationReport, _violation_indices, run_verification, witness_functions)
from conftest import cycle_with_chords, rng_for


K2_TEXT = "vertex a 1\nvertex b 1\nedge a b 1\n"


@pytest.fixture()
def k2_path(tmp_path):
    p = tmp_path / "k2.graph"
    p.write_text(K2_TEXT)
    return str(p)


@pytest.fixture()
def f_path(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("vertex,value\na,1.0\nb,0.0\n")
    return str(p)


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# curvature subcommand
# ---------------------------------------------------------------------------

def test_curvature_json(capsys, k2_path):
    code, out, _ = run_main(capsys, "curvature", "--graph", k2_path, "--dimension", "inf")
    assert code == 0
    rep = json.loads(out)
    assert rep["graph_name"] == "k2"
    assert rep["dimension"] == "inf"
    assert [r["vertex_label"] for r in rep["rows"]] == ["a", "b"]
    assert all(abs(r["kappa"] - 2.0) <= 1e-9 for r in rep["rows"])
    assert abs(rep["min_kappa"] - 2.0) <= 1e-9
    assert "2.000000000000e+00" in out  # fixed %.12e float format


def test_curvature_csv_dimension_2(capsys, k2_path):
    code, out, _ = run_main(capsys, "curvature", "--graph", k2_path,
                            "--dimension", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "vertex,kappa"
    for line in lines[1:]:
        label, kappa = line.split(",")
        assert abs(float(kappa) - 1.0) <= 1e-9


def test_curvature_csv_quotes_labels(capsys, tmp_path):
    graph = tmp_path / "g.graph"
    graph.write_text("vertex a,1 1\nvertex b 2\nedge a,1 b 1\n")
    code, out, _ = run_main(capsys, "curvature", "--graph", str(graph),
                            "--dimension", "inf", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["vertex", "kappa"]
    assert [row[0] for row in rows[1:]] == ["a,1", "b"]
    assert all(len(row) == 2 for row in rows)


def test_curvature_witness_json(capsys, k2_path):
    code, out, _ = run_main(capsys, "curvature", "--graph", k2_path,
                            "--dimension", "inf", "--witness")
    assert code == 0
    rep = json.loads(out)
    for row in rep["rows"]:
        assert "witness" in row and len(row["witness"]) == 2


def test_curvature_witness_lists_the_2ball(capsys, tmp_path):
    p = tmp_path / "p5.graph"
    p.write_text("".join(f"vertex {s} 1\n" for s in "edcba") + "edge e d 1\nedge d c 2\n"
                 "edge c b 1\nedge b a 3\nedge a a 5\n")
    code, out, _ = run_main(capsys, "curvature", "--graph", str(p), "--dimension", "2",
                            "--witness")
    assert code == 0
    g = load_graph(p.read_text())
    balls = {"a": "cba", "b": "dcba", "c": "edcba", "d": "edcb", "e": "edc"}
    for row in json.loads(out)["rows"]:
        x = row["vertex_label"]
        # the dense witness with every off-ball entry (all zero) removed
        r = curvature_at(g, g.id_of(x), 2.0)
        dense = {s: float(f"{v:.12e}") for s, v in zip(g.labels, r.witness.tolist())}
        assert list(row["witness"]) == list(balls[x])
        assert row["witness"] == {s: v for s, v in dense.items() if s in balls[x]}
        assert row["witness"][x] == 0.0
        assert all(v == 0.0 for s, v in dense.items() if s not in balls[x])


def test_nonfinite_report_exit_2(capsys, tmp_path, monkeypatch):
    # finite Deg, but Gamma2 carries Deg^2: kappa overflows to nan/-inf
    p = tmp_path / "big.graph"
    p.write_text("vertex a 1\nvertex b 1\nvertex c 1\nedge a b 1e160\nedge b c 1e160\n")
    for fmt in ("csv", "json"):
        code, out, err = run_main(capsys, "curvature", "--graph", str(p), "--dimension", "inf",
                                  "--format", fmt)
        assert code == 2 and out == ""
        assert "kappa at vertex 'a'" in err
    f = tmp_path / "f.csv"
    f.write_text("vertex,value\na,1\nb,0\nc,2\n")
    monkeypatch.setattr("graphcd.cli.heat_apply", lambda sd, g, t, f: np.array([0.5, np.inf, 1.0]))
    code, out, err = run_main(capsys, "heat", "--graph", str(p), "--f", str(f), "--t", "1")
    assert code == 2 and out == ""
    assert "vertex 'b'" in err


def test_curvature_internal_error_exit_1(capsys, tmp_path, monkeypatch):
    # a CurvatureInternalError is a RuntimeError: main's last clause takes it
    build = graphcd.curvature.form_table

    def indefinite(g, centers):
        table = build(g, centers)
        for grp in table.groups():
            if grp.k2 > 0:
                grp.a22[:, -1] = -1.0
        return table

    monkeypatch.setattr(graphcd.curvature, "form_table", indefinite)
    p = tmp_path / "p3.graph"
    p.write_text("vertex a 1\nvertex b 1\nvertex c 1\nedge a b 1\nedge b c 1\n")
    code, out, err = run_main(capsys, "curvature", "--graph", str(p), "--dimension", "inf")
    assert code == 1 and out == ""
    assert err.startswith("internal error: sphere2 block of the Gamma2 form is not PSD at 'a'")


def test_underflowing_gamma2_form_exit_2(capsys, tmp_path):
    # the sphere2 diagonal entry at a, 1e-340 / 4, underflows to 0: an input
    # out of range, never a nan kappa with exit 0
    p = tmp_path / "tiny.graph"
    p.write_text("vertex a 1\nvertex b 1\nvertex c 1\nedge a b 1e-170\nedge b c 1e-170\n")
    code, out, err = run_main(capsys, "curvature", "--graph", str(p), "--dimension", "inf")
    assert code == 2 and out == ""
    assert err.startswith("error: the Gamma2 form underflows at 'a'")


def test_curvature_linalg_error_exit_1(capsys, k2_path, monkeypatch):
    # a LinAlgError is a ValueError, yet an internal failure, not an input error
    def eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    code, out, err = run_main(capsys, "curvature", "--graph", k2_path, "--dimension", "inf")
    assert (code, out, err) == (1, "", "internal error: Eigenvalues did not converge\n")


def test_isolated_vertex_exit_2(capsys, tmp_path):
    p = tmp_path / "lone.graph"
    p.write_text("vertex a 1\n")
    code, out, err = run_main(capsys, "curvature", "--graph", str(p), "--dimension", "inf")
    assert (code, out) == (2, "")
    assert err == "error: vertex 'a' has no neighbors; curvature undefined\n"


def test_unrepresentable_graph_exit_2(capsys, tmp_path):
    f = tmp_path / "f.csv"
    f.write_text("vertex,value\na,1\nb,0\nc,2\n")
    for measure, weight, where in [("1e-320", "1", "line 1: vertex 'a': measure"),
                                   ("1", "1e308", "line 2: vertex 'b': Deg")]:
        p = tmp_path / "g.graph"
        p.write_text(f"vertex a {measure}\nvertex b 1\nvertex c 1\n"
                     f"edge a b {weight}\nedge b c {weight}\n")
        for argv in (["heat", "--f", str(f), "--t", "1"],
                     ["curvature", "--dimension", "inf", "--format", "csv"]):
            code, out, err = run_main(capsys, argv[0], "--graph", str(p), *argv[1:])
            assert code == 2 and out == "" and where in err


def test_curvature_witness_rejected_for_csv(capsys, k2_path):
    code, _, err = run_main(capsys, "curvature", "--graph", k2_path,
                            "--dimension", "inf", "--format", "csv", "--witness")
    assert code == 2
    assert err


def test_curvature_missing_graph(capsys):
    code, _, err = run_main(capsys, "curvature", "--graph", "/nonexistent.graph",
                            "--dimension", "inf")
    assert code == 2
    assert err


def test_curvature_output_file(capsys, k2_path, tmp_path):
    out_path = tmp_path / "rep.json"
    code, _, _ = run_main(capsys, "curvature", "--graph", k2_path,
                          "--dimension", "inf", "--output", str(out_path))
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert abs(rep["min_kappa"] - 2.0) <= 1e-9


def test_curvature_bad_dimension(capsys, k2_path):
    code, _, err = run_main(capsys, "curvature", "--graph", k2_path, "--dimension", "-3")
    assert code == 2


@pytest.mark.parametrize("token, message", [("x", "cannot parse dimension 'x'"),
                                            ("0", "positive"), ("nan", "positive")])
def test_dimension_tokens_share_one_parser(capsys, k2_path, token, message):
    # --dimension and --n are read by the same check, with the same errors
    for argv in (("curvature", "--dimension", token),
                 ("verify", "--inequality", "cdn", "--n", token, "--times", "0.1")):
        code, _, err = run_main(capsys, *argv, "--graph", k2_path)
        assert code == 2 and message in err, (argv, err)


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------

def test_verify_gradient_auto_passes(capsys, k2_path, tmp_path):
    out_path = tmp_path / "verify.json"
    code, _, _ = run_main(capsys, "verify", "--graph", k2_path,
                          "--inequality", "gradient", "--K", "auto",
                          "--times", "0.1,1", "--output", str(out_path))
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["inequality"] == "gradient_estimate"
    assert abs(rep["K"] - 2.0) <= 1e-9  # auto resolved and recorded
    assert rep["min_slack"] >= -1e-9
    assert rep["n"] is None
    assert rep["tool_version"]


def test_verify_sharpness_exit_3(capsys, k2_path):
    code, out, err = run_main(capsys, "verify", "--graph", k2_path,
                              "--inequality", "gradient", "--K", "2.1",
                              "--times", "0.01,0.1", "--functions", "witnesses")
    assert code == 3
    assert "violation" in err
    rep = json.loads(out)
    assert rep["min_slack"] < -1e-9


def test_verify_gamma2_identity_any_k(capsys, k2_path):
    code, out, _ = run_main(capsys, "verify", "--graph", k2_path,
                            "--inequality", "gamma2-identity", "--K", "1.7",
                            "--times", "0.5")
    assert code == 0


def test_verify_cdn_requires_n(capsys, k2_path):
    code, _, err = run_main(capsys, "verify", "--graph", k2_path,
                            "--inequality", "cdn", "--K", "auto", "--times", "0.5")
    assert code == 2


@pytest.mark.parametrize("inequality", ["gradient", "variance", "variance-identity",
                                        "gamma2-identity"])
def test_verify_n_only_with_cdn(capsys, k2_path, tmp_path, inequality):
    # --n would be written into a report that never used it
    out = tmp_path / "r.json"
    code, _, err = run_main(capsys, "verify", "--graph", k2_path, "--inequality", inequality,
                            "--K", "0", "--n", "2", "--times", "0.5", "--output", str(out))
    assert code == 2 and "only cdn_bound" in err and not out.exists()


def test_verify_cdn_auto(capsys, k2_path):
    code, out, _ = run_main(capsys, "verify", "--graph", k2_path,
                            "--inequality", "cdn", "--K", "auto", "--n", "2",
                            "--times", "0.1,1", "--functions", "random:5:3")
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["K"] - 1.0) <= 1e-9  # min kappa(x;2) on K2
    assert rep["n"] == 2.0


def test_verify_cdn_at_infinite_n_is_the_gradient_estimate(capsys, tmp_path, monkeypatch):
    # the integral's coefficient 2/n is 0 at n = inf, so it is not taken,
    # and the records are byte for byte those of the gradient estimate
    def no_integral(*args):
        raise AssertionError("the cdn integral was taken at n = inf")

    monkeypatch.setattr("graphcd.verify._heat_integral", no_integral)
    graph = tmp_path / "p3.graph"
    graph.write_text("vertex a 1\nvertex b 2\nvertex c 1\nedge a b 1\nedge b c 0.5\n")
    tails = []
    for flags in (("--inequality", "gradient"), ("--inequality", "cdn", "--n", "inf")):
        path = tmp_path / "r.json"
        code, _, err = run_main(capsys, "verify", "--graph", str(graph), *flags, "--K", "auto",
                                "--times", "0.1,1", "--output", str(path))
        assert code == 0, err
        tails.append(path.read_text().split('"records": ', 1)[1])
    assert tails[0] == tails[1]
    assert json.loads(path.read_text())["quadrature_error"] == 0.0


@pytest.mark.parametrize("flags", [("--inequality", "gradient"),
                                   ("--inequality", "cdn", "--n", "inf")])
def test_verify_cdn_at_infinite_n_fails_as_the_gradient_estimate(capsys, k2_path, flags):
    # kappa = 2 on K2, and at K = 2.5, t = 5 a witness slack is -2.05e-9:
    # cdn takes no integral at n = inf, so it is held to the gradient
    # estimate's tolerance 1e-9, not to the quadrature floor 1e-8
    code, out, err = run_main(capsys, "verify", "--graph", k2_path, *flags, "--K", "2.5",
                              "--times", "5", "--functions", "witnesses")
    assert code == 3, err
    assert -1e-8 < json.loads(out)["min_slack"] < -1e-9


def test_verify_functions_file(capsys, k2_path, f_path):
    code, out, _ = run_main(capsys, "verify", "--graph", k2_path,
                            "--inequality", "variance-identity", "--K", "0",
                            "--times", "0.5", "--functions", f"file:{f_path}")
    assert code == 0
    rep = json.loads(out)
    assert all(r["function"].startswith("file:") for r in rep["records"])


def test_verify_csv_quotes_function_ids(capsys, k2_path, tmp_path):
    f = tmp_path / "f,1.csv"
    f.write_text("vertex,value\na,1.0\nb,0.0\n")
    records = tmp_path / "records.csv"
    code, _, _ = run_main(capsys, "verify", "--graph", k2_path,
                          "--inequality", "gradient", "--K", "auto", "--times", "0.5",
                          "--functions", f"file:{f}", "--csv", str(records))
    assert code == 0
    rows = list(csv.reader(io.StringIO(records.read_text())))
    assert rows[0] == ["function", "t", "vertex", "lhs", "rhs", "slack"]
    assert len(rows) == 3
    for row, vertex in zip(rows[1:], ["a", "b"]):
        assert row[:3] == ["file:f,1.csv", "5.000000000000e-01", vertex]
        assert len(row) == 6


def _report_number(x):
    # the report float rule: %.12e when finite, else a JSON string
    if math.isfinite(x):
        return f"{x:.12e}"
    return json.dumps("inf" if x > 0 else "-inf" if x < 0 else "nan")


@pytest.mark.parametrize("flags, name, n", [
    (("gradient",), "gradient_estimate", None),
    (("variance",), "variance_bound", None),
    (("cdn", "--n", "2"), "cdn_bound", 2.0),
    (("cdn", "--n", "inf"), "cdn_bound", math.inf),
    (("variance-identity",), "variance_identity", None),
    (("gamma2-identity",), "gamma2_identity", None),
], ids=["gradient", "variance", "cdn-2", "cdn-inf", "variance-identity", "gamma2-identity"])
def test_verify_report_format_is_pinned(capsys, tmp_path, flags, name, n):
    # each flag's report is the text of run_verification's report under
    # its library name; c's label needs CSV quoting, JSON escapes and a
    # doubled % in a template
    c = 'c,"%{\\\u00e9'
    text = f"vertex b 1\nvertex a 2\nvertex {c} 1.5\nedge b a 1\nedge a {c} 0.5\n"
    graph = tmp_path / "p3.graph"
    graph.write_text(text)
    out, records_csv = tmp_path / "r.json", tmp_path / "r.csv"
    code, _, err = run_main(capsys, "verify", "--graph", str(graph),
                            "--inequality", *flags, "--K", "auto",
                            "--functions", "witnesses", "--times", "0.5,0.1",
                            "--output", str(out), "--csv", str(records_csv))
    assert code == 0, err

    g = load_graph(text)
    functions = witness_functions(g, math.inf if n is None else n)
    report = run_verification(g, decompose(g), name, "auto", [0.5, 0.1], functions, n=n)
    records = list(report.records)
    keys = [(r.function_id, r.t, r.vertex) for r in records]
    assert keys == sorted(keys) and len(keys) == 3 * 2 * 3
    assert [r.vertex for r in records[:3]] == ["a", "b", c]

    body = ", ".join(
        "{"
        + ", ".join(f"{json.dumps(k)}: {v}" for k, v in (
            ("function", json.dumps(r.function_id)),
            ("t", _report_number(r.t)),
            ("vertex", json.dumps(r.vertex)),
            ("lhs", _report_number(r.lhs)),
            ("rhs", _report_number(r.rhs)),
            ("slack", _report_number(r.slack)),
        ))
        + "}"
        for r in records
    )
    want_json = (
        f'{{"inequality": "{name}", "K": {_report_number(report.K)}, '
        f'"n": {"null" if n is None else _report_number(n)}, "graph": "p3", "records": [{body}], '
        f'"min_slack": {_report_number(min(r.slack for r in records))}, '
        f'"quadrature_error": {_report_number(report.quadrature_error_estimate)}, '
        f'"tool_version": {json.dumps(__version__)}}}\n'
    )
    assert out.read_text() == want_json

    def field(s):  # a CSV field holding a comma or a quote is quoted, its quotes doubled
        return '"' + s.replace('"', '""') + '"' if any(ch in s for ch in ',"') else s

    want_csv = "function,t,vertex,lhs,rhs,slack\n" + "".join(
        f"{field(r.function_id)},{r.t:.12e},{field(r.vertex)},"
        f"{r.lhs:.12e},{r.rhs:.12e},{r.slack:.12e}\n"
        for r in records
    )
    assert records_csv.read_text() == want_csv


def _per_record_reports(report, graph_name):
    """(JSON, CSV) of a verify report as the CLI wrote them one record at a
    time before it streamed them: the reference for the streamed bytes."""
    keys = list(itertools.product(report.function_ids, report.times, report.vertices))
    values = list(zip(*(a.ravel().tolist() for a in (report.lhs, report.rhs, report.slack))))
    records = ", ".join(
        f'{{"function": {json.dumps(f)}, "t": {_report_number(t)}, "vertex": {json.dumps(v)}, '
        f'"lhs": {_report_number(a)}, "rhs": {_report_number(b)}, "slack": {_report_number(c)}}}'
        for (f, t, v), (a, b, c) in zip(keys, values)
    )
    n = "null" if report.n is None else _report_number(report.n)
    want_json = (
        f'{{"inequality": {json.dumps(report.inequality_name)}, '
        f'"K": {_report_number(report.K)}, "n": {n}, "graph": {json.dumps(graph_name)}, '
        f'"records": [{records}], "min_slack": {_report_number(report.min_slack)}, '
        f'"quadrature_error": {_report_number(report.quadrature_error_estimate)}, '
        f'"tool_version": {json.dumps(__version__)}}}\n'
    )
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("function", "t", "vertex", "lhs", "rhs", "slack"))
    writer.writerows((f, f"{t:.12e}", v, f"{a:.12e}", f"{b:.12e}", f"{c:.12e}")
                     for (f, t, v), (a, b, c) in zip(keys, values))
    return want_json, out.getvalue()


@pytest.mark.parametrize("to_stdout", [False, True])
def test_verify_streamed_reports_match_per_record_writer(capsys, tmp_path, monkeypatch,
                                                         to_stdout):
    # labels (and so the corpus's function ids) with characters that JSON,
    # CSV or a %-template must escape
    labels = ["a,1", 'b"2', "c%s", "d{%}", "e\\f", "\u00e9"]
    graph = tmp_path / "awk.graph"
    graph.write_text("".join(f"vertex {s} {1 + i / 4}\n" for i, s in enumerate(labels))
                     + "".join(f"edge {labels[i]} {labels[(i + 1) % 6]} {1 + i / 3}\n"
                               for i in range(6)))
    reports = []

    def spoiled(*args, **kwargs):
        # a NaN and an inf slack in the second function's block only
        report = run_verification(*args, **kwargs)
        report.slack[1, 0, 2] = np.nan
        report.slack[1, 1, 4] = np.inf
        reports.append(report)
        return report

    monkeypatch.setattr("graphcd.cli.run_verification", spoiled)
    out_json, out_csv = tmp_path / "r.json", tmp_path / "r.csv"
    argv = ["verify", "--graph", str(graph), "--inequality", "gradient", "--K", "auto",
            "--times", "0.3,0.05", "--csv", str(out_csv)]
    code, out, _ = run_main(capsys, *argv, *([] if to_stdout else ["--output", str(out_json)]))
    assert code == 3  # a non-finite slack is a violation

    (report,) = reports
    assert len(report.function_ids) == 1 + 6 + 6 + 50 and len(report.times) == 2
    assert np.isfinite(report.slack[[0, *range(2, 63)]]).all()
    want_json, want_csv = _per_record_reports(report, "awk")
    got_json = out if to_stdout else out_json.read_text()
    # compared record by record, so that a failure reports the first bad one
    assert got_json.split("}, {") == want_json.split("}, {")
    assert out_csv.read_text().splitlines() == want_csv.splitlines()
    assert got_json == want_json and out_csv.read_text() == want_csv
    assert '"slack": "nan"' in want_json and ",inf\n" in want_csv


def test_verify_streamed_special_floats_match_per_record_writer(capsys, tmp_path, monkeypatch):
    graph = tmp_path / "p3.graph"
    graph.write_text("vertex a 1\nvertex b 2\nvertex c 1.5\nedge a b 1\nedge b c 0.5\n")
    reports = []

    def spoiled(*args, **kwargs):
        # values the bulk formatter hands to Python, in one function's block
        report = run_verification(*args, **kwargs)
        report.lhs[1, 0] = 0.0, -0.0, 5e-324
        report.rhs[1, 0] = 1e300, math.nextafter(1.0, 0.0), math.inf
        report.slack[1, 1, 0] = math.nan
        reports.append(report)
        return report

    monkeypatch.setattr("graphcd.cli.run_verification", spoiled)
    out_json, out_csv = tmp_path / "r.json", tmp_path / "r.csv"
    code, _, _ = run_main(capsys, "verify", "--graph", str(graph), "--inequality", "gradient",
                          "--K", "auto", "--times", "0.3,0.05", "--output", str(out_json),
                          "--csv", str(out_csv))
    assert code == 3  # a non-finite slack is a violation

    (report,) = reports
    want_json, want_csv = _per_record_reports(report, "p3")
    assert out_json.read_text().split("}, {") == want_json.split("}, {")
    assert out_csv.read_text().splitlines() == want_csv.splitlines()
    assert out_json.read_text() == want_json and out_csv.read_text() == want_csv
    for text in ("-0.000000000000e+00", "4.940656458412e-324", "1.000000000000e+300",
                 '"inf"', '"nan"'):
        assert text in want_json


# ---------------------------------------------------------------------------
# bulk %.12e text
# ---------------------------------------------------------------------------

def _float_texts(values):
    """(CSV texts, JSON texts) of _float_slots(values), as lists of str."""
    csv_slots, json_slots = _float_slots(values)

    def split(slots):  # a space after each slot; no text holds one
        return _grid(slots.shape[:1], (slots, b" ")).base.translate(None, _PAD).decode().split()

    texts = split(csv_slots)
    return texts, texts if json_slots is csv_slots else split(json_slots)


_MAX = np.finfo(np.float64).max
_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, _MAX, -_MAX,
                   math.inf, -math.inf, math.nan]


def _bits_float(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


def _power_of_ten_neighbour(k, side):
    p = float(f"1e{k}")
    return p if side == 0 else math.nextafter(p, side * math.inf)


_report_floats = st.one_of(
    st.integers(0, 2**64 - 1).map(_bits_float),
    st.floats(),
    st.sampled_from(_SPECIAL_FLOATS),
    st.builds(_power_of_ten_neighbour, st.integers(-105, 105), st.sampled_from([-1, 0, 1])),
    # exact 13-digit ties (j = 0) and their binary rescalings
    st.builds(lambda n, j, sign: sign * (n + 0.5) * 2.0**j, st.integers(10**12, 10**13 - 1),
              st.integers(-60, 60) | st.just(0), st.sampled_from([-1.0, 1.0])),
    # the doubles nearest to 13-digit decimal ties
    st.builds(lambda n, k: float(f"{n}5e{k}"), st.integers(10**12, 10**13 - 1),
              st.integers(-104, 104)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_report_floats, max_size=40))
def test_bulk_float_texts_equal_python_e12(xs):
    texts, json_texts = _float_texts(np.array(xs, dtype=np.float64))
    assert texts == [f"{x:.12e}" for x in xs]
    assert json_texts == [_report_number(x) for x in xs]


def test_bulk_float_texts_at_powers_of_ten_and_ties():
    xs = [_power_of_ten_neighbour(k, side) for k in range(-104, 105) for side in (-1, 0, 1)]
    xs += [(n + 0.5) * 10.0**k for n in (10**12, 1234567890123, 10**13 - 1) for k in range(-9, 1)]
    # the ends of the exponents of two digits, and just beyond them
    xs += [1e-99, 9.9999999999995e99, 1e100, 9.99e-100]
    # decimal near-ties whose scaled s lands on the wrong side of the half,
    # by less than the tie margin: a margin of 0 misrounds each of them
    xs += [4.3599539739645e-12, 8.2100244969125e-25, 1.9153935686705e-27, 7.8614270783975e-25,
           8.2851413868775e+50, 6.1987307589535e+52, 2.0201542769465e-29, 3.7120030909025e-21]
    # near-ties whose scaled s lies between 1/256 and 1/128 from the half,
    # e from -90 to 90: outside the tie margin, so they take the fast path,
    # and so do 0 and -0
    near = [float(f"{n}.{frac}e{k}") for n in (10**12, 1234567890123, 9876543210987)
            for frac in ("4935", "494", "506", "5065") for k in (-102, -32, -7, 0, 30, 44, 78)]
    for x in near:
        s = Fraction(x) * Fraction(10) ** (12 - math.floor(math.log10(x)))
        assert Fraction(1, 256) < abs(s - math.floor(s) - Fraction(1, 2)) < Fraction(1, 128)
    assert _certain_mantissas(np.array(near + [0.0, -0.0]))[2].all()
    # the fast path ends at 1e100 and below 1e-99: Python writes those
    assert not _certain_mantissas(np.array([1e100, 9.99e-100, -1e100, -9.99e-100]))[2].any()
    xs += near + _SPECIAL_FLOATS
    xs += [-x for x in xs]
    assert _float_texts(np.array(xs))[0] == [f"{x:.12e}" for x in xs]


def test_bulk_float_texts_mostly_take_the_fast_path():
    # a margin or a scaling that sent everything to Python would still be
    # correct, only slow: this keeps the fast path in use
    x = rng_for(12).standard_normal(10**5)
    _, _, certain = _certain_mantissas(x)
    assert 1 - certain.mean() <= 0.01
    assert _float_texts(x)[0] == [f"{v:.12e}" for v in x.tolist()]


def test_bulk_float_texts_write_zeros_without_python(monkeypatch):
    # exact zeros are most of a large default verify report (P_t of an
    # indicator beyond the Chebyshev polynomial's reach): none goes to Python
    x = np.zeros(1000)
    x[::3] = -0.0
    x[1::7] = 1.5
    padded, sizes = graphcd.cli._padded, []

    def spy(texts, width=None):
        sizes.append(len(texts))
        return padded(texts, width)

    monkeypatch.setattr(graphcd.cli, "_padded", spy)
    assert _float_texts(x)[0] == [f"{v:.12e}" for v in x.tolist()]
    assert sizes == [0]


# ---------------------------------------------------------------------------
# the block writer of verify records
# ---------------------------------------------------------------------------

# characters of 1 to 4 UTF-8 bytes (U+00FF among them, whose code point is
# the pad byte) and characters that JSON, CSV or a %-template escape
_labels = st.text(st.sampled_from(list('a\u00e9\u00ff\u20ac\U0001d53e,"%{\\')), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_block_writer_equals_per_record_writer(data):
    fids = data.draw(st.lists(_labels, min_size=1, max_size=4, unique=True))
    times = data.draw(st.lists(_report_floats, min_size=1, max_size=3))
    vertices = data.draw(st.lists(_labels, min_size=1, max_size=4, unique=True))
    shape = (len(fids), len(times), len(vertices))
    size = int(np.prod(shape))
    lhs, rhs, slack = (
        np.array(data.draw(st.lists(_report_floats, min_size=size, max_size=size)))
        .reshape(shape) for _ in range(3))
    report = VerificationReport("gradient_estimate", 1.0, None, tuple(fids), tuple(times),
                                tuple(vertices), lhs, rhs, slack, 0.0)
    json_fh, csv_fh = io.BytesIO(), io.BytesIO()
    # from one record a block to the whole report in one
    with mock.patch.object(cli, "_BLOCK_BYTES", data.draw(st.integers(1, 4000) | st.just(1 << 20))):
        cli._stream_records(report, json_fh, csv_fh)
    want_json, want_csv = _per_record_reports(report, "g")
    want_records = want_json.partition('"records": [')[2].rpartition('], "min_slack": ')[0]
    assert json_fh.getvalue().decode() == want_records
    assert csv_fh.getvalue().decode() == want_csv


def _awkward_graph(tmp_path):
    labels = ["a,1", 'b"2', "c%s", "\u20ac{", "e\\f", "\U0001d53e"]
    graph = tmp_path / "awk.graph"
    graph.write_text("".join(f"vertex {s} {1 + i / 4}\n" for i, s in enumerate(labels))
                     + "".join(f"edge {labels[i]} {labels[(i + 1) % 6]} {1 + i / 3}\n"
                               for i in range(6)))
    return str(graph)


def test_verify_blocks_stay_within_the_budget(capsys, tmp_path, monkeypatch):
    reports, widths, grids = [], [], []

    def run(*args, **kwargs):
        reports.append(run_verification(*args, **kwargs))
        return reports[-1]

    def blocks(shape, width):
        widths.append(width)
        return real_blocks(shape, width)

    def grid(shape, parts):
        g = real_grid(shape, parts)
        grids.append(g.shape)
        return g

    real_blocks, real_grid = cli._blocks, cli._grid
    monkeypatch.setattr(cli, "run_verification", run)
    monkeypatch.setattr(cli, "_blocks", blocks)
    monkeypatch.setattr(cli, "_grid", grid)
    out_json, out_csv = tmp_path / "r.json", tmp_path / "r.csv"
    argv = ["verify", "--graph", _awkward_graph(tmp_path), "--inequality", "gradient",
            "--K", "auto", "--times", "0.3,0.05", "--output", str(out_json), "--csv", str(out_csv)]
    assert run_main(capsys, *argv)[0] == 0
    (report,), (width,) = reports, widths
    nf, nt, nv = report.slack.shape
    assert (nf, nt, nv) == (63, 2, 6)
    # under the default budget, one block: a JSON grid and a CSV grid
    assert [g[:3] for g in grids] == [(nf, nt, nv)] * 2
    want_json, want_csv = _per_record_reports(report, "awk")
    assert out_json.read_text() == want_json
    assert '"records": [{"function": ' in want_json

    def cuts(n, k):  # the lengths of n items cut into runs of k
        return [min(k, n - i) for i in range(0, n, k)]

    # a budget of one record, of part of a time's vertices, of one time,
    # of all but one record of a function, of whole functions, and of 5
    # functions and a bit (63 is no multiple of 5)
    for records in (1, nv - 1, nv, nt * nv - 1, nt * nv, 5 * nt * nv + 3):
        budget = records * width
        monkeypatch.setattr(cli, "_BLOCK_BYTES", budget)
        grids.clear()
        assert run_main(capsys, *argv)[0] == 0
        assert out_json.read_text() == want_json
        assert out_csv.read_text() == want_csv
        assert all(math.prod(g) <= budget for g in grids)
        # a JSON and a CSV grid a block
        assert [g[:3] for g in grids[::2]] == [g[:3] for g in grids[1::2]]
        counts = [math.prod(g[:3]) for g in grids[::2]]
        if records < nv:  # runs of one time's vertices
            assert counts == cuts(nv, records) * (nf * nt)
        elif records < nt * nv:  # whole times of one function
            assert counts == [c * nv for c in cuts(nt, records // nv)] * nf
        else:  # whole functions, the last block holding what is left
            assert counts == [c * nt * nv for c in cuts(nf, records // (nt * nv))]


def test_verify_builds_only_the_violation_records_it_prints(capsys, tmp_path, monkeypatch):
    reports, built = [], []
    real_record = graphcd.verify.VerificationRecord

    def run(*args, **kwargs):
        reports.append(run_verification(*args, **kwargs))
        return reports[-1]

    def record(*args):
        built.append(args)
        return real_record(*args)

    monkeypatch.setattr(cli, "run_verification", run)
    monkeypatch.setattr(graphcd.verify, "VerificationRecord", record)
    code, _, err = run_main(capsys, "verify", "--graph", _awkward_graph(tmp_path),
                            "--inequality", "gradient", "--K", "50", "--times", "0.3,0.05")
    assert code == 3
    assert len(built) == 20
    monkeypatch.undo()

    (report,) = reports
    violations = [report.records[i] for i in _violation_indices(report)]
    assert len(violations) > 100
    assert err.splitlines() == [
        f"violation: function={r.function_id} t={r.t} vertex={r.vertex} slack={r.slack:.6e}"
        for r in violations[:20]
    ] + [f"... and {len(violations) - 20} more"]


def test_verify_output_and_csv_same_file_exit_2(capsys, k2_path, tmp_path):
    same, alias = tmp_path / "same.out", tmp_path / "sub" / ".." / "same.out"
    (tmp_path / "sub").mkdir()
    code, out, err = run_main(capsys, "verify", "--graph", k2_path, "--inequality", "gradient",
                              "--times", "0.5", "--output", str(same), "--csv", str(alias))
    assert code == 2 and out == ""
    assert "same file" in err
    assert not same.exists()


def test_verify_output_and_csv_both_to_the_null_device(capsys, k2_path):
    # the same-file refusal is for a regular file: the null device takes both reports
    code, out, err = run_main(capsys, "verify", "--graph", k2_path, "--inequality", "gradient",
                              "--times", "0.5", "--output", os.devnull, "--csv", os.devnull)
    assert code == 0 and out == "" and err == ""


@pytest.mark.parametrize("unopenable", ["--csv", "--output"])
def test_verify_truncates_no_file_before_both_are_open(capsys, k2_path, tmp_path, unopenable):
    kept, old = tmp_path / "kept.out", b"an earlier report\n"
    kept.write_bytes(old)
    other, bad = "--output" if unopenable == "--csv" else "--csv", tmp_path / "no" / "r.out"
    code, out, err = run_main(capsys, "verify", "--graph", k2_path, "--inequality", "gradient",
                              "--times", "0.5", other, str(kept), unopenable, str(bad))
    assert code == 2 and out == ""
    assert str(bad) in err
    assert kept.read_bytes() == old


def test_verify_opens_its_reports_before_the_sweep(capsys, k2_path, tmp_path, monkeypatch):
    # an unopenable --csv exits 2 before the corpus and the sweep, and the
    # --output it opened first is not left behind
    def no_work(*args, **kwargs):
        raise AssertionError("the corpus or the sweep ran")

    monkeypatch.setattr(cli, "function_corpus", no_work)
    monkeypatch.setattr(cli, "run_verification", no_work)
    early, bad = tmp_path / "early.json", tmp_path / "missing" / "x.csv"
    code, out, err = run_main(capsys, "verify", "--graph", k2_path, "--inequality", "gradient",
                              "--K", "auto", "--times", "0.1", "--output", str(early),
                              "--csv", str(bad))
    assert code == 2 and out == ""
    assert str(bad) in err
    assert not early.exists()


def test_verify_output_and_csv_hard_links_exit_2(capsys, k2_path, tmp_path):
    # a hard link is the same regular file under another path: refused
    # before either report is truncated
    report, link, old = tmp_path / "r.json", tmp_path / "r2.json", b"an earlier report\n"
    report.write_bytes(old)
    os.link(report, link)
    code, out, err = run_main(capsys, "verify", "--graph", k2_path, "--inequality", "gradient",
                              "--K", "0", "--times", "0.1", "--output", str(report),
                              "--csv", str(link))
    assert code == 2 and out == ""
    assert "same file" in err
    assert report.read_bytes() == old


def test_verify_csv_on_stdouts_file_exit_2(capsys, k2_path, tmp_path, monkeypatch):
    # `--csv r.csv >> r.csv`: stdout's file is --csv's, refused, and stdout's
    # file is never truncated, so it keeps its bytes
    report, old = tmp_path / "r.csv", b"an earlier report\n"
    report.write_bytes(old)
    with open(report, "a") as stdout, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        code = main(["verify", "--graph", k2_path, "--inequality", "gradient", "--K", "0",
                     "--times", "0.1", "--csv", str(report)])
    err = capsys.readouterr().err
    assert code == 2
    assert "same file" in err and "--output" not in err
    assert report.read_bytes() == old


@pytest.mark.parametrize("command", ["curvature", "heat"])
def test_curvature_and_heat_open_their_report_before_the_work(capsys, k2_path, f_path,
                                                              tmp_path, monkeypatch, command):
    # an unopenable --output exits 2 before the curvature or the heat flow
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran")

    monkeypatch.setattr(cli, "curvature_all", no_work)
    monkeypatch.setattr(cli, "heat_apply", no_work)
    bad = tmp_path / "missing" / "x"
    flags = (["--dimension", "inf"] if command == "curvature"
             else ["--f", f_path, "--t", "0.5"])
    code, out, err = run_main(capsys, command, "--graph", k2_path, *flags, "--output", str(bad))
    assert code == 2 and out == ""
    assert str(bad) in err
    assert not bad.parent.exists()


@pytest.mark.parametrize("flags", [("--inequality", "gradient", "--K", "-400"),
                                   ("--inequality", "cdn", "--n", "2", "--K", "auto")])
def test_verify_failing_after_the_open_leaves_no_new_report(capsys, tmp_path, flags):
    # e^{-2Kt} overflows in the sweep, after both reports are open: the new
    # one is removed and the earlier one is not truncated
    path = tmp_path / "c4.graph"
    path.write_text(STIFF_C4_TEXT)
    new, kept, old = tmp_path / "new.json", tmp_path / "kept.csv", b"an earlier report\n"
    kept.write_bytes(old)
    code, out, err = run_main(capsys, "verify", "--graph", str(path), *flags, "--times", "1",
                              "--functions", "random:0:1", "--output", str(new),
                              "--csv", str(kept))
    assert code == 2 and out == ""
    assert "overflows" in err
    assert not new.exists()
    assert kept.read_bytes() == old


def test_verify_failing_through_a_dangling_symlink_keeps_the_link(capsys, tmp_path):
    # the run fails after the open, which created the link's target: the
    # target is removed, and the link stays as it was
    path = tmp_path / "c4.graph"
    path.write_text(STIFF_C4_TEXT)
    link, target = tmp_path / "link.json", tmp_path / "target.json"
    link.symlink_to(target.name)
    code, out, err = run_main(capsys, "verify", "--graph", str(path), "--inequality", "gradient",
                              "--K", "-400", "--times", "1", "--functions", "random:0:1",
                              "--output", str(link))
    assert code == 2 and out == ""
    assert "overflows" in err
    assert not os.path.lexists(target)
    assert link.is_symlink() and os.readlink(link) == target.name


def test_an_output_on_a_symlink_loop_exit_2_and_keeps_the_links(capsys, k2_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.symlink_to(b.name)
    b.symlink_to(a.name)
    code, out, err = run_main(capsys, "curvature", "--graph", k2_path, "--dimension", "inf",
                              "--output", str(a))
    assert code == 2 and out == ""
    assert str(a) in err
    assert os.readlink(a) == b.name and os.readlink(b) == a.name


@pytest.fixture(scope="module")
def rewrite_inputs(tmp_path_factory):
    """A 24-vertex graph file, a function file on it, and two earlier pairs
    of verify reports (JSON, CSV): the default corpus's on that graph, longer
    than any report the rewrite tests make, and random:0:1's on K2, shorter."""
    root = tmp_path_factory.mktemp("rewrite")
    g = cycle_with_chords(24, 0)
    graph, f, k2 = root / "g.graph", root / "f.csv", root / "k2.graph"
    graph.write_text(save_graph(g))
    f.write_text(save_vertex_function(g, np.arange(24.0)))
    k2.write_text(K2_TEXT)
    earlier = {}
    for kind, on, corpus in (("longer", graph, []), ("shorter", k2, ["--functions", "random:0:1"])):
        out = root / f"{kind}.json", root / f"{kind}.csv"
        assert main(["verify", "--graph", str(on), "--inequality", "gradient", "--K", "auto",
                     "--times", "0.1", *corpus, "--output", str(out[0]), "--csv", str(out[1])]) == 0
        earlier[kind] = tuple(p.read_bytes() for p in out)
    return str(graph), str(f), earlier


@pytest.mark.parametrize("earlier", ["longer", "shorter"])
@pytest.mark.parametrize("argv", [
    ("curvature", "--dimension", "inf", "--format", "csv"),
    ("curvature", "--dimension", "2", "--witness"),
    ("verify", "--inequality", "gradient", "--K", "auto", "--times", "0.1,1",
     "--functions", "random:0:3", "--csv", "{csv}"),
    ("heat", "--f", "{f}", "--t", "0.5"),
])
def test_a_rewritten_report_equals_a_fresh_one(capsys, tmp_path, rewrite_inputs, argv, earlier):
    # each report written over a longer or a shorter earlier one is cut or
    # grown to the bytes of the same run into new paths, in the same inodes
    graph, f, reports = rewrite_inputs
    count = 2 if "--csv" in argv else 1

    def run(*paths):
        args = [a.format(f=f, csv=paths[-1]) for a in argv]
        assert main([args[0], "--graph", graph, *args[1:], "--output", str(paths[0])]) == 0
        capsys.readouterr()
        return [p.read_bytes() for p in paths]

    fresh = run(*(tmp_path / f"new{i}" for i in range(count)))
    paths = [tmp_path / f"old{i}" for i in range(count)]
    for p, old in zip(paths, reports[earlier]):
        p.write_bytes(old)
    inodes = [p.stat().st_ino for p in paths]
    assert run(*paths) == fresh
    assert [p.stat().st_ino for p in paths] == inodes
    for i, new in enumerate(fresh):
        assert len(reports["shorter"][i]) < len(new) < len(reports["longer"][i])


def test_a_hard_link_of_the_report_shows_the_new_bytes(capsys, k2_path, tmp_path):
    report, link = tmp_path / "r.json", tmp_path / "r2.json"
    args = ["verify", "--graph", k2_path, "--inequality", "gradient", "--K", "0", "--times", "0.1"]
    assert main(args + ["--output", str(tmp_path / "new.json")]) == 0
    report.write_bytes(b"an earlier, longer report\n" * 100)
    os.link(report, link)
    ino = report.stat().st_ino
    assert main(args + ["--output", str(report)]) == 0
    capsys.readouterr()
    assert report.stat().st_ino == link.stat().st_ino == ino
    assert report.read_bytes() == link.read_bytes() == (tmp_path / "new.json").read_bytes()


def test_a_new_report_takes_its_mode_from_the_umask(capsys, k2_path, tmp_path):
    report = tmp_path / "k.json"
    umask = os.umask(0o037)
    try:
        code = main(["curvature", "--graph", k2_path, "--dimension", "inf",
                     "--output", str(report)])
    finally:
        os.umask(umask)
    assert code == 0
    assert stat.S_IMODE(report.stat().st_mode) == 0o666 & ~0o037


def test_verify_failing_while_writing_leaves_the_bytes_written(capsys, tmp_path, monkeypatch):
    # the write of the second block raises after the JSON head, the CSV
    # header and the first block of each: both files are cut to those bytes,
    # with no tail of the earlier reports they were written over
    graph = tmp_path / "g.graph"
    graph.write_text(save_graph(cycle_with_chords(24, 0)))
    json_out, csv_out = tmp_path / "r.json", tmp_path / "r.csv"
    args = ["verify", "--graph", str(graph), "--inequality", "gradient", "--K", "auto",
            "--times", "0.1", "--functions", "random:0:3", "--output", str(json_out),
            "--csv", str(csv_out)]
    assert main(args) == 0
    whole = json_out.read_bytes(), csv_out.read_bytes()
    grid, calls = cli._grid, []

    def second_block_fails(*a):
        calls.append(a)
        if len(calls) > 2:  # a grid per file and block
            raise OSError(errno.ENOSPC, "No space left on device")
        return grid(*a)

    monkeypatch.setattr(cli, "_BLOCK_BYTES", 2048)
    monkeypatch.setattr(cli, "_grid", second_block_fails)
    left = []
    for old in (b"", b"an earlier, longer report\n" * 1000):
        calls.clear()
        json_out.write_bytes(old)
        csv_out.write_bytes(old)
        code, out, err = run_main(capsys, *args)
        assert code == 2 and out == "" and "No space left" in err
        assert len(calls) == 3
        left.append((json_out.read_bytes(), csv_out.read_bytes()))
    # into empty files, what is left is what the run wrote
    assert left[1] == left[0]
    for part, report, first in zip(left[0], whole, (b'"records": [{"', b"slack\nrandom:0:0,")):
        assert report.startswith(part) and len(part) < len(report)
        assert first in part and part.endswith((b"}", b"\n"))
        assert b"earlier" not in part


def test_reports_on_a_latin1_stdout_are_utf8(capsys, tmp_path):
    # the report bytes go to stdout's binary buffer, after the text before
    # them (JSON escapes every non-ASCII character: the CSV reports carry them)
    graph = _awkward_graph(tmp_path)
    g = load_graph((tmp_path / "awk.graph").read_text(encoding="utf-8"))
    f = tmp_path / "f.csv"
    f.write_bytes(save_vertex_function(g, np.arange(6.0)).encode())
    for argv in (["curvature", "--graph", graph, "--dimension", "2", "--format", "csv"],
                 ["heat", "--graph", graph, "--f", str(f), "--t", "0.5"]):
        path = tmp_path / "report.out"
        assert run_main(capsys, *argv, "--output", str(path))[0] == 0
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="latin-1")
        stdout.write("before\n")
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
        stdout.flush()
        got = stdout.buffer.getvalue()
        assert "\u20ac".encode() in got and "\U0001d53e".encode() in got
        assert got == b"before\n" + path.read_bytes()


def test_verify_duplicate_times_exit_2(capsys, k2_path):
    code, out, err = run_main(capsys, "verify", "--graph", k2_path, "--inequality", "gradient",
                              "--times", "0.1,0.5,0.10")
    assert code == 2 and out == ""
    assert "time 0.1 is given twice" in err


def test_verify_bad_flags(capsys, k2_path):
    code, _, _ = run_main(capsys, "verify", "--graph", k2_path,
                          "--inequality", "gradient", "--K", "xyz", "--times", "0.5")
    assert code == 2
    code, _, _ = run_main(capsys, "verify", "--graph", k2_path,
                          "--inequality", "gradient", "--K", "auto", "--times", "-1")
    assert code == 2
    code, _, _ = run_main(capsys, "verify", "--graph", k2_path,
                          "--inequality", "nonsense", "--K", "auto", "--times", "0.5")
    assert code == 2
    code, _, _ = run_main(capsys, "verify", "--graph", k2_path,
                          "--inequality", "gradient", "--K", "auto",
                          "--times", "0.5", "--functions", "indicator:a")
    assert code == 2


@pytest.mark.parametrize("K", ["nan", "inf", "-inf"])
def test_verify_nonfinite_K_exit_2(capsys, k2_path, K):
    code, out, err = run_main(capsys, "verify", "--graph", k2_path,
                              "--inequality", "gradient", "--K", K, "--times", "0.5")
    assert code == 2
    assert out == ""
    assert "--K" in err


@pytest.mark.parametrize("K", ["-1e-3", "-2.5E1", "-.5e1"])
def test_verify_negative_K_with_an_exponent(capsys, k2_path, K):
    # argparse before 3.13 takes these for options unless the parser is told
    code, out, err = run_main(capsys, "verify", "--graph", k2_path,
                              "--inequality", "gradient", "--K", K, "--times", "0.1")
    assert code == 0, err
    assert json.loads(out)["K"] == float(K)


def test_verify_cdn_at_a_dimension_out_of_float_range(capsys, tmp_path):
    # 2/n overflows: every slack is -inf and the quadrature estimate inf, an
    # estimate that widens no tolerance; under --K auto kappa is not finite
    path = tmp_path / "p3.graph"
    path.write_text("vertex a 1\nvertex b 1\nvertex c 1\nedge a b 1\nedge b c 1\n")
    argv = ["verify", "--graph", str(path), "--inequality", "cdn", "--n", "6e-309",
            "--times", "0.1", "--functions", "random:0:1"]
    code, out, err = run_main(capsys, *argv, "--K", "0")
    assert code == 3, err
    rep = json.loads(out)
    assert rep["quadrature_error"] == "inf"
    assert [r["slack"] for r in rep["records"]] == ["-inf"] * 3
    code, out, err = run_main(capsys, *argv, "--K", "auto")
    assert code == 2 and out == ""
    assert "kappa at vertex 'a' not finite: -inf" in err


# a 4-cycle whose vertex b has measure 1e-4: min kappa(.;2) is -9999
STIFF_C4_TEXT = ("vertex a 1\nvertex b 1e-4\nvertex c 1\nvertex d 1\n"
                 "edge a b 1\nedge b c 1\nedge c d 1\nedge d a 1\n")


@pytest.mark.parametrize("flags, K", [
    (("--inequality", "gradient", "--K", "-400"), "-400.0"),
    (("--inequality", "variance", "--K", "-400"), "-400.0"),
    (("--inequality", "gamma2-identity", "--K", "-400"), "-400.0"),
    (("--inequality", "cdn", "--n", "2", "--K", "auto"), "-9999.0"),
    # -2Kt itself overflows to inf, which exp returns without an error
    (("--inequality", "gradient", "--K", "-1e308"), "-1e+308"),
    (("--inequality", "variance", "--K", "-1e308"), "-1e+308"),
])
def test_verify_overflowing_decay_exit_2(capsys, tmp_path, flags, K):
    # e^{-2Kt} overflows at t = 1; an inf there would read as a violation
    path = tmp_path / "c4.graph"
    path.write_text(STIFF_C4_TEXT)
    code, out, err = run_main(capsys, "verify", "--graph", str(path), *flags, "--times", "1",
                              "--functions", "random:0:1")
    assert code == 2
    assert out == ""
    assert f"K = {K}, t = 1.0" in err


@pytest.mark.parametrize("m_b", ["1", "1e-2", "1e-4", "1e-6"])
@pytest.mark.parametrize("inequality", ["variance-identity", "gamma2-identity"])
def test_verify_identities_hold_on_stiff_4_cycles(capsys, tmp_path, m_b, inequality):
    # Deg(b) = 2 / m(b), so lambda_min is about -2e6 at m(b) = 1e-6 and the
    # integrand's rates reach 4e6; the sized rule resolves them, so the
    # estimate stays near roundoff and cannot widen the tolerance
    path = tmp_path / "c4.graph"
    path.write_text(STIFF_C4_TEXT.replace("vertex b 1e-4", f"vertex b {m_b}"))
    code, out, err = run_main(capsys, "verify", "--graph", str(path), "--inequality", inequality,
                              "--K", "0", "--times", "1")
    assert code == 0, err
    rep = json.loads(out)
    scale = max(max(abs(r["lhs"]), abs(r["rhs"])) for r in rep["records"])
    assert rep["quadrature_error"] <= 1e-11 * scale


def test_verify_has_no_panels_flag(capsys, k2_path, tmp_path):
    # the quadrature degree is always sized from the spectrum, K and t
    out = tmp_path / "r.json"
    code, _, err = run_main(capsys, "verify", "--graph", k2_path,
                            "--inequality", "variance-identity", "--K", "0",
                            "--times", "1", "--functions", "random:0:2",
                            "--panels", "64", "--output", str(out))
    assert code == 2 and "--panels" in err and not out.exists()


def test_verify_cdn_violation_on_a_stiff_4_cycle(capsys, tmp_path):
    # at the sized degree the estimate is at roundoff, so the violation
    # (slack -3.04) is not covered by a tolerance widened by a coarse rule
    path = tmp_path / "c4.graph"
    path.write_text(STIFF_C4_TEXT.replace("vertex b 1e-4", "vertex b 1e-2"))
    code, out, err = run_main(capsys, "verify", "--graph", str(path), "--inequality", "cdn",
                              "--n", "2", "--K", "-79", "--times", "0.01",
                              "--functions", "witnesses")
    assert code == 3, err
    rep = json.loads(out)
    assert rep["min_slack"] < -3.0 and rep["quadrature_error"] <= 1e-12


def test_verify_deterministic_reports(capsys, k2_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--graph", k2_path, "--inequality", "gradient",
            "--K", "auto", "--times", "0.1,0.7"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# heat subcommand
# ---------------------------------------------------------------------------

def test_heat_t0_echoes_input(capsys, k2_path, f_path):
    code, out, _ = run_main(capsys, "heat", "--graph", k2_path, "--f", f_path, "--t", "0")
    assert code == 0
    g = load_graph(K2_TEXT)
    vals = load_vertex_function(out, g)
    assert np.array_equal(vals, [1.0, 0.0])


def test_heat_closed_form(capsys, k2_path, f_path):
    code, out, _ = run_main(capsys, "heat", "--graph", k2_path, "--f", f_path, "--t", "0.5")
    assert code == 0
    g = load_graph(K2_TEXT)
    vals = load_vertex_function(out, g)
    assert vals[0] == pytest.approx(0.5 * (1 + math.exp(-1.0)), abs=1e-12)
    assert vals[1] == pytest.approx(0.5 * (1 - math.exp(-1.0)), abs=1e-12)


def test_heat_constant_is_fixed(capsys, k2_path, tmp_path):
    ones = tmp_path / "ones.csv"
    ones.write_text("vertex,value\na,1.0\nb,1.0\n")
    code, out, _ = run_main(capsys, "heat", "--graph", k2_path, "--f", str(ones), "--t", "3.7")
    assert code == 0
    g = load_graph(K2_TEXT)
    assert np.abs(load_vertex_function(out, g) - 1.0).max() <= 1e-12


def test_heat_keeps_the_mean_at_huge_weights(capsys, tmp_path):
    graph, f = tmp_path / "p3.graph", tmp_path / "f.csv"
    graph.write_text("vertex a 1\nvertex b 1\nvertex c 1\nedge a b 1e160\nedge b c 1e160\n")
    f.write_text("vertex,value\na,1\nb,0\nc,2\n")
    code, out, _ = run_main(capsys, "heat", "--graph", str(graph), "--f", str(f), "--t", "1")
    assert code == 0
    got = load_vertex_function(out, load_graph(graph.read_text()))
    assert np.abs(got - 1.0).max() <= 1e-14


def test_heat_negative_time_exit_2(capsys, k2_path, f_path):
    code, _, err = run_main(capsys, "heat", "--graph", k2_path, "--f", f_path, "--t", "-1")
    assert code == 2


@pytest.mark.parametrize("t", ["inf", "nan"])
def test_heat_nonfinite_time_exit_2(capsys, k2_path, f_path, t):
    code, out, err = run_main(capsys, "heat", "--graph", k2_path, "--f", f_path, "--t", t)
    assert code == 2
    assert out == ""
    assert "--t" in err


def test_heat_unparsable_time_exit_2(capsys, k2_path, f_path):
    code, out, err = run_main(capsys, "heat", "--graph", k2_path, "--f", f_path, "--t", "abc")
    assert (code, out, err) == (2, "", "error: cannot parse --t 'abc'\n")


def test_heat_missing_rows_exit_2(capsys, k2_path, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("vertex,value\na,1.0\n")
    code, _, err = run_main(capsys, "heat", "--graph", k2_path, "--f", str(bad), "--t", "1")
    assert code == 2


def test_heat_output_file(capsys, k2_path, f_path, tmp_path):
    out_path = tmp_path / "heat.csv"
    code, _, _ = run_main(capsys, "heat", "--graph", k2_path, "--f", f_path,
                          "--t", "0.5", "--output", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("vertex,value")


def test_heat_output_round_trips_quoted_labels(capsys, tmp_path):
    graph = tmp_path / "g.graph"
    graph.write_text("vertex a,1 1\nvertex b 2\nedge a,1 b 1\n")
    f = tmp_path / "f.csv"
    f.write_text('vertex,value\n"a,1",1.0\nb,0.0\n')
    h = tmp_path / "h.csv"
    code, _, _ = run_main(capsys, "heat", "--graph", str(graph), "--f", str(f),
                          "--t", "0.5", "--output", str(h))
    assert code == 0
    code, out, err = run_main(capsys, "heat", "--graph", str(graph), "--f", str(h),
                              "--t", "0")
    assert code == 0, err
    g = load_graph(graph.read_text())
    assert np.array_equal(load_vertex_function(out, g), load_vertex_function(h.read_text(), g))


def test_chebyshev_side_reports_are_deterministic(capsys, tmp_path, monkeypatch):
    # at 1000 vertices of degree at most 4 both jobs take the Chebyshev
    # propagator, so a dense decompose would be a wrong turn
    g = cycle_with_chords(1000, 1)
    f = rng_for(43).standard_normal(g.vertex_count)
    want = heat_apply(decompose(g), g, 0.5, f)
    graph, f_path = tmp_path / "g.graph", tmp_path / "f.csv"
    graph.write_text(save_graph(g))
    f_path.write_text(save_vertex_function(g, f))

    def no_dense(g):
        raise AssertionError("decompose called")

    monkeypatch.setattr(graphcd.semigroup, "decompose", no_dense)
    jobs = {
        "heat": ["heat", "--graph", str(graph), "--f", str(f_path), "--t", "0.5"],
        "gamma2": ["verify", "--graph", str(graph), "--inequality", "gamma2-identity",
                   "--K", "auto", "--times", "0.1", "--functions", "random:0:2"],
    }
    for name, argv in jobs.items():
        reports = []
        for run in range(2):
            out = tmp_path / f"{name}{run}.out"
            code, _, err = run_main(capsys, *argv, "--output", str(out))
            assert code == 0, err
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
    got = load_vertex_function((tmp_path / "heat0.out").read_text(), g)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(f).max()


# ---------------------------------------------------------------------------
# process-level entry point
# ---------------------------------------------------------------------------

def test_console_script(tmp_path):
    p = tmp_path / "k2.graph"
    p.write_text(K2_TEXT)
    out = subprocess.run(
        [sys.executable, "-m", "graphcd.cli", "curvature", "--graph", str(p),
         "--dimension", "inf"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["min_kappa"] == pytest.approx(2.0, abs=1e-9)


def test_reports_are_utf8_under_an_ascii_locale(tmp_path):
    # the C locale with neither locale coercion nor UTF-8 mode: open()'s
    # default encoding is ASCII there
    graph, f = tmp_path / "u.graph", tmp_path / "f.csv"
    graph.write_bytes("vertex \u00e9 1\nvertex \u20ac 2\nedge \u00e9 \u20ac 1\n".encode())
    f.write_bytes("vertex,value\n\u00e9,1.0\n\u20ac,0.0\n".encode())
    src = os.path.dirname(os.path.dirname(cli.__file__))
    default = dict(os.environ, PYTHONPATH=src)
    ascii_ = dict(default, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    probe = "import locale; print(locale.getpreferredencoding(False))"
    assert subprocess.run([sys.executable, "-c", probe], env=ascii_, capture_output=True,
                          text=True, check=True).stdout.strip() in ("ANSI_X3.4-1968", "ascii")
    reports = {}
    for name, env in (("default", default), ("ascii", ascii_)):
        out = tmp_path / name
        out.mkdir()
        jobs = [
            ["curvature", "--graph", graph, "--dimension", "inf", "--format", "csv"],
            ["verify", "--graph", graph, "--inequality", "gradient", "--K", "auto",
             "--times", "0.1", "--functions", f"file:{f}", "--csv", out / "r.csv"],
            ["heat", "--graph", graph, "--f", f, "--t", "0.5", "--output", out / "h.csv"],
        ]
        for i, job in enumerate(jobs):
            run = subprocess.run([sys.executable, "-m", "graphcd.cli", *map(str, job)], env=env,
                                 capture_output=True)
            assert run.returncode == 0, run.stderr
            (out / f"stdout{i}").write_bytes(run.stdout)
        reports[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert reports["ascii"] == reports["default"]
    # JSON escapes every non-ASCII character; the CSV reports carry them
    for csv_report in ("stdout0", "r.csv", "h.csv"):
        assert "\u00e9".encode() in reports["ascii"][csv_report]


def test_cli_import_curvature_and_heat_load_no_scipy(tmp_path):
    graph, f = tmp_path / "k2.graph", tmp_path / "f.csv"
    graph.write_text(K2_TEXT)
    f.write_text("vertex,value\na,1.0\nb,0.0\n")
    script = "\n".join([
        "import sys",
        "import graphcd.cli",
        "def scipy_modules():",
        "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']",
        "assert not scipy_modules(), scipy_modules()",
        f"assert graphcd.cli.main(['curvature', '--graph', {str(graph)!r}, '--dimension', '2',"
        f" '--output', {str(tmp_path / 'k.json')!r}]) == 0",
        f"assert graphcd.cli.main(['heat', '--graph', {str(graph)!r}, '--f', {str(f)!r},"
        f" '--t', '0.5', '--output', {str(tmp_path / 'h.csv')!r}]) == 0",
        "assert not scipy_modules(), scipy_modules()",
    ])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_version_flag(capsys):
    code, out, err = run_main(capsys, "--version")
    assert code == 0
    assert "graphcd" in out + err
