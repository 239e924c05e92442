import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from graphcd import __version__
from graphcd.cli import main
from graphcd.curvature import curvature_at
from graphcd.graph import load_graph, load_vertex_function
from graphcd.semigroup import decompose
from graphcd.verify import function_corpus, run_verification


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


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
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


def test_verify_cdn_auto(capsys, k2_path):
    code, out, _ = run_main(capsys, "verify", "--graph", k2_path,
                            "--inequality", "cdn", "--K", "auto", "--n", "2",
                            "--times", "0.1,1", "--functions", "random:5:3")
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["K"] - 1.0) <= 1e-9  # min kappa(x;2) on K2
    assert rep["n"] == 2.0


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


def test_verify_report_format_is_pinned(capsys, tmp_path):
    text = "vertex b 1\nvertex a 2\nvertex c 1.5\nedge b a 1\nedge a c 0.5\n"
    graph = tmp_path / "p3.graph"
    graph.write_text(text)
    out, records_csv = tmp_path / "r.json", tmp_path / "r.csv"
    code, _, _ = run_main(capsys, "verify", "--graph", str(graph),
                          "--inequality", "gradient", "--K", "auto",
                          "--functions", "witnesses", "--times", "0.5,0.1",
                          "--output", str(out), "--csv", str(records_csv))
    assert code == 0

    g = load_graph(text)
    functions = function_corpus(g, random_count=0, include_constant=False,
                                include_indicators=False)
    report = run_verification(g, decompose(g), "gradient_estimate", "auto",
                              [0.5, 0.1], functions)
    records = list(report.records)
    keys = [(r.function_id, r.t, r.vertex) for r in records]
    assert keys == sorted(keys) and len(keys) == 3 * 2 * 3
    assert [r.vertex for r in records[:3]] == ["a", "b", "c"]

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
        f'{{"inequality": "gradient_estimate", "K": {_report_number(report.K)}, '
        f'"n": null, "graph": "p3", "records": [{body}], '
        f'"min_slack": {_report_number(min(r.slack for r in records))}, '
        f'"quadrature_error": {_report_number(0.0)}, '
        f'"tool_version": {json.dumps(__version__)}}}\n'
    )
    assert out.read_text() == want_json

    want_csv = "function,t,vertex,lhs,rhs,slack\n" + "".join(
        f"{r.function_id},{r.t:.12e},{r.vertex},{r.lhs:.12e},{r.rhs:.12e},{r.slack:.12e}\n"
        for r in records
    )
    assert records_csv.read_text() == want_csv


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


def test_verify_panels_flag(capsys, k2_path):
    code, out, _ = run_main(capsys, "verify", "--graph", k2_path,
                            "--inequality", "variance-identity", "--K", "0",
                            "--times", "1", "--functions", "random:0:2",
                            "--panels", "64")
    assert code == 0
    assert json.loads(out)["quadrature_error"] >= 0.0


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


def test_heat_negative_time_exit_2(capsys, k2_path, f_path):
    code, _, err = run_main(capsys, "heat", "--graph", k2_path, "--f", f_path, "--t", "-1")
    assert code == 2


@pytest.mark.parametrize("t", ["inf", "nan"])
def test_heat_nonfinite_time_exit_2(capsys, k2_path, f_path, t):
    code, out, err = run_main(capsys, "heat", "--graph", k2_path, "--f", f_path, "--t", t)
    assert code == 2
    assert out == ""
    assert "--t" in err


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


def test_version_flag(capsys):
    code, out, err = run_main(capsys, "--version")
    assert code == 0
    assert "graphcd" in out + err
