import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcd import graph
from graphcd.graph import (
    GraphFormatError,
    WeightedGraph,
    ball2,
    load_graph,
    load_vertex_function,
    save_graph,
    save_vertex_function,
)
from graphcd.curvature import curvature_at
from graphcd.operators import local_forms
from conftest import load_graph_reference, rng_for
from graphcd.fixtures import path_graph, random_connected_graph


K2_TEXT = "vertex a 1\nvertex b 1\nedge a b 1\n"


def test_load_k2():
    g = load_graph(K2_TEXT)
    assert g.vertex_count == 2
    assert g.labels == ("a", "b")
    assert g.m.min() == 1.0
    assert g.edges == {(0, 1): 1.0}


def test_self_loop_only_vertex_is_valid():
    g = load_graph("vertex a 1\nedge a a 3\n")
    assert g.vertex_count == 1
    assert g.m.min() == 1.0
    assert g._degree[0] == 0.0  # self-loop never counts toward the degree


def test_disconnected_rejected():
    with pytest.raises(GraphFormatError, match="connected"):
        load_graph("vertex a 1\nvertex b 2\n")


def test_disconnected_names_the_first_five_unreachable_in_id_order():
    text = "".join(f"vertex {x} 1\n" for x in "azbyxcwvu")
    text += "edge a b 1\nedge b c 1\nedge z y 1\nedge x w 1\n"
    with pytest.raises(GraphFormatError) as info:
        load_graph(text)
    assert str(info.value) == "graph is not connected (unreachable: ['z', 'y', 'x', 'w', 'v'])"


def test_connectivity_matches_a_search_from_vertex_0():
    # paths with shuffled ids, and graphs of several components
    rng = rng_for(44)
    for trial in range(60):
        nv = int(rng.integers(2, 40))
        ids = rng.permutation(nv)
        edges = {tuple(sorted((int(ids[i]), int(ids[i + 1])))): 1.0
                 for i in range(nv - 1) if trial % 3 or rng.random() < 0.9}
        labels = [f"v{i}" for i in range(nv)]
        reached, stack = {0}, [0]
        while stack:
            x = stack.pop()
            for a, b in edges:
                for y in ((b,) if a == x else (a,) if b == x else ()):
                    if y not in reached:
                        reached.add(y)
                        stack.append(y)
        missing = [labels[x] for x in range(nv) if x not in reached][:5]
        if missing:
            with pytest.raises(GraphFormatError, match=re.escape(f"(unreachable: {missing})")):
                WeightedGraph(labels, np.ones(nv), edges)
        else:
            WeightedGraph(labels, np.ones(nv), edges)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError, match="line 2"):
        load_graph("vertex a 1\nfrobnicate a b\n")
    with pytest.raises(GraphFormatError, match="line 1"):
        load_graph("vertex a 0\n")
    with pytest.raises(GraphFormatError, match="line 3"):
        load_graph("vertex a 1\nvertex b 1\nedge a c 1\n")
    # one input per loader error; V is a valid head, the rest is the fault
    V = "vertex a 1\nvertex b 1\n"
    for text, line in [
        ("vertex a\n", 1),
        ("vertex a 1 2\n", 1),
        (V + "edge a b\n", 3),
        (V + "edge a b 1 2\n", 3),
        (V + "# note\n\nloop a b 1\n", 5),
        (V + "vertex a 2\nedge a b 1\n", 3),
        (V + "edge a b 1\nedge b z 1\n", 4),
        ("vertex a one\nvertex b 1\nedge a b 1\n", 1),
        (V + "edge a b 1x\n", 3),
        ("vertex a 1\nvertex b -1\nedge a b 1\n", 2),
        ("vertex a 1\nvertex b nan\nedge a b 1\n", 2),
        ("vertex a inf\nvertex b 1\nedge a b 1\n", 1),
        (V + "edge a b 1\nedge a a 0\n", 4),
        (V + "edge a b -inf\n", 3),
        (V + "edge a b 1\nedge b b 1e400\n", 4),
        (V + "edge a b 2\nedge a b 2.0\n# again\nedge b a 3\n", 6),
    ]:
        with pytest.raises(GraphFormatError, match=f"^line {line}: "):
            load_graph(text)


def test_number_tokens_read_as_float():
    for token in ["1_0", "+2", ".5", "1.", "1e3", "\u0661\u0662"]:
        g = load_graph(f"vertex a {token}\nvertex b 1\nedge a b {token}\n")
        assert g.m[0].hex() == g.edges[0, 1].hex() == float(token).hex()
    for token in ["0x10", "1d3", "1,5"]:
        with pytest.raises(GraphFormatError, match="^line 1: cannot parse"):
            load_graph(f"vertex a {token}\nvertex b 1\nedge a b 1\n")
        with pytest.raises(GraphFormatError, match="^line 3: cannot parse"):
            load_graph(f"vertex a 1\nvertex b 1\nedge a b {token}\n")


def test_bad_weights_and_measures_rejected():
    with pytest.raises(GraphFormatError):
        load_graph("vertex a -1\nvertex b 1\nedge a b 1\n")
    with pytest.raises(GraphFormatError):
        load_graph("vertex a 1\nvertex b 1\nedge a b 0\n")
    with pytest.raises(GraphFormatError):
        load_graph("vertex a 1\nvertex b 1\nedge a b -2\n")
    with pytest.raises(GraphFormatError):
        load_graph("vertex a 1\nvertex b 1\nedge a b inf\n")


def test_duplicate_edges():
    # matching duplicates collapse, conflicting ones are an error
    g = load_graph("vertex a 1\nvertex b 1\nedge a b 2\nedge b a 2\n")
    assert g.edges == {(0, 1): 2.0}
    with pytest.raises(GraphFormatError):
        load_graph("vertex a 1\nvertex b 1\nedge a b 2\nedge b a 3\n")


def test_duplicate_vertex_rejected():
    with pytest.raises(GraphFormatError):
        load_graph("vertex a 1\nvertex a 2\nvertex b 1\nedge a b 1\n")


def test_comments_and_blank_lines_ignored():
    g = load_graph("# heading\n\nvertex a 1\nvertex b 2\n# mid\nedge a b 1\n")
    assert g.vertex_count == 2
    assert g.m[1] == 2.0


def test_ids_assigned_by_first_appearance():
    g = load_graph("vertex z 1\nvertex a 1\nedge z a 1\n")
    assert g.labels == ("z", "a")
    assert g.id_of("z") == 0
    with pytest.raises(GraphFormatError):
        g.id_of("missing")


@st.composite
def graph_texts(draw):
    """(text, labels, measures, edges) of a connected graph file with
    comments, blank lines, repeated edges in either order and measures and
    weights log-uniform over 60 decades."""
    nv = draw(st.integers(1, 7))
    labels = draw(st.lists(st.text("abz019_.:#,\u00e9", min_size=1, max_size=4),
                           min_size=nv, max_size=nv, unique=True))
    scale = st.floats(-30.0, 30.0).map(lambda e: 10.0 ** e)
    measures = draw(st.lists(scale, min_size=nv, max_size=nv))
    edges = {(draw(st.integers(0, i - 1)), i): draw(scale) for i in range(1, nv)}
    for _ in range(draw(st.integers(0, 6))):
        u, v = sorted(draw(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1))))
        edges.setdefault((u, v), draw(scale))
    lines = [f"vertex {s} {m!r}" for s, m in zip(labels, measures)]
    for (u, v), w in edges.items():
        for _ in range(draw(st.integers(1, 2))):
            a, b = (v, u) if draw(st.booleans()) else (u, v)
            lines.append(f"  edge {labels[a]} {labels[b]} {w:.17e}")
    out = []
    for line in lines:
        out.append(draw(st.sampled_from(["", "# comment", "   ", "#"])))
        out.append(line)
    return "\n".join(out), labels, measures, edges


@settings(max_examples=60, deadline=None)
@given(graph_texts())
def test_generated_texts_round_trip_bitwise(case):
    text, labels, measures, edges = case
    g = load_graph(text)
    assert g.labels == tuple(labels)
    assert g.m.tobytes() == np.array(measures).tobytes()
    assert dict(g.edges) == {k: float(f"{w:.17e}") for k, w in edges.items()}
    h = load_graph(save_graph(g))
    assert h.labels == g.labels and h.m.tobytes() == g.m.tobytes()
    assert list(h.edges.items()) == list(g.edges.items())
    assert save_graph(h) == save_graph(g)


# every line break that str.splitlines() knows, but "\x1d", "\x1e" and "\u2029"
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
FAULTS = ["directive", "count", "undeclared", "late", "number", "duplicate", "conflict",
          "disconnected"]
BAD_NUMBERS = ["1x", "0x10", "1,5", "0", "-2", "inf", "nan", "1e-320"]


@st.composite
def faulty_graph_texts(draw):
    """A graph_texts text with up to three faults injected, its lines ended
    by mixed line breaks.  "late" moves a vertex or edge line to the end,
    which is legal; "u!" and "d!" are labels graph_texts never draws."""
    text, labels, _, edges = draw(graph_texts())
    lines = text.split("\n")
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)):
        at = draw(st.integers(0, len(lines)))
        k = draw(st.sampled_from([i for i, line in enumerate(lines)
                                  if line.split()[:1] in (["vertex"], ["edge"])]))
        tokens = lines[k].split()
        label = draw(st.sampled_from(labels))
        if fault == "directive":
            lines.insert(at, "frobnicate a b")
        elif fault == "count":
            lines[k] = " ".join(tokens[:-1] if draw(st.booleans()) else [*tokens, "1"])
        elif fault == "undeclared":  # twice, in either order
            lines.insert(at, f"edge {label} u! 1")
            lines.insert(draw(st.integers(0, len(lines))), f"edge u! {label} 1")
        elif fault == "late":
            lines.append(lines.pop(k))
        elif fault == "number":  # in a vertex line and in an edge line
            for head in ("vertex", "edge"):
                rows = [i for i, line in enumerate(lines) if line.split()[:1] == [head]]
                if rows:
                    i = draw(st.sampled_from(rows))
                    bad = draw(st.sampled_from(BAD_NUMBERS))
                    lines[i] = " ".join([*lines[i].split()[:-1], bad])
        elif fault == "duplicate":
            lines.insert(at, f"vertex {label} 1")
        elif fault == "conflict":
            (u, v), w = draw(st.sampled_from(sorted(edges.items()))) if edges else ((0, 0), 1.0)
            lines.insert(at, f"edge {labels[v]} {labels[u]} {2.0 * w!r}")
            lines.insert(at, f"edge {labels[u]} {labels[v]} {w!r}")
        else:
            lines.insert(at, "vertex d! 1")
    ends = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines), max_size=len(lines)))
    text = "".join(map(str.__add__, lines, ends))
    return text[:-len(ends[-1])] if draw(st.booleans()) else text


def _outcome(load, text):
    """The graph's arrays as bytes, or the message and line of its GraphFormatError."""
    try:
        g = load(text)
    except GraphFormatError as exc:
        assert exc.line is None or type(exc.line) is int
        return str(exc), exc.line
    arrays = (g.m, g._u, g._v, g._mu, g._csr_indptr, g._csr_indices, g._csr_weights, g._degree)
    return g.labels, [(a.dtype.str, a.tobytes()) for a in arrays]


@settings(max_examples=300, deadline=None)
@given(faulty_graph_texts(), st.one_of(st.integers(1, 16), st.just(graph._CHUNK)))
def test_chunked_reader_matches_the_line_loop(text, chunk):
    # a few characters a chunk put the chunk edges on every line
    with mock.patch.object(graph, "_CHUNK", chunk):
        got = _outcome(load_graph, text)
    assert got == _outcome(load_graph_reference, text)


def test_edges_are_read_only():
    g = load_graph(K2_TEXT)
    with pytest.raises(TypeError):
        g.edges[(0, 1)] = 5.0
    with pytest.raises(AttributeError):
        g.edges = {(0, 1): 5.0}
    assert dict(g.edges) == {(0, 1): 1.0}


def test_constructor_rejects_labels_the_text_format_cannot_carry():
    for labels in (["a b", "c"], ["", "c"], ["a", "c\n"], ["a", "c\u2028d"]):
        with pytest.raises(GraphFormatError, match="empty or contains whitespace"):
            WeightedGraph(labels, [1.0, 1.0], {(0, 1): 1.0})


def test_constructor_requires_integer_ids():
    for key in ((0.7, 1.9), (0.0, 1.0), ("0", "1"), (0, 1, 1)):
        with pytest.raises(GraphFormatError, match="integer vertex ids"):
            WeightedGraph(["a", "b"], [1.0, 1.0], {key: 1.0})
    g = WeightedGraph(["a", "b"], [1.0, 1.0], {(np.int32(1), 0): 2.0})
    assert dict(g.edges) == {(0, 1): 2.0}


def test_subnormal_measure_rejected():
    # 1/m overflows, which left every heat value nan with exit 0
    with pytest.raises(GraphFormatError, match="^line 2: vertex 'b': measure"):
        load_graph("vertex a 1\nvertex b 1e-320\nvertex c 1\nedge a b 1\nedge b c 1\n")
    with pytest.raises(GraphFormatError, match="vertex 'b': measure"):
        WeightedGraph(["a", "b"], [1.0, 5e-324], {(0, 1): 1.0})
    load_graph("vertex a 1\nvertex b 1e-300\nedge a b 1\n")


def test_overflowing_degree_rejected():
    # Deg(b) = (1e308 + 1e308) / 1 overflows although each weight is finite
    with pytest.raises(GraphFormatError, match="^line 2: vertex 'b': Deg"):
        load_graph("vertex a 1\nvertex b 1\nvertex c 1\nedge a b 1e308\nedge b c 1e308\n")
    # ... and so does Deg(a) = 1e300 / 1e-10
    with pytest.raises(GraphFormatError, match="vertex 'a': Deg"):
        WeightedGraph(["a", "b"], [1e-10, 1.0], {(0, 1): 1e300})


def test_round_trip():
    rng = rng_for(41)
    for i in range(20):
        g = random_connected_graph(100 + i)
        h = load_graph(save_graph(g))
        assert h.labels == g.labels
        assert np.array_equal(h.m, g.m)
        assert h.edges == g.edges


def test_ball2_examples():
    k2 = load_graph(K2_TEXT)
    b = ball2(k2, 0)
    assert b.sphere1 == (1,) and b.sphere2 == ()

    p3 = load_graph("vertex a 1\nvertex b 1\nvertex c 1\nedge a b 1\nedge b c 1\n")
    b = ball2(p3, 0)
    assert b.sphere1 == (1,) and b.sphere2 == (2,)
    b = ball2(p3, 1)
    assert b.sphere1 == (0, 2) and b.sphere2 == ()

    k3 = load_graph(
        "vertex a 1\nvertex b 1\nvertex c 1\nedge a b 1\nedge b c 1\nedge a c 1\n"
    )
    b = ball2(k3, 0)
    assert b.sphere1 == (1, 2) and b.sphere2 == ()


def test_ball2_center_never_in_spheres_even_with_self_loop():
    g = load_graph(
        "vertex a 1\nvertex b 1\nvertex c 1\n"
        "edge a a 5\nedge a b 1\nedge b c 1\n"
    )
    b = ball2(g, 0)
    assert 0 not in b.sphere1 and 0 not in b.sphere2
    assert b.sphere1 == (1,) and b.sphere2 == (2,)
    # index_map covers exactly sphere1 then sphere2
    assert [b.index_map[y] for y in b.sphere1 + b.sphere2] == [0, 1]


def _python_adjacency(g):
    """CSR rows and weighted degrees built one vertex at a time from g.edges;
    a self-loop is in no row."""
    nv = g.vertex_count
    rows = [[] for _ in range(nv)]
    for (u, v), w in g.edges.items():
        if v != u:
            rows[u].append((v, w))
            rows[v].append((u, w))
    indptr, indices, weights, deg = [0], [], [], np.zeros(nv)
    for x in range(nv):
        for y, w in sorted(rows[x]):
            indices.append(y)
            weights.append(w)
            deg[x] += w
        indptr.append(len(indices))
    return (np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64),
            np.array(weights, dtype=np.float64), deg)


def test_adjacency_arrays_match_python_construction():
    loops = 0
    for seed in range(40):
        g = random_connected_graph(2100 + seed, max_vertices=25, self_loop_prob=0.6)
        loops += any(u == v for u, v in g.edges)
        got = (g._csr_indptr, g._csr_indices, g._csr_weights, g._degree)
        for a, b in zip(got, _python_adjacency(g)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)
    assert loops > 0
    g = load_graph("vertex a 1\nedge a a 2\n")
    assert [a.tolist() for a in _python_adjacency(g)] == [
        a.tolist() for a in (g._csr_indptr, g._csr_indices, g._csr_weights, g._degree)
    ]


def test_vertex_ids_outside_range_rejected():
    g = path_graph(3)
    for x in (-1, 3):
        for fn in (ball2, local_forms, curvature_at):
            with pytest.raises(ValueError, match=f"vertex id {x} is not in range\\(3\\)"):
                fn(g, x)


def test_degree_examples():
    k2 = load_graph(K2_TEXT)
    assert k2._degree.tolist() == [1.0, 1.0]
    p3 = load_graph("vertex a 1\nvertex b 1\nvertex c 1\nedge a b 1\nedge b c 1\n")
    assert p3._degree.tolist() == [1.0, 2.0, 1.0]


def test_embedding_bound_sup_norm_vs_lp():
    # max |f| <= delta^{-1/p} ||f||_p for p in {1, 2}
    rng = rng_for(42)
    for i in range(50):
        g = random_connected_graph(200 + i)
        f = rng.standard_normal(g.vertex_count)
        sup = np.abs(f).max()
        for p in (1, 2):
            norm = (np.sum(np.abs(f) ** p * g.m)) ** (1.0 / p)
            assert sup <= g.m.min() ** (-1.0 / p) * norm * (1 + 1e-12)


def test_vertex_function_round_trip():
    g = load_graph(K2_TEXT)
    f = np.array([1.25, -3.5])
    text = save_vertex_function(g, f)
    assert text == "vertex,value\na,1.25\nb,-3.5\n"
    assert np.array_equal(load_vertex_function(text, g), f)


def test_vertex_function_errors():
    g = load_graph(K2_TEXT)
    with pytest.raises(GraphFormatError, match="header"):
        load_vertex_function("a,1\nb,2\n", g)
    with pytest.raises(GraphFormatError, match="missing"):
        load_vertex_function("vertex,value\na,1\n", g)
    with pytest.raises(GraphFormatError, match="duplicate"):
        load_vertex_function("vertex,value\na,1\na,2\nb,0\n", g)
    with pytest.raises(GraphFormatError):
        load_vertex_function("vertex,value\na,nan\nb,0\n", g)
    with pytest.raises(GraphFormatError):
        load_vertex_function("vertex,value\na,x\nb,0\n", g)
    with pytest.raises(GraphFormatError):
        load_vertex_function("vertex,value\nq,1\nb,0\n", g)
    # a fault in a row names its line, blank lines counted
    for text, line in [
        ("vertex,value\na,1,2\nb,0\n", 2),
        ("vertex,value\na,1\n\nb,x\n", 4),
        ("vertex,value\nb,0\na,inf\n", 3),
        ("vertex,value\na,1\nq,1\n", 3),
        ("vertex,value\n\na,1\n \na,2\nb,0\n", 5),
    ]:
        with pytest.raises(GraphFormatError, match=f"^line {line}: "):
            load_vertex_function(text, g)


def test_constructor_validation():
    with pytest.raises(GraphFormatError):
        WeightedGraph([], [], {})
    with pytest.raises(GraphFormatError):
        WeightedGraph(["a", "b"], [1.0], {(0, 1): 1.0})
    with pytest.raises(GraphFormatError):
        WeightedGraph(["a", "b"], [1.0, 1.0], {(0, 5): 1.0})
    with pytest.raises(GraphFormatError):
        WeightedGraph(["a", "a"], [1.0, 1.0], {(0, 1): 1.0})


def test_arrays_frozen():
    g = load_graph(K2_TEXT)
    with pytest.raises(ValueError):
        g.m[0] = 7.0
    # the constructor freezes a copy, not the caller's array
    m = np.ones(2)
    g = WeightedGraph(["a", "b"], m, {(0, 1): 1.0})
    assert m.flags.writeable and not g.m.flags.writeable
    assert not np.shares_memory(m, g.m)
    m[0] = 7.0
    assert g.m[0] == 1.0
