"""Finite weighted graphs with positive vertex measures.

A graph is (V, E, mu, m): symmetric positive edge weights mu, a positive
measure m on vertices, self-loops allowed.  Vertices get integer ids in
order of first declaration; labels are non-empty and whitespace-free.
Graphs must be connected (self-loops do not connect anything) and are
immutable after construction.  Edges are stored once, as arrays u < v
ascending in (u, v) and mu, which the operators, the propagators and the
curvature engine read.  A loop term mu_xx (f(x) - f(x)) is 0, so self-loops
are kept apart, for save_graph and edges, which merge them back in.

Text format, one directive per line:

    # comment
    vertex <label> <m>
    edge <label1> <label2> <mu>

load_graph reads a text stream a chunk of whole lines at a time, and an
error names the line of its fault.  A vertex function is stored as a CSV
with header ``vertex,value`` and one row per vertex.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from array import array
from collections import defaultdict
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np


class GraphFormatError(ValueError):
    """Raised for malformed graph/function text or invalid graph data.

    ``line`` carries the 1-based offending line number when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            line = operator.index(line)
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Ball:
    """Combinatorial 2-ball around a center vertex.

    sphere1/sphere2 are ascending vertex ids at distance exactly 1 and 2.
    index_map sends each sphere vertex to its position in the local
    coordinate order sphere1 + sphere2; the center is pinned to zero in
    the local forms, so it is not in the map.
    """

    center: int
    sphere1: tuple
    sphere2: tuple
    index_map: dict


def _require(ok, lines, message):
    """GraphFormatError(message(i), line) at the first False ok[i], if any."""
    bad = np.flatnonzero(~np.asarray(ok))
    if bad.size:
        raise GraphFormatError(message(bad[0]), None if lines is None else lines[bad[0]])


class WeightedGraph:
    def __init__(self, labels, measures, edges):
        """Build a graph from labels, per-vertex measures, and an edge map
        {(u, v): mu} over integer vertex ids; (u, u) is a self-loop, and (v, u)
        may repeat (u, v) with an equal weight.  Raises GraphFormatError on
        invalid data or a disconnected graph."""
        ends = np.array(list(edges) or np.empty((0, 2), dtype=np.int64))
        self._build(labels, measures, ends, np.fromiter(edges.values(), float, len(edges)))

    def _build(self, labels, measures, ends, mu, vertex_lines=None, edge_lines=None):
        """Check graph data and store it: the one home of every rule on it.  ends
        (ne x 2 vertex ids) and mu may repeat edges; *_lines are text lines."""
        self.labels = labels = tuple(map(str, labels))
        nv = len(labels)
        if nv == 0:
            raise GraphFormatError("graph has no vertices")
        # the first of repeated labels keeps its id, so ids[s] != i marks a repeat
        self._label_to_id = ids = dict(zip(reversed(labels), range(nv - 1, -1, -1)))
        # one string in place of a copy per label: whitespace in any label is
        # whitespace in their concatenation
        if len(ids) != nv or not all(labels) or (s := "".join(labels)).split() != [s]:
            # the text format splits on whitespace, so only such labels round-trip
            _require([s.split() == [s] for s in labels], vertex_lines,
                     lambda i: f"vertex label {labels[i]!r} is empty or contains whitespace")
            _require(list(map(ids.get, labels)) == np.arange(nv), vertex_lines,
                     lambda i: f"duplicate vertex {labels[i]!r}")
        self.m = m = np.array(measures, dtype=np.float64)  # a copy: it is frozen below
        if m.shape != (nv,):
            raise GraphFormatError("measure count does not match vertex count")
        with np.errstate(divide="ignore", over="ignore"):  # 1/m must be finite too
            _require((m > 0.0) & np.isfinite(m) & np.isfinite(1.0 / m), vertex_lines,
                     lambda i: f"vertex {labels[i]!r}: measure must be positive and finite, "
                     f"with a finite reciprocal, got {float(m[i])!r}")
        if ends.ndim != 2 or ends.shape[1] != 2 or ends.dtype.kind not in "iu":
            raise GraphFormatError("edges must be keyed by pairs of integer vertex ids")
        _require(((ends >= 0) & (ends < nv)).all(axis=1), None,
                 lambda i: f"edge {tuple(ends[i].tolist())} references unknown vertex id")
        _require((mu > 0.0) & np.isfinite(mu), edge_lines,
                 lambda i: f"edge weight must be positive and finite, got {float(mu[i])!r}")

        # each edge once, u <= v ascending; a repeat must give the first one's weight
        p, q = ends.astype(np.int64, copy=False).T
        key = np.minimum(p, q) * nv + np.maximum(p, q)
        order = np.argsort(key, kind="stable")  # repeats in text order
        key = key[order]
        first = np.empty(len(key), dtype=bool)  # the first of each run of equal keys
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        if not first.all():
            declared = np.empty_like(mu)  # the weight of each edge's first line
            declared[order] = mu[order[first]][np.cumsum(first) - 1]
            _require(mu == declared, edge_lines, lambda i: f"edge {labels[ends[i, 0]]} "
                     f"{labels[ends[i, 1]]} already declared with weight {float(declared[i])!r}")
        key = key[first]
        u, v, mu = key // nv, key % nv, mu[order[first]]
        # self-loops are kept apart: every array built from u, v and mu is loop-free
        loop = u == v
        self._loops, self._loop_mu = u[loop], mu[loop]
        if self._loops.size:
            u, v, mu = u[~loop], v[~loop], mu[~loop]
        self._u, self._v, self._mu = u, v, mu
        self._edge_map = self._incidence_cache = None

        # each edge in the rows of both ends; rows list their neighbors in
        # ascending order, by one sort of the distinct keys row * nv + col
        order = np.argsort(np.concatenate([u * nv + v, v * nv + u]))
        rows = np.concatenate([u, v])[order]
        self._csr_indices = np.concatenate([v, u])[order]
        self._csr_weights = wts = np.concatenate([mu, mu])[order]
        self._csr_indptr = indptr = np.zeros(nv + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=nv), out=indptr[1:])
        # bincount sums each row in that ascending order (and returns
        # integers when there is nothing to sum)
        self._degree = np.bincount(rows, weights=wts, minlength=nv).astype(np.float64, copy=False)
        self._inv_m = 1.0 / m
        with np.errstate(over="ignore"):
            _require(np.isfinite(self._degree * self._inv_m), vertex_lines,
                     lambda i: f"vertex {labels[i]!r}: Deg = sum of mu / m is not finite")
        self._check_connected()
        for a in (m, u, v, mu, self._loops, self._loop_mu, wts):
            a.flags.writeable = False

    # -- construction helpers -------------------------------------------

    def _incidences(self):
        """(B, B^T, |B^T|) as sparse CSR arrays, built when first asked for.

        B is the signed incidence over the edges, (B f)_e = f(v) - f(u)
        for e = (u, v), u < v.  The edges ascend in (u, v), which makes
        every row of B^T list its neighbors in ascending order, the
        adjacency order.
        """
        if self._incidence_cache is None:
            # imported here: loading a graph, curvature and heat need no
            # scipy, and scipy.sparse is most of the package's import time
            import scipy.sparse

            ne, nv = len(self._mu), len(self.labels)
            B = scipy.sparse.csr_array(
                (np.tile([-1.0, 1.0], ne), np.column_stack([self._u, self._v]).ravel(),
                 np.arange(0, 2 * ne + 1, 2)),
                shape=(ne, nv),
            )
            Bt = B.T.tocsr()
            self._incidence_cache = (B, Bt, abs(Bt))
        return self._incidence_cache

    def _check_connected(self):
        # Components by hooking and pointer jumping over the edge arrays:
        # root[x] <= x always; each round hooks the larger root of every
        # edge that joins two trees under the smaller one, then jumps each
        # vertex to its tree's root.  A path takes a few rounds (11 for
        # 100k vertices in shuffled id order), where a breadth-first search
        # would take one step per vertex.
        u, v = self._u, self._v
        root = np.arange(len(self.labels))
        ru, rv = root[u], root[v]
        while (ru != rv).any():
            np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
            while ((up := root[root]) != root).any():
                root = up
            ru, rv = root[u], root[v]
        missing = [self.labels[x] for x in np.flatnonzero(root != 0)[:5].tolist()]
        if missing:
            raise GraphFormatError(f"graph is not connected (unreachable: {missing})")

    # -- queries ---------------------------------------------------------

    @property
    def vertex_count(self):
        return len(self.labels)

    def _with_loops(self):
        """(u, v, mu) of every edge, the self-loops merged back in, u <= v ascending."""
        at = np.searchsorted(self._u, self._loops)  # (x, x) goes before every (x, v > x)
        return (np.insert(self._u, at, self._loops), np.insert(self._v, at, self._loops),
                np.insert(self._mu, at, self._loop_mu))

    @property
    def edges(self):
        """Read-only {(u, v): mu}, u <= v ascending, self-loops included;
        built from the edge arrays when first read."""
        if self._edge_map is None:
            u, v, mu = self._with_loops()
            self._edge_map = MappingProxyType(dict(zip(zip(u.tolist(), v.tolist()), mu.tolist())))
        return self._edge_map

    def id_of(self, label):
        try:
            return self._label_to_id[label]
        except KeyError:
            raise GraphFormatError(f"unknown vertex label {label!r}") from None

    def neighbors(self, x):
        """(ids, weights) of the adjacency row of x: its neighbors other than
        x, ascending (a self-loop is in no row)."""
        lo, hi = self._csr_indptr[x], self._csr_indptr[x + 1]
        return self._csr_indices[lo:hi], self._csr_weights[lo:hi]


def vertex_id(g: WeightedGraph, x) -> int:
    """x as a vertex id of g; ValueError unless it is in range(vertex_count)."""
    i = operator.index(x)
    if not 0 <= i < g.vertex_count:
        raise ValueError(f"vertex id {i} is not in range({g.vertex_count})")
    return i


def label_order(g: WeightedGraph) -> np.ndarray:
    """The vertex ids sorted by label, the order of every report's rows (an
    argsort of the labels as an object array builds no list of ids)."""
    return np.argsort(np.array(g.labels, dtype=object), kind="stable")


def ball2(g: WeightedGraph, x: int) -> Ball:
    x = vertex_id(g, x)
    s1 = g.neighbors(x)[0].tolist()
    s2 = sorted({z for y in s1 for z in g.neighbors(y)[0].tolist()} - {x, *s1})
    order = s1 + s2
    return Ball(
        center=x,
        sphere1=tuple(s1),
        sphere2=tuple(s2),
        index_map={v: i for i, v in enumerate(order)},
    )


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

_CHUNK = 1 << 16  # characters of text that load_graph tokenizes at a time


def _numbers(tokens, what, lines):
    """The tokens as float64, each read as float() reads it."""
    rest = iter(tokens)
    try:
        return np.fromiter(map(float, rest), dtype=np.float64, count=len(tokens))
    except ValueError:
        k = len(tokens) - 1 - operator.length_hint(rest)  # the token float() rejected
        raise GraphFormatError(f"cannot parse {what} {tokens[k]!r}", lines[k]) from None


def _append_numbers(out, tokens, what, lines):
    """Append the tokens to the array('d') out as _numbers reads them; the
    GraphFormatError that names a bad token is returned, not raised."""
    try:
        out.frombytes(_numbers(tokens, what, lines).view(np.uint8))
    except GraphFormatError as exc:
        return exc.with_traceback(None)
    return None


def load_graph(fh) -> WeightedGraph:
    """Tokenize the text format from a text stream or a str; WeightedGraph
    checks the data, naming each fault's line.

    The stream is read _CHUNK characters at a time, each continued to just
    after the next "\\n", so that the chunks' splitlines() are the text's
    own lines.  Labels become numbers as they are read, through one dict of
    distinct labels, and numbers and line numbers go into typed arrays, so
    no token string but a vertex's label outlives its chunk.  Of several
    faults the first structural one (unknown directive, token count) in line
    order is named, else the first undeclared label in edge order, else the
    first bad measure, else the first bad weight, else WeightedGraph's first.
    """
    number = defaultdict(itertools.count().__next__)  # label -> its number, in order of first use
    labels = []  # of the vertex lines, in line order
    vertex_labels, end_labels = array("q"), array("q")  # label numbers
    measures, weights = array("d"), array("d")
    vertex_lines, edge_lines = array("q"), array("q")
    bad_measure = bad_weight = None  # raised once no earlier kind of fault is found
    fh = io.StringIO(fh) if isinstance(fh, str) else fh
    ln = 0
    while chunk := fh.read(_CHUNK):
        chunk += fh.readline()
        chunk_labels, chunk_measures, chunk_vertex_lines = [], [], []
        chunk_ends, chunk_weights, chunk_edge_lines = [], [], []
        for ln, tokens in enumerate(map(str.split, chunk.splitlines()), ln + 1):
            if not tokens:
                continue
            head = tokens[0]
            if head == "edge":
                if len(tokens) != 4:
                    raise GraphFormatError("expected 'edge <label1> <label2> <mu>'", line=ln)
                chunk_ends += tokens[1:3]
                chunk_weights.append(tokens[3])
                chunk_edge_lines.append(ln)
            elif head == "vertex":
                if len(tokens) != 3:
                    raise GraphFormatError("expected 'vertex <label> <m>'", line=ln)
                chunk_labels.append(tokens[1])
                chunk_measures.append(tokens[2])
                chunk_vertex_lines.append(ln)
            elif not head.startswith("#"):
                raise GraphFormatError(f"unknown directive {head!r}", line=ln)
        labels += chunk_labels
        # array.frombytes reads a numpy array through a byte view, without a copy
        for out, tokens in ((vertex_labels, chunk_labels), (end_labels, chunk_ends)):
            out.frombytes(np.fromiter(map(number.__getitem__, tokens), np.int64, len(tokens))
                          .view(np.uint8))
        vertex_lines.fromlist(chunk_vertex_lines)
        edge_lines.fromlist(chunk_edge_lines)
        bad_measure = bad_measure or _append_numbers(
            measures, chunk_measures, "vertex measure", chunk_vertex_lines)
        bad_weight = bad_weight or _append_numbers(
            weights, chunk_weights, "edge weight", chunk_edge_lines)

    # the vertex id of each label number, -1 where no vertex line declares it
    vertex_labels, end_labels, vertex_lines, edge_lines = (
        np.frombuffer(a, np.int64) for a in (vertex_labels, end_labels, vertex_lines, edge_lines))
    vertex_of = np.full(len(number), -1, dtype=np.int64)
    vertex_of[vertex_labels] = np.arange(len(labels))
    ends = vertex_of[end_labels]
    undeclared = np.flatnonzero(ends < 0)
    if undeclared.size:
        k = undeclared[0]
        label = list(number)[end_labels[k]]
        raise GraphFormatError(f"edge references undeclared vertex {label!r}", edge_lines[k // 2])
    if bad_measure or bad_weight:
        raise bad_measure or bad_weight
    del number, end_labels, vertex_of  # not needed while the graph is built
    g = WeightedGraph.__new__(WeightedGraph)
    g._build(labels, np.frombuffer(measures), ends.reshape(-1, 2), np.frombuffer(weights),
             vertex_lines, edge_lines)
    return g


def save_graph(g: WeightedGraph) -> str:
    """The text that load_graph reads back as g, each edge once, u <= v ascending."""
    labels = np.array(g.labels, dtype=object)
    u, v, mu = g._with_loops()
    vertices = map("vertex {} {!r}".format, g.labels, g.m.tolist())
    edges = map("edge {} {} {!r}".format, labels[u], labels[v], mu.tolist())
    return "\n".join([*vertices, *edges]) + "\n"


def load_vertex_function(fh, g: WeightedGraph) -> np.ndarray:
    """Parse a ``vertex,value`` CSV, a text stream or a str, into an array in
    vertex-id order; a fault in a row names the row's line."""
    reader = csv.reader(io.StringIO(fh) if isinstance(fh, str) else fh)
    rows = [(reader.line_num, r) for r in reader if r and any(cell.strip() for cell in r)]
    if not rows or [c.strip() for c in rows[0][1]] != ["vertex", "value"]:
        raise GraphFormatError("vertex function CSV must start with header 'vertex,value'")
    f = np.full(g.vertex_count, np.nan)
    for ln, r in rows[1:]:
        if len(r) != 2:
            raise GraphFormatError(f"bad vertex function row {r!r}", ln)
        label = r[0].strip()
        try:
            i = g.id_of(label)
        except GraphFormatError as exc:
            raise GraphFormatError(str(exc), ln) from None
        if not math.isnan(f[i]):
            raise GraphFormatError(f"duplicate value for vertex {label!r}", ln)
        try:
            f[i] = float(r[1])
        except ValueError:
            raise GraphFormatError(f"cannot parse value {r[1]!r}", ln) from None
        if not math.isfinite(f[i]):
            raise GraphFormatError(f"vertex function value must be finite, got {r[1]}", ln)
    if np.isnan(f).any():
        missing = [g.labels[i] for i in np.nonzero(np.isnan(f))[0][:5]]
        raise GraphFormatError(f"missing vertex function rows for {missing}")
    return f


def save_vertex_function(g: WeightedGraph, f) -> str:
    """The ``vertex,value`` CSV that load_vertex_function reads back;
    labels are quoted where CSV needs it."""
    f = np.asarray(f, dtype=np.float64)
    rows = ((label, repr(float(val))) for label, val in zip(g.labels, f))
    return csv_text(["vertex", "value"], rows)


def csv_text(header, rows):
    """CSV text, each row ending in a newline; fields are quoted where CSV needs it."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()
