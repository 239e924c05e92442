"""Finite weighted graphs with positive vertex measures.

A graph is (V, E, mu, m): symmetric positive edge weights mu, a positive
measure m on vertices, self-loops allowed.  Vertices get integer ids in
order of first declaration; labels are arbitrary whitespace-free strings.
Graphs must be connected (self-loops do not connect anything) and are
immutable after construction.

Text format, one directive per line:

    # comment
    vertex <label> <m>
    edge <label1> <label2> <mu>

A vertex function is stored as a CSV with header ``vertex,value`` and one
row per vertex.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse


class GraphFormatError(ValueError):
    """Raised for malformed graph/function text or invalid graph data.

    ``line`` carries the 1-based offending line number when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
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


class WeightedGraph:
    def __init__(self, labels, measures, edges):
        """Build a graph from labels, per-vertex measures, and an edge map.

        edges maps unordered id pairs (u, v) with u <= v to positive
        weights; (u, u) is a self-loop.  Raises GraphFormatError on
        invalid measures, weights, or a disconnected graph.
        """
        labels = tuple(str(s) for s in labels)
        nv = len(labels)
        if nv == 0:
            raise GraphFormatError("graph has no vertices")
        if len(set(labels)) != nv:
            raise GraphFormatError("duplicate vertex labels")
        m = np.asarray(measures, dtype=np.float64)
        if m.shape != (nv,):
            raise GraphFormatError("measure count does not match vertex count")
        if not np.all(np.isfinite(m)) or np.any(m <= 0.0):
            raise GraphFormatError("vertex measures must be positive and finite")

        canon = {}
        for (u, v), w in edges.items():
            u, v = int(u), int(v)
            if not (0 <= u < nv and 0 <= v < nv):
                raise GraphFormatError(f"edge ({u},{v}) references unknown vertex id")
            key = (u, v) if u <= v else (v, u)
            w = float(w)
            if not math.isfinite(w) or w <= 0.0:
                raise GraphFormatError(f"edge weight must be positive and finite, got {w!r}")
            if key in canon and canon[key] != w:
                raise GraphFormatError(f"conflicting weights for edge {key}")
            canon[key] = w

        self.labels = labels
        self.m = m
        self.edges = canon
        self._label_to_id = {s: i for i, s in enumerate(labels)}

        self._build_adjacency()
        self._check_connected()
        self.m.flags.writeable = False
        self._csr_weights.flags.writeable = False
        self._edge_mu.flags.writeable = False

    # -- construction helpers -------------------------------------------

    def _build_adjacency(self):
        nv = len(self.labels)
        ne = len(self.edges)
        ends = np.fromiter(
            itertools.chain.from_iterable(self.edges), dtype=np.int64, count=2 * ne
        ).reshape(ne, 2)
        mu = np.fromiter(self.edges.values(), dtype=np.float64, count=ne)
        u, v = ends[:, 0], ends[:, 1]
        link = u != v
        # each edge in the rows of both ends, a self-loop once; rows list
        # their neighbors in ascending order
        rows = np.concatenate([u, v[link]])
        cols = np.concatenate([v, u[link]])
        order = np.lexsort((cols, rows))
        rows, cols, wts = rows[order], cols[order], np.concatenate([mu, mu[link]])[order]
        indptr = np.zeros(nv + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=nv), out=indptr[1:])
        self._csr_indptr = indptr
        self._csr_indices = cols
        self._csr_weights = wts
        # bincount sums each row in that ascending order (and returns
        # integers when there is nothing to sum)
        link = rows != cols
        self._degree = np.bincount(rows[link], weights=wts[link], minlength=nv).astype(
            np.float64, copy=False
        )
        self._inv_m = 1.0 / self.m

        # signed incidence over the non-loop edges, (B f)_e = f(v) - f(u)
        # for e = (u, v), u < v.  The upper-triangle adjacency entries list
        # the edges in (u, v) order, which makes every row of B^T list its
        # neighbors in ascending order, the adjacency order.
        upper = cols > rows
        ne = int(np.count_nonzero(upper))
        ends = np.stack([rows[upper], cols[upper]], axis=1)
        B = scipy.sparse.csr_array(
            (np.tile([-1.0, 1.0], ne), ends.ravel(), np.arange(0, 2 * ne + 1, 2)),
            shape=(ne, nv),
        )
        self._incidence = B
        self._incidence_t = B.T.tocsr()
        self._abs_incidence_t = abs(self._incidence_t)
        self._edge_mu = wts[upper]

    def _check_connected(self):
        nv = len(self.labels)
        seen = np.zeros(nv, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            x = stack.pop()
            for k in range(self._csr_indptr[x], self._csr_indptr[x + 1]):
                y = int(self._csr_indices[k])
                if y != x and not seen[y]:
                    seen[y] = True
                    stack.append(y)
        if not seen.all():
            missing = [self.labels[i] for i in np.nonzero(~seen)[0][:5]]
            raise GraphFormatError(f"graph is not connected (unreachable: {missing})")

    # -- queries ---------------------------------------------------------

    @property
    def vertex_count(self):
        return len(self.labels)

    @property
    def delta_min(self):
        """Nondegeneracy constant: the minimum vertex measure."""
        return float(self.m.min())

    def id_of(self, label):
        try:
            return self._label_to_id[label]
        except KeyError:
            raise GraphFormatError(f"unknown vertex label {label!r}") from None

    def neighbors(self, x):
        """(ids, weights) of the adjacency row of x, self-loop included."""
        lo, hi = self._csr_indptr[x], self._csr_indptr[x + 1]
        return self._csr_indices[lo:hi], self._csr_weights[lo:hi]

    def weight(self, u, v):
        key = (u, v) if u <= v else (v, u)
        return self.edges.get(key, 0.0)


def degree(g: WeightedGraph, x: int) -> float:
    """Weighted degree sum_{y != x} mu_xy; self-loops do not count."""
    return float(g._degree[x])


def vertex_id(g: WeightedGraph, x) -> int:
    """x as a vertex id of g; ValueError unless it is in range(vertex_count)."""
    i = operator.index(x)
    if not 0 <= i < g.vertex_count:
        raise ValueError(f"vertex id {i} is not in range({g.vertex_count})")
    return i


def ball2(g: WeightedGraph, x: int) -> Ball:
    x = vertex_id(g, x)
    ids, _ = g.neighbors(x)
    s1 = sorted(int(y) for y in ids if y != x)
    s1set = set(s1)
    s2 = set()
    for y in s1:
        yids, _ = g.neighbors(y)
        for z in yids:
            z = int(z)
            if z != x and z != y and z not in s1set:
                s2.add(z)
    s2 = sorted(s2)
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

def _parse_positive(token, what, line):
    try:
        val = float(token)
    except ValueError:
        raise GraphFormatError(f"cannot parse {what} {token!r}", line=line) from None
    if not math.isfinite(val) or val <= 0.0:
        raise GraphFormatError(f"{what} must be positive and finite, got {token}", line=line)
    return val


def load_graph(text: str) -> WeightedGraph:
    labels = []
    measures = []
    ids = {}
    edge_lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "vertex":
            if len(tokens) != 3:
                raise GraphFormatError("expected 'vertex <label> <m>'", line=ln)
            label = tokens[1]
            if label in ids:
                raise GraphFormatError(f"duplicate vertex {label!r}", line=ln)
            ids[label] = len(labels)
            labels.append(label)
            measures.append(_parse_positive(tokens[2], "vertex measure", ln))
        elif tokens[0] == "edge":
            if len(tokens) != 4:
                raise GraphFormatError("expected 'edge <label1> <label2> <mu>'", line=ln)
            edge_lines.append((ln, tokens[1], tokens[2], tokens[3]))
        else:
            raise GraphFormatError(f"unknown directive {tokens[0]!r}", line=ln)

    edges = {}
    for ln, la, lb, tok in edge_lines:
        for lab in (la, lb):
            if lab not in ids:
                raise GraphFormatError(f"edge references undeclared vertex {lab!r}", line=ln)
        w = _parse_positive(tok, "edge weight", ln)
        u, v = ids[la], ids[lb]
        key = (u, v) if u <= v else (v, u)
        if key in edges and edges[key] != w:
            raise GraphFormatError(
                f"edge {la} {lb} already declared with weight {edges[key]!r}", line=ln
            )
        edges[key] = w
    return WeightedGraph(labels, measures, edges)


def save_graph(g: WeightedGraph) -> str:
    out = []
    for label, m in zip(g.labels, g.m):
        out.append(f"vertex {label} {float(m)!r}")
    for (u, v) in sorted(g.edges):
        out.append(f"edge {g.labels[u]} {g.labels[v]} {float(g.edges[(u, v)])!r}")
    return "\n".join(out) + "\n"


def load_vertex_function(text: str, g: WeightedGraph) -> np.ndarray:
    """Parse a ``vertex,value`` CSV into an array in vertex-id order."""
    reader = csv.reader(io.StringIO(text))
    rows = [r for r in reader if r and any(cell.strip() for cell in r)]
    if not rows or [c.strip() for c in rows[0]] != ["vertex", "value"]:
        raise GraphFormatError("vertex function CSV must start with header 'vertex,value'")
    f = np.full(g.vertex_count, np.nan)
    for r in rows[1:]:
        if len(r) != 2:
            raise GraphFormatError(f"bad vertex function row {r!r}")
        i = g.id_of(r[0].strip())
        if not math.isnan(f[i]):
            raise GraphFormatError(f"duplicate value for vertex {r[0].strip()!r}")
        try:
            f[i] = float(r[1])
        except ValueError:
            raise GraphFormatError(f"cannot parse value {r[1]!r}") from None
        if not math.isfinite(f[i]):
            raise GraphFormatError(f"vertex function value must be finite, got {r[1]}")
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
