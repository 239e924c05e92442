"""Shared fixtures and slow, independent reference implementations.

The reference operators below are deliberately written as plain Python
loops over the edge dictionary.  They share no code with the package
operators (sparse edge incidence products) so that agreement between the
two is evidence, not tautology.  Their exact twins in rational arithmetic
certify the package's curvature from both sides.  The cross-checks after
them reach the same quantities along a second route through the package's
own operators: Gamma by the product rule, Green's formula, and Gamma2 from
the short-time behaviour of the heat semigroup.  The reference reader
tokenizes a graph text line by line, in one pass over the whole text.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from graphcd.curvature import curvature_at
from graphcd.fixtures import fixture_graphs
from graphcd.graph import GraphFormatError, WeightedGraph, _numbers
from graphcd.operators import gamma, gamma2, laplacian
from graphcd.verify import _sides, gradient_estimate


@pytest.fixture(scope="session")
def fixtures():
    return fixture_graphs()


# ---------------------------------------------------------------------------
# reference reader (a line loop over the whole text, independent of the
# package's chunked tokenizer; the graph's own checks are shared)
# ---------------------------------------------------------------------------

def load_graph_reference(text):
    """Tokenize the text format; WeightedGraph checks the data, naming each fault's line."""
    labels, measures, vertex_lines = [], [], []
    ends, weights, edge_lines = [], [], []
    for ln, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "edge":
            if len(tokens) != 4:
                raise GraphFormatError("expected 'edge <label1> <label2> <mu>'", line=ln)
            ends += tokens[1:3]
            weights.append(tokens[3])
            edge_lines.append(ln)
        elif head == "vertex":
            if len(tokens) != 3:
                raise GraphFormatError("expected 'vertex <label> <m>'", line=ln)
            labels.append(tokens[1])
            measures.append(tokens[2])
            vertex_lines.append(ln)
        elif not head.startswith("#"):
            raise GraphFormatError(f"unknown directive {head!r}", line=ln)

    ids = dict(zip(labels, range(len(labels))))
    try:
        ends = np.fromiter(map(ids.__getitem__, ends), dtype=np.int64, count=len(ends))
    except KeyError as exc:
        label = exc.args[0]
        ln = edge_lines[ends.index(label) // 2]
        raise GraphFormatError(f"edge references undeclared vertex {label!r}", ln) from None
    measures = _numbers(measures, "vertex measure", vertex_lines)
    weights = _numbers(weights, "edge weight", edge_lines)
    g = WeightedGraph.__new__(WeightedGraph)
    g._build(labels, measures, ends.reshape(-1, 2), weights, vertex_lines, edge_lines)
    return g


# ---------------------------------------------------------------------------
# reference operators (independent of the package operators)
# ---------------------------------------------------------------------------

def adjacency(g):
    nbrs = {x: {} for x in range(g.vertex_count)}
    for (u, v), w in g.edges.items():
        if u == v:
            continue
        nbrs[u][v] = w
        nbrs[v][u] = w
    return nbrs


def ref_laplacian(g, f):
    nbrs = adjacency(g)
    out = np.zeros(g.vertex_count)
    for x in range(g.vertex_count):
        out[x] = sum(w * (f[y] - f[x]) for y, w in nbrs[x].items()) / g.m[x]
    return out


def ref_gamma(g, f, h=None):
    if h is None:
        h = f
    nbrs = adjacency(g)
    out = np.zeros(g.vertex_count)
    for x in range(g.vertex_count):
        out[x] = sum(
            w * (f[y] - f[x]) * (h[y] - h[x]) for y, w in nbrs[x].items()
        ) / (2.0 * g.m[x])
    return out


def ref_gamma2(g, f):
    lf = ref_laplacian(g, f)
    return 0.5 * ref_laplacian(g, ref_gamma(g, f)) - ref_gamma(g, f, lf)


def laplacian_matrix(g):
    """Dense L with L f = Delta f, entry by entry from the edge dictionary.
    Self-loops never enter L."""
    L = np.zeros((g.vertex_count, g.vertex_count))
    for x, nbrs in adjacency(g).items():
        for y, w in nbrs.items():
            L[x, y] += w / g.m[x]
            L[x, x] -= w / g.m[x]
    return L


# ---------------------------------------------------------------------------
# exact operators and the curvature certificate
# ---------------------------------------------------------------------------

def exact_operators(g):
    """(nbrs, lap, gam): the neighbors of each vertex with their weights, and
    lap(h, z) = Delta h(z) and gam(h, k, z) = Gamma(h, k)(z) in exact
    rational arithmetic on the float inputs, from the operator definitions
    over g.edges and g.m.  h and k map vertex ids to ints or Fractions."""
    m = [Fraction(float(v)) for v in g.m]
    nbrs = {z: {y: Fraction(w) for y, w in ys.items()} for z, ys in adjacency(g).items()}

    # terms with a zero difference are left out: e_i is 0 almost everywhere
    def lap(h, z):
        return sum(w * dh for y, w in nbrs[z].items() if (dh := h[y] - h[z])) / m[z]

    def gam(h, k, z):
        return sum(w * dh * dk for y, w in nbrs[z].items()
                   if (dh := h[y] - h[z]) and (dk := k[y] - k[z])) / (2 * m[z])

    return nbrs, lap, gam


@functools.cache
def exact_forms(g, x):
    """(coords, A, B, d) at x, exact: coords is the punctured 2-ball found
    from g.edges (sphere1, then sphere2), and over the indicators e_i of
    coords, A[i][j] = Gamma2(e_i, e_j)(x), B[i][j] = Gamma(e_i, e_j)(x) and
    d[i] = Delta e_i(x), by the bilinear definition Gamma2(f, h) =
    [Delta Gamma(f, h) - Gamma(f, Delta h) - Gamma(h, Delta f)] / 2.  Built
    once per (graph, vertex) for the session: callers share the lists and
    must not change them."""
    nbrs, lap, gam = exact_operators(g)
    s1 = sorted(nbrs[x])
    s2 = sorted({z for y in s1 for z in nbrs[y]} - {x, *s1})
    coords, ball1 = s1 + s2, [x, *s1]
    e = [[int(z == c) for z in range(g.vertex_count)] for c in coords]
    L = [{z: lap(ei, z) for z in ball1} for ei in e]  # Delta e_i on the 1-ball
    A = [[None] * len(coords) for _ in coords]
    B = [row[:] for row in A]
    for i, j in itertools.combinations_with_replacement(range(len(coords)), 2):
        G = {z: gam(e[i], e[j], z) for z in ball1}  # Gamma(e_i, e_j) on the 1-ball
        A[i][j] = A[j][i] = (lap(G, x) - gam(e[i], L[j], x) - gam(e[j], L[i], x)) / 2
        B[i][j] = B[j][i] = G[x]
    return coords, A, B, [Li[x] for Li in L]


def is_psd(P):
    """Whether the symmetric Fraction matrix P is positive semidefinite, by
    an exact LDL^T without pivoting, in place: every pivot is positive, or
    zero with a zero row."""
    for k, row in enumerate(P):
        if row[k] < 0 or (row[k] == 0 and any(row[k + 1:])):
            return False
        if row[k] > 0:
            for below in P[k + 1:]:
                f = below[k] / row[k]
                for j in range(k + 1, len(P)):
                    below[j] -= f * row[j]
    return True


def certify(g, x, n, kappa, witness, delta):
    """Whether kappa(x; n) provably lies in [kappa - delta, kappa + delta],
    witnessed by the vertex function witness, in exact arithmetic on the
    float inputs.  With M = A - dd^T/n over exact_forms(g, x):
    upper side, the witness w (its values less w(x), over the coords) has
    Gamma(w)(x) = w^T B w > 0 and w^T M w <= (kappa + delta) w^T B w, so its
    quotient is at most kappa + delta; lower side, M - (kappa - delta) B is
    PSD, so no function has a smaller quotient."""
    coords, A, B, d = exact_forms(g, x)
    inv_n = 0 if math.isinf(n) else 1 / Fraction(n)
    M = [[a - inv_n * di * dj for a, dj in zip(row, d)] for row, di in zip(A, d)]
    w = [Fraction(float(witness[c])) - Fraction(float(witness[x])) for c in coords]

    def form(P):
        return sum(wi * pij * wj for wi, row in zip(w, P) for pij, wj in zip(row, w))

    lo, hi = Fraction(kappa) - Fraction(delta), Fraction(kappa) + Fraction(delta)
    if not form(B) > 0 or form(M) > hi * form(B):
        return False
    return is_psd([[mij - lo * bij for mij, bij in zip(mi, bi)] for mi, bi in zip(M, B)])


def certified(g, x, n):
    """Whether certify proves curvature_at(g, x, n) to 1e-12 max(1, |kappa|)."""
    r = curvature_at(g, x, n)
    return certify(g, x, n, r.kappa, r.witness, 1e-12 * max(1.0, abs(r.kappa)))


# ---------------------------------------------------------------------------
# cross-checks along a second route through the package operators
# ---------------------------------------------------------------------------

def gamma_composition(g, f, h=None):
    """Gamma(f,h) via 1/2(Delta(fh) - f Delta h - h Delta f), the product
    rule, against the local edge sum of graphcd.operators.gamma."""
    f = np.asarray(f, dtype=np.float64)
    h = f if h is None else np.asarray(h, dtype=np.float64)
    return 0.5 * (laplacian(g, f * h) - f * laplacian(g, h) - h * laplacian(g, f))


def green_identity_residual(g, f, h):
    """|sum f (Delta h) m + sum Gamma(f,h) m|, zero in exact arithmetic."""
    f = np.asarray(f, dtype=np.float64)
    lhs = float(np.sum(f * laplacian(g, h) * g.m))
    rhs = float(np.sum(gamma(g, f, h) * g.m))
    return abs(lhs + rhs)


def derivative_recovery(g, sd, x, n=math.inf):
    """Recover Gamma2 from the short-time expansion of the gradient gap.

    Using the curvature witness f at x, Richardson-extrapolates
    [P_t Gamma(f)(x) - Gamma(P_t f)(x)] / (2t) down to t -> 0+, whose limit
    is Gamma2(f)(x), and returns (extrapolated limit) - Gamma2(f)(x).
    """
    f = curvature_at(g, x, n).witness
    levels = 6
    T = []  # first-order Richardson table in h
    for k in range(levels):
        h = 0.05 / 2.0**k
        # the gap is the slack of the gradient estimate at K = 0
        T.append(gradient_estimate(g, sd, f, 0.0, h)[x] / (2.0 * h))
    for m in range(1, levels):
        fac = 2.0**m
        for k in range(levels - 1, m - 1, -1):
            T[k] = (fac * T[k] - T[k - 1]) / (fac - 1.0)
    return float(T[levels - 1] - gamma2(g, f)[x])


def slack_of(g, sd, name, f, K, t, n=None):
    """(slack rhs - lhs, quadrature error estimate or None) per vertex of
    the check `name` at the single function f: column 0 of verify._sides.
    An identity's residual is |slack|."""
    lhs, rhs, err = _sides(g, sd, name, np.asarray(f, dtype=np.float64)[:, None], K, n, t)
    return (rhs - lhs)[:, 0], None if err is None else err[:, 0]


def rng_for(*key):
    return np.random.default_rng(list(key))


def cycle_with_chords(nv, seed):
    """A cycle plus a chord (i, i + 7) at every even i: degree at most 4,
    weights and measures uniform in [0.5, 2]."""
    rng = rng_for(42, seed)
    pairs = [(i, (i + 1) % nv) for i in range(nv)] + [(i, (i + 7) % nv) for i in range(0, nv, 2)]
    edges = {(min(u, v), max(u, v)): w for (u, v), w in zip(pairs, rng.uniform(0.5, 2.0, len(pairs)))}
    return WeightedGraph([f"v{i}" for i in range(nv)], rng.uniform(0.5, 2.0, nv), edges)


class ExpmPropagator:
    """A third propagator, written only against the private interface that
    graphcd.semigroup documents: scipy's expm of t S at each time, with S
    assembled entry by entry from the edge dictionary, and time sums taken
    node by node.  It shares no code with the package's two."""

    def __init__(self, g):
        nv = g.vertex_count
        self.sqrt_m = np.sqrt(g.m)
        self.inv_sqrt_m = 1.0 / self.sqrt_m
        S = np.zeros((nv, nv))
        for x, nbrs in adjacency(g).items():
            for y, w in nbrs.items():
                S[x, y] = w / math.sqrt(g.m[x] * g.m[y])
                S[x, x] -= w / g.m[x]
        self._S = S
        self._expms = {}
        self.lam_min = float(np.linalg.eigvalsh(S)[0])

    def _expm(self, t):
        if t not in self._expms:
            self._expms[t] = scipy.linalg.expm(t * self._S)
        return self._expms[t]

    def _apply(self, ts, V):
        return np.stack([self._expm(t) @ V for t in ts], axis=-1)

    def _time_sum(self, K, s, W, V):
        P = np.stack([self._expm(t) @ V[:, j] for j, t in enumerate(s)], axis=1)
        return (P * np.exp(-2.0 * K * s)) @ W


def lp_norm(g, f, p):
    f = np.abs(np.asarray(f, dtype=np.float64))
    if math.isinf(p):
        return float(f.max())
    return float(np.sum(f**p * g.m) ** (1.0 / p))


def check_semigroup_invariants(g, sd, rng, times=(0.05, 0.3, 1.0, 4.0)):
    """Structural property suite for the heat semigroup on one graph.

    Covers the semigroup law, generator commutation, l^p contraction for
    p in {1, 2, inf}, self-adjointness in the m inner product, positivity
    preservation, mass conservation, and the sup-norm embedding bound.
    Raises AssertionError on the first failed property.
    """
    from graphcd.semigroup import heat_apply

    nv = g.vertex_count
    f = rng.standard_normal(nv)
    h = rng.standard_normal(nv)
    pos = np.abs(rng.standard_normal(nv))
    for t in times:
        pt_f = heat_apply(sd, g, t, f)

        # semigroup law P_s P_t = P_{s+t}
        s = 0.7 * t
        lhs = heat_apply(sd, g, s, pt_f)
        rhs = heat_apply(sd, g, s + t, f)
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(f).max())

        # commutation with the generator
        comm = laplacian(g, pt_f) - heat_apply(sd, g, t, laplacian(g, f))
        assert np.abs(comm).max() <= 1e-10 * max(1.0, np.linalg.norm(f))

        # contraction in every l^p(m)
        for p in (1.0, 2.0, math.inf):
            assert lp_norm(g, pt_f, p) <= lp_norm(g, f, p) * (1 + 1e-12)

        # self-adjointness in the m inner product
        a = np.sum(pt_f * h * g.m)
        b = np.sum(f * heat_apply(sd, g, t, h) * g.m)
        scale = max(1.0, np.linalg.norm(f) * np.linalg.norm(h))
        assert abs(a - b) <= 1e-10 * scale

        # positivity and mass
        assert heat_apply(sd, g, t, pos).min() >= -1e-12
        mass0 = np.sum(f * g.m)
        mass1 = np.sum(pt_f * g.m)
        assert abs(mass0 - mass1) <= 1e-10 * max(1.0, abs(mass0))

        # nondegenerate-measure embedding: sup norm against l^p(m) norms
        for p in (1.0, 2.0):
            bound = g.m.min() ** (-1.0 / p) * lp_norm(g, pt_f, p)
            assert lp_norm(g, pt_f, math.inf) <= bound * (1 + 1e-12)


# ---------------------------------------------------------------------------
# exact time integrals (independent of the package's quadrature)
# ---------------------------------------------------------------------------

def ref_eigenpairs(g):
    """(lam, Phi) with Delta Phi = Phi diag(lam) and Phi^T M Phi = I, from
    the generator assembled entry by entry from the edge dictionary."""
    r = np.sqrt(g.m)
    lam, U = np.linalg.eigh(r[:, None] * laplacian_matrix(g) / r[None, :])
    return lam, U / r[:, None]


def ref_form_table(g, Phi, form):
    """T[i, j, k] = <Q(phi_j, phi_k), phi_i>_m for the quadratic form(h) =
    Q(h, h), with the bilinear Q recovered by polarization."""
    nv = Phi.shape[1]
    T = np.empty((nv, nv, nv))
    for j in range(nv):
        for k in range(j, nv):
            q = 0.25 * (form(Phi[:, j] + Phi[:, k]) - form(Phi[:, j] - Phi[:, k]))
            T[:, j, k] = T[:, k, j] = Phi.T @ (g.m * q)
    return T


def exact_heat_integral(g, lam, Phi, T, f, K, t):
    """Int_0^t e^{-2Ks} P_s[Q(P_{t-s} f)] ds per vertex, in closed form.

    With f = sum_j a_j phi_j, the (i, j, k) term of the integrand is
    a_j a_k T[i, j, k] e^{q + (p - q) s / t} phi_i, p = (lam_i - 2K) t and
    q = (lam_j + lam_k) t.  Its integral t (e^p - e^q) / (p - q) is taken
    as t e^{max(p, q)} phi_1(-|p - q|), phi_1(z) = expm1(z) / z, which
    neither overflows nor cancels at stiff rates.
    """
    a = Phi.T @ (g.m * np.asarray(f, dtype=np.float64))
    p = ((lam - 2.0 * K) * t)[:, None, None]
    q = ((lam[:, None] + lam[None, :]) * t)[None, :, :]
    z = -np.abs(p - q)
    phi1 = np.ones_like(z)
    nz = z != 0.0
    phi1[nz] = np.expm1(z[nz]) / z[nz]
    E = t * np.exp(np.maximum(p, q)) * phi1
    return Phi @ np.einsum("ijk,j,k->i", T * E, a, a)
