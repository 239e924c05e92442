"""Heat semigroup P_t = e^{t Delta}, by either of two propagators.

L is not symmetric in general, but S = M^{1/2} L M^{-1/2} is (M = diag(m)):
S_xy = mu_xy / sqrt(m(x) m(y)) off the diagonal and S_xx = L_xx.  All its
eigenvalues are <= 0; on a connected graph 0 is simple with eigenvector
proportional to sqrt(m), which is where mass conservation and the
constant fixed point come from.  Both propagators work on S:

- decompose: one dense eigh, S = U diag(lambda) U^T, and
  P_t f = M^{-1/2} U diag(e^{t lambda}) U^T M^{1/2} f.  Exact up to
  floating point at every t, in O(nv^3) time and O(nv^2) memory.  eigh
  returns the kernel eigenvalue with roundoff of the order of the
  largest weighted degree (-1e144 at edge weights of 1e160), and
  e^{t lambda} of that would wipe out the constant mode, so every
  exponential takes it as exactly 0 (SpectralDecomposition.rates);
- ChebyshevPropagator: the expansion of e^{t lambda} in Chebyshev
  polynomials on [-rho, 0], rho = 2 max Deg the Gershgorin bound of the
  spectrum (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 1984).  Its degree
  grows like sqrt(rho t) and each term is one product with the sparse S,
  so it needs no dense matrix at all.

P_t commutes with adding a constant, so each function is applied as
f(x_0) + P_t(f - f(x_0)) with x_0 the first vertex.  A constant then never
passes through either propagator, and P_t c = c bit for bit.

The heat functions and verify read a propagator only through this:
- sqrt_m, inv_sqrt_m (M^{1/2}, M^{-1/2}), and lam_min <= min spec(S);
- _curve(ts, v), column j e^{ts[j] S} v; _columns(ts, V), column j
  e^{ts[j] S} V_j;
- _decayed(K, s, F), column j e^{-2K s[j]} P_{s[j]} F_j in the
  propagator's own coordinates (F may be overwritten), and
  _to_functions(Z), those coordinates back at the vertices: the
  eigenbasis on the dense side, where time integrals are summed, and
  the vertices on the Chebyshev side.
_propagator_for picks the propagator a cost model finds cheaper for a job.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph
from .operators import _vertex_array


@dataclass(frozen=True)
class SpectralDecomposition:
    eigenvalues: np.ndarray   # ascending, all <= 0 up to roundoff
    basis: np.ndarray         # orthonormal columns, S = U diag(lam) U^T
    sqrt_m: np.ndarray
    inv_sqrt_m: np.ndarray
    rates: np.ndarray         # the eigenvalues with the top one set to exactly 0

    @property
    def lam_min(self):
        return float(self.eigenvalues[0])

    def _curve(self, ts, v):
        W = np.multiply.outer(self.rates, ts)
        np.exp(W, out=W)
        np.multiply(W.T, self.basis.T @ v, out=W.T)
        return self.basis @ W

    def _columns(self, ts, V):
        W = self.basis.T @ V
        W *= np.exp(self.rates[:, None] * ts[None, :])
        return self.basis @ W

    def _decayed(self, K, s, F):
        Z = self.basis.T @ np.multiply(F, self.sqrt_m[:, None], out=F)
        E = np.outer(self.rates - 2.0 * K, s)
        Z *= np.exp(E, out=E)
        return Z

    def _to_functions(self, Z):
        return self.inv_sqrt_m[:, None] * (self.basis @ Z)


def decompose(g: WeightedGraph) -> SpectralDecomposition:
    nv = g.vertex_count
    sqrt_m = np.sqrt(g.m)
    inv_sqrt_m = 1.0 / sqrt_m

    u, v = g._edge_ends.T
    S = np.zeros((nv, nv))
    S[u, v] = S[v, u] = g._edge_mu * (inv_sqrt_m[u] * inv_sqrt_m[v])
    S[np.diag_indices(nv)] = -g._degree * g._inv_m

    try:
        lam, U = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on symmetric rarely fails
        raise RuntimeError(f"spectral decomposition failed: {exc}") from exc
    rates = lam.copy()
    rates[-1] = 0.0
    return SpectralDecomposition(
        eigenvalues=lam, basis=U, sqrt_m=sqrt_m, inv_sqrt_m=inv_sqrt_m, rates=rates
    )


# a degree above _MAX_DEGREE + 16 is refused: each application would take
# more sparse products, and its coefficient table more rows, than that
_MAX_DEGREE = 2**16
# Chebyshev terms gathered into one dense product by _curve
_TERM_BLOCK = 64


def _radius(g):
    """rho = 2 max Deg: every row of Delta has diagonal -Deg(x) and
    off-diagonal sum Deg(x), so by Gershgorin its spectrum, which is that
    of S, lies in [-rho, 0].  A single vertex has Deg = 0, and any
    positive rho bounds its spectrum {0}."""
    return 2.0 * float((g._degree * g._inv_m).max()) or 1.0


def _bessel_tail_degree(a):
    """ceil(sqrt(80 a)) + 16, the n past which the Chebyshev coefficients
    2 I_n(a) e^{-a} of e^{a (x - 1)} on [-1, 1] stay below 1e-17 of the
    leading one (I_n(a) / I_0(a) ~ e^{-n^2 / 2a}, 1e-17 = e^{-39.1}); inf
    where a is not finite.  Closed form; each caller applies its own cap."""
    root = math.sqrt(80.0 * a)
    return math.ceil(root) + 16 if root < math.inf else math.inf


def _chebyshev_degree(b):
    """The degree of the expansion of e^{b (X - I)}; inf above the cap."""
    m = _bessel_tail_degree(b)
    return m if m <= _MAX_DEGREE + 16 else math.inf


class ChebyshevPropagator:
    """e^{t S} = e^{b (X - I)} = sum_k (2 - delta_k0) I_k(b) e^{-b} T_k(X),
    with X = 2 S / rho + I and b = rho t / 2.

    X is symmetric with its spectrum in [-1, 1], so ||T_k(X)||_2 <= 1 and
    the three-term recurrence T_{k+1} = 2 X T_k - T_{k-1} does not grow;
    the coefficients sum to 1.  The sum stops at _chebyshev_degree(b).
    """

    def __init__(self, g: WeightedGraph):
        # imported here: a job that decomposes loads no scipy
        import scipy.sparse

        nv = g.vertex_count
        self.sqrt_m = np.sqrt(g.m)
        self.inv_sqrt_m = 1.0 / self.sqrt_m
        self.radius = rho = _radius(g)
        self.lam_min = -rho
        # 2X, whose products give 2 X T_k in one step
        u, v = g._edge_ends.T
        off = (4.0 / rho) * (g._edge_mu * (self.inv_sqrt_m[u] * self.inv_sqrt_m[v]))
        diag = 2.0 - (4.0 / rho) * (g._degree * g._inv_m)
        ids = np.arange(nv)
        self._twice_x = scipy.sparse.csr_array(
            (np.concatenate([off, off, diag]),
             (np.concatenate([u, v, ids]), np.concatenate([v, u, ids]))),
            shape=(nv, nv),
        )

    def _coefficients(self, ts):
        """(m + 1,) + ts.shape: column j the coefficients of e^{ts[j] S} in
        T_0(X), ..., T_m(X), m the degree for the largest time."""
        from scipy.special import ive

        b = (0.5 * self.radius) * ts
        m = _chebyshev_degree(float(np.max(b, initial=0.0)))
        if m == math.inf:
            raise ValueError(
                f"the Chebyshev expansion at t = {float(np.max(ts))!r} needs more than "
                f"{_MAX_DEGREE} terms on this graph (rho = {self.radius!r})")
        C = ive.outer(np.arange(m + 1, dtype=np.float64), b)
        C[1:] *= 2.0
        return C

    def _terms(self, V, m):
        """T_0(X) V, ..., T_m(X) V, one new array each."""
        prev, cur = V, self._twice_x @ V
        cur *= 0.5
        yield prev
        yield cur
        for _ in range(m - 1):
            nxt = self._twice_x @ cur
            nxt -= prev
            prev, cur = cur, nxt
            yield cur

    def _curve(self, ts, v):
        C = self._coefficients(ts)
        Y = np.zeros((len(v), len(ts)))
        terms = self._terms(v, len(C) - 1)
        for k in range(0, len(C), _TERM_BLOCK):
            block = np.stack(list(itertools.islice(terms, _TERM_BLOCK)), axis=1)
            Y += block @ C[k:k + _TERM_BLOCK]
        return Y

    def _columns(self, ts, V):
        C = self._coefficients(ts)
        Y = np.zeros_like(V)
        scaled = np.empty_like(V)
        for c, T in zip(C, self._terms(V, len(C) - 1)):
            Y += np.multiply(T, c, out=scaled)
        return Y

    def _decayed(self, K, s, F):
        Z = _columns_at_vertices(self, s, F)
        Z *= np.exp(-2.0 * K * s)
        return Z

    def _to_functions(self, Z):
        return Z


# Seconds per unit of work, measured with one BLAS thread on a 2-core x86
# machine.  The choice depends only on their ratios.
_EIGH_S = 5e-10      # the dense eigh, per nv^3
_GEMM_S = 1e-10      # a product of two dense matrices, per multiply-add
_STEP_S = 1.5e-5     # one sparse product call with its recurrence step
_SPARSE_S = 3e-9     # a sparse product, per stored entry and column
_SETUP_S = 0.05      # importing scipy.special and building X


def _propagator_for(g: WeightedGraph, t_max, applies, integral_nodes=lambda lam_min: ()):
    """decompose(g) or ChebyshevPropagator(g), whichever is cheaper for a
    job of `applies` heat-applied columns, taken in blocks, at times up to
    t_max and a time integral per node count in integral_nodes(lam_min),
    sized with the Chebyshev side's bound lam_min = -rho.

    A dense column is two block products with the nv x nv basis, and a
    dense integral two nv x nv x nodes products.  A Chebyshev column is m
    sparse products (m its degree at t_max), whose calls its block shares;
    an integral is one curve of m single-vector products, each its own
    call, and m products of a block of its nodes' columns.
    """
    nv, ne = g.vertex_count, len(g._edge_mu)
    rho = _radius(g)
    m = _chebyshev_degree(0.5 * rho * t_max)
    counts = integral_nodes(-rho)
    integrals, nodes = len(counts), sum(counts)
    dense = _EIGH_S * nv**3 + 2.0 * _GEMM_S * nv * nv * (applies + nodes)
    chebyshev = _SETUP_S + m * (2 * _STEP_S * integrals
                                + _SPARSE_S * (2 * ne + nv) * (applies + integrals + nodes)
                                + _GEMM_S * nv * nodes)
    return ChebyshevPropagator(g) if chebyshev < dense else decompose(g)


def _check_times(ts):
    ts = np.asarray(ts, dtype=np.float64)
    if ts.ndim != 1 or not np.all((0 <= ts) & (ts < np.inf)):
        raise ValueError("heat semigroup needs a 1-D array of finite times t >= 0")
    return ts


def heat_apply(sd, g: WeightedGraph, t: float, f) -> np.ndarray:
    """P_t f for a single finite time t >= 0: column 0 of heat_curve, and
    a copy of f itself at t = 0."""
    if t == 0:
        return _vertex_array(g, f, 1, sd).copy()
    return heat_curve(sd, g, [t], f)[:, 0]


def heat_curve(sd, g: WeightedGraph, ts, f) -> np.ndarray:
    """Column j is P_{ts[j]} f.  Vectorized over the whole time grid."""
    f = _vertex_array(g, f, 1, sd)
    ts = _check_times(ts)
    c = f[0]
    return _to_vertices(sd, sd._curve(ts, sd.sqrt_m * (f - c)), c)


def heat_apply_columns(sd, g: WeightedGraph, ts, F) -> np.ndarray:
    """Apply P_{ts[j]} to column j of F (one time per column)."""
    F = _vertex_array(g, F, 2, sd)
    ts = _check_times(ts)
    if ts.shape != (F.shape[1],):
        raise ValueError("need one time per column")
    return _columns_at_vertices(sd, ts, F)


def _columns_at_vertices(sd, ts, F):
    """P_{ts[j]} applied to column j of F, through sd._columns."""
    c = F[0]
    return _to_vertices(sd, sd._columns(ts, sd.sqrt_m[:, None] * (F - c)), c)


def _to_vertices(sd, Y, c):
    """c + M^{-1/2} Y in place: columns of S's frame back at the vertices."""
    Y *= sd.inv_sqrt_m[:, None]
    Y += c
    return Y
