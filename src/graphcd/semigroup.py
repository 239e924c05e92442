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

The heat functions and verify read a propagator only through this, all
in S's frame:
- sqrt_m, inv_sqrt_m (M^{1/2}, M^{-1/2}), and lam_min <= min spec(S);
- _apply(ts, V), the (nv, k, nt) array of e^{ts[j] S} V for every
  column of V and every time;
- _time_sum(K, s, W, V), sum_j e^{-2K s[j]} e^{s[j] S} V_j W[j, :]: the
  weighted sums of a quadrature whose node s[j] has the column V_j.
The heat functions are views of _heat, and verify's time integrals go
through _heat_time_sum; both change to S's frame and back.
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

    def _apply(self, ts, V):
        E = np.multiply.outer(self.rates, ts)
        Y = np.multiply((self.basis.T @ V)[:, :, None], np.exp(E, out=E)[:, None, :])
        return (self.basis @ Y.reshape(len(Y), -1)).reshape(Y.shape)

    def _time_sum(self, K, s, W, V):
        # the sums in the eigenbasis, then one product back
        Z = self.basis.T @ V
        E = np.outer(self.rates - 2.0 * K, s)
        Z *= np.exp(E, out=E)
        return self.basis @ (Z @ W)


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
    return SpectralDecomposition(lam, U, sqrt_m, inv_sqrt_m, rates)


# a degree above _MAX_DEGREE + 16 is refused: each application would take
# more sparse products, and its coefficient table more rows, than that
_MAX_DEGREE = 2**16
# floats per vertex in a block of Chebyshev terms gathered into one dense product
_TERM_BLOCK = 64
# bytes of coefficient tables a ChebyshevPropagator keeps for reuse
_TABLE_BYTES = 2**22


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
    A time integral asks for the same node times for every function, so
    each times array's coefficient table is built once and kept, read-only,
    while the kept tables fit in _TABLE_BYTES.
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
        self._twice_x = scipy.sparse.csr_array((np.concatenate([off, off, diag]), (
            np.concatenate([u, v, ids]), np.concatenate([v, u, ids]))), shape=(nv, nv))
        self._tables = {}   # ts.tobytes() -> _coefficients(ts), oldest first

    def _coefficients(self, ts):
        """(m + 1,) + ts.shape: column j the coefficients of e^{ts[j] S} in
        T_0(X), ..., T_m(X), m the degree for the largest time.  The table is
        kept for the next call with equal times, the oldest kept tables making
        room for it, unless it alone is above _TABLE_BYTES."""
        key = ts.tobytes()
        if key in self._tables:
            return self._tables[key]
        from scipy.special import ive

        b = (0.5 * self.radius) * ts
        m = _chebyshev_degree(float(np.max(b, initial=0.0)))
        if m == math.inf:
            raise ValueError(
                f"the Chebyshev expansion at t = {float(np.max(ts))!r} needs more than "
                f"{_MAX_DEGREE} terms on this graph (rho = {self.radius!r})")
        C = ive.outer(np.arange(m + 1, dtype=np.float64), b)
        C[1:] *= 2.0
        if C.nbytes <= _TABLE_BYTES:
            while sum(T.nbytes for T in self._tables.values()) + C.nbytes > _TABLE_BYTES:
                del self._tables[next(iter(self._tables))]
            C.flags.writeable = False
            self._tables[key] = C
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

    def _apply(self, ts, V):
        C = self._coefficients(ts)
        Y = np.zeros((V.size, len(ts)))
        per = max(1, _TERM_BLOCK // V.shape[1])
        terms = self._terms(V, len(C) - 1)
        for k in range(0, len(C), per):
            block = list(itertools.islice(terms, per))
            block = np.stack(block, axis=-1) if per > 1 else block[0][..., None]
            Y += block.reshape(len(Y), -1) @ C[k:k + per]
        return Y.reshape(*V.shape, len(ts))

    def _time_sum(self, K, s, W, V):
        """sum_k T_k(X) h_k, h_k = V (c_k(s) e^{-2Ks} W), by Clenshaw's
        recurrence b_k = h_k + 2X b_{k+1} - b_{k+2} from the top term down on
        an nv x w block; its k = 0 step, with X b_1 for 2X b_1, is the sum.
        The h_k are formed _TERM_BLOCK / w at a time, by one product with V."""
        C = self._coefficients(s)
        D = W * np.exp(-2.0 * K * s)[:, None]
        per = max(1, _TERM_BLOCK // D.shape[1])
        b1 = b2 = np.zeros((len(V), D.shape[1]))
        for top in range(len(C), 0, -per):
            c = C[max(0, top - per):top][::-1]
            H = V @ (c.T[:, :, None] * D[:, None, :]).reshape(len(s), -1)
            for k, h in zip(range(top - 1, -1, -1), H.reshape(len(V), len(c), -1).swapaxes(0, 1)):
                b = self._twice_x @ b1
                if k == 0:
                    b *= 0.5
                b += h
                b -= b2
                b1, b2 = b, b1
        return b1


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
    sparse products (m its degree at t_max), whose calls its block shares.
    An integral is a curve of m single-vector products, each its own call,
    whose terms go to its nodes in nv x nodes products, and a Clenshaw sum
    of m products of an nv x 2 block with m nv x nodes x 2 products.
    """
    nv, ne = g.vertex_count, len(g._edge_mu)
    rho = _radius(g)
    m = _chebyshev_degree(0.5 * rho * t_max)
    counts = integral_nodes(-rho)
    integrals, nodes = len(counts), sum(counts)
    dense = _EIGH_S * nv**3 + 2.0 * _GEMM_S * nv * nv * (applies + nodes)
    chebyshev = _SETUP_S + m * (2 * _STEP_S * integrals
                                + _SPARSE_S * (2 * ne + nv) * (applies + 3 * integrals)
                                + 3 * _GEMM_S * nv * nodes)
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
    return _heat(sd, _check_times(ts), f[:, None])[:, 0]


def heat_apply_columns(sd, g: WeightedGraph, t, F) -> np.ndarray:
    """P_t applied to every column of F, at one finite time t >= 0."""
    F = _vertex_array(g, F, 2, sd)
    return _heat(sd, _check_times([t]), F)[:, :, 0]


def _heat(sd, ts, F):
    """The (nv, k, nt) array of P_{ts[j]} applied to every column f of F,
    as c + M^{-1/2} e^{ts[j] S} M^{1/2} (f - c) with c = f(x_0)."""
    c = F[0]
    Y = sd._apply(ts, sd.sqrt_m[:, None] * (F - c))
    Y *= sd.inv_sqrt_m[:, None, None]
    Y += c[:, None]
    return Y


def _heat_time_sum(sd, K, s, W, G):
    """sum_j e^{-2K s[j]} P_{s[j]} G_j W[j, :] through sd._time_sum; G is
    overwritten.  Unlike _heat it does not shift G_j by G_j(x_0): P_s(g - c)
    + c cancels |c| down to |P_s g|, and the dense side's P_s is exact only
    to about 1e-16 |lambda_min| of its input."""
    G *= sd.sqrt_m[:, None]
    return sd.inv_sqrt_m[:, None] * sd._time_sum(K, s, W, G)
