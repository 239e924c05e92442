"""Independent reference for the benchmark's output checks.

Nothing here imports graphcd or the repository's tests.  The graph is
taken as edge arrays (u, v, mu) and a measure array m, as the benchmark
generated them, never as parsed by the package.

- The Laplacian is a scipy.sparse matrix, L f(x) = (1/m(x)) sum_y mu_xy (f(y) - f(x)).
- Gamma is an edge loop: Gamma(f,h)(x) = (1/(2 m(x))) sum_y mu_xy (f(y)-f(x)) (h(y)-h(x)).
- kappa(x; n) comes from Gamma and Gamma2 forms built by polarization of
  the composition formulas on the sparse Laplacian, restricted to the
  2-ball, followed by a kernel-deflated generalized eigensolve.
- Heat is scipy's matrix exponential: dense expm(tL) for small graphs,
  expm_multiply for large ones.
- The dimensional integral of the cdn bound uses Gauss-Legendre nodes
  instead of the package's composite Simpson rule.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

_RANK_TOL = 1e-12


class Graph:
    """Edge arrays plus the sparse Laplacian built from them."""

    def __init__(self, eu, ev, mu, m):
        self.eu = np.asarray(eu, dtype=np.int64)
        self.ev = np.asarray(ev, dtype=np.int64)
        self.mu = np.asarray(mu, dtype=np.float64)
        self.m = np.asarray(m, dtype=np.float64)
        nv = len(self.m)
        self.nv = nv
        W = scipy.sparse.coo_matrix(
            (np.concatenate([self.mu, self.mu]),
             (np.concatenate([self.eu, self.ev]), np.concatenate([self.ev, self.eu]))),
            shape=(nv, nv),
        ).tocsr()
        self.adjacency = W
        deg = np.asarray(W.sum(axis=1)).ravel()
        inv_m = scipy.sparse.diags(1.0 / self.m)
        self.L = (inv_m @ (W - scipy.sparse.diags(deg))).tocsr()

    def neighbors(self, x):
        lo, hi = self.adjacency.indptr[x], self.adjacency.indptr[x + 1]
        return self.adjacency.indices[lo:hi]


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def gamma(G: Graph, F, H=None):
    """Gamma(F, H) column by column, summed edge by edge."""
    H = F if H is None else H
    dF = F[G.ev] - F[G.eu]
    dH = H[G.ev] - H[G.eu]
    contrib = G.mu.reshape((-1,) + (1,) * (F.ndim - 1)) * dF * dH
    out = np.zeros_like(F, dtype=np.float64)
    np.add.at(out, G.eu, contrib)
    np.add.at(out, G.ev, contrib)
    return out / (2.0 * G.m.reshape((-1,) + (1,) * (F.ndim - 1)))


def heat_dense(G: Graph, t):
    """The dense matrix P_t = expm(t L)."""
    return scipy.linalg.expm(t * G.L.toarray())


def heat_apply(G: Graph, t, F):
    """P_t F by the action of the sparse matrix exponential."""
    if t == 0.0:
        return np.array(F, dtype=np.float64)
    return scipy.sparse.linalg.expm_multiply(t * G.L, F)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def _sphere2(G: Graph, x, s1):
    s1set = set(s1.tolist())
    s2 = set()
    for y in s1:
        for z in G.neighbors(y):
            z = int(z)
            if z != x and z not in s1set:
                s2.add(z)
    return np.array(sorted(s2), dtype=np.int64)


def _local_forms(G: Graph, x, n_values):
    """Gamma2 - (1/n) Delta^2 and Gamma forms at x over sphere1 + sphere2.

    The forms are polarized from the composition formulas
    Gamma(f) = 1/2 (L(f^2) - 2 f Lf) and Gamma2(f) = 1/2 L Gamma(f) - Gamma(f, Lf),
    evaluated on basis functions e_i and e_i + e_j supported on the
    2-ball.  Gamma2(f)(x) reads Laplacian rows of x and its neighbours
    only, and those rows touch the 2-ball only, so these rows of the
    sparse Laplacian are all that is needed.
    """
    s1 = np.sort(G.neighbors(x))
    s2 = _sphere2(G, x, s1)
    local = np.concatenate([[x], s1, s2])
    rows = G.L[local[: len(s1) + 1]][:, local].toarray()   # x, then sphere1
    r = rows.shape[0]
    k = len(local) - 1
    iu, ju = np.triu_indices(k, 1)
    basis = np.zeros((k + 1, k + len(iu)))
    basis[np.arange(1, k + 1), np.arange(k)] = 1.0
    cols = np.arange(k, k + len(iu))
    basis[iu + 1, cols] = 1.0
    basis[ju + 1, cols] = 1.0

    LF = rows @ basis                                            # Lf on x, sphere1
    g1 = 0.5 * (rows @ (basis * basis)) - basis[:r] * LF         # Gamma(f) on x, sphere1
    gamma_f_lf = 0.5 * (rows[0, :r] @ (basis[:r] * LF) - LF[0] * LF[0])   # f(x) = 0
    q1 = g1[0]
    q2 = 0.5 * (rows[0, :r] @ g1) - gamma_f_lf

    def polarize(q):
        A = np.diag(q[:k])
        A[iu, ju] = A[ju, iu] = 0.5 * (q[k:] - q[iu] - q[ju])
        return A

    A, B = polarize(q2), polarize(q1)
    d = LF[0, :k]
    forms = {n: (A if math.isinf(n) else A - np.outer(d, d) / n) for n in n_values}
    return local[1:], forms, B


def _pencil_min(A, B):
    """min f'Af / f'Bf over f with f'Bf > 0, B PSD with a kernel.

    Kernel directions Z of B are eliminated by minimizing over them
    (the restriction of A there is PSD); the rest is a generalized
    symmetric eigenproblem on the range Y of B.  Returns (kappa, f) with
    f'Bf = 1.
    """
    w, V = np.linalg.eigh(B)
    pos = w > _RANK_TOL * max(1.0, float(w.max()))
    Y, Z = V[:, pos], V[:, ~pos]
    Bp = Y.T @ B @ Y
    E = Y.T @ A @ Y
    back = None
    if Z.shape[1]:
        AZZ = Z.T @ A @ Z
        AZY = Z.T @ A @ Y
        back = np.linalg.pinv(AZZ, rcond=_RANK_TOL) @ AZY
        E = E - AZY.T @ back
        E = 0.5 * (E + E.T)
    lam, vecs = scipy.linalg.eigh(E, Bp)
    y = vecs[:, 0]
    f = Y @ y if back is None else Y @ y - Z @ (back @ y)
    return float(lam[0]), f


def curvature(G: Graph, x, n_values):
    """{n: (kappa(x; n), witness on V with Gamma(witness)(x) = 1)}."""
    coords, forms, B = _local_forms(G, x, n_values)
    out = {}
    for n, A in forms.items():
        kappa, f = _pencil_min(A, B)
        witness = np.zeros(G.nv)
        witness[coords] = f
        out[n] = (kappa, witness)
    return out


# ---------------------------------------------------------------------------
# semigroup quantities
# ---------------------------------------------------------------------------

def gradient_sides(G: Graph, P, F, K, t):
    """(Gamma(P_t F), e^{-2Kt} P_t Gamma(F)) from a dense heat matrix P."""
    return gamma(G, P @ F), math.exp(-2.0 * K * t) * (P @ gamma(G, F))


def cdn_integral(G: Graph, F, K, t, nodes=32):
    """Int_0^t e^{-2Ks} P_s((Delta P_{t-s} F)^2) ds by Gauss-Legendre."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    total = np.zeros_like(F, dtype=np.float64)
    for xi, wi in zip(xs, ws):
        s = 0.5 * t * (xi + 1.0)
        U = G.L @ heat_apply(G, t - s, F)
        total += 0.5 * t * wi * math.exp(-2.0 * K * s) * heat_apply(G, s, U * U)
    return total


def digits(value, ref, scale):
    """-log10 of |value - ref| / scale, capped at 16 digits."""
    diff = float(np.max(np.abs(np.asarray(value) - np.asarray(ref))))
    if scale == 0.0:
        scale = 1.0
    return min(16.0, -math.log10(max(diff / scale, 1e-16)))
