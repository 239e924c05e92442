"""Heat semigroup P_t = e^{t Delta} via the symmetrized spectral problem.

L is not symmetric in general, but S = M^{1/2} L M^{-1/2} is (M = diag(m)):
S_xy = mu_xy / sqrt(m(x) m(y)) off the diagonal and S_xx = L_xx.  With
S = U diag(lambda) U^T,

    P_t f = M^{-1/2} U diag(e^{t lambda}) U^T M^{1/2} f.

All eigenvalues are <= 0; on a connected graph 0 is simple with
eigenvector proportional to sqrt(m), which is where mass conservation and
the constant fixed point come from.  Two rules keep that mode exact:

- the package admits only connected graphs, so the top eigenvalue is the
  simple kernel eigenvalue.  eigh returns it with roundoff of the order
  of the largest weighted degree (-1e144 at edge weights of 1e160), and
  e^{t lambda} of that would wipe out the constant mode, so every
  exponential takes it as exactly 0 (SpectralDecomposition.rates);
- P_t commutes with adding a constant, so each function is applied as
  f(x_0) + P_t(f - f(x_0)) with x_0 the first vertex.  A constant then
  never passes through the basis, and P_t c = c bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph


@dataclass(frozen=True)
class SpectralDecomposition:
    eigenvalues: np.ndarray   # ascending, all <= 0 up to roundoff
    basis: np.ndarray         # orthonormal columns, S = U diag(lam) U^T
    sqrt_m: np.ndarray
    inv_sqrt_m: np.ndarray
    rates: np.ndarray         # the eigenvalues with the top one set to exactly 0


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


def _check_sizes(sd, g, f):
    f = np.asarray(f, dtype=np.float64)
    if f.shape[0] != g.vertex_count or sd.basis.shape[0] != g.vertex_count:
        raise ValueError("decomposition/function size mismatch with graph")
    return f


def heat_apply(sd: SpectralDecomposition, g: WeightedGraph, t: float, f) -> np.ndarray:
    """P_t f for a single finite time t >= 0."""
    f = _check_sizes(sd, g, f)
    if f.ndim != 1:
        raise ValueError("heat_apply expects a single function")
    if not 0 <= t < np.inf:
        raise ValueError(f"heat semigroup is defined for finite t >= 0, got {t}")
    if t == 0:
        return f.copy()
    c = f[0]
    w = sd.basis.T @ (sd.sqrt_m * (f - c))
    w *= np.exp(t * sd.rates)
    return c + sd.inv_sqrt_m * (sd.basis @ w)


def heat_curve(sd: SpectralDecomposition, g: WeightedGraph, ts, f) -> np.ndarray:
    """Column j is P_{ts[j]} f.  Vectorized over the whole time grid."""
    f = _check_sizes(sd, g, f)
    ts = np.asarray(ts, dtype=np.float64)
    if not np.all((0 <= ts) & (ts < np.inf)):
        raise ValueError("heat semigroup is defined for finite t >= 0")
    c = f[0]
    w = sd.basis.T @ (sd.sqrt_m * (f - c))
    W = np.outer(sd.rates, ts)
    np.exp(W, out=W)
    W *= w[:, None]
    return _to_vertices(sd, W, c)


def heat_apply_columns(sd: SpectralDecomposition, g: WeightedGraph, ts, F) -> np.ndarray:
    """Apply P_{ts[j]} to column j of F (one time per column)."""
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 2 or F.shape[0] != g.vertex_count:
        raise ValueError(f"expected ({g.vertex_count}, k) column block, got {F.shape}")
    ts = np.asarray(ts, dtype=np.float64)
    if ts.shape != (F.shape[1],):
        raise ValueError("need one time per column")
    if not np.all((0 <= ts) & (ts < np.inf)):
        raise ValueError("heat semigroup is defined for finite t >= 0")
    c = F[0]
    W = sd.basis.T @ (sd.sqrt_m[:, None] * (F - c))
    W *= np.exp(sd.rates[:, None] * ts[None, :])
    return _to_vertices(sd, W, c)


def _to_vertices(sd, W, c):
    """c + M^{-1/2} U W, spectral coefficients back to vertex columns,
    in place on the one product."""
    Y = sd.basis @ W
    Y *= sd.inv_sqrt_m[:, None]
    Y += c
    return Y
