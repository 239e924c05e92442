"""Heat semigroup P_t = e^{t Delta} via the symmetrized spectral problem.

L is not symmetric in general, but S = M^{1/2} L M^{-1/2} is (M = diag(m)):
S_xy = mu_xy / sqrt(m(x) m(y)) off the diagonal and S_xx = L_xx.  With
S = U diag(lambda) U^T,

    P_t f = M^{-1/2} U diag(e^{t lambda}) U^T M^{1/2} f.

All eigenvalues are <= 0; on a connected graph 0 is simple with
eigenvector proportional to sqrt(m), which is where mass conservation and
the constant fixed point come from.
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


def decompose(g: WeightedGraph) -> SpectralDecomposition:
    nv = g.vertex_count
    sqrt_m = np.sqrt(g.m)
    inv_sqrt_m = 1.0 / sqrt_m

    S = np.zeros((nv, nv))
    for (u, v), w in g.edges.items():
        if u == v:
            continue
        # same float both ways round: w * (isq_u * isq_v)
        val = w * (inv_sqrt_m[u] * inv_sqrt_m[v])
        S[u, v] = val
        S[v, u] = val
    S[np.diag_indices(nv)] = -g._degree * g._inv_m

    try:
        lam, U = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on symmetric rarely fails
        raise RuntimeError(f"spectral decomposition failed: {exc}") from exc
    return SpectralDecomposition(
        eigenvalues=lam, basis=U, sqrt_m=sqrt_m, inv_sqrt_m=inv_sqrt_m
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
    w = sd.basis.T @ (sd.sqrt_m * f)
    w *= np.exp(t * sd.eigenvalues)
    return sd.inv_sqrt_m * (sd.basis @ w)


def heat_curve(sd: SpectralDecomposition, g: WeightedGraph, ts, f) -> np.ndarray:
    """Column j is P_{ts[j]} f.  Vectorized over the whole time grid."""
    f = _check_sizes(sd, g, f)
    ts = np.asarray(ts, dtype=np.float64)
    if not np.all((0 <= ts) & (ts < np.inf)):
        raise ValueError("heat semigroup is defined for finite t >= 0")
    w = sd.basis.T @ (sd.sqrt_m * f)
    W = np.exp(np.outer(sd.eigenvalues, ts)) * w[:, None]
    return sd.inv_sqrt_m[:, None] * (sd.basis @ W)


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
    W = sd.basis.T @ (sd.sqrt_m[:, None] * F)
    W *= np.exp(sd.eigenvalues[:, None] * ts[None, :])
    return sd.inv_sqrt_m[:, None] * (sd.basis @ W)
