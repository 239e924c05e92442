"""Pointwise operators of the weighted graph and their local quadratic forms.

For a graph (V, E, mu, m) the Laplacian is

    (Delta f)(x) = (1/m(x)) sum_y mu_xy (f(y) - f(x)),

the carre du champ and its iterate are

    Gamma(f,h)  = 1/2 (Delta(fh) - f Delta h - h Delta f)
    Gamma2(f,h) = 1/2 (Delta Gamma(f,h) - Gamma(f, Delta h) - Gamma(h, Delta f)),

and Gamma has the equivalent local-sum form

    Gamma(f,h)(x) = (1/(2 m(x))) sum_y mu_xy (f(y)-f(x)) (h(y)-h(x)).

Self-loop terms vanish identically in all three operators.  local_forms
expresses Gamma, Delta, Gamma2 at a vertex x as matrices over the ball
coordinates with f(x) pinned to 0, which is what the curvature solver
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Ball, WeightedGraph, ball2


def _as_function(g, f):
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (g.vertex_count,):
        raise ValueError(f"expected function of shape ({g.vertex_count},), got {f.shape}")
    return f


def _as_columns(g, F):
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 2 or F.shape[0] != g.vertex_count:
        raise ValueError(f"expected ({g.vertex_count}, k) column block, got {F.shape}")
    return F


# ---------------------------------------------------------------------------
# operators, single-function and column-block variants
# ---------------------------------------------------------------------------

def laplacian(g: WeightedGraph, f) -> np.ndarray:
    f = _as_function(g, f)
    return laplacian_many(g, f[:, None])[:, 0]


def laplacian_many(g: WeightedGraph, F) -> np.ndarray:
    """Delta F = -M^{-1} B^T (mu * B F) column by column.

    The minus sign rides on the edge weights, so each vertex sums the
    terms mu_xy (f(y) - f(x)) in neighbor order and constants map to an
    exact +0.
    """
    F = _as_columns(g, F)
    flux = -g._edge_mu[:, None] * (g._incidence @ F)
    return g._inv_m[:, None] * (g._incidence_t @ flux)


def gamma(g: WeightedGraph, f, h=None) -> np.ndarray:
    """Gamma(f,h) via the local edge sum; h defaults to f."""
    f = _as_function(g, f)
    H = None if h is None else _as_function(g, h)[:, None]
    return gamma_many(g, f[:, None], H)[:, 0]


def gamma_many(g: WeightedGraph, F, H=None) -> np.ndarray:
    """Gamma(F,H) = 1/2 M^{-1} |B|^T (mu * BF * BH) column by column."""
    F = _as_columns(g, F)
    BF = g._incidence @ F
    BH = BF if H is None else g._incidence @ _as_columns(g, H)
    return (0.5 * g._inv_m)[:, None] * (g._abs_incidence_t @ (g._edge_mu[:, None] * BF * BH))


def gamma_composition(g: WeightedGraph, f, h=None) -> np.ndarray:
    """Gamma(f,h) via 1/2(Delta(fh) - f Delta h - h Delta f).

    Algebraically equal to gamma(); kept as an independent route so the
    two can be checked against each other.
    """
    f = _as_function(g, f)
    h = f if h is None else _as_function(g, h)
    return 0.5 * (laplacian(g, f * h) - f * laplacian(g, h) - h * laplacian(g, f))


def gamma2(g: WeightedGraph, f, h=None) -> np.ndarray:
    f = _as_function(g, f)
    h = f if h is None else _as_function(g, h)
    return 0.5 * (
        laplacian(g, gamma(g, f, h))
        - gamma(g, f, laplacian(g, h))
        - gamma(g, h, laplacian(g, f))
    )


def gamma2_many(g: WeightedGraph, F) -> np.ndarray:
    """Diagonal Gamma2 applied to each column of F."""
    F = _as_columns(g, F)
    LF = laplacian_many(g, F)
    return 0.5 * laplacian_many(g, gamma_many(g, F)) - gamma_many(g, F, LF)


def dirichlet_energy(g: WeightedGraph, f) -> float:
    """Q(f) = 1/2 sum_{x,y} mu_xy (f(y)-f(x))^2 = sum_x Gamma(f)(x) m(x)."""
    f = _as_function(g, f)
    rows = np.repeat(
        np.arange(g.vertex_count), np.diff(g._csr_indptr)
    )
    d = f[g._csr_indices] - f[rows]
    return float(0.5 * np.sum(g._csr_weights * d * d))


def green_identity_residual(g: WeightedGraph, f, h) -> float:
    """|sum f (Delta h) m + sum Gamma(f,h) m|, zero in exact arithmetic."""
    f = _as_function(g, f)
    h = _as_function(g, h)
    lhs = float(np.sum(f * laplacian(g, h) * g.m))
    rhs = float(np.sum(gamma(g, f, h) * g.m))
    return abs(lhs + rhs)


# ---------------------------------------------------------------------------
# dense matrices
# ---------------------------------------------------------------------------

def laplacian_matrix(g: WeightedGraph) -> np.ndarray:
    """Dense L with L f = Delta f.  Self-loops never enter L."""
    nv = g.vertex_count
    L = np.zeros((nv, nv))
    for (u, v), w in g.edges.items():
        if u == v:
            continue
        L[u, v] += w * g._inv_m[u]
        L[v, u] += w * g._inv_m[v]
    L[np.diag_indices(nv)] = -g._degree * g._inv_m
    return L


# ---------------------------------------------------------------------------
# local quadratic forms at a vertex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalForms:
    """Gamma, Delta, Gamma2 at a vertex as forms over ball coordinates.

    Coordinates are ball.sphere1 + ball.sphere2 with the center value
    pinned to 0 (all three objects are invariant under adding constants,
    so the pinning loses nothing).  gamma_form is diagonal on sphere1
    with entries mu_xy/(2 m(x)); delta_vector has entries mu_xy/m(x);
    gamma2_form is the full symmetric form; its sphere2 block is PSD.
    """

    ball: Ball
    gamma_form: np.ndarray
    gamma2_form: np.ndarray
    delta_vector: np.ndarray


def local_forms(g: WeightedGraph, x: int) -> LocalForms:
    ball = ball2(g, x)
    k1 = len(ball.sphere1)
    k2 = len(ball.sphere2)
    k = k1 + k2
    idx = ball.index_map
    mx = g.m[x]

    A = np.zeros((k, k))

    def add_quad(i, j, c):
        # accumulate c * f_i f_j; i or j == -1 means the pinned center
        if i < 0 or j < 0:
            return
        if i == j:
            A[i, i] += c
        else:
            A[i, j] += 0.5 * c
            A[j, i] += 0.5 * c

    b = np.zeros(k1)
    d = np.zeros(k1)
    ids_x, wts_x = g.neighbors(x)
    center_row = [(int(y), float(w)) for y, w in zip(ids_x, wts_x) if int(y) != x]
    deg_x = sum(w for _, w in center_row)

    for y, mu_xy in center_row:
        iy = idx[y]
        b[iy] = mu_xy / (2.0 * mx)
        d[iy] = mu_xy / mx

        my = g.m[y]
        ids_y, wts_y = g.neighbors(y)
        nbrs_y = [(int(w_id), float(w)) for w_id, w in zip(ids_y, wts_y)]

        # 1/2 Delta Gamma(f)(x), the Gamma(f)(y) part:
        #   (mu_xy/(2 m_x)) (1/(2 m_y)) sum_w mu_yw (f_w - f_y)^2
        for w_id, mu_yw in nbrs_y:
            c = mu_xy / (2.0 * mx) * mu_yw / (2.0 * my)
            iw = -1 if w_id == x else idx[w_id]
            add_quad(iw, iw, c)
            add_quad(iw, iy, -2.0 * c)
            add_quad(iy, iy, c)

        # -Gamma(f, Delta f)(x), the -f_y Delta f(y) part
        c0 = mu_xy / (2.0 * mx)
        for w_id, mu_yw in nbrs_y:
            c = c0 * mu_yw / my
            iw = -1 if w_id == x else idx[w_id]
            add_quad(iy, iw, -c)
            add_quad(iy, iy, c)

        # -Gamma(f, Delta f)(x), the +f_y Delta f(x) part
        for y2, mu_xy2 in center_row:
            add_quad(iy, idx[y2], c0 * mu_xy2 / mx)

    # 1/2 Delta Gamma(f)(x), the -Gamma(f)(x) part
    for y2, mu_xy2 in center_row:
        add_quad(idx[y2], idx[y2], -(deg_x / (2.0 * mx)) * mu_xy2 / (2.0 * mx))

    return LocalForms(
        ball=ball,
        gamma_form=np.diag(b),
        gamma2_form=A,
        delta_vector=d,
    )
