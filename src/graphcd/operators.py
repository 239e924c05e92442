"""Pointwise operators of the weighted graph and their local quadratic forms.

For a graph (V, E, mu, m) the Laplacian is

    (Delta f)(x) = (1/m(x)) sum_y mu_xy (f(y) - f(x)),

the carre du champ and its iterate are

    Gamma(f,h)  = 1/2 (Delta(fh) - f Delta h - h Delta f)
    Gamma2(f,h) = 1/2 (Delta Gamma(f,h) - Gamma(f, Delta h) - Gamma(h, Delta f)),

and Gamma has the equivalent local-sum form

    Gamma(f,h)(x) = (1/(2 m(x))) sum_y mu_xy (f(y)-f(x)) (h(y)-h(x)).

Self-loop terms vanish identically in all three operators.  form_table
expresses Gamma, Delta, Gamma2 at many vertices x at once as matrices
over the ball coordinates with f(x) pinned to 0, which is what the
curvature solver consumes; local_forms is the same at one vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import Ball, WeightedGraph, vertex_id


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
    (u, v), w = g._edge_ends.T, g._edge_mu
    L = np.zeros((nv, nv))
    L[u, v] = w * g._inv_m[u]
    L[v, u] = w * g._inv_m[v]
    L[np.diag_indices(nv)] = -g._degree * g._inv_m
    return L


# ---------------------------------------------------------------------------
# local quadratic forms
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


class _Group(NamedTuple):
    """The centers of a form table with sphere sizes (k1, k2), k = k1 + k2.

    Arrays are views into the table, one row per center: ids holds the
    ball coordinates (sphere1 then sphere2, each ascending), gamma and
    delta the sphere1 entries of the Gamma form's diagonal and of the
    Delta vector, forms the k x k Gamma2 forms.  balls is the slice of
    the table's flat per-coordinate arrays that ids covers.
    """

    k1: int
    k2: int
    centers: np.ndarray
    ids: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    forms: np.ndarray
    balls: slice


@dataclass(frozen=True)
class _FormTable:
    """Local forms at many centers, grouped by sphere sizes (k1, k2).

    Centers are stored in group order: sorted by (k1, k2), ascending
    vertex id within a group.  Each center owns k consecutive entries of
    the flat ids/gamma/delta arrays and a k x k block of the flat forms
    buffer, so every group is one contiguous run of each.
    """

    centers: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    ids: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    forms: np.ndarray

    def groups(self):
        k = self.k1 + self.k2
        ball_at = np.cumsum(k) - k
        form_at = np.cumsum(k * k) - k * k
        cuts = np.flatnonzero((np.diff(self.k1) != 0) | (np.diff(self.k2) != 0)) + 1
        for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(k)]):
            k1, k2 = int(self.k1[lo]), int(self.k2[lo])
            size, kk = hi - lo, k1 + k2
            balls = slice(int(ball_at[lo]), int(ball_at[lo]) + size * kk)
            f0 = int(form_at[lo])
            yield _Group(
                k1, k2, self.centers[lo:hi],
                self.ids[balls].reshape(size, kk),
                self.gamma[balls].reshape(size, kk)[:, :k1],
                self.delta[balls].reshape(size, kk)[:, :k1],
                self.forms[f0:f0 + size * kk * kk].reshape(size, kk, kk),
                balls,
            )


def _ranges(starts, lengths):
    """Concatenation of range(s, s + n) over (s, n) in starts x lengths."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))


def form_table(g: WeightedGraph, centers) -> _FormTable:
    """2-balls and local forms at every center, built from the adjacency
    arrays at once.

    The 2-walks x -> y -> w (y a sphere1 vertex, w any neighbor of y, self-
    loops included) give sphere2 and, through the four contribution
    classes of 1/2 Delta Gamma(f)(x) - Gamma(f, Delta f)(x), the Gamma2
    form.  Each class is accumulated straight into the blocks.
    """
    indptr, indices, weights = g._csr_indptr, g._csr_indices, g._csr_weights
    nv = g.vertex_count
    centers = np.asarray(centers, dtype=np.int64)
    row_len = np.diff(indptr)

    # sphere1: the non-loop adjacency entries of each center, ascending
    entry = _ranges(indptr[centers], row_len[centers])
    owner = np.repeat(np.arange(len(centers)), row_len[centers])
    link = indices[entry] != centers[owner]
    s1_owner, s1_entry = owner[link], entry[link]
    s1_id, mu_xy = indices[s1_entry], weights[s1_entry]
    k1 = np.bincount(s1_owner, minlength=len(centers))
    s1_start = np.cumsum(k1) - k1
    s1_rank = np.arange(len(s1_owner)) - s1_start[s1_owner]

    # 2-walks, one per (sphere1 entry, adjacency entry of its vertex)
    step = _ranges(indptr[s1_id], row_len[s1_id])
    walk_s1 = np.repeat(np.arange(len(s1_owner)), row_len[s1_id])
    walk_owner = s1_owner[walk_s1]
    walk_w, mu_yw = indices[step], weights[step]
    at_center = walk_w == centers[walk_owner]

    # sphere membership by (owner, vertex) keys; sphere1 keys are sorted
    s1_key = s1_owner * nv + s1_id
    walk_key = walk_owner * nv + walk_w
    pos = np.searchsorted(s1_key, walk_key)
    in_s1 = s1_key[np.minimum(pos, len(s1_key) - 1)] == walk_key
    s2_key = np.unique(walk_key[~at_center & ~in_s1])
    s2_owner = s2_key // nv
    k2 = np.bincount(s2_owner, minlength=len(centers))
    s2_start = np.cumsum(k2) - k2
    s2_rank = np.arange(len(s2_key)) - s2_start[s2_owner]

    # local coordinates; -1 is the pinned center
    iy = s1_rank[walk_s1]
    iw = np.where(
        in_s1, pos - s1_start[walk_owner],
        k1[walk_owner] + np.searchsorted(s2_key, walk_key) - s2_start[walk_owner],
    )
    iw[at_center] = -1

    # group order and storage
    order = np.lexsort((k2, k1))
    k = k1 + k2
    ball_start = np.empty_like(k)
    ball_start[order] = np.cumsum(k[order]) - k[order]
    form_start = np.empty_like(k)
    form_start[order] = np.cumsum(k[order] ** 2) - k[order] ** 2
    s1_at = ball_start[s1_owner] + s1_rank
    ids = np.empty(int(k.sum()), dtype=np.int64)
    ids[s1_at] = s1_id
    ids[ball_start[s2_owner] + k1[s2_owner] + s2_rank] = s2_key - s2_owner * nv
    gamma = np.zeros(len(ids))
    delta = np.zeros(len(ids))
    forms = np.zeros(int((k * k).sum()))

    def accumulate(own, i, j, c):
        # the term c f_i f_j in the owners' blocks; -1 is the pinned center
        keep = (i >= 0) & (j >= 0)
        own, i, j, c = own[keep], i[keep], j[keep], c[keep]
        at, kk = form_start[own], k[own]
        diag = i == j
        np.add.at(forms, at[diag] + i[diag] * (kk[diag] + 1), c[diag])
        at, kk, i, j = at[~diag], kk[~diag], i[~diag], j[~diag]
        half = 0.5 * c[~diag]
        np.add.at(forms, at + i * kk + j, half)
        np.add.at(forms, at + j * kk + i, half)

    m = g.m
    mx = m[centers][s1_owner]
    two_mx = 2.0 * mx
    c0 = mu_xy / two_mx
    gamma[s1_at] = c0
    delta[s1_at] = mu_xy / mx

    # 1/2 Delta Gamma(f)(x), the Gamma(f)(y) part:
    #   (mu_xy/(2 m_x)) (1/(2 m_y)) sum_w mu_yw (f_w - f_y)^2
    my = m[s1_id][walk_s1]
    c = c0[walk_s1] * mu_yw / (2.0 * my)
    accumulate(walk_owner, iw, iw, c)
    accumulate(walk_owner, iw, iy, -2.0 * c)
    accumulate(walk_owner, iy, iy, c)

    # -Gamma(f, Delta f)(x), the -f_y Delta f(y) part
    c = c0[walk_s1] * mu_yw / my
    accumulate(walk_owner, iy, iw, -c)
    accumulate(walk_owner, iy, iy, c)

    # -Gamma(f, Delta f)(x), the +f_y Delta f(x) part, over sphere1 pairs
    pair = _ranges(s1_start[s1_owner], k1[s1_owner])
    pair_s1 = np.repeat(np.arange(len(s1_owner)), k1[s1_owner])
    accumulate(
        s1_owner[pair_s1], s1_rank[pair_s1], s1_rank[pair],
        c0[pair_s1] * mu_xy[pair] / mx[pair_s1],
    )

    # 1/2 Delta Gamma(f)(x), the -Gamma(f)(x) part
    deg_x = g._degree[centers][s1_owner]
    accumulate(s1_owner, s1_rank, s1_rank, -(deg_x / two_mx) * mu_xy / two_mx)

    return _FormTable(centers[order], k1[order], k2[order], ids, gamma, delta, forms)


def local_forms(g: WeightedGraph, x: int) -> LocalForms:
    x = vertex_id(g, x)
    (grp,) = form_table(g, [x]).groups()
    s1 = tuple(grp.ids[0, :grp.k1].tolist())
    s2 = tuple(grp.ids[0, grp.k1:].tolist())
    ball = Ball(center=x, sphere1=s1, sphere2=s2,
                index_map={v: i for i, v in enumerate(s1 + s2)})
    return LocalForms(
        ball=ball,
        gamma_form=np.diag(grp.gamma[0]),
        gamma2_form=grp.forms[0],
        delta_vector=grp.delta[0],
    )
