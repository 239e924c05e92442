"""Pointwise operators of the weighted graph and their local quadratic forms.

For a graph (V, E, mu, m) the Laplacian is

    (Delta f)(x) = (1/m(x)) sum_y mu_xy (f(y) - f(x)),

the carre du champ and its iterate are

    Gamma(f,h)  = 1/2 (Delta(fh) - f Delta h - h Delta f)
    Gamma2(f,h) = 1/2 (Delta Gamma(f,h) - Gamma(f, Delta h) - Gamma(h, Delta f)),

and Gamma has the equivalent local-sum form

    Gamma(f,h)(x) = (1/(2 m(x))) sum_y mu_xy (f(y)-f(x)) (h(y)-h(x)).

Self-loop terms vanish identically in all three operators.  Each acts
on a block of functions as columns, Gamma2 through one kernel that
forms the edge differences once; laplacian, gamma and gamma2 are column
0 of that code at a single function.  form_table
expresses Gamma, Delta, Gamma2 at many vertices x at once as matrices
over the ball coordinates with f(x) pinned to 0, which is what the
curvature solver consumes; local_forms is the same at one vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import Ball, WeightedGraph, vertex_id


def _vertex_array(g, f, ndim, sd=None):
    """f as an ndim-D float64 array with a row per vertex of g, else a
    ValueError, which a propagator sd on another vertex count also raises."""
    f = np.asarray(f, dtype=np.float64)
    nv = g.vertex_count
    on = nv if sd is None else sd.sqrt_m.shape[0]
    if f.ndim != ndim or f.shape[0] != nv or on != nv:
        sizes = "" if sd is None else f"a propagator on {on}, "
        raise ValueError(f"propagator/function size mismatch with graph: {nv} vertices, "
                         f"{sizes}a {ndim}-D array expected, shape {f.shape} given")
    return f


# ---------------------------------------------------------------------------
# operators on column blocks; a single function is a block of one column
# ---------------------------------------------------------------------------

def laplacian(g: WeightedGraph, f) -> np.ndarray:
    """Delta f, column 0 of laplacian_many."""
    return laplacian_many(g, _vertex_array(g, f, 1)[:, None])[:, 0]


def laplacian_many(g: WeightedGraph, F) -> np.ndarray:
    """Delta F = -M^{-1} B^T (mu * B F) column by column.

    The minus sign rides on the edge weights, so each vertex sums the
    terms mu_xy (f(y) - f(x)) in neighbor order and constants map to an
    exact +0.
    """
    return _delta(g, g._incidences()[0] @ _vertex_array(g, F, 2))


def gamma(g: WeightedGraph, f, h=None) -> np.ndarray:
    """Gamma(f,h), column 0 of gamma_many; h defaults to f."""
    H = None if h is None else _vertex_array(g, h, 1)[:, None]
    return gamma_many(g, _vertex_array(g, f, 1)[:, None], H)[:, 0]


def gamma_many(g: WeightedGraph, F, H=None) -> np.ndarray:
    """Gamma(F,H) = 1/2 M^{-1} |B|^T (mu * BF * BH) column by column."""
    B = g._incidences()[0]
    BF = B @ _vertex_array(g, F, 2)
    return _gamma(g, BF, BF if H is None else B @ _vertex_array(g, H, 2))


def _delta(g, BF):
    """Delta F from the edge differences BF = B F, which it overwrites."""
    BF *= -g._edge_mu[:, None]
    out = g._incidences()[1] @ BF
    out *= g._inv_m[:, None]
    return out


def _gamma(g, BF, BH):
    """Gamma(F, H) from the edge differences BF = B F and BH = B H."""
    prod = g._edge_mu[:, None] * BF
    prod *= BH
    out = g._incidences()[2] @ prod
    out *= (0.5 * g._inv_m)[:, None]
    return out


def gamma2(g: WeightedGraph, f) -> np.ndarray:
    """Gamma2(f), column 0 of gamma2_many."""
    return gamma2_many(g, _vertex_array(g, f, 1)[:, None])[:, 0]


def gamma2_many(g: WeightedGraph, F) -> np.ndarray:
    """Diagonal Gamma2 applied to each column of F."""
    return _gamma2_parts(g, F)[0]


def _gamma2_parts(g, F):
    """(Gamma2(F), Gamma(F)) column by column, with BF formed once.

    Every term is the float that laplacian_many and gamma_many give, so
    the pair is bitwise equal to (0.5 Delta Gamma(F) - Gamma(F, Delta F),
    Gamma(F)) composed from them.  At most three edge-by-column arrays
    are alive at once.
    """
    B = g._incidences()[0]
    BF = B @ _vertex_array(g, F, 2)
    cross = _gamma(g, BF, B @ _delta(g, BF.copy()))
    G = _gamma(g, BF, BF)
    del BF
    G2 = laplacian_many(g, G)
    G2 *= 0.5
    G2 -= cross
    return G2, G


def dirichlet_energy(g: WeightedGraph, f) -> float:
    """Q(f) = 1/2 sum_{x,y} mu_xy (f(y)-f(x))^2 = sum_x Gamma(f)(x) m(x)."""
    return float(g.m @ gamma(g, f))


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
