"""Pointwise operators of the weighted graph and their local quadratic forms.

For a graph (V, E, mu, m) the Laplacian is

    (Delta f)(x) = (1/m(x)) sum_y mu_xy (f(y) - f(x)),

the carre du champ and its iterate are

    Gamma(f,h)  = 1/2 (Delta(fh) - f Delta h - h Delta f)
    Gamma2(f,h) = 1/2 (Delta Gamma(f,h) - Gamma(f, Delta h) - Gamma(h, Delta f)),

and Gamma has the equivalent local-sum form

    Gamma(f,h)(x) = (1/(2 m(x))) sum_y mu_xy (f(y)-f(x)) (h(y)-h(x)).

A self-loop term is 0 in all three, and the graph's adjacency holds no
loop.  Each acts on a block of functions as columns, Gamma2 through one
kernel that forms the edge differences once; laplacian, gamma and gamma2
are column 0 of that code at a single function.  form_table expresses
Gamma2 at many vertices x at once as a matrix over the ball coordinates
with f(x) pinned to 0, which is what the curvature solver consumes: it
keeps the sphere1 rows and the diagonal sphere2 block.  Gamma and Delta
live on sphere1, which is x's adjacency row, so the solver reads them
from the graph.  local_forms gives the three full forms at one vertex.
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


# bytes of one edge x column array of a kernel's column block: 256 KiB,
# which keeps a block's few such arrays in a core's L2 cache
_CACHE_BYTES = 2**18


def _column_blocks(g, kernel, F):
    """kernel(F), with kernel run on blocks of at most _CACHE_BYTES / (8 ne)
    columns of F (one at least) and each block's (nv, w) result written
    into one (nv, k) output array.

    A kernel's edge x column arrays are then reused from cache instead of
    being allocated, and page-faulted, afresh at full width.  kernel must
    compute each column on its own, so the blocks change no bit.
    """
    width = max(1, _CACHE_BYTES // (8 * max(1, len(g._edge_mu))))
    if F.shape[1] <= width:
        return kernel(F)
    out = np.empty_like(F)
    for i in range(0, F.shape[1], width):
        out[:, i:i + width] = kernel(F[:, i:i + width])
    return out


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
    gamma2_form is the full symmetric form.  Its sphere2 block is
    diag(sum_y mu_xy mu_yw / (4 m(x) m(y))) > 0: a Gamma2 term follows one
    2-walk x -> y -> w and so holds at most one sphere2 vertex w.  The form
    table stores only the sphere1 rows and that diagonal; local_forms
    rebuilds the rest by symmetry and with zeros, and gamma_form and
    delta_vector from the adjacency row of x, which is sphere1.
    """

    ball: Ball
    gamma_form: np.ndarray
    gamma2_form: np.ndarray
    delta_vector: np.ndarray


class _Group(NamedTuple):
    """The centers of a form table with sphere sizes (k1, k2), k = k1 + k2.

    Arrays are views into the table, one row per center: ids holds the
    ball coordinates (sphere1 then sphere2, each ascending), rows the
    k1 x k sphere1 rows [A11 A12] of the Gamma2 form and a22 the k2
    entries of its diagonal sphere2 block (see LocalForms).  balls is the
    slice of the table's flat ids array, and of any per-coordinate array
    laid out like it, that ids covers.
    """

    k1: int
    k2: int
    centers: np.ndarray
    ids: np.ndarray
    rows: np.ndarray
    a22: np.ndarray
    balls: slice


@dataclass(frozen=True)
class _FormTable:
    """Local forms at many centers, grouped by sphere sizes (k1, k2).

    Centers are stored in group order: sorted by (k1, k2), ascending
    vertex id within a group.  Each center owns k consecutive entries of
    the flat ids array and k1 k + k2 consecutive floats of the flat forms
    buffer: its Gamma2 form's k1 sphere1 rows, slot (i, j) at i k + j, then
    the k2 entries of the sphere2 diagonal.  The rest of the symmetric form
    is the transpose of the rows' A12 block and zeros.  Every group is one
    contiguous run of each array.
    """

    centers: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    ids: np.ndarray
    forms: np.ndarray

    def groups(self):
        k = self.k1 + self.k2
        ball_at = np.cumsum(k) - k
        size = self.k1 * k + self.k2
        form_at = np.cumsum(size) - size
        cuts = np.flatnonzero((np.diff(self.k1) != 0) | (np.diff(self.k2) != 0)) + 1
        for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(k)]):
            k1, k2 = int(self.k1[lo]), int(self.k2[lo])
            n, kk = hi - lo, k1 + k2
            balls = slice(int(ball_at[lo]), int(ball_at[lo]) + n * kk)
            f0 = int(form_at[lo])
            forms = self.forms[f0:f0 + n * int(size[lo])].reshape(n, int(size[lo]))
            yield _Group(
                k1, k2, self.centers[lo:hi],
                self.ids[balls].reshape(n, kk),
                forms[:, :k1 * kk].reshape(n, k1, kk),
                forms[:, k1 * kk:],
                balls,
            )


def _ranges(starts, lengths):
    """Concatenation of range(s, s + n) over (s, n) in starts x lengths."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))


def form_table(g: WeightedGraph, centers) -> _FormTable:
    """2-balls and local forms at every center, built from the adjacency
    arrays at once.

    The 2-walks x -> y -> w (y a sphere1 vertex, w any neighbor of y)
    give sphere2 and, through the four contribution classes of
    1/2 Delta Gamma(f)(x) - Gamma(f, Delta f)(x), the Gamma2 form.  Each
    class is accumulated straight into the table's sphere1 rows and
    sphere2 diagonals.
    """
    indptr, indices, weights = g._csr_indptr, g._csr_indices, g._csr_weights
    nv = g.vertex_count
    centers = np.asarray(centers, dtype=np.int64)
    row_len = np.diff(indptr)

    # sphere1: the adjacency row of each center, ascending
    k1 = row_len[centers]
    s1_entry = _ranges(indptr[centers], k1)
    s1_owner = np.repeat(np.arange(len(centers)), k1)
    s1_id, mu_xy = indices[s1_entry], weights[s1_entry]
    s1_start = np.cumsum(k1) - k1
    s1_rank = np.arange(len(s1_owner)) - s1_start[s1_owner]

    # 2-walks, one per (sphere1 entry, adjacency entry of its vertex)
    step = _ranges(indptr[s1_id], row_len[s1_id])
    walk_s1 = np.repeat(np.arange(len(s1_owner)), row_len[s1_id])
    walk_owner = s1_owner[walk_s1]
    walk_w, mu_yw = indices[step], weights[step]
    del step

    # where each walk ends, by (owner, vertex) keys: the center, a sphere1
    # entry pos (sphere1 keys are sorted) or sphere2
    s1_key = s1_owner * nv + s1_id
    walk_key = walk_owner * nv + walk_w
    to_s2 = walk_w != centers[walk_owner]
    del walk_w, walk_owner
    pos = np.searchsorted(s1_key, walk_key)
    in_s1 = s1_key[np.minimum(pos, len(s1_key) - 1)] == walk_key
    to_s2 &= ~in_s1
    # sphere2 entries by a sort (numpy 2's np.unique hashes integer keys,
    # many times slower); s2 is the entry of each walk that ends there
    walk_key = walk_key[to_s2]
    by_key = np.argsort(walk_key)
    s2_key = walk_key[by_key]
    del walk_key
    first = np.diff(s2_key, prepend=-1) != 0
    s2 = np.empty_like(by_key)
    s2[by_key] = np.cumsum(first) - 1
    s2_key = s2_key[first]
    del by_key, first
    s2_owner = s2_key // nv
    k2 = np.bincount(s2_owner, minlength=len(centers))
    s2_start = np.cumsum(k2) - k2
    s2_rank = np.arange(len(s2_key)) - s2_start[s2_owner]

    # group order and storage: each center's k1 sphere1 rows of width k,
    # then its k2 sphere2 diagonal entries
    order = np.lexsort((k2, k1))
    k = k1 + k2
    ball_start = np.empty_like(k)
    ball_start[order] = np.cumsum(k[order]) - k[order]
    size = k1 * k + k2
    form_start = np.empty_like(k)
    form_start[order] = np.cumsum(size[order]) - size[order]
    ids = np.empty(int(k.sum()), dtype=np.int64)
    ids[ball_start[s1_owner] + s1_rank] = s1_id
    s2_col = k1[s2_owner] + s2_rank
    ids[ball_start[s2_owner] + s2_col] = s2_key - s2_owner * nv

    # The Gamma2 form is a sum of terms c f_i f_j; a term adds c to the
    # form's slot (i, i), or c/2 to each of (i, j) and (j, i).  Float
    # addition is not associative, so the terms reach each slot in one
    # fixed order: class by class, in walk or pair order within a class.
    # A walk x -> y -> w has the slots (y, y), (w, w), (w, y) and (y, w).
    # Its terms in w are dropped where w is the center.  A w in sphere2
    # has no (w, y) slot: that half of A21 is the transpose of A12, which
    # takes the same terms in the same order.  Each slot array below covers
    # the walks of one kind of w, and the kinds' slots are disjoint.
    s1_row = form_start[s1_owner] + s1_rank * k[s1_owner]   # slot (y, 0)
    s1_diag = s1_row + s1_rank
    yy = s1_diag[walk_s1]
    # w in sphere1 (never y: the adjacency has no loop) is a triangle x, y, w
    ww1 = s1_diag[pos[in_s1]]
    wy = s1_row[pos[in_s1]] + s1_rank[walk_s1[in_s1]]
    yw1 = s1_row[walk_s1[in_s1]] + s1_rank[pos[in_s1]]
    del pos
    ww2 = (form_start[s2_owner] + k1[s2_owner] * k[s2_owner] + s2_rank)[s2]
    yw2 = s1_row[walk_s1[to_s2]] + s2_col[s2]
    del s2, s2_key, s2_owner, s2_rank, s2_col

    # the table, allocated after the slot arrays: fewer walk arrays are
    # alive beside it, which lowers the peak
    forms = np.zeros(int(size.sum()))
    m = g.m
    mx = m[centers][s1_owner]
    two_mx = 2.0 * mx
    c0 = mu_xy / two_mx

    # 1/2 Delta Gamma(f)(x), the Gamma(f)(y) part:
    #   (mu_xy/(2 m_x)) (1/(2 m_y)) sum_w mu_yw (f_w - f_y)^2
    my = m[s1_id][walk_s1]
    c = c0[walk_s1] * mu_yw
    del mu_yw, walk_s1
    c1 = c / (2.0 * my)
    np.add.at(forms, ww1, c1[in_s1])
    np.add.at(forms, ww2, c1[to_s2])
    del ww1, ww2
    half = 0.5 * (-2.0 * c1)
    np.add.at(forms, wy, half[in_s1])
    np.add.at(forms, yw1, half[in_s1])
    np.add.at(forms, yw2, half[to_s2])
    np.add.at(forms, yy, c1)
    del c1

    # -Gamma(f, Delta f)(x), the -f_y Delta f(y) part
    c2 = c / my
    del c, my
    half = 0.5 * -c2
    np.add.at(forms, yw1, half[in_s1])
    np.add.at(forms, yw2, half[to_s2])
    np.add.at(forms, wy, half[in_s1])
    del wy, yw1, yw2, half, in_s1, to_s2
    np.add.at(forms, yy, c2)
    del yy, c2

    # -Gamma(f, Delta f)(x), the +f_y Delta f(x) part, over sphere1 pairs
    # (i, j): slot (i, j) takes a half from pair (i, j), then one from (j, i)
    pair = _ranges(s1_start[s1_owner], k1[s1_owner])
    pair_s1 = np.repeat(np.arange(len(s1_owner)), k1[s1_owner])
    c = c0[pair_s1] * mu_xy[pair] / mx[pair_s1]
    same = pair == pair_s1
    half = 0.5 * c
    np.add.at(forms, s1_row[pair_s1] + s1_rank[pair], np.where(same, c, half))
    np.add.at(forms, (s1_row[pair] + s1_rank[pair_s1])[~same], half[~same])
    del pair, pair_s1, c, same, half

    # 1/2 Delta Gamma(f)(x), the -Gamma(f)(x) part
    deg_x = g._degree[centers][s1_owner]
    np.add.at(forms, s1_diag, -(deg_x / two_mx) * mu_xy / two_mx)

    return _FormTable(centers[order], k1[order], k2[order], ids, forms)


def local_forms(g: WeightedGraph, x: int) -> LocalForms:
    x = vertex_id(g, x)
    (grp,) = form_table(g, [x]).groups()
    k1 = grp.k1
    s1 = tuple(grp.ids[0, :k1].tolist())
    s2 = tuple(grp.ids[0, k1:].tolist())
    ball = Ball(center=x, sphere1=s1, sphere2=s2,
                index_map={v: i for i, v in enumerate(s1 + s2)})
    form = np.diag(np.concatenate([np.zeros(k1), grp.a22[0]]))
    form[:k1] = grp.rows[0]
    form[k1:, :k1] = grp.rows[0, :, k1:].T
    mu, mx = g.neighbors(x)[1], g.m[x]
    return LocalForms(
        ball=ball,
        gamma_form=np.diag(mu / (2.0 * mx)),
        gamma2_form=form,
        delta_vector=mu / mx,
    )
