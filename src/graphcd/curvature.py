"""Bakry-Emery curvature-dimension bounds at graph vertices.

The pointwise curvature is the best constant in Gamma2 >= (1/n)(Delta f)^2
+ K Gamma(f) at x:

    kappa(x; n) = inf { [Gamma2(f)(x) - (1/n)(Delta f(x))^2] / Gamma(f)(x) }

over functions with f(x) = 0 supported on the 2-ball (locality makes the
restriction lossless).  The solver assembles the local forms from the
adjacency arrays a block of vertices at a time (the sphere1 rows of the
Gamma2 form and its diagonal 2-sphere block), each block within a fixed
byte budget, so that dense balls run in bounded memory.  It eliminates
the 2-sphere coordinates by a Schur complement through that diagonal and
solves the remaining symmetric pencil, one stacked eigensolve per
sphere1 size in a block.  The results are columns, each held once: kappa
per vertex, and each ball's coordinates and witness values in flat arrays
written in place; curvature_at and curvature_all build a CurvatureResult
from them when one is read.  A kappa that is not finite raises ValueError.
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .graph import WeightedGraph, vertex_id
from .operators import form_table

_PSD_TOL = 1e-10           # allowed negative entry of the diagonal S2 block
# _solve builds the form table a block of centers at a time, each block
# within _BLOCK_BYTES at form_table's peak: the table (a row of k1 + k2
# floats per sphere1 entry; k2 diagonal floats and k1 + k2 ids per center)
# and at most about _WALK_BYTES more per 2-walk x -> y -> w of its centers
_BLOCK_BYTES = 2**21
_WALK_BYTES = 96


class CurvatureInternalError(RuntimeError):
    """A structural invariant of the curvature computation failed."""


class IsolatedVertexError(ValueError):
    """Curvature is undefined at a vertex with no neighbors."""


@dataclass(frozen=True)
class CurvatureResult:
    vertex: int
    dimension: float
    kappa: float
    support: np.ndarray  # read-only ids of the punctured 2-ball: sphere1, then sphere2
    values: np.ndarray   # read-only witness values on support
    vertex_count: int

    @property
    def witness(self) -> np.ndarray:
        """Read-only function on V, zero off the 2-ball; Gamma(witness)(vertex) = 1."""
        return _witness(self.vertex_count, self.support, self.values)


def _witness(vertex_count, support, values):
    w = np.zeros(vertex_count)
    w[support] = values
    w.flags.writeable = False
    return w


@dataclass(frozen=True, eq=False)
class _Columns(Sequence):
    """The curvature of a graph at every vertex for one dimension, as flat
    read-only arrays: vertex x has kappa[x], and its CurvatureResult's
    support and values are support[s] and values[s] for s = slice(start[x],
    start[x] + size[x]), the balls lying there in _solve's order (block
    after block of centers, each in its form table's group order), not in
    vertex order.  It is the sequence of those CurvatureResults in vertex
    order: one is built when it is read and kept for the next read."""

    dimension: float
    kappa: np.ndarray
    start: np.ndarray
    size: np.ndarray
    support: np.ndarray
    values: np.ndarray
    _results: dict = field(default_factory=dict, init=False, repr=False)

    def ball(self, x):
        """The slice of x's ball coordinates in support and values."""
        lo = int(self.start[x])
        return slice(lo, lo + int(self.size[x]))

    def witness(self, x):
        """CurvatureResult.witness at vertex x."""
        s = self.ball(x)
        return _witness(len(self.kappa), self.support[s], self.values[s])

    def result(self, x):
        r = self._results.get(x)
        if r is None:
            s = self.ball(x)
            r = self._results[x] = CurvatureResult(
                x, self.dimension, float(self.kappa[x]), self.support[s], self.values[s],
                len(self.kappa))
        return r

    def __len__(self):
        return len(self.kappa)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self.result(x) for x in range(len(self))[i]]
        return self.result(range(len(self))[i])


def _check_dimension(n):
    try:  # float() reads inf and infinity too
        n = float(n)
    except ValueError:
        raise ValueError(f"cannot parse dimension {n!r}") from None
    if math.isnan(n) or n <= 0.0:
        raise ValueError(f"dimension must be a positive real or inf, got {n}")
    return n


def _fix_sign(U):
    """Rows of U, each flipped so that its first coordinate above roundoff
    is positive (a lexicographic sign convention)."""
    tol = 1e-12 * np.maximum(1.0, np.abs(U).max(axis=1))
    big = np.abs(U) > tol[:, None]
    first = U[np.arange(len(U)), big.argmax(axis=1)]
    return np.where((big.any(axis=1) & (first < 0.0))[:, None], -U, U)


def _schur(grp, out):
    """Write group grp's A11 - A12 diag(inv) A12^T, symmetrized, into out
    and return inv = 1 / a22; A11 as it is, and None, where k2 = 0."""
    k1 = grp.k1
    A11, A12 = grp.rows[:, :, :k1], grp.rows[:, :, k1:]
    if grp.k2 == 0:
        out[...] = A11
        return None
    inv = 1.0 / grp.a22
    Ahat = A11 - (A12 * inv[:, None, :]) @ A12.transpose(0, 2, 1)
    out[...] = 0.5 * (Ahat + Ahat.transpose(0, 2, 1))
    return inv


def _check_sphere2(g, run, invs, rank):
    """Raise for the center of run first in rank whose sphere2 diagonal a22
    fails, as _solve says: CurvatureInternalError where it is not PSD,
    else ValueError where an entry's inverse in invs overflows."""
    failed = []  # (rank, group, row, not PSD) of each group's first failing center
    for grp, inv in zip(run, invs):
        if inv is None:
            continue
        a22 = grp.a22
        not_psd = a22.min(axis=1) < -_PSD_TOL * np.maximum(1.0, a22.max(axis=1))
        bad = np.flatnonzero(not_psd | np.isinf(inv).any(axis=1))
        if bad.size:
            i = bad[np.argmin(rank[grp.centers[bad]])]
            failed.append((rank[grp.centers[i]], grp, i, not_psd[i]))
    if not failed:
        return
    _, grp, i, not_psd = min(failed, key=lambda f: f[0])
    label, a22 = g.labels[grp.centers[i]], grp.a22[i]
    if not_psd:
        raise CurvatureInternalError(
            f"sphere2 block of the Gamma2 form is not PSD at {label!r} (min entry {a22.min():.3e})")
    raise ValueError(
        f"the Gamma2 form underflows at {label!r}: a sphere2 diagonal entry is "
        f"{a22.min():.3e}, which has no finite inverse")


def _solve_run(g, n, run, rank, values, kappa):
    """Solve the pencils of run, the groups of one k1, as one stack, as
    _solve says: write their witness values into values and kappa into kappa."""
    k1 = run[0].k1
    if k1 == 0:
        raise IsolatedVertexError(
            f"vertex {g.labels[run[0].centers[0]]!r} has no neighbors; curvature undefined"
        )
    at = np.cumsum([0] + [len(grp.centers) for grp in run])
    M = np.empty((at[-1], k1, k1))
    invs = [_schur(grp, M[lo:hi]) for grp, lo, hi in zip(run, at, at[1:])]
    _check_sphere2(g, run, invs, rank)
    # sphere1 is each center's adjacency row, in order
    centers = np.concatenate([grp.centers for grp in run])
    mu = g._csr_weights[g._csr_indptr[centers, None] + np.arange(k1)]
    mx = g.m[centers, None]
    d = mu / mx
    # pencil M v = lambda B v via the congruence B = C^T C, C = diag(sqrt(b))
    c = np.sqrt(mu / (2.0 * mx))
    if not math.isinf(n):
        M -= d[:, :, None] * d[:, None, :] / n
    M /= c[:, :, None] * c[:, None, :]
    lam, vecs = np.linalg.eigh(M)
    v = _fix_sign(vecs[:, :, 0]) / c   # Gamma(witness)(x) = v^T B v = u^T u = 1
    for grp, inv, lo, hi in zip(run, invs, at, at[1:]):
        vals = values[grp.balls].reshape(grp.ids.shape)
        vals[:, :k1] = v[lo:hi]
        if grp.k2 > 0:
            A21 = grp.rows[:, :, k1:].transpose(0, 2, 1)
            vals[:, k1:] = -(inv * (A21 @ v[lo:hi, :, None])[:, :, 0] + 0.0)
        kappa[grp.centers] = lam[lo:hi, 0]


def _center_blocks(g):
    """(blocks, rank, coords): the vertices in (degree, 2-walk count, id)
    order, cut into consecutive blocks whose form tables stay within
    _BLOCK_BYTES (a vertex at least), each vertex's place in that order,
    and a bound on the total size of the punctured 2-balls.

    A center's k2 is bounded by the 2-walks less the k1 that return to it
    and by the vertices outside its sphere1.  At that bound its cost is its
    table's bytes and _WALK_BYTES per 2-walk, and coords sums its k1 + k2."""
    indptr, indices = g._csr_indptr, g._csr_indices
    k1 = np.diff(indptr)
    reach = np.concatenate([[0], np.cumsum(k1[indices])])
    walks = reach[indptr[1:]] - reach[indptr[:-1]]   # the 2-walks x -> y -> w from x
    order = np.lexsort((walks, k1))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    k = k1 + np.minimum(walks - k1, g.vertex_count - 1 - k1)   # k1 + k2 at most
    cost = 8 * (k1 * k + (k - k1) + k) + _WALK_BYTES * walks
    cost = np.concatenate([[0], np.cumsum(cost[order])])
    cuts, lo = [0], 0
    while lo < len(order):
        hi = int(np.searchsorted(cost, cost[lo] + _BLOCK_BYTES, side="right")) - 1
        lo = max(hi, lo + 1)
        cuts.append(lo)
    return [order[lo:hi] for lo, hi in zip(cuts, cuts[1:])], rank, int(k.sum())


# a form out of float range overflows to inf or nan in the forms or the pencil,
# and the check of kappa below raises on it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _solve(g: WeightedGraph, n: float) -> _Columns:
    """The curvature of (g, n) at every vertex.

    The form table is built and solved a block of centers at a time: the
    vertices in (degree, 2-walk count, id) order, cut into blocks whose
    form tables stay within _BLOCK_BYTES (one vertex at least), each
    block's table dropped before the next is built.  Per (k1, k2) group of
    a block's table, with A the Gamma2 form over sphere1 + sphere2, and b
    the Gamma diagonal mu_xy/(2 m_x) and d the Delta vector mu_xy/m_x over
    sphere1, the center's adjacency row, read from the graph: the table's
    rows hold A11 and A12, and the sphere2 block is diag(a22) (see
    LocalForms), inverted to diag(inv) entry by entry and checked.  No
    entry is dropped, however small next to the others: each is an exact
    sum of positive terms, not roundoff.  The Schur complement A11 - A12
    diag(inv) A12^T less dd^T/n meets the pencil with diag(b) through the
    congruence by sqrt(b), and eigh gives its smallest eigenpair (kappa,
    v), one stacked call for all the groups of one k1 in the block (a
    contiguous run of its table).  The witness is v on sphere1 and -(inv *
    (A12^T v) + 0.0) on sphere2, where every zero is -0.0, whatever its
    sign in A12^T v.  Each center's terms, matrices and eigenpair are its
    own, so no result depends on the block that holds it.  Support and
    values are the tables' ball coordinates and the witness values, block
    after block in place, each in its table's group order, in columns
    sized by _center_blocks' bound, whose unused tail is never touched.

    A sphere2 block with an entry below -_PSD_TOL max(1, its largest)
    raises CurvatureInternalError, and else one with an entry whose
    inverse overflows (it underflowed to 0 or nearly) raises ValueError,
    the input being out of float range: each names the first such vertex
    in (degree, 2-walk count, id) order, whatever the blocks' sizes.  A
    kappa that is not finite raises ValueError naming the first such
    vertex in vertex order.
    """
    nv = g.vertex_count
    kappa = np.empty(nv)
    start = np.empty(nv, dtype=np.int64)
    size = np.empty(nv, dtype=np.int64)
    blocks, rank, coords = _center_blocks(g)
    support, values = np.empty(coords, dtype=np.int64), np.empty(coords)
    at = 0
    for centers in blocks:
        table = form_table(g, centers)
        s = slice(at, at + len(table.ids))
        support[s] = table.ids
        k = table.k1 + table.k2
        start[table.centers], size[table.centers] = at + np.cumsum(k) - k, k
        # the groups ascend in (k1, k2): the groups of one k1 are one run of the table
        for _, run in itertools.groupby(table.groups(), key=lambda grp: grp.k1):
            _solve_run(g, n, list(run), rank, values[s], kappa)
        at = s.stop
        del table, run  # the block's forms go before the next block's are built
    bad = np.flatnonzero(~np.isfinite(kappa))
    if bad.size:
        x = bad[0]
        raise ValueError(f"kappa at vertex {g.labels[x]!r} not finite: {kappa[x]}")
    support, values = support[:at], values[:at]
    for a in (support, values, kappa, start, size):
        a.flags.writeable = False
    return _Columns(n, kappa, start, size, support, values)


_SOLVED = weakref.WeakKeyDictionary()  # graph -> {dimension: _Columns}


def _table(g: WeightedGraph, n: float) -> _Columns:
    """_solve(g, n), once per (graph, dimension): a graph is immutable, so
    the read-only columns and the results built from them are shared
    between calls."""
    solved = _SOLVED.setdefault(g, {})
    if n not in solved:
        solved[n] = _solve(g, n)
    return solved[n]


def curvature_at(g: WeightedGraph, x: int, n: float = math.inf) -> CurvatureResult:
    """Pointwise curvature kappa(x; n) with an optimizing witness function."""
    n = _check_dimension(n)
    x = vertex_id(g, x)
    return _table(g, n).result(x)


def curvature_all(g: WeightedGraph, n: float = math.inf):
    """curvature_at at every vertex, in vertex order: the graph's table of
    curvature columns for n (one per graph and dimension), a sequence that
    builds each CurvatureResult when it is read."""
    return _table(g, _check_dimension(n))


def min_curvature(g: WeightedGraph, n: float = math.inf) -> float:
    """The least kappa(x; n), the first in vertex order where several are least."""
    kappa = _table(g, _check_dimension(n)).kappa
    return float(kappa[np.argmin(kappa)])
