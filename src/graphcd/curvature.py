"""Bakry-Emery curvature-dimension bounds at graph vertices.

The pointwise curvature is the best constant in Gamma2 >= (1/n)(Delta f)^2
+ K Gamma(f) at x:

    kappa(x; n) = inf { [Gamma2(f)(x) - (1/n)(Delta f(x))^2] / Gamma(f)(x) }

over functions with f(x) = 0 supported on the 2-ball (locality makes the
restriction lossless).  The solver assembles the local forms at every
vertex from the adjacency arrays at once (the sphere1 rows of the Gamma2
form and its diagonal 2-sphere block), eliminates the 2-sphere
coordinates by a Schur complement through that diagonal and solves the
remaining symmetric pencil, one stacked eigensolve per group of vertices
with equal sphere sizes.  The results are columns: kappa per vertex, and
each ball's coordinates and witness values in flat arrays; curvature_at and
curvature_all build a CurvatureResult from them when one is read.  A kappa
that is not finite (the input out of float range) raises ValueError, so
none is handed out.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .graph import WeightedGraph, vertex_id
from .operators import form_table

_PSD_TOL = 1e-10           # allowed negative entry of the diagonal S2 block


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
    start[x] + size[x]).  It is the sequence of those CurvatureResults in
    vertex order: one is built when it is read and kept for the next read."""

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


# a form out of float range overflows to inf or nan in the forms or the pencil,
# and the check of kappa below raises on it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _solve(g: WeightedGraph, n: float) -> _Columns:
    """The curvature of (g, n) at every vertex.

    Per (k1, k2) group of the form table, with A the Gamma2 form over
    sphere1 + sphere2, b the Gamma diagonal and d the Delta vector: the
    table's rows hold A11 and A12, and the sphere2 block is diag(a22) (see
    LocalForms), checked PSD and inverted to diag(inv) entry by entry.  No
    entry is dropped, however small next to the others: each is an exact
    sum of positive terms, not roundoff.  An entry whose inverse overflows
    (it underflowed to 0 or nearly) raises ValueError, the input being out
    of float range.  The Schur complement A11 - A12 diag(inv) A12^T less
    dd^T/n meets the pencil with diag(b) through the congruence by sqrt(b),
    and a stacked eigh gives its smallest eigenpair (kappa, v).  The witness
    is v on sphere1 and -(inv * (A12^T v) + 0.0) on sphere2, where every
    zero is -0.0, whatever its sign in A12^T v.  Support and values are the
    table's ball coordinates and the witness values, in its group order.  A
    kappa that is not finite raises ValueError naming the first such vertex
    in vertex order.
    """
    nv = g.vertex_count
    table = form_table(g, np.arange(nv))
    values = np.empty(len(table.ids))
    kappa = np.empty(nv)
    start = np.empty(nv, dtype=np.int64)
    size = np.empty(nv, dtype=np.int64)
    for grp in table.groups():
        k1 = grp.k1
        if k1 == 0:
            raise IsolatedVertexError(
                f"vertex {g.labels[grp.centers[0]]!r} has no neighbors; curvature undefined"
            )
        A11, A12 = grp.rows[:, :, :k1], grp.rows[:, :, k1:]
        if grp.k2 > 0:
            a22 = grp.a22
            top = a22.max(axis=1)
            bad = a22.min(axis=1) < -_PSD_TOL * np.maximum(1.0, top)
            if bad.any():
                i = int(np.argmax(bad))
                raise CurvatureInternalError(
                    f"sphere2 block of the Gamma2 form is not PSD at "
                    f"{g.labels[grp.centers[i]]!r} (min entry {a22[i].min():.3e})"
                )
            inv = 1.0 / a22
            lost = np.isinf(inv).any(axis=1)
            if lost.any():
                i = int(np.argmax(lost))
                raise ValueError(
                    f"the Gamma2 form underflows at {g.labels[grp.centers[i]]!r}: a sphere2 "
                    f"diagonal entry is {a22[i].min():.3e}, which has no finite inverse"
                )
            Ahat = A11 - (A12 * inv[:, None, :]) @ A12.transpose(0, 2, 1)
            Ahat = 0.5 * (Ahat + Ahat.transpose(0, 2, 1))
        else:
            Ahat = A11

        d = grp.delta
        # pencil M v = lambda B v via the congruence B = C^T C, C = diag(sqrt(b))
        c = np.sqrt(grp.gamma)
        M = Ahat if math.isinf(n) else Ahat - d[:, :, None] * d[:, None, :] / n
        lam, vecs = np.linalg.eigh(M / (c[:, :, None] * c[:, None, :]))
        v = _fix_sign(vecs[:, :, 0]) / c   # Gamma(witness)(x) = v^T B v = u^T u = 1
        vals = values[grp.balls].reshape(grp.ids.shape)
        vals[:, :k1] = v
        if grp.k2 > 0:
            vals[:, k1:] = -(inv * (A12.transpose(0, 2, 1) @ v[:, :, None])[:, :, 0] + 0.0)
        kappa[grp.centers] = lam[:, 0]
        start[grp.centers] = np.arange(grp.balls.start, grp.balls.stop, k1 + grp.k2)
        size[grp.centers] = k1 + grp.k2
    bad = np.flatnonzero(~np.isfinite(kappa))
    if bad.size:
        x = bad[0]
        raise ValueError(f"kappa at vertex {g.labels[x]!r} not finite: {kappa[x]}")
    for a in (table.ids, values, kappa, start, size):
        a.flags.writeable = False
    return _Columns(n, kappa, start, size, table.ids, values)


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
