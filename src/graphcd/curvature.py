"""Bakry-Emery curvature-dimension bounds at graph vertices.

The pointwise curvature is the best constant in Gamma2 >= (1/n)(Delta f)^2
+ K Gamma(f) at x:

    kappa(x; n) = inf { [Gamma2(f)(x) - (1/n)(Delta f(x))^2] / Gamma(f)(x) }

over functions with f(x) = 0 supported on the 2-ball (locality makes the
restriction lossless).  The solver assembles the local forms at every
vertex from the adjacency arrays at once, eliminates the 2-sphere
coordinates by a Schur complement and solves the remaining symmetric
pencil, one stacked eigensolve per group of vertices with equal sphere
sizes.  The results are columns: kappa per vertex, and each ball's
coordinates and witness values in flat arrays; curvature_at and
curvature_all build a CurvatureResult from them when one is read.
curvature_oracle recomputes the same number at one vertex along an
independent route (forms assembled by polarization of global operator
evaluations, kernel deflation, a generalized eigensolver, and a
two-sided certificate that its eigenvalue is the minimum) so the two
can cross-check each other.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .graph import WeightedGraph, ball2, vertex_id
from .operators import form_table, gamma2_many, gamma_many, laplacian_many

_RANK_TOL = 1e-12          # pseudo-inverse cutoff, relative to the largest A22 entry or sigma_max
_PSD_TOL = 1e-10           # allowed negative entry of the diagonal S2 block
_ORACLE_MAX_BALL = 12
_CERT_TOL = 1e-12          # oracle certificate, relative to |A| + |kappa| |B|


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


def _solve(g: WeightedGraph, n: float) -> _Columns:
    """The curvature of (g, n) at every vertex.

    Per (k1, k2) group of the form table, with A the Gamma2 form over
    sphere1 + sphere2, b the Gamma diagonal and d the Delta vector: the
    sphere2 block is diag(a22) (see LocalForms), checked PSD and inverted
    to diag(inv); the Schur complement A11 - A12 diag(inv) A12^T less
    dd^T/n meets the pencil with diag(b) through the congruence by sqrt(b),
    and a stacked eigh gives its smallest eigenpair (kappa, v).  The witness
    is v on sphere1 and -(inv * (A12^T v) + 0.0) on sphere2, where every
    zero is -0.0, whatever its sign in A12^T v.  Support and values are the
    table's ball coordinates and the witness values, in its group order.
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
        A = grp.forms
        A11, A12 = A[:, :k1, :k1], A[:, :k1, k1:]
        if grp.k2 > 0:
            a22 = np.diagonal(A[:, k1:, k1:], axis1=1, axis2=2)
            top = a22.max(axis=1)
            bad = a22.min(axis=1) < -_PSD_TOL * np.maximum(1.0, top)
            if bad.any():
                i = int(np.argmax(bad))
                raise CurvatureInternalError(
                    f"sphere2 block of the Gamma2 form is not PSD at "
                    f"{g.labels[grp.centers[i]]!r} (min entry {a22[i].min():.3e})"
                )
            keep = a22 > _RANK_TOL * top[:, None]
            inv = np.divide(1.0, a22, out=np.zeros_like(a22), where=keep)
            Ahat = A11 - (A12 * inv[:, None, :]) @ A12.transpose(0, 2, 1)
            Ahat = 0.5 * (Ahat + Ahat.transpose(0, 2, 1))
        else:
            Ahat = A11

        d = grp.delta
        M = Ahat if math.isinf(n) else Ahat - d[:, :, None] * d[:, None, :] / n

        # pencil M v = lambda B v via the congruence B = C^T C, C = diag(sqrt(b))
        c = np.sqrt(grp.gamma)
        lam, vecs = np.linalg.eigh(M / (c[:, :, None] * c[:, None, :]))
        v = _fix_sign(vecs[:, :, 0]) / c   # Gamma(witness)(x) = v^T B v = u^T u = 1
        vals = values[grp.balls].reshape(grp.ids.shape)
        vals[:, :k1] = v
        if grp.k2 > 0:
            vals[:, k1:] = -(inv * (A12.transpose(0, 2, 1) @ v[:, :, None])[:, :, 0] + 0.0)
        kappa[grp.centers] = lam[:, 0]
        start[grp.centers] = np.arange(grp.balls.start, grp.balls.stop, k1 + grp.k2)
        size[grp.centers] = k1 + grp.k2
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


# ---------------------------------------------------------------------------
# independent oracle
# ---------------------------------------------------------------------------

def _polarized_forms(g, x, coords):
    """Assemble the Gamma2/Gamma forms over ball coordinates by evaluating
    the global operators on basis functions and polarizing.  Shares no code
    with the analytic assembly in operators.local_forms."""
    k = len(coords)
    nv = g.vertex_count
    pair_list = [(i, j) for i in range(k) for j in range(i + 1, k)]
    F = np.zeros((nv, k + len(pair_list)))
    for i, vtx in enumerate(coords):
        F[vtx, i] = 1.0
    for col, (i, j) in enumerate(pair_list, start=k):
        F[coords[i], col] = 1.0
        F[coords[j], col] = 1.0

    q2 = gamma2_many(g, F)[x]
    q1 = gamma_many(g, F)[x]
    dvals = laplacian_many(g, F[:, :k])[x]

    A = np.diag(q2[:k])
    B = np.diag(q1[:k])
    for col, (i, j) in enumerate(pair_list, start=k):
        A[i, j] = A[j, i] = 0.5 * (q2[col] - q2[i] - q2[j])
        B[i, j] = B[j, i] = 0.5 * (q1[col] - q1[i] - q1[j])
    return A, B, dvals


def curvature_oracle(g: WeightedGraph, x: int, n: float = math.inf) -> float:
    """kappa(x; n) by direct minimization over the full 2-ball coordinates.

    The Rayleigh quotient [f'Af - (1/n)(d.f)^2] / (f'Bf) is minimized with
    B extended by zeros on the 2-sphere: the kernel of B is deflated (the
    minimum over kernel directions is taken analytically, the Gamma2 form
    restricted there being PSD), and the rest is a generalized eigensolve.
    The result is certified on both sides in the raw coordinates: the
    eigenvector, lifted back through the deflation, has quotient kappa
    (so the minimum is at most kappa), and A - kappa B is PSD (so no
    direction has a smaller quotient).  Either failing raises
    CurvatureInternalError.
    """
    # imported here: the CLI never runs this cross-check, and scipy.linalg
    # is about a sixth of the package's import time
    import scipy.linalg

    n = _check_dimension(n)
    x = vertex_id(g, x)
    ball = ball2(g, x)
    k1 = len(ball.sphere1)
    k2 = len(ball.sphere2)
    if 1 + k1 + k2 > _ORACLE_MAX_BALL:
        raise ValueError(
            f"2-ball at {g.labels[x]!r} has {1 + k1 + k2} vertices; "
            f"oracle requires at most {_ORACLE_MAX_BALL}"
        )
    if k1 == 0:
        raise IsolatedVertexError(
            f"vertex {g.labels[x]!r} has no neighbors; curvature undefined"
        )

    coords = list(ball.sphere1) + list(ball.sphere2)
    A, B, d = _polarized_forms(g, x, coords)
    Atil = A if math.isinf(n) else A - np.outer(d, d) / n

    w, V = np.linalg.eigh(B)
    pos = w > _RANK_TOL * max(1.0, float(w.max()))
    Y = V[:, pos]
    Z = V[:, ~pos]
    Bpos = Y.T @ B @ Y
    AYY = Y.T @ Atil @ Y
    AZY = Z.T @ Atil @ Y
    if Z.shape[1] > 0:
        AZZ_pinv = np.linalg.pinv(Z.T @ Atil @ Z, rcond=_RANK_TOL)
        E = AYY - AZY.T @ AZZ_pinv @ AZY
        E = 0.5 * (E + E.T)
    else:
        AZZ_pinv = np.zeros((0, 0))
        E = AYY
    lam, U = scipy.linalg.eigh(E, Bpos)
    kappa = float(lam[0])

    # certificate, at roundoff of the residual form R = A - kappa B
    tol = _CERT_TOL * (
        float(np.linalg.norm(Atil, 2)) + abs(kappa) * float(np.linalg.norm(B, 2))
    )
    u = U[:, 0]
    v = Y @ u - Z @ (AZZ_pinv @ (AZY @ u))
    vBv = float(v @ B @ v)
    quotient = float(v @ Atil @ v) / vBv
    if not abs(quotient - kappa) * vBv <= tol * float(v @ v):
        raise CurvatureInternalError(
            f"eigenvector quotient {quotient!r} does not attain eigenvalue {kappa!r} "
            f"at vertex {g.labels[x]!r}"
        )
    margin = float(np.linalg.eigvalsh(Atil - kappa * B)[0])
    if not margin >= -tol:
        raise CurvatureInternalError(
            f"A - kappa B has eigenvalue {margin!r} < 0 for kappa {kappa!r} "
            f"at vertex {g.labels[x]!r}: kappa is not the minimum"
        )
    return kappa
