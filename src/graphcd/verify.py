"""Numerical verification of semigroup-level curvature characterizations.

Each check is one Check record of the table CHECKS, keyed by its name
(INEQUALITY_NAMES): three inequalities of the heat semigroup P_t on a graph
that satisfies CD(K, infinity) resp. CD(K, n), for all f and t > 0, and two
identities that hold exactly.  A record's sides function states its check
and computes both sides; the sweep, the tolerance and the CLI read only the
record's fields, so a new check is one record plus its sides function.

Integrals are evaluated by nested Clenshaw-Curtis rules of degree 2n and
n, with the coarse/fine difference as the error estimate; n is sized from
the propagator's spectral bound, K and t, and semigroup._heat_time_sum
sums each block of nodes, which is all this module knows of the
propagator.  _sides evaluates a block of functions as columns at
one time; run_verification sweeps a corpus by such blocks over a time
grid into a VerificationReport, with the propagator _sweep_propagator picks.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .curvature import _check_dimension, curvature_all, min_curvature
from .graph import WeightedGraph
from .operators import _column_blocks, _gamma2_parts, _vertex_array, gamma_many, laplacian_many
from .semigroup import (
    _bessel_tail_degree, _heat_time_sum, _propagator_for, heat_apply_columns, heat_curve)

PLAIN_TOLERANCE = 1e-9      # checks that take no time integral
QUAD_TOLERANCE_FLOOR = 1e-8  # quadrature-backed checks use max(floor, estimate)


@dataclass(frozen=True)
class VerificationRecord:
    function_id: str
    t: float
    vertex: str
    lhs: float
    rhs: float
    slack: float  # rhs - lhs


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """lhs, rhs and slack are (function, time, vertex) arrays along the
    sorted axes function_ids, times and vertices: report order."""

    inequality_name: str
    K: float
    n: float | None
    function_ids: tuple
    times: tuple
    vertices: tuple
    lhs: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray  # rhs - lhs
    quadrature_error_estimate: float

    @property
    def min_slack(self) -> float:
        """The smallest slack: NaN if any slack is NaN, 0.0 with no records."""
        # argmin keeps the first of equal minima, and so the sign of a zero
        return float(self.slack.flat[self.slack.argmin()]) if self.slack.size else 0.0

    @property
    def records(self) -> Sequence:
        """The records in report order, each built when it is read."""
        return _Records(self)


class _Records(Sequence):
    def __init__(self, report):
        self._report = report

    def __len__(self):
        return self._report.slack.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        r = self._report
        i = range(r.slack.size)[i]
        f, t, v = np.unravel_index(i, r.slack.shape)
        return VerificationRecord(r.function_ids[f], r.times[t], r.vertices[v],
                                  float(r.lhs.flat[i]), float(r.rhs.flat[i]),
                                  float(r.slack.flat[i]))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

# integrand columns evaluated at once: the integrand's arrays stay at
# nv x 513 however many nodes a stiff spectrum needs
_NODE_BLOCK = 513
# a larger sized degree (t |lambda_min| above about 1e10 at K = 0) is
# refused: its integrals would take minutes
_MAX_SIZED_PANELS = 2**20
# functions run_verification evaluates at once, which bounds its edge x column arrays
_FUNCTION_BLOCK = 128


@functools.lru_cache(maxsize=16)
def _cc_weights(n):
    """(2n + 1, 2) weights on [-1, 1] at the points -cos(j pi / 2n), j = 0..2n:
    column 0 the Clenshaw-Curtis rule of degree 2n, column 1 that of degree
    n, which uses the even points.  Read-only, as the cache shares it."""
    W = np.zeros((2 * n + 1, 2))
    for col, N in ((0, 2 * n), (1, n)):
        # Waldvogel (BIT 46, 2006): the weights are the inverse DFT of the
        # moments Int_{-1}^{1} T_k = 2 / (1 - k^2) of even k
        w = np.fft.irfft(2.0 / (1.0 - np.arange(0, N + 1, 2, dtype=np.float64) ** 2), N)
        w = np.append(w, w[0])
        w[[0, -1]] *= 0.5
        W[:: 2 * n // N, col] = w
    W.flags.writeable = False
    return W


@dataclass(frozen=True)
class QuadratureSpec:
    """Degree n of the coarse Clenshaw-Curtis rule; the fine rule has
    degree 2n.  _heat_integral sizes it (_sized_panels)."""

    panels: int


def _integrate(integrand, t, quad):
    """Vector-valued Clenshaw-Curtis over [0, t] at two degrees.

    integrand(nodes, weights) returns the (k, 2) sums of its values at a
    block of at most _NODE_BLOCK ascending nodes with their weights.  The
    result is the (k, 2) array of the degree-2n and the degree-n sums (n =
    quad.panels); the error estimate is |fine - coarse|, the coarse rule's.
    """
    n = quad.panels
    # s_j = t (1 - cos(j pi / 2n)) / 2, written to keep the small nodes exact
    nodes = t * np.sin(np.arange(2 * n + 1) * (np.pi / (4 * n))) ** 2
    W = _cc_weights(n)
    sums = sum(integrand(nodes[i:i + _NODE_BLOCK], W[i:i + _NODE_BLOCK])
               for i in range(0, len(nodes), _NODE_BLOCK))
    return sums * (0.5 * t)


def _sized_panels(sd, K, t):
    """The coarse degree that resolves Int_0^t e^{-2Ks} P_s[Q(P_{t-s} f)] ds
    for a quadratic Q.

    The integrand is a sum of e^{rs} with r = (lam_i - 2K) - (lam_j + lam_k)
    and lam in [sd.lam_min, 0], so |r| t / 2 <= a of _panel_degree, and the
    coefficients of such a term fall below 1e-17 at _bessel_tail_degree(a).
    """
    n = _panel_degree(sd.lam_min, K, t)
    if not n <= _MAX_SIZED_PANELS:
        raise ValueError(
            f"the time integral at K = {K!r}, t = {t!r} needs a panel count above "
            f"{_MAX_SIZED_PANELS} on this spectrum (lambda_min = {sd.lam_min!r})")
    return n + n % 2


def _panel_degree(lam_min, K, t):
    """The degree of _sized_panels before its cap and its rounding to even."""
    a = 0.5 * t * max(abs(lam_min - 2.0 * K), abs(2.0 * lam_min + 2.0 * K))
    return _bessel_tail_degree(a)


def _check_time(t):
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"need a positive finite time, got {t}")
    return t


# ---------------------------------------------------------------------------
# inequality / identity evaluators (per-vertex)
# ---------------------------------------------------------------------------

def _sides(g, sd, inequality_name, F, K, n, t):
    """(lhs, rhs, quadrature error estimate or None) per vertex and column of F
    at one time: rhs is an inequality's bound or an identity's integral side."""
    return CHECKS[inequality_name].sides(g, sd, F, K, n, _check_time(t))


def _gradient_sides(g, sd, F, K, n, t):
    """gradient_estimate: Gamma(P_t f) <= e^{-2Kt} P_t Gamma(f)."""
    heat = functools.partial(heat_apply_columns, sd, g, t)
    return gamma_many(g, heat(F)), _decay(K, t) * heat(gamma_many(g, F)), None


def _variance_bound_sides(g, sd, F, K, n, t):
    """variance_bound: P_t(f^2) - (P_t f)^2 <= ((1 - e^{-2Kt})/K) P_t Gamma(f)."""
    heat = functools.partial(heat_apply_columns, sd, g, t)
    return heat(F * F) - heat(F) ** 2, variance_coefficient(K, t) * heat(gamma_many(g, F)), None


def _cdn_sides(g, sd, F, K, n, t):
    """cdn_bound: Gamma(P_t f) <= e^{-2Kt} P_t Gamma(f)
    - (2/n) Int_0^t e^{-2Ks} P_s((Delta P_{t-s} f)^2) ds."""
    gradient, decayed, _ = _gradient_sides(g, sd, F, K, n, t)
    n = _check_dimension(n)
    if math.isinf(n):
        # the integral's coefficient 2/n is 0
        return gradient, decayed, np.zeros_like(decayed)
    integral, err = _heat_integral(g, sd, F, K, t, functools.partial(_laplacian_squared, g))
    coeff = 2.0 / n
    return gradient, decayed - coeff * integral, coeff * err


def _variance_identity_sides(g, sd, F, K, n, t):
    """variance_identity: P_t(f^2) - (P_t f)^2 = 2 Int_0^t P_s Gamma(P_{t-s} f) ds."""
    heat = functools.partial(heat_apply_columns, sd, g, t)
    return (heat(F * F) - heat(F) ** 2, *_integrate_variance(g, sd, F, t))


def _gamma2_identity_sides(g, sd, F, K, n, t):
    """gamma2_identity, at every real K: e^{-2Kt} P_t Gamma(f) - Gamma(P_t f)
    = 2 Int_0^t e^{-2Ks} P_s[(Gamma2 - K Gamma)(P_{t-s} f)] ds."""
    gradient, decayed, _ = _gradient_sides(g, sd, F, K, n, t)
    return (decayed - gradient, *_integrate_gamma2(g, sd, F, K, t))


@dataclass(frozen=True)
class Check:
    """A check, as the record of CHECKS that every other part reads.  Its sides
    function looks up what it calls as module globals when it runs."""

    flag: str        # its --inequality value
    identity: bool   # rhs is an integral side held to |rhs - lhs| <= tol, not a bound
    takes_n: bool    # it needs a dimension n, which no other check takes
    heat: int        # its heat applications per function and time
    integral: bool   # it takes a time integral (not at n = inf, if it takes n)
    sides: Callable  # (g, sd, F, K, n, t) -> (lhs, rhs, estimate or None); see _sides

    def takes_integral(self, n):
        return self.integral and not (n is not None and math.isinf(n))


CHECKS = {  # name: flag, identity, takes_n, heat, integral, sides
    "gradient_estimate": Check("gradient", False, False, 2, False, _gradient_sides),
    "variance_bound": Check("variance", False, False, 3, False, _variance_bound_sides),
    "cdn_bound": Check("cdn", False, True, 2, True, _cdn_sides),
    "variance_identity": Check("variance-identity", True, False, 2, True, _variance_identity_sides),
    "gamma2_identity": Check("gamma2-identity", True, False, 2, True, _gamma2_identity_sides),
}
INEQUALITY_NAMES = tuple(CHECKS)


def _decay(K, t, exp=math.exp):
    """exp(-2Kt), or a ValueError naming K and t where it overflows."""
    try:
        return exp(-2.0 * K * t)
    except OverflowError:
        raise ValueError(f"e^(-2Kt) overflows at K = {K!r}, t = {t!r}") from None


def _heat_integral(g, sd, F, K, t, inner):
    """Int_0^t e^{-2Ks} P_s[inner(P_{t-s} f)] ds and its error estimate per column f of F.

    At each block of nodes s_j, inner runs on the heat curve of f at the
    times t - s_j in column blocks (operators._column_blocks: inner
    computes each column on its own), and its values go with the weights
    to semigroup._heat_time_sum.
    """
    # the integrand's largest factor is e^{-2Kt}: its top rate is 0 and s <= t
    _decay(K, t)
    quad = QuadratureSpec(_sized_panels(sd, K, t))
    sums = np.hstack([_integrate(lambda s, w: _heat_time_sum(
        sd, K, s, w, _column_blocks(g, inner, heat_curve(sd, g, t - s, f))), t, quad)
        for f in F.T])
    fine, coarse = sums[:, 0::2], sums[:, 1::2]
    return fine, np.abs(fine - coarse)


def _laplacian_squared(g, X):
    """(Delta X)^2, the cdn integrand."""
    L = laplacian_many(g, X)
    L *= L
    return L


def _gamma2_minus_gamma(g, K, X):
    """Gamma2(X) - K Gamma(X), with BX and Gamma(X) formed once: the
    gamma2_identity integrand."""
    G2, G = _gamma2_parts(g, X)
    G *= K
    G2 -= G
    return G2


def _integrate_variance(g, sd, F, t):
    """2 Int_0^t P_s Gamma(P_{t-s} f) ds and its error estimate."""
    integral, err = _heat_integral(g, sd, F, 0.0, t, lambda X: gamma_many(g, X))
    return 2.0 * integral, 2.0 * err


def _integrate_gamma2(g, sd, F, K, t):
    """2 Int_0^t e^{-2Ks} P_s[(Gamma2 - K Gamma)(P_{t-s} f)] ds and its error estimate."""
    integral, err = _heat_integral(g, sd, F, K, t, functools.partial(_gamma2_minus_gamma, g, K))
    return 2.0 * integral, 2.0 * err


def gradient_estimate(g, sd, f, K, t):
    """slack(x) = e^{-2Kt} P_t Gamma(f)(x) - Gamma(P_t f)(x)."""
    F = _vertex_array(g, f, 1, sd)[:, None]
    lhs, rhs, _ = _gradient_sides(g, sd, F, K, None, _check_time(t))
    return (rhs - lhs)[:, 0]


def variance_coefficient(K, t):
    """(1 - e^{-2Kt})/K with the continuous extension 2t at K = 0.

    expm1 keeps the quotient accurate as K -> 0, where the naive form
    loses half its digits to cancellation.
    """
    if K == 0.0:
        return 2.0 * t
    return -_decay(K, t, math.expm1) / K


def cdn_bound(g, sd, f, K, n, t):
    """(slack, quadrature error estimate) per vertex of the dimensional
    strengthening of the gradient estimate (_cdn_sides) at one function f."""
    F = _vertex_array(g, f, 1, sd)[:, None]
    lhs, rhs, err = _cdn_sides(g, sd, F, K, n, _check_time(t))
    return (rhs - lhs)[:, 0], err[:, 0]


# ---------------------------------------------------------------------------
# corpora, sweeps, reports
# ---------------------------------------------------------------------------

def witness_functions(g, dimension=math.inf):
    """The curvature witness at each vertex, as ("witness:<label>", array)."""
    columns = curvature_all(g, dimension)
    return [(f"witness:{label}", columns.witness(x)) for x, label in enumerate(g.labels)]


def random_functions(g, seed, count):
    """count standard normal draws of default_rng(seed), as ("random:<seed>:<i>", array)."""
    rng = np.random.default_rng(seed)
    return [(f"random:{seed}:{i}", rng.standard_normal(g.vertex_count)) for i in range(count)]


def function_corpus(g, dimension=math.inf, random_count=50, seed=0):
    """Named test functions: constant, indicators, witnesses, seeded noise."""
    funcs = [("const", np.ones(g.vertex_count))]
    for x, label in enumerate(g.labels):
        e = np.zeros(g.vertex_count)
        e[x] = 1.0
        funcs.append((f"indicator:{label}", e))
    return funcs + witness_functions(g, dimension) + random_functions(g, seed, random_count)


def resolve_K(g, K, inequality_name="gradient_estimate", n=math.inf):
    """'auto' means the sharp constant: the graph's minimum curvature; else K is finite."""
    if isinstance(K, str):
        if K != "auto":
            raise ValueError(f"K must be a real number or 'auto', got {K!r}")
        return min_curvature(g, n if CHECKS[inequality_name].takes_n else math.inf)
    if not math.isfinite(K):
        raise ValueError(f"K must be finite or 'auto', got {K!r}")
    return float(K)


def _check_of(inequality_name, n):
    """The check's record, else a ValueError: for an unknown name, and for
    n missing where the check needs a dimension or given where it takes none."""
    if inequality_name not in CHECKS:
        raise ValueError(f"unknown inequality {inequality_name!r}")
    check = CHECKS[inequality_name]
    if (n is None) == check.takes_n:
        only = ", ".join(name for name, c in CHECKS.items() if c.takes_n)
        raise ValueError(f"{inequality_name} needs a dimension n (--n)" if n is None else
                         f"{inequality_name} takes no dimension n (--n); only {only} does")
    return check


def _sweep_propagator(g, inequality_name, K, n, times, function_count):
    """The propagator, dense or Chebyshev, that semigroup._propagator_for
    finds cheaper for run_verification over function_count functions.

    Each function of _sides applies the heat semigroup to the check's heat
    columns at each time and takes at most one integral, its nodes sized
    with the cost model's bound lambda_min.
    """
    check = _check_of(inequality_name, n)
    K = resolve_K(g, K, inequality_name, n=math.inf if n is None else n)
    applies = check.heat * function_count * len(times)
    if not check.takes_integral(n):
        return _propagator_for(g, max(times), applies)
    return _propagator_for(g, max(times), applies, lambda lam_min: function_count * [
        2 * _panel_degree(lam_min, K, t) + 1 for t in times])


def run_verification(
    g: WeightedGraph,
    sd,
    inequality_name: str,
    K,
    times,
    functions,
    n=None,
) -> VerificationReport:
    """Evaluate one inequality/identity over functions x times x vertices.

    Records are ordered by (function id, t, vertex label); functions with
    equal ids keep their input order.
    """
    check = _check_of(inequality_name, n)
    times = sorted(_check_time(t) for t in times)
    for a, b in zip(times, times[1:]):
        if a == b:
            raise ValueError(f"time {a!r} is given twice")
    K = resolve_K(g, K, inequality_name, n=math.inf if n is None else n)

    functions = sorted(functions, key=lambda item: item[0])
    v_order = sorted(range(g.vertex_count), key=g.labels.__getitem__)
    lhs = np.empty((len(functions), len(times), g.vertex_count))
    rhs = np.empty_like(lhs)
    qmax = 0.0
    for i in range(0, len(functions), _FUNCTION_BLOCK):
        block = slice(i, i + _FUNCTION_BLOCK)
        F = np.column_stack([_vertex_array(g, f, 1, sd) for _, f in functions[block]])
        for j, t in enumerate(times):
            L, R, qerr = _sides(g, sd, inequality_name, F, K, n, t)
            lhs[block, j], rhs[block, j] = L[v_order].T, R[v_order].T
            if qerr is not None:
                # np.max keeps a NaN, where Python's max would drop it
                qmax = float(np.max(qerr, initial=qmax))
    slack = rhs - lhs
    if not check.identity:
        # an inequality reports rhs as lhs + slack, not the bound itself:
        # the two can differ in the last bit, and the report format has the former
        np.add(lhs, slack, out=rhs)
    return VerificationReport(
        inequality_name=inequality_name,
        K=K,
        n=None if n is None else float(n),
        function_ids=tuple(fid for fid, _ in functions),
        times=tuple(times),
        vertices=tuple(g.labels[x] for x in v_order),
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        quadrature_error_estimate=qmax,
    )


def record_tolerance(inequality_name, quadrature_error_estimate, n=None):
    """PLAIN_TOLERANCE for a check that takes no integral, else the
    quadrature-backed max(QUAD_TOLERANCE_FLOOR, 2 x estimate); an estimate
    that is inf or nan bounds nothing, and gives the floor."""
    # 2x guards against the estimate undershooting the true quadrature
    # error (|fine - coarse| bounds the fine rule's error once converged)
    if not CHECKS[inequality_name].takes_integral(n):
        return PLAIN_TOLERANCE
    if not math.isfinite(quadrature_error_estimate):
        return QUAD_TOLERANCE_FLOOR
    return max(QUAD_TOLERANCE_FLOOR, 2.0 * quadrature_error_estimate)


def _violation_indices(report: VerificationReport):
    """Flat indices, in report order, of the records that fail the
    tolerance; a non-finite slack always fails."""
    tol = record_tolerance(report.inequality_name, report.quadrature_error_estimate, report.n)
    s = report.slack
    if CHECKS[report.inequality_name].identity:
        ok = np.abs(s) <= tol
    else:
        ok = (s >= -tol) & (s < math.inf)
    return np.flatnonzero(~ok)
