"""Numerical verification of semigroup-level curvature characterizations.

For the heat semigroup P_t of a graph satisfying CD(K, infinity) resp.
CD(K, n), the following hold for all f and t > 0:

    gradient_estimate   Gamma(P_t f) <= e^{-2Kt} P_t Gamma(f)
    variance_bound      P_t(f^2) - (P_t f)^2 <= ((1-e^{-2Kt})/K) P_t Gamma(f)
    cdn_bound           Gamma(P_t f) <= e^{-2Kt} P_t Gamma(f)
                          - (2/n) Int_0^t e^{-2Ks} P_s((Delta P_{t-s} f)^2) ds

while two integral identities hold unconditionally (they are exact
consequences of the semigroup, independent of curvature):

    variance_identity   P_t(f^2) - (P_t f)^2 = 2 Int_0^t P_s Gamma(P_{t-s} f) ds
    gamma2_identity     e^{-2Kt} P_t Gamma(f) - Gamma(P_t f)
                          = 2 Int_0^t e^{-2Ks} P_s[(Gamma2 - K Gamma)(P_{t-s} f)] ds
                        for every real K

Integrals are evaluated by composite Simpson on a shared fine grid, with
the coarse/fine difference over 15 as the error estimate.  Each operation
returns per-vertex values; run_verification sweeps a corpus of functions
and a time grid into a VerificationReport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import curvature_all, curvature_at, min_curvature
from .graph import WeightedGraph
from .operators import gamma, gamma2, gamma2_many, gamma_many, laplacian_many
from .semigroup import SpectralDecomposition, heat_apply, heat_apply_columns, heat_curve

INEQUALITY_NAMES = (
    "gradient_estimate",
    "variance_bound",
    "cdn_bound",
    "variance_identity",
    "gamma2_identity",
)
_IDENTITY_OPS = frozenset({"variance_identity", "gamma2_identity"})
_QUADRATURE_OPS = frozenset({"variance_identity", "gamma2_identity", "cdn_bound"})

PLAIN_TOLERANCE = 1e-9      # gradient/variance inequalities
QUAD_TOLERANCE_FLOOR = 1e-8  # quadrature-backed checks use max(floor, estimate)


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Simpson panel count; the error estimate doubles it once."""

    panels: int = 256

    def __post_init__(self):
        if self.panels < 2 or self.panels % 2 != 0:
            raise ValueError("panels must be an even integer >= 2")


@dataclass(frozen=True)
class VerificationRecord:
    function_id: str
    t: float
    vertex: str
    lhs: float
    rhs: float
    slack: float  # rhs - lhs


@dataclass(frozen=True)
class VerificationReport:
    inequality_name: str
    K: float
    n: float | None
    records: list
    min_slack: float
    quadrature_error_estimate: float


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _simpson_weights(nseg, h):
    w = np.ones(nseg + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _integrate(integrand, t, quad):
    """Vector-valued Simpson over [0, t] at two resolutions.

    integrand(nodes) must return an (nv, len(nodes)) array.  Returns the
    fine-grid value and the per-vertex Richardson error estimate
    |fine - coarse| / 15.
    """
    n_coarse = quad.panels
    n_fine = 2 * n_coarse
    nodes = np.linspace(0.0, t, n_fine + 1)
    Y = integrand(nodes)
    fine = Y @ _simpson_weights(n_fine, t / n_fine)
    coarse = Y[:, ::2] @ _simpson_weights(n_coarse, t / n_coarse)
    return fine, np.abs(fine - coarse) / 15.0


def _check_time(t):
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"need a positive finite time, got {t}")
    return t


# ---------------------------------------------------------------------------
# inequality / identity evaluators (per-vertex)
# ---------------------------------------------------------------------------

def gradient_estimate(g, sd, f, K, t):
    """slack(x) = e^{-2Kt} P_t Gamma(f)(x) - Gamma(P_t f)(x)."""
    t = _check_time(t)
    rhs = math.exp(-2.0 * K * t) * heat_apply(sd, g, t, gamma(g, f))
    lhs = gamma(g, heat_apply(sd, g, t, f))
    return rhs - lhs


def variance_coefficient(K, t):
    """(1 - e^{-2Kt})/K with the continuous extension 2t at K = 0.

    expm1 keeps the quotient accurate as K -> 0, where the naive form
    loses half its digits to cancellation.
    """
    if K == 0.0:
        return 2.0 * t
    return -math.expm1(-2.0 * K * t) / K


def variance_bound(g, sd, f, K, t):
    """slack(x) = ((1-e^{-2Kt})/K) P_t Gamma(f)(x) - [P_t(f^2) - (P_tf)^2](x)."""
    t = _check_time(t)
    f = np.asarray(f, dtype=np.float64)
    rhs = variance_coefficient(K, t) * heat_apply(sd, g, t, gamma(g, f))
    lhs = heat_apply(sd, g, t, f * f) - heat_apply(sd, g, t, f) ** 2
    return rhs - lhs


def variance_identity_residual(g, sd, f, t, quad=QuadratureSpec()):
    """|P_t(f^2) - (P_tf)^2 - 2 Int_0^t P_s Gamma(P_{t-s}f) ds| per vertex.

    Returns (residual, quadrature error estimate), both per vertex.
    """
    t = _check_time(t)
    f = np.asarray(f, dtype=np.float64)
    lhs = heat_apply(sd, g, t, f * f) - heat_apply(sd, g, t, f) ** 2

    def integrand(s):
        F = heat_curve(sd, g, t - s, f)
        return heat_apply_columns(sd, g, s, gamma_many(g, F))

    integral, err = _integrate(integrand, t, quad)
    return np.abs(lhs - 2.0 * integral), 2.0 * err


def cdn_bound(g, sd, f, K, n, t, quad=QuadratureSpec()):
    """Dimensional strengthening of the gradient estimate.

    slack(x) = e^{-2Kt} P_t Gamma(f)(x)
               - (2/n) Int_0^t e^{-2Ks} P_s((Delta P_{t-s}f)^2)(x) ds
               - Gamma(P_t f)(x)

    Returns (slack, quadrature error estimate) per vertex.
    """
    t = _check_time(t)
    n = float(n)
    if not n > 0.0:
        raise ValueError(f"dimension must be positive, got {n}")
    f = np.asarray(f, dtype=np.float64)

    def integrand(s):
        F = heat_curve(sd, g, t - s, f)
        LF = laplacian_many(g, F)
        return np.exp(-2.0 * K * s)[None, :] * heat_apply_columns(sd, g, s, LF * LF)

    integral, err = _integrate(integrand, t, quad)
    coeff = 0.0 if math.isinf(n) else 2.0 / n
    rhs = math.exp(-2.0 * K * t) * heat_apply(sd, g, t, gamma(g, f)) - coeff * integral
    lhs = gamma(g, heat_apply(sd, g, t, f))
    return rhs - lhs, coeff * err


def gamma2_identity_residual(g, sd, f, K, t, quad=QuadratureSpec()):
    """Exact identity behind the CD(K, n) semigroup characterization.

    residual(x) = |e^{-2Kt} P_t Gamma(f) - Gamma(P_t f)
                   - 2 Int_0^t e^{-2Ks} P_s[(Gamma2 - K Gamma)(P_{t-s}f)] ds|(x)

    Holds for every real K; the K-dependence cancels between the two
    sides.  Returns (residual, quadrature error estimate) per vertex.
    """
    t = _check_time(t)
    f = np.asarray(f, dtype=np.float64)
    lhs = math.exp(-2.0 * K * t) * heat_apply(sd, g, t, gamma(g, f)) - gamma(
        g, heat_apply(sd, g, t, f)
    )

    def integrand(s):
        F = heat_curve(sd, g, t - s, f)
        V = gamma2_many(g, F) - K * gamma_many(g, F)
        return np.exp(-2.0 * K * s)[None, :] * heat_apply_columns(sd, g, s, V)

    integral, err = _integrate(integrand, t, quad)
    return np.abs(lhs - 2.0 * integral), 2.0 * err


def derivative_recovery(g, sd, x, n=math.inf):
    """Recover Gamma2 from the short-time expansion of the gradient gap.

    Using the curvature witness f at x, Richardson-extrapolates
    [P_t Gamma(f)(x) - Gamma(P_t f)(x)] / (2t) down to t -> 0+, whose limit
    is Gamma2(f)(x), and returns (extrapolated limit) - Gamma2(f)(x).
    """
    f = curvature_at(g, x, n).witness
    gf = gamma(g, f)
    target = gamma2(g, f)[x]

    levels = 6
    h0 = 0.05
    vals = []
    for k in range(levels):
        h = h0 / 2.0**k
        diff = heat_apply(sd, g, h, gf)[x] - gamma(g, heat_apply(sd, g, h, f))[x]
        vals.append(diff / (2.0 * h))
    # first-order Richardson table in h
    T = list(vals)
    for m in range(1, levels):
        fac = 2.0**m
        for k in range(levels - 1, m - 1, -1):
            T[k] = (fac * T[k] - T[k - 1]) / (fac - 1.0)
    return float(T[levels - 1] - target)


# ---------------------------------------------------------------------------
# corpora, sweeps, reports
# ---------------------------------------------------------------------------

def function_corpus(
    g,
    dimension=math.inf,
    random_count=50,
    seed=0,
    include_witnesses=True,
    include_indicators=True,
    include_constant=True,
):
    """Named test functions: constant, indicators, witnesses, seeded noise."""
    funcs = []
    if include_constant:
        funcs.append(("const", np.ones(g.vertex_count)))
    if include_indicators:
        for x, label in enumerate(g.labels):
            e = np.zeros(g.vertex_count)
            e[x] = 1.0
            funcs.append((f"indicator:{label}", e))
    if include_witnesses:
        for r in curvature_all(g, dimension):
            funcs.append((f"witness:{g.labels[r.vertex]}", r.witness))
    rng = np.random.default_rng(seed)
    for i in range(random_count):
        funcs.append((f"random:{seed}:{i}", rng.standard_normal(g.vertex_count)))
    return funcs


def resolve_K(g, K, inequality_name="gradient_estimate", n=math.inf):
    """'auto' means the sharp constant: the graph's minimum curvature."""
    if isinstance(K, str):
        if K != "auto":
            raise ValueError(f"K must be a real number or 'auto', got {K!r}")
        dim = n if inequality_name == "cdn_bound" else math.inf
        return min_curvature(g, dim)
    return float(K)


def run_verification(
    g: WeightedGraph,
    sd: SpectralDecomposition,
    inequality_name: str,
    K,
    times,
    functions,
    n=None,
    quad=QuadratureSpec(),
) -> VerificationReport:
    """Evaluate one inequality/identity over functions x times x vertices."""
    if inequality_name not in INEQUALITY_NAMES:
        raise ValueError(f"unknown inequality {inequality_name!r}")
    if inequality_name == "cdn_bound" and n is None:
        raise ValueError("cdn_bound requires a dimension n")
    times = [_check_time(t) for t in times]
    K = resolve_K(g, K, inequality_name, n=math.inf if n is None else n)

    records = []
    qmax = 0.0
    for fid, f in functions:
        for t in times:
            qerr = None
            if inequality_name == "gradient_estimate":
                slack = gradient_estimate(g, sd, f, K, t)
                lhs = gamma(g, heat_apply(sd, g, t, f))
                rhs = lhs + slack
            elif inequality_name == "variance_bound":
                slack = variance_bound(g, sd, f, K, t)
                farr = np.asarray(f, dtype=np.float64)
                lhs = heat_apply(sd, g, t, farr * farr) - heat_apply(sd, g, t, farr) ** 2
                rhs = lhs + slack
            elif inequality_name == "cdn_bound":
                slack, qerr = cdn_bound(g, sd, f, K, n, t, quad)
                lhs = gamma(g, heat_apply(sd, g, t, f))
                rhs = lhs + slack
            elif inequality_name == "variance_identity":
                farr = np.asarray(f, dtype=np.float64)
                lhs = heat_apply(sd, g, t, farr * farr) - heat_apply(sd, g, t, farr) ** 2
                rhs, qerr = _integrate_variance(g, sd, farr, t, quad)
                slack = rhs - lhs
            else:  # gamma2_identity
                farr = np.asarray(f, dtype=np.float64)
                lhs = math.exp(-2.0 * K * t) * heat_apply(
                    sd, g, t, gamma(g, farr)
                ) - gamma(g, heat_apply(sd, g, t, farr))
                rhs, qerr = _integrate_gamma2(g, sd, farr, K, t, quad)
                slack = rhs - lhs
            if qerr is not None:
                qmax = max(qmax, float(np.max(qerr)))
            for x, label in enumerate(g.labels):
                records.append(
                    VerificationRecord(
                        function_id=fid,
                        t=float(t),
                        vertex=label,
                        lhs=float(lhs[x]),
                        rhs=float(rhs[x]),
                        slack=float(slack[x]),
                    )
                )
    records.sort(key=lambda r: (r.function_id, r.t, r.vertex))
    return VerificationReport(
        inequality_name=inequality_name,
        K=K,
        n=None if n is None else float(n),
        records=records,
        min_slack=min(r.slack for r in records) if records else 0.0,
        quadrature_error_estimate=qmax,
    )


def _integrate_variance(g, sd, f, t, quad):
    def integrand(s):
        F = heat_curve(sd, g, t - s, f)
        return heat_apply_columns(sd, g, s, gamma_many(g, F))

    integral, err = _integrate(integrand, t, quad)
    return 2.0 * integral, 2.0 * err


def _integrate_gamma2(g, sd, f, K, t, quad):
    def integrand(s):
        F = heat_curve(sd, g, t - s, f)
        V = gamma2_many(g, F) - K * gamma_many(g, F)
        return np.exp(-2.0 * K * s)[None, :] * heat_apply_columns(sd, g, s, V)

    integral, err = _integrate(integrand, t, quad)
    return 2.0 * integral, 2.0 * err


def record_tolerance(inequality_name, quadrature_error_estimate):
    # 2x guards against the Richardson estimate undershooting the true
    # quadrature error (it is exact only in the h -> 0 limit)
    if inequality_name in ("gradient_estimate", "variance_bound"):
        return PLAIN_TOLERANCE
    return max(QUAD_TOLERANCE_FLOOR, 2.0 * quadrature_error_estimate)


def find_violations(report: VerificationReport):
    """Records that fail the tolerance; a non-finite slack always fails."""
    tol = record_tolerance(report.inequality_name, report.quadrature_error_estimate)
    if report.inequality_name in _IDENTITY_OPS:
        return [r for r in report.records if not abs(r.slack) <= tol]
    return [r for r in report.records if not -tol <= r.slack < math.inf]
