import dataclasses
import math

import numpy as np
import pytest

from graphcd.curvature import curvature_at, min_curvature
from graphcd.fixtures import complete_graph, path_graph, random_connected_graph
from graphcd.operators import gamma, gamma2, gamma2_many, gamma_many, laplacian_many
from graphcd.semigroup import decompose, heat_apply, heat_apply_columns, heat_curve
from graphcd.verify import (
    _heat_integral,
    _integrate_gamma2,
    _integrate_variance,
    _sides,
    _simpson_weights,
    QuadratureSpec,
    VerificationReport,
    cdn_bound,
    derivative_recovery,
    find_violations,
    gamma2_identity_residual,
    gradient_estimate,
    record_tolerance,
    resolve_K,
    run_verification,
    function_corpus,
    variance_bound,
    variance_coefficient,
    variance_identity_residual,
)
from conftest import rng_for


K2 = complete_graph(2)
K3 = complete_graph(3)
SD2 = decompose(K2)
F10 = np.array([1.0, 0.0])


def mild_graph(seed, max_vertices=10):
    # modest spectral radius keeps Simpson truncation far below tolerances
    return random_connected_graph(seed, min_vertices=4, max_vertices=max_vertices,
                                  weight_range=(0.2, 1.0), measure_range=(1.0, 3.0))


# ---------------------------------------------------------------------------
# gradient estimate
# ---------------------------------------------------------------------------

def test_gradient_constant_function_zero_slack():
    assert np.array_equal(gradient_estimate(K2, SD2, np.ones(2), 2.0, 1.0), np.zeros(2))


def test_gradient_equality_on_k2():
    # both sides equal exp(-4t)/2 when K matches the curvature exactly
    for t in (0.1, 0.5, 1.0, 2.0):
        slack = gradient_estimate(K2, SD2, F10, 2.0, t)
        assert np.abs(slack).max() <= 1e-10
        rhs = math.exp(-4.0 * t) * heat_apply(SD2, K2, t, gamma(K2, F10))
        lhs = gamma(K2, heat_apply(SD2, K2, t, F10))
        assert np.abs(rhs - 0.5 * math.exp(-4.0 * t)).max() <= 1e-13
        assert np.abs(lhs - 0.5 * math.exp(-4.0 * t)).max() <= 1e-13


def test_gradient_violated_above_curvature():
    found = False
    for t in (0.01, 0.05, 0.1):
        if gradient_estimate(K2, SD2, F10, 2.1, t).min() < -1e-9:
            found = True
    assert found


def test_gradient_sound_at_min_curvature():
    for seed in range(8):
        g = random_connected_graph(2900 + seed)
        sd = decompose(g)
        K = min_curvature(g)
        rng = rng_for(40, seed)
        for _ in range(10):
            f = rng.standard_normal(g.vertex_count)
            for t in (0.05, 0.5, 2.0):
                assert gradient_estimate(g, sd, f, K, t).min() >= -1e-9


# ---------------------------------------------------------------------------
# variance bound
# ---------------------------------------------------------------------------

def test_variance_coefficient():
    assert variance_coefficient(0.0, 1.7) == 2 * 1.7
    assert variance_coefficient(2.0, 1.0) == pytest.approx((1 - math.exp(-4.0)) / 2.0, rel=1e-15)
    # continuous at K = 0
    assert variance_coefficient(1e-12, 1.0) == pytest.approx(2.0, rel=1e-9)


def test_variance_equality_on_k2():
    # for f = indicator, both sides are (1 - exp(-4t))/4
    for t in (0.1, 0.5, 1.0, 2.0):
        slack = variance_bound(K2, SD2, F10, 2.0, t)
        assert np.abs(slack).max() <= 1e-9
        var = heat_apply(SD2, K2, t, F10 * F10) - heat_apply(SD2, K2, t, F10) ** 2
        assert np.abs(var - 0.25 * (1 - math.exp(-4.0 * t))).max() <= 1e-13


def test_variance_k0_limit_path():
    # coefficient 2t: slack = 2*(1/2) - (1-exp(-4))/4 at t=1 on K2
    slack = variance_bound(K2, SD2, F10, 0.0, 1.0)
    want = 1.0 - 0.25 * (1 - math.exp(-4.0))
    assert np.abs(slack - want).max() <= 1e-12


def test_variance_sound_at_min_curvature():
    for seed in range(8):
        g = random_connected_graph(3000 + seed)
        sd = decompose(g)
        K = min_curvature(g)
        rng = rng_for(41, seed)
        for _ in range(10):
            f = rng.standard_normal(g.vertex_count)
            for t in (0.05, 0.5, 2.0):
                assert variance_bound(g, sd, f, K, t).min() >= -1e-9


# ---------------------------------------------------------------------------
# exact integral identities
# ---------------------------------------------------------------------------

def test_variance_identity_k2_closed_form():
    res, err = variance_identity_residual(K2, SD2, F10, 1.0)
    var = heat_apply(SD2, K2, 1.0, F10 * F10) - heat_apply(SD2, K2, 1.0, F10) ** 2
    assert var[0] == pytest.approx(0.25 * (1 - math.exp(-4.0)), abs=1e-13)
    assert res.max() <= 1e-8
    assert res.max() <= max(1e-8, 2.0 * float(np.max(err)))


def test_variance_identity_constant_function():
    res, _ = variance_identity_residual(K2, SD2, np.full(2, 3.0), 0.8)
    assert res.max() <= 1e-14


def test_variance_identity_property():
    rng = rng_for(42)
    for seed in range(6):
        g = mild_graph(3100 + seed)
        sd = decompose(g)
        for _ in range(4):
            f = rng.standard_normal(g.vertex_count)
            for t in (0.1, 1.0, 5.0):
                quad = QuadratureSpec(panels=2048 if t > 1 else 512)
                res, err = variance_identity_residual(g, sd, f, t, quad)
                assert res.max() <= 1e-6
                assert res.max() <= max(1e-8, 2.0 * float(np.max(err)))


def test_gamma2_identity_k2_closed_form():
    # at K=0: P_t Gamma(f) - Gamma(P_t f) = (1 - exp(-4t))/2 on K2
    t = 1.0
    lhs = heat_apply(SD2, K2, t, gamma(K2, F10)) - gamma(K2, heat_apply(SD2, K2, t, F10))
    assert np.abs(lhs - 0.5 * (1 - math.exp(-4.0 * t))).max() <= 1e-13
    res, err = gamma2_identity_residual(K2, SD2, F10, 0.0, t)
    assert res.max() <= 1e-8


def test_gamma2_identity_holds_for_every_k():
    # the K dependence cancels; sweep wide K at fixed f, t
    rng = rng_for(43)
    g = mild_graph(3200)
    sd = decompose(g)
    f = rng.standard_normal(g.vertex_count)
    for K in (-3.0, -1.0, -0.25, 0.0, 0.6, 1.7, 3.0):
        res, err = gamma2_identity_residual(g, sd, f, K, 0.7)
        assert res.max() <= 1e-6
        assert res.max() <= max(1e-8, 2.0 * float(np.max(err)))


def test_gamma2_identity_property_random_k():
    rng = rng_for(44)
    for seed in range(10):
        g = mild_graph(3300 + seed)
        sd = decompose(g)
        f = rng.standard_normal(g.vertex_count)
        K = float(rng.uniform(-3.0, 3.0))
        res, _ = gamma2_identity_residual(g, sd, f, K, 0.7)
        assert res.max() <= 1e-6


# ---------------------------------------------------------------------------
# dimensional bound
# ---------------------------------------------------------------------------

def test_cdn_equality_on_k2_at_sharp_constant():
    # kappa(x;2) = 1 on K2 and the n=2 bound is tight for the indicator
    for t in (0.1, 1.0):
        slack, err = cdn_bound(K2, SD2, F10, 1.0, 2.0, t, QuadratureSpec(panels=256))
        assert np.abs(slack).max() <= max(1e-8, 2.0 * float(np.max(err)))
        assert slack.min() >= -1e-8


def test_cdn_violated_above_sharp_constant():
    found = False
    for t in np.geomspace(1e-3, 0.5, 12):
        slack, err = cdn_bound(K2, SD2, F10, 1.05, 2.0, float(t), QuadratureSpec(panels=256))
        if slack.min() < -max(1e-8, 2.0 * float(np.max(err))):
            found = True
    assert found


def test_cdn_sound_on_fixture_sample():
    for seed in (3400, 3401):
        g = mild_graph(seed, max_vertices=7)
        sd = decompose(g)
        for n in (2.0, 5.0):
            K = min_curvature(g, n)
            rng = rng_for(45, seed)
            for _ in range(5):
                f = rng.standard_normal(g.vertex_count)
                for t in (0.1, 1.0):
                    slack, err = cdn_bound(g, sd, f, K, n, t, QuadratureSpec(panels=512))
                    assert slack.min() >= -max(1e-8, 2.0 * float(np.max(err)))


def test_cdn_rejects_bad_dimension():
    with pytest.raises(ValueError):
        cdn_bound(K2, SD2, F10, 1.0, 0.0, 1.0, QuadratureSpec())
    with pytest.raises(ValueError):
        cdn_bound(K2, SD2, F10, 1.0, -2.0, 1.0, QuadratureSpec())


# ---------------------------------------------------------------------------
# derivative recovery and quadrature contract
# ---------------------------------------------------------------------------

def test_derivative_recovery_k2():
    # the witness at a has Gamma2 = 2, so the t->0 slope of
    # P_t Gamma(f) - Gamma(P_t f) is 4; recovery returns slope/2 - Gamma2
    err = derivative_recovery(K2, SD2, 0)
    assert abs(err) <= 1e-5 * 2.0


def test_derivative_recovery_k3_and_random():
    g3 = complete_graph(3)
    err = derivative_recovery(g3, decompose(g3), 0)
    w = curvature_at(g3, 0).witness
    scale = max(1.0, abs(gamma2(g3, w)[0]))
    assert abs(err) <= 1e-5 * scale
    g = mild_graph(3500, max_vertices=8)
    sd = decompose(g)
    for x in range(g.vertex_count):
        w = curvature_at(g, x).witness
        scale = max(1.0, abs(gamma2(g, w)[x]))
        assert abs(derivative_recovery(g, sd, x)) <= 1e-5 * scale


def test_quadrature_estimate_shrinks_4x_per_doubling():
    g = mild_graph(3600)
    sd = decompose(g)
    rng = rng_for(46)
    f = rng.standard_normal(g.vertex_count)
    ests = []
    for panels in (8, 16, 32):
        _, err = gamma2_identity_residual(g, sd, f, -1.0, 1.0, QuadratureSpec(panels=panels))
        ests.append(float(np.max(err)))
    assert ests[0] > 1e-13  # far from the roundoff floor, ratios meaningful
    assert ests[1] <= ests[0] / 4.0
    assert ests[2] <= ests[1] / 4.0


def test_quadrature_estimate_bounds_true_error():
    # against a much finer reference integral
    g = mild_graph(3700)
    sd = decompose(g)
    rng = rng_for(47)
    f = rng.standard_normal(g.vertex_count)
    ref, _ = gamma2_identity_residual(g, sd, f, -1.0, 1.0, QuadratureSpec(panels=4096))
    res, err = gamma2_identity_residual(g, sd, f, -1.0, 1.0, QuadratureSpec(panels=64))
    assert res.max() <= max(1e-10, 20.0 * float(np.max(err)) + float(ref.max()))


def _vertex_space_heat_integral(g, sd, f, K, t, quad, inner):
    """The integral as it was taken before the Simpson fold: every node's
    column mapped back to the vertices, both Simpson sums taken there.
    Kept as the fold's reference."""
    def integrand(s):
        V = inner(heat_curve(sd, g, t - s, f))
        return np.exp(-2.0 * K * s)[None, :] * heat_apply_columns(sd, g, s, V)

    n_coarse = quad.panels
    n_fine = 2 * n_coarse
    Y = integrand(np.linspace(0.0, t, n_fine + 1))
    fine = Y @ _simpson_weights(n_fine, t / n_fine)
    coarse = Y[:, ::2] @ _simpson_weights(n_coarse, t / n_coarse)
    return fine, np.abs(fine - coarse) / 15.0


@pytest.mark.parametrize("K", [-1.0, 0.0, 2.0])
def test_spectral_simpson_fold_matches_vertex_space_sums(K):
    quad, t, loops = QuadratureSpec(panels=32), 0.4, 0
    for seed in range(12):
        g = random_connected_graph(3800 + seed, max_vertices=12, self_loop_prob=0.5)
        loops += any(u == v for u, v in g.edges)
        sd = decompose(g)
        f = rng_for(62, seed).standard_normal(g.vertex_count)
        pf = heat_apply(sd, g, t, f)
        sides = max(np.abs(heat_apply(sd, g, t, f * f)).max(), np.abs(pf * pf).max(),
                    math.exp(-2.0 * K * t) * np.abs(heat_apply(sd, g, t, gamma(g, f))).max(),
                    np.abs(gamma(g, pf)).max())
        pairs = [
            (_integrate_variance(g, sd, f, t, quad),
             _vertex_space_heat_integral(g, sd, f, 0.0, t, quad, lambda F: gamma_many(g, F)), 2.0),
            (_integrate_gamma2(g, sd, f, K, t, quad),
             _vertex_space_heat_integral(
                 g, sd, f, K, t, quad, lambda F: gamma2_many(g, F) - K * gamma_many(g, F)), 2.0),
            (_heat_integral(g, sd, f, K, t, quad, lambda F: laplacian_many(g, F) ** 2),
             _vertex_space_heat_integral(
                 g, sd, f, K, t, quad, lambda F: laplacian_many(g, F) ** 2), 1.0),
        ]
        for (integral, err), (ref, ref_err), c in pairs:
            assert np.abs(integral - c * ref).max() <= 1e-12 * sides
            assert np.abs(err - c * ref_err).max() <= 1e-12 * sides
    assert loops > 0


class _CountingProducts:
    """A matrix whose products A @ X log X's shape."""

    def __init__(self, A, log):
        self.A, self.log = A, log

    def __matmul__(self, X):
        self.log.append(X.shape)
        return self.A @ X


def test_one_quadrature_does_two_basis_products_and_seven_sparse_ones(monkeypatch):
    # a product over the nodes has nv x nodes operands; the heat curve's
    # U^T M^{1/2} f and the map back of the two sums have 1 and 2 columns
    g = random_connected_graph(3900, min_vertices=8, max_vertices=8, self_loop_prob=1.0)
    sd = decompose(g)
    f = rng_for(63).standard_normal(g.vertex_count)
    quad = QuadratureSpec(panels=8)
    nodes = 2 * quad.panels + 1
    dense = []

    class Basis(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                dense.append([np.shape(x) for x in inputs])
            inputs = [x.view(np.ndarray) if isinstance(x, Basis) else x for x in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    counted = dataclasses.replace(sd, basis=sd.basis.view(Basis))
    sparse = []
    for name in ("_incidence", "_incidence_t", "_abs_incidence_t"):
        monkeypatch.setattr(g, name, _CountingProducts(getattr(g, name), sparse))
    for name, K, n in (("variance_identity", 0.0, None), ("gamma2_identity", -1.0, None),
                       ("cdn_bound", -1.0, 2.0)):
        dense.clear()
        sparse.clear()
        got = _sides(g, counted, name, f, K, n, 0.3, quad)
        assert sum(shapes[1][-1] == nodes for shapes in dense) == 2
        if name == "gamma2_identity":
            assert sum(shape[-1] == nodes for shape in sparse) == 7
        assert all(np.array_equal(a, b) for a, b in zip(got, _sides(g, sd, name, f, K, n, 0.3, quad)))


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(panels=0)
    with pytest.raises(ValueError):
        QuadratureSpec(panels=7)  # odd
    with pytest.raises(ValueError):
        QuadratureSpec(panels=-4)


# ---------------------------------------------------------------------------
# corpus, reports, violations
# ---------------------------------------------------------------------------

def test_corpus_contents():
    funcs = function_corpus(K3, random_count=5, seed=9)
    ids = [fid for fid, _ in funcs]
    assert ids[0] == "const"
    assert "indicator:a" in ids and "indicator:c" in ids
    assert "witness:a" in ids and "witness:b" in ids
    assert sum(1 for i in ids if i.startswith("random:9:")) == 5
    assert len(ids) == 1 + 3 + 3 + 5
    for fid, f in funcs:
        assert f.shape == (3,)
    wa = dict(funcs)["witness:a"]
    assert np.array_equal(wa, curvature_at(K3, 0).witness)


def test_corpus_dimension_changes_witnesses():
    # P3's midpoint witness depends on the dimension (K3's does not, by symmetry)
    g = path_graph(3)
    x = g.id_of("b")
    inf_w = dict(function_corpus(g, random_count=0))["witness:b"]
    n2_w = dict(function_corpus(g, dimension=2.0, random_count=0))["witness:b"]
    assert not np.allclose(inf_w, n2_w, atol=1e-12)
    assert np.array_equal(n2_w, curvature_at(g, x, 2.0).witness)


def test_resolve_k():
    assert resolve_K(K2, "auto") == pytest.approx(2.0, abs=1e-9)
    assert resolve_K(K2, "auto", "cdn_bound", n=2.0) == pytest.approx(1.0, abs=1e-9)
    assert resolve_K(K2, -3.25) == -3.25
    with pytest.raises(ValueError):
        resolve_K(K2, "sharp")


def test_run_verification_report_shape():
    funcs = function_corpus(K2, random_count=2, seed=0)
    rep = run_verification(K2, SD2, "gradient_estimate", "auto", [0.5, 0.1], funcs)
    assert rep.inequality_name == "gradient_estimate"
    assert rep.K == pytest.approx(2.0, abs=1e-9)
    assert rep.n is None
    assert len(rep.records) == len(funcs) * 2 * 2
    assert rep.min_slack == min(r.slack for r in rep.records)
    keys = [(r.function_id, r.t, r.vertex) for r in rep.records]
    assert keys == sorted(keys)
    assert rep.quadrature_error_estimate == 0.0
    for r in rep.records:
        assert r.slack == pytest.approx(r.rhs - r.lhs, abs=1e-12)
    assert find_violations(rep) == []


def test_run_verification_detects_sharpness_violation():
    funcs = [(f"witness:{K2.labels[r.vertex]}", r.witness)
             for r in [curvature_at(K2, 0), curvature_at(K2, 1)]]
    rep = run_verification(K2, SD2, "gradient_estimate", 2.1, [0.01, 0.1], funcs)
    bad = find_violations(rep)
    assert bad and all(r.slack < -1e-9 for r in bad)


def test_run_verification_identity_tolerance():
    funcs = function_corpus(K2, random_count=3, seed=1)
    rep = run_verification(K2, SD2, "gamma2_identity", 1.7, [0.5], funcs)
    tol = record_tolerance(rep.inequality_name, rep.quadrature_error_estimate)
    assert all(abs(r.slack) <= tol for r in rep.records)
    assert find_violations(rep) == []


def test_run_verification_validation():
    funcs = [("const", np.ones(2))]
    with pytest.raises(ValueError):
        run_verification(K2, SD2, "no_such_thing", 0.0, [1.0], funcs)
    with pytest.raises(ValueError):
        run_verification(K2, SD2, "cdn_bound", 0.0, [1.0], funcs)  # n missing
    with pytest.raises(ValueError):
        run_verification(K2, SD2, "gradient_estimate", 0.0, [0.0], funcs)
    with pytest.raises(ValueError):
        run_verification(K2, SD2, "gradient_estimate", 0.0, [-1.0], funcs)
    with pytest.raises(ValueError, match="time 0.1 is given twice"):
        run_verification(K2, SD2, "gradient_estimate", 0.0, [0.1, 0.5, 0.1], funcs)


def test_record_tolerance_policy():
    assert record_tolerance("gradient_estimate", 0.0) == 1e-9
    assert record_tolerance("variance_bound", 123.0) == 1e-9
    assert record_tolerance("gamma2_identity", 0.0) == 1e-8
    assert record_tolerance("cdn_bound", 3e-7) == 6e-7


def test_nonfinite_slack_is_a_violation():
    slacks = {"a": 1.0, "b": math.nan, "c": math.inf, "d": -math.inf, "e": 0.0}
    slack = np.array([[list(slacks.values())]])
    for name, want in (("gradient_estimate", {"b", "c", "d"}),
                       ("gamma2_identity", {"a", "b", "c", "d"})):
        report = VerificationReport(name, 0.0, None, ("f",), (0.5,), tuple(slacks),
                                    np.zeros_like(slack), slack, slack, 0.0)
        assert {r.vertex for r in find_violations(report)} == want, name


@pytest.mark.parametrize("ids", [("a", "b"), ("b", "a")])
def test_min_slack_does_not_depend_on_record_order(ids):
    # the second function overflows to a NaN slack; which function sorts
    # first must not decide whether min_slack shows it
    g = path_graph(3)
    funcs = [(ids[0], np.array([1.0, 0.0, 2.0])), (ids[1], np.array([1e300, -1e300, 1e300]))]
    with np.errstate(over="ignore", invalid="ignore"):
        rep = run_verification(g, decompose(g), "gradient_estimate", 0.0, [0.1], funcs)
    assert np.isnan(rep.slack).any()
    assert math.isnan(rep.min_slack)
    assert find_violations(rep)


def test_records_view_reads_the_arrays():
    funcs = function_corpus(K3, random_count=2, seed=0)
    rep = run_verification(K3, decompose(K3), "gradient_estimate", "auto", [0.5, 0.1], funcs)
    records = rep.records
    assert len(records) == rep.slack.size == len(funcs) * 2 * 3
    assert list(records)[-1] == records[-1]
    with pytest.raises(IndexError):
        records[len(records)]
    for r, lhs, rhs, slack in zip(records, rep.lhs.ravel(), rep.rhs.ravel(), rep.slack.ravel()):
        assert (r.lhs, r.rhs, r.slack) == (lhs, rhs, slack)
        assert r.slack == rep.slack[rep.function_ids.index(r.function_id),
                                    rep.times.index(r.t), rep.vertices.index(r.vertex)]
