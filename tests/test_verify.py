import argparse
import dataclasses
import functools
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special

from graphcd.curvature import curvature_at, min_curvature
from graphcd.fixtures import complete_graph, fixture_graphs, path_graph, random_connected_graph
from graphcd.operators import _column_blocks, gamma, gamma2, gamma_many, laplacian_many
from graphcd.semigroup import ChebyshevPropagator, decompose, heat_apply, heat_apply_columns
import graphcd.cli
import graphcd.operators
import graphcd.verify
from graphcd.verify import (
    CHECKS,
    INEQUALITY_NAMES,
    _gamma2_minus_gamma,
    _heat_integral,
    _laplacian_squared,
    _integrate,
    _integrate_gamma2,
    _integrate_variance,
    _sides,
    _sized_panels,
    _sweep_propagator,
    _violation_indices,
    PLAIN_TOLERANCE,
    QUAD_TOLERANCE_FLOOR,
    QuadratureSpec,
    VerificationReport,
    cdn_bound,
    gradient_estimate,
    record_tolerance,
    resolve_K,
    run_verification,
    function_corpus,
    random_functions,
    variance_coefficient,
    witness_functions,
)
from conftest import (
    ExpmPropagator,
    derivative_recovery,
    exact_heat_integral,
    ref_eigenpairs,
    ref_form_table,
    ref_gamma,
    ref_gamma2,
    ref_laplacian,
    rng_for,
    slack_of,
)


K2 = complete_graph(2)
K3 = complete_graph(3)
SD2 = decompose(K2)
F10 = np.array([1.0, 0.0])


def mild_graph(seed, max_vertices=10):
    # modest spectral radius keeps quadrature truncation far below tolerances
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
        slack, _ = slack_of(K2, SD2, "variance_bound", F10, 2.0, t)
        assert np.abs(slack).max() <= 1e-9
        var = heat_apply(SD2, K2, t, F10 * F10) - heat_apply(SD2, K2, t, F10) ** 2
        assert np.abs(var - 0.25 * (1 - math.exp(-4.0 * t))).max() <= 1e-13


def test_variance_k0_limit_path():
    # coefficient 2t: slack = 2*(1/2) - (1-exp(-4))/4 at t=1 on K2
    slack, _ = slack_of(K2, SD2, "variance_bound", F10, 0.0, 1.0)
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
                assert slack_of(g, sd, "variance_bound", f, K, t)[0].min() >= -1e-9


# ---------------------------------------------------------------------------
# exact integral identities
# ---------------------------------------------------------------------------

def test_variance_identity_k2_closed_form():
    slack, err = slack_of(K2, SD2, "variance_identity", F10, 0.0, 1.0)
    res = np.abs(slack)
    var = heat_apply(SD2, K2, 1.0, F10 * F10) - heat_apply(SD2, K2, 1.0, F10) ** 2
    assert var[0] == pytest.approx(0.25 * (1 - math.exp(-4.0)), abs=1e-13)
    assert res.max() <= 1e-8
    assert res.max() <= max(1e-8, 2.0 * float(np.max(err)))


def test_variance_identity_constant_function():
    slack, _ = slack_of(K2, SD2, "variance_identity", np.full(2, 3.0), 0.0, 0.8)
    assert np.abs(slack).max() <= 1e-14


def test_variance_identity_property():
    rng = rng_for(42)
    for seed in range(6):
        g = mild_graph(3100 + seed)
        sd = decompose(g)
        for _ in range(4):
            f = rng.standard_normal(g.vertex_count)
            for t in (0.1, 1.0, 5.0):
                slack, err = slack_of(g, sd, "variance_identity", f, 0.0, t)
                res = np.abs(slack)
                assert res.max() <= 1e-6
                assert res.max() <= max(1e-8, 2.0 * float(np.max(err)))


def test_gamma2_identity_k2_closed_form():
    # at K=0: P_t Gamma(f) - Gamma(P_t f) = (1 - exp(-4t))/2 on K2
    t = 1.0
    lhs = heat_apply(SD2, K2, t, gamma(K2, F10)) - gamma(K2, heat_apply(SD2, K2, t, F10))
    assert np.abs(lhs - 0.5 * (1 - math.exp(-4.0 * t))).max() <= 1e-13
    slack, _ = slack_of(K2, SD2, "gamma2_identity", F10, 0.0, t)
    assert np.abs(slack).max() <= 1e-8


def test_gamma2_identity_holds_for_every_k():
    # the K dependence cancels; sweep wide K at fixed f, t
    rng = rng_for(43)
    g = mild_graph(3200)
    sd = decompose(g)
    f = rng.standard_normal(g.vertex_count)
    for K in (-3.0, -1.0, -0.25, 0.0, 0.6, 1.7, 3.0):
        slack, err = slack_of(g, sd, "gamma2_identity", f, K, 0.7)
        res = np.abs(slack)
        assert res.max() <= 1e-6
        assert res.max() <= max(1e-8, 2.0 * float(np.max(err)))


def test_gamma2_identity_property_random_k():
    rng = rng_for(44)
    for seed in range(10):
        g = mild_graph(3300 + seed)
        sd = decompose(g)
        f = rng.standard_normal(g.vertex_count)
        K = float(rng.uniform(-3.0, 3.0))
        slack, _ = slack_of(g, sd, "gamma2_identity", f, K, 0.7)
        assert np.abs(slack).max() <= 1e-6


# ---------------------------------------------------------------------------
# dimensional bound
# ---------------------------------------------------------------------------

def test_cdn_equality_on_k2_at_sharp_constant():
    # kappa(x;2) = 1 on K2 and the n=2 bound is tight for the indicator
    for t in (0.1, 1.0):
        slack, err = cdn_bound(K2, SD2, F10, 1.0, 2.0, t)
        assert np.abs(slack).max() <= max(1e-8, 2.0 * float(np.max(err)))
        assert slack.min() >= -1e-8


def test_cdn_violated_above_sharp_constant():
    found = False
    for t in np.geomspace(1e-3, 0.5, 12):
        slack, err = cdn_bound(K2, SD2, F10, 1.05, 2.0, float(t))
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
                    slack, err = cdn_bound(g, sd, f, K, n, t)
                    assert slack.min() >= -max(1e-8, 2.0 * float(np.max(err)))


def test_cdn_rejects_bad_dimension():
    with pytest.raises(ValueError):
        cdn_bound(K2, SD2, F10, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        cdn_bound(K2, SD2, F10, 1.0, -2.0, 1.0)


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


def _fix_panels(monkeypatch, panels):
    """Make every time integral use the coarse degree panels."""
    monkeypatch.setattr(graphcd.verify, "_sized_panels", lambda sd, K, t: panels)


def test_quadrature_estimate_shrinks_4x_per_doubling(monkeypatch):
    g = mild_graph(3600)
    sd = decompose(g)
    rng = rng_for(46)
    f = rng.standard_normal(g.vertex_count)
    ests = []
    # the rule converges geometrically and is at roundoff by 16 panels here
    for panels in (2, 4, 8):
        _fix_panels(monkeypatch, panels)
        _, err = slack_of(g, sd, "gamma2_identity", f, -1.0, 1.0)
        ests.append(float(np.max(err)))
    assert min(ests) > 1e-13  # far from the roundoff floor, ratios meaningful
    assert ests[1] <= ests[0] / 4.0
    assert ests[2] <= ests[1] / 4.0


def test_quadrature_estimate_bounds_true_error(monkeypatch):
    # against a much finer reference integral
    g = mild_graph(3700)
    sd = decompose(g)
    rng = rng_for(47)
    f = rng.standard_normal(g.vertex_count)
    _fix_panels(monkeypatch, 4096)
    ref, _ = slack_of(g, sd, "gamma2_identity", f, -1.0, 1.0)
    _fix_panels(monkeypatch, 64)
    res, err = slack_of(g, sd, "gamma2_identity", f, -1.0, 1.0)
    assert np.abs(res).max() <= max(1e-10, 20.0 * float(np.max(err)) + float(np.abs(ref).max()))


@pytest.mark.parametrize("K", [-1.0, 0.0, 2.0])
def test_heat_integrals_match_exact_oracle(K, monkeypatch):
    # at the sized degree the integrals agree with the closed form to 1e-12
    # of the sides' scale; at that and at fixed low degrees, the reported
    # (largest) estimate is at least the largest true error above roundoff.
    # Both propagators: the dense one folds the sums into its eigenbasis,
    # the Chebyshev one sums them by Clenshaw's recurrence
    loops = 0
    for seed in range(12):
        g = random_connected_graph(3800 + seed, max_vertices=12, self_loop_prob=0.5)
        loops += any(u == v for u, v in g.edges)
        f = rng_for(62, seed).standard_normal(g.vertex_count)
        lam, Phi = ref_eigenpairs(g)
        T_gamma, T_gamma2, T_lap2 = (ref_form_table(g, Phi, form) for form in (
            lambda h: ref_gamma(g, h), lambda h: ref_gamma2(g, h),
            lambda h: ref_laplacian(g, h) ** 2))
        for t, propagator in itertools.product((0.05, 1.0, 5.0), (decompose, ChebyshevPropagator)):
            sd = propagator(g)
            pf = heat_apply(sd, g, t, f)
            sides = max(np.abs(heat_apply(sd, g, t, f * f)).max(), np.abs(pf * pf).max(),
                        math.exp(-2.0 * K * t) * np.abs(heat_apply(sd, g, t, gamma(g, f))).max(),
                        np.abs(gamma(g, pf)).max())
            exact = (2.0 * exact_heat_integral(g, lam, Phi, T_gamma, f, 0.0, t),
                     2.0 * exact_heat_integral(g, lam, Phi, T_gamma2 - K * T_gamma, f, K, t),
                     exact_heat_integral(g, lam, Phi, T_lap2, f, K, t))
            for panels in (None, 4, 8, 16):
                monkeypatch.undo()
                if panels is not None:
                    _fix_panels(monkeypatch, panels)
                got = (_integrate_variance(g, sd, f[:, None], t),
                       _integrate_gamma2(g, sd, f[:, None], K, t),
                       _heat_integral(g, sd, f[:, None], K, t,
                                      lambda F: laplacian_many(g, F) ** 2))
                for (integral, err), ref in zip(got, exact):
                    integral, err = integral[:, 0], err[:, 0]
                    true = np.abs(integral - ref).max()
                    if panels is None:
                        assert true <= 1e-12 * sides
                    if true > 1e-13 * sides:
                        assert err.max() >= true
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
    panels = 8
    _fix_panels(monkeypatch, panels)
    nodes = 2 * panels + 1
    dense = []

    class Basis(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                dense.append([np.shape(x) for x in inputs])
            inputs = [x.view(np.ndarray) if isinstance(x, Basis) else x for x in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    counted = dataclasses.replace(sd, basis=sd.basis.view(Basis))
    sparse = []
    counting = tuple(_CountingProducts(M, sparse) for M in g._incidences())
    monkeypatch.setattr(g, "_incidences", lambda: counting)
    for name, K, n in (("variance_identity", 0.0, None), ("gamma2_identity", -1.0, None),
                       ("cdn_bound", -1.0, 2.0)):
        dense.clear()
        sparse.clear()
        got = [a[:, 0] for a in _sides(g, counted, name, f[:, None], K, n, 0.3)]
        assert sum(shapes[1][-1] == nodes for shapes in dense) == 2
        if name == "gamma2_identity":
            assert sum(shape[-1] == nodes for shape in sparse) == 7
        want = [a[:, 0] for a in _sides(g, sd, name, f[:, None], K, n, 0.3)]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_chebyshev_time_sum_takes_no_product_of_the_node_block(monkeypatch):
    # Clenshaw's recurrence runs on the nv x 2 block of the fine and coarse
    # sums: no product with 2X has the node block's width, the heat
    # curve's and the one-column sides' have one column
    g = random_connected_graph(3901, min_vertices=8, max_vertices=8, self_loop_prob=1.0)
    sd = ChebyshevPropagator(g)
    f = rng_for(64).standard_normal(g.vertex_count)
    _fix_panels(monkeypatch, 8)
    widths = []
    monkeypatch.setattr(sd, "_twice_x", _CountingProducts(sd._twice_x, widths))
    for name, K, n in (("variance_identity", 0.0, None), ("gamma2_identity", -1.0, None),
                       ("cdn_bound", -1.0, 2.0)):
        widths.clear()
        _sides(g, sd, name, f[:, None], K, n, 0.3)
        assert {shape[-1] for shape in widths} == {1, 2}


def column_block_counts(width):
    """Column counts that cut blocks of `width` every way: one column, one
    block short, exactly one block, one past it, and a ragged third block."""
    return sorted({1, max(1, width - 1), width, width + 1, 3 * width + 2})


def cache_columns(monkeypatch, g, width):
    """Shrink the kernels' cache budget to `width` columns of g's edges."""
    monkeypatch.setattr(graphcd.operators, "_CACHE_BYTES", 8 * max(1, len(g._edge_mu)) * width)


def integrand_kernels(g, K):
    """The three time-integral integrands, each a column-wise kernel."""
    return [functools.partial(_gamma2_minus_gamma, g, K), functools.partial(gamma_many, g),
            functools.partial(_laplacian_squared, g)]


@pytest.mark.parametrize("width", [1, 2, 3])
def test_integrand_kernels_in_column_blocks_are_one_call_bit_for_bit(width, monkeypatch):
    # Gamma2 - K Gamma (formed per block), Gamma and (Delta X)^2 on blocks
    # of at most `width` columns give the bytes of one call on all of them,
    # on the fixtures and on seeded random graphs with and without loops
    graphs = list(fixture_graphs().values()) + [
        random_connected_graph(3160 + seed, max_vertices=20, self_loop_prob=0.5)
        for seed in range(20)]
    for i, g in enumerate(graphs):
        X = rng_for(66, i).standard_normal((g.vertex_count, 3 * width + 2))
        X[:, 0], X[:, 1] = -0.0, 2.0
        wants = [kernel(X) for kernel in integrand_kernels(g, -1.5)]
        cache_columns(monkeypatch, g, width)
        for cols, (kernel, want) in itertools.product(
                column_block_counts(width), zip(integrand_kernels(g, -1.5), wants)):
            seen = []
            got = _column_blocks(g, lambda Y: (seen.append(Y.shape[1]), kernel(Y))[1], X[:, :cols])
            assert max(seen) <= width and sum(seen) == cols
            assert got.tobytes() == want[:, :cols].tobytes()
        monkeypatch.undo()


def test_heat_integral_hands_inner_column_blocks(monkeypatch):
    # 128 functions at 601 nodes, two node blocks (513 + 88), under a cache
    # budget of 100 columns: inner sees at most 100 columns a call, sees
    # every function at every node once, and the integrals keep their bytes
    g = random_connected_graph(3970, min_vertices=12, max_vertices=12)
    nv = g.vertex_count
    sd = decompose(g)
    F = rng_for(68).standard_normal((nv, 128))
    _fix_panels(monkeypatch, 300)
    cache_columns(monkeypatch, g, 601)
    want = _heat_integral(g, sd, F, 0.0, 0.3, functools.partial(gamma_many, g))
    cache_columns(monkeypatch, g, 100)
    columns = []

    def inner(X):
        columns.append(X.shape[1])
        return gamma_many(g, X)

    got = _heat_integral(g, sd, F, 0.0, 0.3, inner)
    assert max(columns) == 100 and sum(columns) == 128 * 601
    assert len(columns) == 128 * (6 + 1)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_chebyshev_heat_integral_builds_each_table_once_per_node_block(monkeypatch):
    # 4 functions at 601 nodes, two node blocks (513 + 88): one coefficient
    # table for t - s and one for s per block, shared by the functions, and
    # the integrals of a fresh propagator per function, bit for bit
    g = random_connected_graph(3971, min_vertices=12, max_vertices=12)
    F = rng_for(69).standard_normal((g.vertex_count, 4))
    _fix_panels(monkeypatch, 300)
    inner = functools.partial(_laplacian_squared, g)
    want = [_heat_integral(g, ChebyshevPropagator(g), F[:, [j]], -1.0, 0.3, inner)
            for j in range(4)]
    ive, tables = scipy.special.ive, []

    def outer(k, b):
        tables.append(b.tobytes())
        return ive.outer(k, b)

    monkeypatch.setattr(scipy.special, "ive", SimpleNamespace(outer=outer))
    got = _heat_integral(g, ChebyshevPropagator(g), F, -1.0, 0.3, inner)
    assert len(tables) == len(set(tables)) == 4
    assert [a.tobytes() for a in got] == [np.hstack(a).tobytes() for a in zip(*want)]


def test_integrate_is_exact_on_exponentials_in_node_blocks():
    t, rates = 1.5, np.array([-50.0, -1.0, 0.0, 3.0])
    seen = []

    def integrand(s, w):
        seen.append(s)
        return np.exp(np.outer(rates, s)) @ w

    sums = _integrate(integrand, t, QuadratureSpec(panels=600))
    nodes = np.concatenate(seen)
    assert max(map(len, seen)) <= 513 and len(nodes) == 1201
    assert nodes[0] == 0.0 and nodes[-1] == t and np.all(np.diff(nodes) > 0)
    exact = np.array([-math.expm1(50.0 * -t) / 50.0, -math.expm1(-t), t, math.expm1(3.0 * t) / 3.0])
    assert np.abs(sums - exact[:, None]).max() <= 1e-14 * np.abs(exact).max()


def test_sized_panels_resolve_the_fastest_exponential():
    # with t = 1 and K = 0 the bound on |r| t / 2 is a = -lam_min; the
    # Chebyshev coefficients of e^{a x} on [-1, 1] are I_n(a)
    from scipy.special import ive

    for a in (0.01, 1.85, 20.0, 1e3, 2e4, 3e6):
        n = _sized_panels(SimpleNamespace(lam_min=-a), 0.0, 1.0)
        assert n % 2 == 0
        assert ive(n, a) / ive(0, a) <= 1e-17
    # K moves the rates: a = 0.025 max(|lam_min - 2K|, |2 lam_min + 2K|)
    sd = SimpleNamespace(lam_min=-23.7)
    assert (_sized_panels(sd, -1.0, 0.05), _sized_panels(sd, -13.3, 0.05)) == (26, 30)
    with pytest.raises(ValueError, match="panel count"):
        _sized_panels(SimpleNamespace(lam_min=-1e12), 0.0, 1.0)


FIVE_CHECKS = [("gradient_estimate", None), ("variance_bound", None), ("cdn_bound", 2.0),
               ("variance_identity", None), ("gamma2_identity", None)]


@pytest.mark.parametrize("name, n", FIVE_CHECKS)
def test_run_verification_through_a_third_propagator(name, n):
    # verify reads a propagator only through the interface semigroup
    # documents, so one written against it alone gives decompose's records
    graphs = list(fixture_graphs().values()) + [
        random_connected_graph(3950 + seed, max_vertices=10, self_loop_prob=0.5)
        for seed in range(3)]
    for i, g in enumerate(graphs):
        functions = function_corpus(g, random_count=3, seed=i)
        args = (name, "auto", [0.1, 1.0], functions, n)
        want = run_verification(g, decompose(g), *args)
        got = run_verification(g, ExpmPropagator(g), *args)
        scale = _record_scale(g, want, functions)
        for side in ("lhs", "rhs"):
            assert np.all(np.abs(getattr(got, side) - getattr(want, side)) <= 1e-12 * scale)


def _record_scale(g, report, functions):
    """Each term of either side is at most max(1, e^{-2Kt}) times the
    largest f^2 or Gamma(f): the scale of that (function, t)."""
    f_of = dict(functions)
    return np.array([[max(1.0, math.exp(-2.0 * report.K * t))
                      * max((f * f).max(), gamma(g, f).max()) for t in report.times]
                     for f in map(f_of.get, report.function_ids)])[:, :, None]


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


def test_corpus_is_its_builders_in_order():
    # the constant, the indicators, then witness_functions and
    # random_functions: the same ids in the same order, bit for bit
    graphs = list(fixture_graphs().values()) + [
        random_connected_graph(4100 + seed, max_vertices=10, self_loop_prob=0.5)
        for seed in range(3)]
    for g, n, (count, seed) in itertools.product(graphs, (math.inf, 2.0),
                                                 ((0, 0), (3, 7), (50, 0))):
        nv = g.vertex_count
        witnesses = witness_functions(g, n)
        randoms = random_functions(g, seed, count)
        want = ([("const", np.ones(nv))]
                + [(f"indicator:{label}", e) for label, e in zip(g.labels, np.eye(nv))]
                + witnesses + randoms)
        got = function_corpus(g, n, count, seed)
        assert [fid for fid, _ in got] == [fid for fid, _ in want]
        assert all(f.tobytes() == w.tobytes() for (_, f), (_, w) in zip(got, want))
        # each builder's ids and values, from the curvature engine and the generator
        assert [fid for fid, _ in witnesses] == [f"witness:{label}" for label in g.labels]
        assert all(f.tobytes() == curvature_at(g, x, n).witness.tobytes()
                   for x, (_, f) in enumerate(witnesses))
        assert [fid for fid, _ in randoms] == [f"random:{seed}:{i}" for i in range(count)]
        draws = np.random.default_rng(seed).standard_normal((count, nv))
        assert all(f.tobytes() == d.tobytes() for (_, f), d in zip(randoms, draws))


def test_resolve_k():
    assert resolve_K(K2, "auto") == pytest.approx(2.0, abs=1e-9)
    assert resolve_K(K2, "auto", "cdn_bound", n=2.0) == pytest.approx(1.0, abs=1e-9)
    assert resolve_K(K2, -3.25) == -3.25
    with pytest.raises(ValueError):
        resolve_K(K2, "sharp")


@pytest.mark.parametrize("K", [math.nan, math.inf, -math.inf])
def test_nonfinite_K_is_refused(K):
    # a nan or infinite K would make every record nan
    with pytest.raises(ValueError, match="finite"):
        resolve_K(K2, K)
    with pytest.raises(ValueError, match="finite"):
        run_verification(K2, SD2, "gradient_estimate", K, [0.1], function_corpus(K2))


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
    assert _violation_indices(rep).size == 0


def test_run_verification_detects_sharpness_violation():
    funcs = [(f"witness:{K2.labels[r.vertex]}", r.witness)
             for r in [curvature_at(K2, 0), curvature_at(K2, 1)]]
    rep = run_verification(K2, SD2, "gradient_estimate", 2.1, [0.01, 0.1], funcs)
    bad = [rep.records[i] for i in _violation_indices(rep)]
    assert bad and all(r.slack < -1e-9 for r in bad)


def test_run_verification_identity_tolerance():
    funcs = function_corpus(K2, random_count=3, seed=1)
    rep = run_verification(K2, SD2, "gamma2_identity", 1.7, [0.5], funcs)
    tol = record_tolerance(rep.inequality_name, rep.quadrature_error_estimate)
    assert all(abs(r.slack) <= tol for r in rep.records)
    assert _violation_indices(rep).size == 0


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


@pytest.mark.parametrize("name, n", FIVE_CHECKS)
def test_only_cdn_takes_a_dimension(name, n):
    # the propagator choice and the sweep apply one rule: cdn_bound needs
    # n and no other check takes one
    wrong = None if n is not None else 2.0
    match = "needs a dimension" if wrong is None else "only cdn_bound"
    with pytest.raises(ValueError, match=match):
        _sweep_propagator(K2, name, 0.0, wrong, [0.1], 1)
    with pytest.raises(ValueError, match=match):
        run_verification(K2, SD2, name, 0.0, [0.1], [("const", np.ones(2))], n=wrong)
    assert _sweep_propagator(K2, name, 0.0, n, [0.1], 1) is not None


def test_record_tolerance_policy():
    assert record_tolerance("gradient_estimate", 0.0) == 1e-9
    assert record_tolerance("variance_bound", 123.0) == 1e-9
    assert record_tolerance("gamma2_identity", 0.0) == 1e-8
    assert record_tolerance("cdn_bound", 3e-7) == 6e-7
    assert record_tolerance("cdn_bound", 3e-7, 2.0) == 6e-7
    assert record_tolerance("cdn_bound", 0.0, math.inf) == PLAIN_TOLERANCE
    # an estimate that is not finite bounds nothing: the floor, as for nan
    for est in (math.inf, -math.inf, math.nan):
        assert record_tolerance("cdn_bound", est) == QUAD_TOLERANCE_FLOOR
        assert record_tolerance("gamma2_identity", est) == QUAD_TOLERANCE_FLOOR


def test_check_table_pins_flags_heat_counts_and_tolerance_kinds(monkeypatch):
    parser = graphcd.cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flag = next(a for a in commands.choices["verify"]._actions if a.dest == "inequality")
    assert flag.choices == sorted(check.flag for check in CHECKS.values())
    assert len(set(flag.choices)) == len(CHECKS)
    assert INEQUALITY_NAMES == tuple(CHECKS)

    # the record's heat count, _sweep_propagator's cost input, is the heat
    # calls of one _sides call; the tolerance kind is the record's
    calls = []

    def counted(sd, g, t, F):
        calls.append(F.shape[1])
        return heat_apply_columns(sd, g, t, F)

    monkeypatch.setattr("graphcd.verify.heat_apply_columns", counted)
    g = random_connected_graph(3962, min_vertices=6, max_vertices=6)
    sd = decompose(g)
    F = rng_for(65).standard_normal((g.vertex_count, 3))
    plain = {}
    for name, check in CHECKS.items():
        for n in (None, 2.0, math.inf):
            if (n is None) == check.takes_n:
                continue
            calls.clear()
            _sides(g, sd, name, F, -0.5, n, 0.3)
            assert calls == [3] * check.heat, (name, n)
            plain[name, n] = record_tolerance(name, 3e-7, n) == PLAIN_TOLERANCE
            assert plain[name, n] == (not check.integral or n == math.inf), (name, n)
    assert plain == {("gradient_estimate", None): True, ("variance_bound", None): True,
                     ("cdn_bound", 2.0): False, ("cdn_bound", math.inf): True,
                     ("variance_identity", None): False, ("gamma2_identity", None): False}


def test_nonfinite_slack_is_a_violation():
    slacks = {"a": 1.0, "b": math.nan, "c": math.inf, "d": -math.inf, "e": 0.0}
    slack = np.array([[list(slacks.values())]])
    for name, want in (("gradient_estimate", {"b", "c", "d"}),
                       ("gamma2_identity", {"a", "b", "c", "d"})):
        report = VerificationReport(name, 0.0, None, ("f",), (0.5,), tuple(slacks),
                                    np.zeros_like(slack), slack, slack, 0.0)
        assert {report.records[i].vertex for i in _violation_indices(report)} == want, name


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
    assert _violation_indices(rep).size


@pytest.mark.parametrize("name, n", [("variance_identity", None), ("gamma2_identity", None),
                                     ("cdn_bound", 2.0)])
def test_nan_quadrature_estimate_is_reported(name, n):
    # the second function overflows and its quadrature estimate is NaN: the
    # report shows it, as min_slack does, and the tolerance stays the floor
    g = path_graph(3)
    funcs = [("a", np.array([1.0, 0.0, 2.0])), ("b", np.array([1e300, -1e300, 1e300]))]
    with np.errstate(over="ignore", invalid="ignore"):
        rep = run_verification(g, decompose(g), name, 0.0, [0.1], funcs, n=n)
    assert math.isnan(rep.quadrature_error_estimate) and math.isnan(rep.min_slack)
    assert record_tolerance(name, rep.quadrature_error_estimate) == QUAD_TOLERANCE_FLOOR
    assert _violation_indices(rep).size


@pytest.mark.parametrize("name, n", FIVE_CHECKS)
def test_run_verification_of_no_functions(name, n):
    rep = run_verification(K3, decompose(K3), name, 0.0, [0.1, 0.5], [], n=n)
    assert rep.slack.shape == rep.lhs.shape == (0, 2, 3)
    assert rep.min_slack == 0.0 and len(rep.records) == 0


def test_run_verification_rejects_a_function_of_the_wrong_length():
    funcs = [("a", np.ones(3)), ("b", np.ones(4))]
    with pytest.raises(ValueError, match="propagator/function size mismatch with graph"):
        run_verification(K3, decompose(K3), "gradient_estimate", 0.0, [0.1], funcs)


@pytest.mark.parametrize("name, n", FIVE_CHECKS)
def test_sweep_applies_heat_to_column_blocks(monkeypatch, name, n):
    # below the block size each time's sides take the same heat calls
    # however many functions there are, and no function goes alone
    # through heat_apply
    def alone(*args):
        raise AssertionError("heat_apply was called")

    calls = []

    def counted(sd, g, t, F):
        calls.append(F.shape[1])
        return heat_apply_columns(sd, g, t, F)

    for target in ("graphcd.verify.heat_apply", "graphcd.semigroup.heat_apply"):
        monkeypatch.setattr(target, alone, raising=False)
    monkeypatch.setattr("graphcd.verify.heat_apply_columns", counted, raising=False)
    g = random_connected_graph(3960, min_vertices=6, max_vertices=6)
    counts = []
    for random_count in (1, 20):
        calls.clear()
        functions = function_corpus(g, random_count=random_count, seed=1)
        run_verification(g, decompose(g), name, 0.0, [0.1, 0.5], functions, n=n)
        assert calls and set(calls) == {len(functions)}
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("name, n", FIVE_CHECKS)
def test_sweep_blocks_split_the_corpus(monkeypatch, name, n):
    # 17 functions in blocks of 4 (the last one short) give the records of
    # one block up to roundoff, in the same order
    g = random_connected_graph(3961, min_vertices=6, max_vertices=6)
    functions = function_corpus(g, random_count=4, seed=2)
    want = run_verification(g, decompose(g), name, -0.5, [0.1, 0.5], functions, n=n)
    monkeypatch.setattr("graphcd.verify._FUNCTION_BLOCK", 4)
    got = run_verification(g, decompose(g), name, -0.5, [0.1, 0.5], functions, n=n)
    assert len(functions) == 17 and got.function_ids == want.function_ids
    scale = _record_scale(g, want, functions)
    for side in ("lhs", "rhs", "slack"):
        assert np.all(np.abs(getattr(got, side) - getattr(want, side)) <= 1e-12 * scale)
    assert got.quadrature_error_estimate == pytest.approx(want.quadrature_error_estimate,
                                                          rel=1e-9, abs=1e-15)


def test_records_view_reads_the_arrays():
    funcs = function_corpus(K3, random_count=2, seed=0)
    rep = run_verification(K3, decompose(K3), "gradient_estimate", "auto", [0.5, 0.1], funcs)
    records = rep.records
    assert len(records) == rep.slack.size == len(funcs) * 2 * 3
    assert list(records)[-1] == records[-1]
    for s in (slice(1, 4), slice(None, None, -1), slice(-3, None), slice(5, 5)):
        assert records[s] == list(records)[s]
    assert len(records[1:4]) == 3 and records[5:5] == []
    with pytest.raises(IndexError):
        records[len(records)]
    for r, lhs, rhs, slack in zip(records, rep.lhs.ravel(), rep.rhs.ravel(), rep.slack.ravel()):
        assert (r.lhs, r.rhs, r.slack) == (lhs, rhs, slack)
        assert r.slack == rep.slack[rep.function_ids.index(r.function_id),
                                    rep.times.index(r.t), rep.vertices.index(r.vertex)]
