import math

import numpy as np
import pytest
import scipy.linalg

from graphcd.curvature import (
    CurvatureInternalError,
    IsolatedVertexError,
    curvature_all,
    curvature_at,
    curvature_oracle,
)
from graphcd.fixtures import complete_graph, path_graph, random_connected_graph, star_graph
from graphcd.graph import WeightedGraph, ball2, load_graph
from graphcd.operators import gamma, gamma2, laplacian
from conftest import rng_for


K2 = complete_graph(2)
K3 = complete_graph(3)
P3 = path_graph(3)
INF = math.inf


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------

def test_k2_curvature():
    for x in (0, 1):
        assert abs(curvature_at(K2, x, INF).kappa - 2.0) <= 1e-9
        for n in (1.0, 2.0, 5.0, 100.0):
            assert abs(curvature_at(K2, x, n).kappa - (2.0 - 2.0 / n)) <= 1e-9


def test_k3_curvature():
    for x in range(3):
        assert abs(curvature_at(K3, x, INF).kappa - 2.5) <= 1e-9
        for n in (1.0, 2.0, 5.0, 100.0):
            want = min(2.5 - 4.0 / n, 4.5)
            assert abs(curvature_at(K3, x, n).kappa - want) <= 1e-9


def test_p3_curvature():
    assert abs(curvature_at(P3, 0, INF).kappa - 1.5) <= 1e-9
    assert abs(curvature_at(P3, 1, INF).kappa - 0.5) <= 1e-9
    assert abs(curvature_at(P3, 2, INF).kappa - 1.5) <= 1e-9


def test_oracle_frozen_values():
    assert abs(curvature_oracle(K2, 0, INF) - 2.0) <= 1e-9
    assert abs(curvature_oracle(K3, 0, INF) - 2.5) <= 1e-9
    # path midpoint: value not pinned a priori, only solver agreement
    assert abs(curvature_oracle(P3, 1, INF) - curvature_at(P3, 1, INF).kappa) <= 1e-6


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def test_monotone_in_n():
    ns = [1.0, 2.0, 5.0, 10.0, 100.0, 1e4]
    for seed in range(10):
        g = random_connected_graph(1400 + seed)
        for x in range(g.vertex_count):
            ks = [curvature_at(g, x, n).kappa for n in ns]
            kinf = curvature_at(g, x, INF).kappa
            for a, b in zip(ks, ks[1:]):
                assert a <= b + 1e-10
            assert ks[-1] <= kinf + 1e-10


def test_n_limit_approaches_infinity_value():
    # on K2/K3 the finite-n gap is 2/n resp. 4/n, so 1e4 is inside 1e-3
    for g in (K2, K3):
        for x in range(g.vertex_count):
            gap = curvature_at(g, x, INF).kappa - curvature_at(g, x, 1e4).kappa
            assert 0.0 <= gap <= 1e-3


def test_scaling_laws():
    rng = rng_for(32)
    for seed in range(10):
        g = random_connected_graph(1500 + seed, max_vertices=7)
        c = float(rng.uniform(0.3, 4.0))
        both = WeightedGraph(
            g.labels, g.m * c, {e: w * c for e, w in g.edges.items()}
        )
        mu_only = WeightedGraph(
            g.labels, g.m, {e: w * c for e, w in g.edges.items()}
        )
        for x in range(g.vertex_count):
            for n in (2.0, INF):
                k = curvature_at(g, x, n).kappa
                assert abs(curvature_at(both, x, n).kappa - k) <= 1e-9 * max(1.0, abs(k))
                assert abs(curvature_at(mu_only, x, n).kappa - c * k) <= 1e-9 * max(1.0, abs(c * k))


def test_solver_vs_oracle_spot():
    for seed in range(15):
        g = random_connected_graph(1600 + seed)
        for n in (2.0, INF):
            for x in range(g.vertex_count):
                assert abs(curvature_at(g, x, n).kappa - curvature_oracle(g, x, n)) <= 1e-6


def _route_pencil(monkeypatch, change):
    """Pass the oracle's generalized eigensolve through change(lam, U)."""
    eigh = scipy.linalg.eigh

    def patched(*args, **kwargs):
        lam, U = eigh(*args, **kwargs)
        return change(lam.copy(), U.copy())

    monkeypatch.setattr(scipy.linalg, "eigh", patched)


def test_oracle_certificate_rejects_wrong_minimum(monkeypatch):
    graphs = [random_connected_graph(seed) for seed in range(5)]

    # lambda_0 shifted by a relative 1e-6, eigenvector kept: shifted down
    # it is not attained, shifted up some direction undercuts it
    for rel in (1e-6, -1e-6):
        def shift(lam, U, rel=rel):
            lam[0] *= 1.0 + rel
            return lam, U

        with monkeypatch.context() as m:
            _route_pencil(m, shift)
            for g in graphs:
                for n in (2.0, INF):
                    for x in range(g.vertex_count):
                        with pytest.raises(CurvatureInternalError):
                            curvature_oracle(g, x, n)

    # the top eigenpair is attained but is not the minimum
    def top_first(lam, U):
        return lam[::-1], U[:, ::-1]

    checked = 0
    with monkeypatch.context() as m:
        _route_pencil(m, top_first)
        for g in graphs:
            for n in (2.0, INF):
                for x in range(g.vertex_count):
                    if len(ball2(g, x).sphere1) < 2:
                        continue
                    with pytest.raises(CurvatureInternalError):
                        curvature_oracle(g, x, n)
                    checked += 1
    assert checked > 0


def test_curvature_all_solves_once_per_graph_and_dimension():
    g = random_connected_graph(1800)
    a, b = curvature_all(g, INF), curvature_all(g, INF)
    assert a is b and all(x is y for x, y in zip(a, b))
    assert not any(r.witness.flags.writeable for r in a)
    n2 = curvature_all(g, 2.0)
    assert [r.dimension for r in n2] == [2.0] * g.vertex_count
    assert all(r.kappa == curvature_at(g, r.vertex, 2.0).kappa for r in n2)


def test_witness_invariants():
    looped = path_graph(4)
    looped = WeightedGraph(looped.labels, looped.m, {**looped.edges, (1, 1): 3.0})
    graphs = [random_connected_graph(1800 + seed) for seed in range(12)]
    # complete_graph(4) has only the k2 = 0 group
    for g in graphs + [complete_graph(4), star_graph(4), looped]:
        for n in (2.0, INF):
            for x in range(g.vertex_count):
                r = curvature_at(g, x, n)
                w = r.witness
                inv_n = 0.0 if math.isinf(n) else 1.0 / n
                gw = gamma(g, w)[x]
                assert abs(gw - 1.0) <= 1e-9
                resid = gamma2(g, w)[x] - inv_n * laplacian(g, w)[x] ** 2 - r.kappa * gw
                assert -1e-8 <= resid <= 1e-8
                # witness lives on the 2-ball
                ball = ball2(g, x)
                inside = {x} | set(ball.sphere1) | set(ball.sphere2)
                outside = [y for y in range(g.vertex_count) if y not in inside]
                assert np.all(w[outside] == 0.0) and w[x] == 0.0


def test_result_stores_witness_on_the_2ball():
    g = random_connected_graph(1850, min_vertices=8, max_vertices=8, extra_edge_prob=0.1)
    results = curvature_all(g, INF)
    base = results[0].values.base
    for r in results:
        ball = ball2(g, r.vertex)
        k = len(ball.sphere1) + len(ball.sphere2)
        assert r.values.shape == r.support.shape == (k,)
        assert list(r.support) == list(ball.sphere1 + ball.sphere2)
        # views into one flat array per table, not copies
        assert r.values.base is base and not r.values.flags.writeable
        w = r.witness
        off = np.ones(g.vertex_count, dtype=bool)
        off[list(r.support)] = False
        assert np.all(w[off] == 0.0) and np.array_equal(w[r.support], r.values)


def test_indefinite_sphere2_block_raises(monkeypatch):
    import graphcd.curvature as curvature

    build = curvature.form_table

    def indefinite(g, centers):
        table = build(g, centers)
        for grp in table.groups():
            if grp.k2 > 0:
                grp.forms[:, -1, -1] = -1.0
        return table

    monkeypatch.setattr(curvature, "form_table", indefinite)
    g = path_graph(3)
    with pytest.raises(CurvatureInternalError, match="not PSD at 'a'"):
        curvature_all(g, INF)


def test_witness_is_a_true_minimizer_over_random_functions():
    # 500 random f: the Rayleigh quotient never goes below kappa
    rng = rng_for(34)
    for g, x, n in ((K3, 0, INF), (P3, 1, INF), (random_connected_graph(1900), 0, 2.0)):
        kappa = curvature_at(g, x, n).kappa
        inv_n = 0.0 if math.isinf(n) else 1.0 / n
        for _ in range(500):
            f = rng.standard_normal(g.vertex_count)
            f[x] = 0.0
            gf = gamma(g, f)[x]
            if gf <= 1e-12:
                continue
            q = (gamma2(g, f)[x] - inv_n * laplacian(g, f)[x] ** 2) / gf
            assert q >= kappa - 1e-8


def test_deterministic_witness_sign():
    a = curvature_at(K3, 0, INF).witness
    b = curvature_at(K3, 0, INF).witness
    assert np.array_equal(a, b)
    nz = a[np.nonzero(a)[0]]
    assert nz[0] > 0.0


def test_isolated_vertex_rejected():
    g = load_graph("vertex a 1\nedge a a 2\n")
    with pytest.raises(IsolatedVertexError):
        curvature_at(g, 0, INF)


def test_bad_dimension_rejected():
    for n in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            curvature_at(K2, 0, n)


def test_oracle_ball_size_limit():
    g = complete_graph(14)  # ball has 14 vertices > 12
    with pytest.raises(ValueError):
        curvature_oracle(g, 0, INF)


def test_self_loop_does_not_change_curvature():
    base = path_graph(4)
    edges = dict(base.edges)
    edges[(1, 1)] = 9.0
    looped = WeightedGraph(base.labels, base.m, edges)
    for x in range(4):
        assert curvature_at(looped, x, INF).kappa == pytest.approx(
            curvature_at(base, x, INF).kappa, abs=1e-12
        )
