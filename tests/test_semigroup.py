import math

import numpy as np
import pytest

from graphcd.fixtures import complete_graph, path_graph, random_connected_graph
from graphcd.graph import load_graph
from graphcd.operators import laplacian_matrix
from graphcd.semigroup import decompose, heat_apply, heat_apply_columns, heat_curve
from conftest import check_semigroup_invariants, rng_for


K2 = complete_graph(2)
P3 = path_graph(3)


def test_eigenvalues_k2():
    sd = decompose(K2)
    assert np.allclose(sd.eigenvalues, [-2.0, 0.0], atol=1e-12)


def test_eigenvalues_p3():
    sd = decompose(P3)
    assert np.allclose(sd.eigenvalues, [-3.0, -1.0, 0.0], atol=1e-12)


def test_eigenvalues_self_loop_singleton():
    g = load_graph("vertex a 1\nedge a a 4\n")
    sd = decompose(g)
    assert np.allclose(sd.eigenvalues, [0.0], atol=1e-14)


def _edge_loop_matrices(g):
    """L and S = M^{1/2} L M^{-1/2} filled one edge at a time from g.edges:
    the construction the array fill replaced, kept as its reference."""
    nv = g.vertex_count
    inv_sqrt_m = 1.0 / np.sqrt(g.m)
    L, S = np.zeros((nv, nv)), np.zeros((nv, nv))
    for (u, v), w in g.edges.items():
        if u == v:
            continue
        L[u, v] += w * g._inv_m[u]
        L[v, u] += w * g._inv_m[v]
        S[u, v] = S[v, u] = w * (inv_sqrt_m[u] * inv_sqrt_m[v])
    L[np.diag_indices(nv)] = S[np.diag_indices(nv)] = -g._degree * g._inv_m
    return L, S


def test_dense_matrices_match_edge_loop_construction():
    loops = 0
    for seed in range(60):
        g = random_connected_graph(2500 + seed, max_vertices=20, self_loop_prob=0.5)
        loops += any(u == v for u, v in g.edges)
        L, S = _edge_loop_matrices(g)
        assert laplacian_matrix(g).tobytes() == L.tobytes()
        # decompose keeps only eigh(S); identical bytes in, identical bytes out
        lam, U = np.linalg.eigh(S)
        sd = decompose(g)
        assert sd.eigenvalues.tobytes() == lam.tobytes() and sd.basis.tobytes() == U.tobytes()
    assert loops > 0


def test_decomposition_structure():
    for seed in range(15):
        g = random_connected_graph(2300 + seed)
        sd = decompose(g)
        nv = g.vertex_count
        U = sd.basis
        lam = sd.eigenvalues
        S = np.diag(sd.sqrt_m) @ laplacian_matrix(g) @ np.diag(sd.inv_sqrt_m)
        assert np.abs(S - S.T).max() <= 1e-12 * max(1.0, np.abs(S).max())
        assert np.abs(U.T @ U - np.eye(nv)).max() <= 1e-10
        assert lam.max() <= 1e-10
        assert np.all(np.diff(lam) >= 0.0)
        recon = U @ np.diag(lam) @ U.T
        assert np.linalg.norm(S - recon) <= 1e-9 * max(1.0, np.linalg.norm(S))
        # top eigenvalue 0 is simple, eigenvector along sqrt(m)
        assert abs(lam[-1]) <= 1e-10
        if nv > 1:
            assert lam[-2] < -1e-10  # connected: spectral gap
        v = U[:, -1]
        w = np.sqrt(g.m) / np.linalg.norm(np.sqrt(g.m))
        assert min(np.abs(v - w).max(), np.abs(v + w).max()) <= 1e-9


def test_heat_t0_is_identity_exactly():
    rng = rng_for(36)
    g = random_connected_graph(2400)
    sd = decompose(g)
    f = rng.standard_normal(g.vertex_count)
    out = heat_apply(sd, g, 0.0, f)
    assert np.array_equal(out, f)
    out[0] += 1.0
    assert f[0] != out[0]  # returned array is a copy


def test_heat_closed_form_k2():
    sd = decompose(K2)
    f = np.array([1.0, 0.0])
    for t in (0.1, 0.5, 1.0, 2.0):
        got = heat_apply(sd, K2, t, f)
        want = np.array([0.5 * (1 + math.exp(-2 * t)), 0.5 * (1 - math.exp(-2 * t))])
        assert np.abs(got - want).max() <= 1e-13
    assert heat_apply(sd, K2, 0.5, f)[0] == pytest.approx(0.5 * (1 + math.exp(-1.0)), abs=1e-14)


def test_heat_preserves_constants():
    for seed in range(10):
        g = random_connected_graph(2500 + seed)
        sd = decompose(g)
        ones = np.ones(g.vertex_count)
        for t in (0.2, 1.0, 10.0):
            assert np.abs(heat_apply(sd, g, t, ones) - 1.0).max() <= 1e-12


def test_negative_time_rejected():
    sd = decompose(K2)
    with pytest.raises(ValueError):
        heat_apply(sd, K2, -0.1, np.array([1.0, 0.0]))


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_nonfinite_time_rejected(t):
    sd = decompose(K2)
    with pytest.raises(ValueError):
        heat_apply(sd, K2, t, np.array([1.0, 0.0]))


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_heat_curve_rejects_nonfinite_time(t):
    g = path_graph(3)
    with pytest.raises(ValueError):
        heat_curve(decompose(g), g, [0.5, t], np.array([1.0, 0.0, 2.0]))


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_heat_apply_columns_rejects_nonfinite_time(t):
    g = path_graph(3)
    F = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
    with pytest.raises(ValueError):
        heat_apply_columns(decompose(g), g, [0.5, t], F)


def test_size_mismatch_rejected():
    sd = decompose(K2)
    with pytest.raises(ValueError):
        heat_apply(sd, K2, 1.0, np.array([1.0, 0.0, 0.0]))


def test_invariant_suite_random_graphs():
    for seed in range(10):
        g = random_connected_graph(2600 + seed)
        check_semigroup_invariants(g, decompose(g), rng_for(37, seed))


def test_heat_curve_matches_heat_apply():
    g = random_connected_graph(2700)
    sd = decompose(g)
    rng = rng_for(38)
    f = rng.standard_normal(g.vertex_count)
    ts = np.array([0.0, 0.3, 1.7])
    Y = heat_curve(sd, g, ts, f)
    assert Y.shape == (g.vertex_count, 3)
    for j, t in enumerate(ts):
        assert np.allclose(Y[:, j], heat_apply(sd, g, t, f), atol=1e-13)


def test_heat_apply_columns_matches_heat_apply():
    g = random_connected_graph(2800)
    sd = decompose(g)
    rng = rng_for(39)
    F = rng.standard_normal((g.vertex_count, 4))
    ts = np.array([0.1, 0.5, 1.0, 2.5])
    Y = heat_apply_columns(sd, g, ts, F)
    for j, t in enumerate(ts):
        assert np.allclose(Y[:, j], heat_apply(sd, g, t, F[:, j]), atol=1e-13)
