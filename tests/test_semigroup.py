import itertools
import math
import time

import numpy as np
import pytest

import graphcd.semigroup
from graphcd.fixtures import complete_graph, cycle_graph, path_graph, random_connected_graph
from graphcd.graph import WeightedGraph, load_graph
from graphcd.operators import gamma
from graphcd.semigroup import (
    ChebyshevPropagator,
    SpectralDecomposition,
    _chebyshev_degree,
    _propagator_for,
    decompose,
    heat_apply,
    heat_apply_columns,
    heat_curve,
)
from graphcd.verify import _integrate_gamma2, _sweep_propagator
from conftest import check_semigroup_invariants, cycle_with_chords, laplacian_matrix, rng_for


K2 = complete_graph(2)
P3 = path_graph(3)
PROPAGATORS = (decompose, ChebyshevPropagator)


def test_chebyshev_tables_are_kept_within_the_byte_budget(monkeypatch):
    g = random_connected_graph(3902, min_vertices=8, max_vertices=8)
    ts, later = np.linspace(0.0, 1.0, 50), np.linspace(0.0, 0.9, 50)
    nbytes = ChebyshevPropagator(g)._coefficients(ts).nbytes
    # a budget of one table: it is kept, read-only, until the next one takes its place
    monkeypatch.setattr(graphcd.semigroup, "_TABLE_BYTES", nbytes)
    sd = ChebyshevPropagator(g)
    C = sd._coefficients(ts)
    assert sd._coefficients(ts) is C and not C.flags.writeable
    D = sd._coefficients(later)
    assert list(sd._tables) == [later.tobytes()] and sd._coefficients(later) is D
    # a table above the budget is built anew at each call and not kept
    monkeypatch.setattr(graphcd.semigroup, "_TABLE_BYTES", nbytes - 1)
    sd = ChebyshevPropagator(g)
    C = sd._coefficients(ts)
    again = sd._coefficients(ts)
    assert again is not C and again.tobytes() == C.tobytes() and not sd._tables


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


def _edge_loop_matrix(g):
    """S = M^{1/2} L M^{-1/2} filled one edge at a time from g.edges: the
    construction the array fill replaced, kept as its reference."""
    nv = g.vertex_count
    inv_sqrt_m = 1.0 / np.sqrt(g.m)
    S = np.zeros((nv, nv))
    for (u, v), w in g.edges.items():
        if u == v:
            continue
        S[u, v] = S[v, u] = w * (inv_sqrt_m[u] * inv_sqrt_m[v])
    S[np.diag_indices(nv)] = -g._degree * g._inv_m
    return S


def test_dense_matrices_match_edge_loop_construction():
    loops = 0
    for seed in range(60):
        g = random_connected_graph(2500 + seed, max_vertices=20, self_loop_prob=0.5)
        loops += any(u == v for u, v in g.edges)
        # decompose keeps only eigh(S); identical bytes in, identical bytes out
        lam, U = np.linalg.eigh(_edge_loop_matrix(g))
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


def test_heat_of_a_constant_is_the_constant_bit_for_bit():
    loops = 0
    for seed, propagator in itertools.product(range(60), PROPAGATORS):
        g = random_connected_graph(2500 + seed, max_vertices=20, self_loop_prob=0.5)
        loops += any(u == v for u, v in g.edges)
        sd = propagator(g)
        for c in (1.0, -2.5, 3.0e7):
            f = np.full(g.vertex_count, c)
            for t in (0.1, 1.0, 10.0):
                assert heat_apply(sd, g, t, f).tobytes() == f.tobytes()
            ts = np.array([0.0, 0.1, 10.0])
            assert heat_curve(sd, g, ts, f).tobytes() == np.repeat(f[:, None], 3, axis=1).tobytes()
            F = np.outer(np.ones(g.vertex_count), [c, -c, 2.0 * c])
            for t in ts:
                assert heat_apply_columns(sd, g, t, F).tobytes() == F.tobytes()
    assert loops > 0


def test_heat_keeps_the_constant_mode_at_huge_weights():
    # eigh puts the kernel eigenvalue at about -1e144 here; e^{t lambda} of
    # it would send P_t f to 0 instead of the m-weighted mean 1.0
    g = load_graph("vertex a 1\nvertex b 1\nvertex c 1\nedge a b 1e160\nedge b c 1e160\n")
    sd = decompose(g)
    f = np.array([1.0, 0.0, 2.0])
    for got in (heat_apply(sd, g, 1.0, f), heat_curve(sd, g, [1.0], f)[:, 0],
                heat_apply_columns(sd, g, 1.0, f[:, None])[:, 0]):
        assert np.abs(got - 1.0).max() <= 1e-14


def test_rates_pin_only_the_kernel_eigenvalue():
    g = random_connected_graph(2450, max_vertices=12)
    sd = decompose(g)
    lam = sd.eigenvalues.copy()
    rates = sd.rates
    assert rates[-1] == 0.0 and np.array_equal(rates[:-1], lam[:-1])
    assert sd.eigenvalues.tobytes() == lam.tobytes()


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
        heat_apply_columns(decompose(g), g, t, F)


def test_size_mismatch_rejected():
    sd = decompose(K2)
    with pytest.raises(ValueError):
        heat_apply(sd, K2, 1.0, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("propagator", PROPAGATORS)
def test_every_heat_entry_point_checks_sizes(propagator):
    g3, g4 = path_graph(3), path_graph(4)
    sd = propagator(g3)
    f3, f4 = np.array([1.0, 0.0, 2.0]), np.array([1.0, 0.0, 2.0, -1.0])
    calls = (
        # a 3-vertex propagator with a 4-vertex graph
        lambda: heat_apply(sd, g4, 0.5, f4),
        lambda: heat_curve(sd, g4, [0.5], f4),
        lambda: heat_apply_columns(sd, g4, 0.5, f4[:, None]),
        # a function of the wrong shape
        lambda: heat_apply(sd, g3, 0.5, f4),
        lambda: heat_apply(sd, g3, 0.5, np.outer(f3, f3)),
        lambda: heat_curve(sd, g3, [0.5, 1.0], np.outer(f3, f3)),
        lambda: heat_apply_columns(sd, g3, 0.5, f3),
        lambda: heat_apply_columns(sd, g3, 0.5, f4[:, None]),
    )
    for call in calls:
        with pytest.raises(ValueError, match="propagator/function size mismatch with graph"):
            call()
    # times that are not a 1-D array
    for ts in (0.5, [[0.5, 1.0]]):
        with pytest.raises(ValueError, match="1-D array of finite times"):
            heat_curve(sd, g3, ts, f3)
    # heat_apply_columns takes one time for all columns, not one per column
    with pytest.raises(ValueError, match="1-D array of finite times"):
        heat_apply_columns(sd, g3, [0.5, 1.0], np.outer(f3, f3)[:, :2])


def test_invariant_suite_random_graphs():
    for seed, propagator in itertools.product(range(10), PROPAGATORS):
        g = random_connected_graph(2600 + seed)
        check_semigroup_invariants(g, propagator(g), rng_for(37, seed))


def test_heat_curve_matches_heat_apply():
    g = random_connected_graph(2700)
    for propagator in PROPAGATORS:
        sd = propagator(g)
        rng = rng_for(38)
        f = rng.standard_normal(g.vertex_count)
        ts = np.array([0.0, 0.3, 1.7])
        Y = heat_curve(sd, g, ts, f)
        assert Y.shape == (g.vertex_count, 3)
        for j, t in enumerate(ts):
            assert np.allclose(Y[:, j], heat_apply(sd, g, t, f), atol=1e-13)


@pytest.mark.parametrize("propagator", PROPAGATORS)
def test_heat_apply_is_one_column_of_heat_curve(propagator):
    # bit for bit at t > 0, and f itself (a copy) at t = 0
    for seed in range(20):
        g = random_connected_graph(2750 + seed, max_vertices=20, self_loop_prob=0.5)
        sd = propagator(g)
        f = rng_for(41, seed).standard_normal(g.vertex_count)
        for t in (1e-3, 0.1, 1.0, 7.5):
            assert heat_apply(sd, g, t, f).tobytes() == heat_curve(sd, g, [t], f)[:, 0].tobytes()
        for t in (0.0, -0.0):
            out = heat_apply(sd, g, t, f)
            assert out.tobytes() == f.tobytes() and not np.shares_memory(out, f)


def test_heat_apply_columns_matches_heat_apply():
    # 4 columns share a Chebyshev term block, 70 take one each
    g = random_connected_graph(2800)
    for propagator, k in itertools.product(PROPAGATORS, (4, 70)):
        sd = propagator(g)
        rng = rng_for(39)
        F = rng.standard_normal((g.vertex_count, k))
        for t in (0.1, 0.5, 1.0, 2.5):
            Y = heat_apply_columns(sd, g, t, F)
            for j in range(F.shape[1]):
                assert np.allclose(Y[:, j], heat_apply(sd, g, t, F[:, j]), atol=1e-13)


def _log_uniform_measures(seed, decades):
    """A random_connected_graph whose measures are 10^u, u uniform in [0, decades)."""
    g = random_connected_graph(seed, max_vertices=20, self_loop_prob=0.5)
    m = 10.0 ** rng_for(40, seed).uniform(0.0, decades, g.vertex_count)
    return WeightedGraph(g.labels, m, dict(g.edges))


@pytest.mark.parametrize("graphs", [
    # the graphs of test_c03_solver_oracle_equivalence
    lambda: (random_connected_graph(seed) for seed in range(100)),
    lambda: (_log_uniform_measures(2900 + seed, 3.0) for seed in range(40)),
], ids=["c03", "log_uniform_measures"])
def test_propagators_agree(graphs):
    for i, g in enumerate(graphs()):
        dense, chebyshev = decompose(g), ChebyshevPropagator(g)
        f = rng_for(41, i).standard_normal(g.vertex_count)
        ts = np.array([0.01, 0.1, 1.0, 10.0])
        tol = 1e-12 * np.abs(f).max()
        assert np.abs(heat_curve(dense, g, ts, f) - heat_curve(chebyshev, g, ts, f)).max() <= tol
        for t in ts:
            assert np.abs(heat_apply(dense, g, t, f) - heat_apply(chebyshev, g, t, f)).max() <= tol
        # the gamma2 identity's time integral at K = -1, to 1e-12 of the
        # sides' scale e^{2t} max(f^2, Gamma(f)); t = 1 takes several term blocks
        for t in ts[:3]:
            scale = math.exp(2.0 * t) * max((f * f).max(), gamma(g, f).max())
            want, got = (_integrate_gamma2(g, sd, f[:, None], -1.0, t)[0]
                         for sd in (dense, chebyshev))
            assert np.abs(got - want).max() <= 1e-12 * scale


def test_chebyshev_degree_is_closed_form():
    from scipy.special import ive

    # the coefficients past the degree sum to below 1e-16
    for b in (0.0, 1e-3, 0.5, 7.0, 300.0, 5e4):
        m = _chebyshev_degree(b)
        assert 2.0 * ive(np.arange(m + 1, m + 2000), b).sum() <= 1e-16
    # no search: rho t = 1e160 returns at once, as a degree no one can run
    start = time.perf_counter()
    assert _chebyshev_degree(0.5e160) == math.inf
    assert _chebyshev_degree(math.inf) == math.inf
    assert time.perf_counter() - start < 0.01
    g = load_graph("vertex a 1\nvertex b 1\nvertex c 1\nedge a b 1e160\nedge b c 1e160\n")
    with pytest.raises(ValueError, match="Chebyshev expansion"):
        heat_apply(ChebyshevPropagator(g), g, 1.0, np.array([1.0, 0.0, 2.0]))


STIFF_C4 = "vertex a 1\nvertex b {}\nvertex c 1\nvertex d 1\n" \
    "edge a b 1\nedge b c 1\nedge c d 1\nedge d a 1\n"


def test_propagator_choice():
    dense = SpectralDecomposition
    # the stiff 4-cycles, full corpus: 58 functions at t = 1
    for m_b in (1.0, 1e-2, 1e-4, 1e-6):
        g = load_graph(STIFF_C4.format(m_b))
        for name in ("variance_identity", "gamma2_identity"):
            assert isinstance(_sweep_propagator(g, name, 0.0, None, [1.0], 58), dense)
    g = load_graph("vertex a 1\nvertex b 1\nvertex c 1\nedge a b 1e160\nedge b c 1e160\n")
    assert isinstance(_propagator_for(g, 1.0, 1), dense)
    # 160 vertices, the full corpus (2 nv + 51 functions) at two times, and
    # the witnesses alone at t = 1e-4: many unbatched applications
    g = random_connected_graph(2950, min_vertices=160, max_vertices=160, extra_edge_prob=5 / 160)
    assert isinstance(_sweep_propagator(g, "gradient_estimate", "auto", None, [0.05, 0.1], 371), dense)
    assert isinstance(_sweep_propagator(g, "gradient_estimate", 0.0, None, [1e-4], 160), dense)
    # 1000 vertices of degree at most 4: four integrals of about 60 nodes
    g = cycle_with_chords(1000, 0)
    for K in (-1.0, "auto"):
        assert isinstance(_sweep_propagator(g, "gamma2_identity", K, None, [0.05], 4),
                          ChebyshevPropagator)
    assert isinstance(_propagator_for(cycle_graph(5000), 1.0, 1), ChebyshevPropagator)

