import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcd.fixtures import complete_graph, path_graph, random_connected_graph
from graphcd.graph import WeightedGraph, ball2
from graphcd.operators import (
    gamma,
    gamma2,
    gamma2_many,
    gamma_many,
    laplacian,
    laplacian_many,
    form_table,
    local_forms,
    _gamma2_parts,
)
from conftest import (
    gamma_composition,
    green_identity_residual,
    laplacian_matrix,
    ref_gamma,
    ref_gamma2,
    ref_laplacian,
    rng_for,
)


K2 = complete_graph(2)
K3 = complete_graph(3)
P3 = path_graph(3)

finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def test_laplacian_examples():
    assert np.array_equal(laplacian(K2, [1.0, 0.0]), [-1.0, 1.0])
    assert np.array_equal(laplacian(P3, [0.0, 1.0, 0.0]), [1.0, -2.0, 1.0])
    g = random_connected_graph(3)
    assert np.array_equal(laplacian(g, np.full(g.vertex_count, 4.25)), np.zeros(g.vertex_count))


def test_gamma_examples():
    assert np.array_equal(gamma(K2, [1.0, 0.0]), [0.5, 0.5])
    assert np.array_equal(gamma(P3, [0.0, 1.0, 0.0]), [0.5, 1.0, 0.5])
    assert np.array_equal(gamma(P3, np.full(3, 2.0), [5.0, -1.0, 3.0]), np.zeros(3))


def test_gamma2_examples():
    assert np.allclose(gamma2(K2, [1.0, 0.0]), [1.0, 1.0], atol=1e-14)
    assert abs(gamma2(P3, [0.0, 1.0, 0.0])[0] - 7.0 / 4.0) < 1e-14
    assert np.array_equal(gamma2(P3, np.full(3, 3.0)), np.zeros(3))


def test_gamma2_p3_full_vector():
    got = gamma2(P3, [0.0, 1.0, 0.0])
    assert np.allclose(got, [7.0 / 4.0, 5.0 / 2.0, 7.0 / 4.0], atol=1e-14)


def test_dirichlet_examples():
    # the energy Q(f) = sum_x Gamma(f)(x) m(x)
    assert K2.m @ gamma(K2, [1.0, 0.0]) == 1.0
    assert P3.m @ gamma(P3, [0.0, 1.0, 0.0]) == 2.0
    assert P3.m @ gamma(P3, np.full(3, 9.0)) == 0.0


def test_dirichlet_equals_gamma_mass_and_green():
    # Q(f) = 1/2 sum_{x,y} mu_xy (f(y) - f(x))^2 = -sum_x f(x) Delta f(x) m(x)
    rng = rng_for(21)
    for i in range(50):
        g = random_connected_graph(400 + i)
        f = rng.standard_normal(g.vertex_count)
        q = g.m @ gamma(g, f)
        edges = sum(w * (f[v] - f[u]) ** 2 for (u, v), w in g.edges.items())
        assert abs(q - edges) <= 1e-12 * max(1.0, q)
        assert abs(q + np.sum(f * laplacian(g, f) * g.m)) <= 1e-10 * (1 + q)


def test_green_identity_residual_contract():
    rng = rng_for(22)
    for i in range(100):
        g = random_connected_graph(500 + i, max_vertices=10)
        f = rng.standard_normal(g.vertex_count)
        h = rng.standard_normal(g.vertex_count)
        r = green_identity_residual(g, f, h)
        assert r <= 1e-10 * (1 + np.linalg.norm(f) * np.linalg.norm(h))
    assert green_identity_residual(K2, [3.0, 3.0], [0.0, 1.0]) <= 1e-14
    assert green_identity_residual(K2, [1.0, 0.0], [0.0, 1.0]) <= 1e-14


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def test_agreement_with_reference_implementation():
    rng = rng_for(23)
    for i in range(30):
        g = random_connected_graph(600 + i, max_vertices=10)
        f = rng.standard_normal(g.vertex_count)
        h = rng.standard_normal(g.vertex_count)
        assert np.allclose(laplacian(g, f), ref_laplacian(g, f), atol=1e-12)
        assert np.allclose(gamma(g, f, h), ref_gamma(g, f, h), atol=1e-12)
        assert np.allclose(gamma2(g, f), ref_gamma2(g, f), atol=1e-11)


def test_two_route_gamma_agreement_500_instances():
    # local-sum route vs the product-rule route through the Laplacian
    rng = rng_for(24)
    for i in range(500):
        g = random_connected_graph(700 + i % 100, max_vertices=10)
        f = rng.standard_normal(g.vertex_count)
        h = rng.standard_normal(g.vertex_count)
        a = gamma(g, f, h)
        b = gamma_composition(g, f, h)
        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(a).max())


@settings(max_examples=60, deadline=None)
@given(st.lists(finite_floats, min_size=3, max_size=3), finite_floats)
def test_constant_invariance(vals, c):
    f = np.asarray(vals)
    fc = f + c
    scale = max(1.0, np.abs(f).max() + abs(c))
    assert np.abs(laplacian(P3, fc) - laplacian(P3, f)).max() <= 1e-12 * scale
    assert np.abs(gamma(P3, fc) - gamma(P3, f)).max() <= 1e-12 * scale**2
    assert np.abs(gamma2(P3, fc) - gamma2(P3, f)).max() <= 1e-12 * scale**2


@settings(max_examples=60, deadline=None)
@given(
    st.lists(finite_floats, min_size=3, max_size=3),
    st.lists(finite_floats, min_size=3, max_size=3),
    st.lists(finite_floats, min_size=3, max_size=3),
    finite_floats,
    finite_floats,
)
def test_gamma_symmetry_and_bilinearity(fv, gv, hv, a, b):
    f, g, h = (np.asarray(v) for v in (fv, gv, hv))
    scale = max(1.0, (abs(a) + abs(b)) * max(1.0, np.abs(f).max(), np.abs(g).max()) * max(1.0, np.abs(h).max()))
    assert np.array_equal(gamma(P3, f, h), gamma(P3, h, f))
    lhs = gamma(P3, a * f + b * g, h)
    rhs = a * gamma(P3, f, h) + b * gamma(P3, g, h)
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_gamma_nonnegative():
    rng = rng_for(25)
    for i in range(50):
        g = random_connected_graph(800 + i)
        f = rng.standard_normal(g.vertex_count)
        assert gamma(g, f).min() >= 0.0


def test_locality_exact():
    # Gamma at x sees only B1(x); Gamma2 only B2(x)
    g = path_graph(6)
    rng = rng_for(26)
    f = rng.standard_normal(6)
    x = 0
    ball = ball2(g, x)
    inside2 = {x} | set(ball.sphere1) | set(ball.sphere2)
    pert = f.copy()
    for y in range(6):
        if y not in inside2:
            pert[y] += rng.uniform(1.0, 3.0)
    assert gamma2(g, pert)[x] == gamma2(g, f)[x]
    inside1 = {x} | set(ball.sphere1)
    pert1 = f.copy()
    for y in range(6):
        if y not in inside1:
            pert1[y] += rng.uniform(1.0, 3.0)
    assert gamma(g, pert1)[x] == gamma(g, f)[x]
    assert laplacian(g, pert1)[x] == laplacian(g, f)[x]


def test_self_loop_inertness_exact():
    base = random_connected_graph(900, max_vertices=6)
    edges = dict(base.edges)
    edges[(0, 0)] = 17.5
    looped = WeightedGraph(base.labels, base.m, edges)
    rng = rng_for(27)
    for _ in range(10):
        f = rng.standard_normal(base.vertex_count)
        assert np.array_equal(laplacian(base, f), laplacian(looped, f))
        assert np.array_equal(gamma(base, f), gamma(looped, f))
        assert np.array_equal(gamma2(base, f), gamma2(looped, f))


def test_laplacian_matrix_invariants():
    for seed in range(20):
        g = random_connected_graph(1000 + seed)
        L = laplacian_matrix(g)
        nv = g.vertex_count
        # matrix action matches the operator
        rng = rng_for(28, seed)
        f = rng.standard_normal(nv)
        assert np.allclose(L @ f, laplacian(g, f), atol=1e-12 * max(1.0, np.abs(f).max()))
        # constants are annihilated exactly by the operator
        assert np.array_equal(laplacian(g, np.ones(nv)), np.zeros(nv))
        scale = np.abs(L).max()
        assert np.abs(L.sum(axis=1)).max() <= 1e-14 * max(1.0, scale)
        ML = g.m[:, None] * L
        assert np.abs(ML - ML.T).max() <= 1e-13 * max(1.0, np.abs(ML).max())
        # self-loops never reach the matrix
        for x in range(nv):
            assert L[x, x] <= 0.0


def test_batched_variants_match_single():
    g = random_connected_graph(1100, max_vertices=8)
    rng = rng_for(29)
    F = rng.standard_normal((g.vertex_count, 5))
    H = rng.standard_normal((g.vertex_count, 5))
    LF = laplacian_many(g, F)
    GF = gamma_many(g, F, H)
    G2 = gamma2_many(g, F)
    for j in range(5):
        assert np.allclose(LF[:, j], laplacian(g, F[:, j]), atol=1e-13)
        assert np.allclose(GF[:, j], gamma(g, F[:, j], H[:, j]), atol=1e-13)
        assert np.allclose(G2[:, j], gamma2(g, F[:, j]), atol=1e-12)


def test_gamma2_parts_bitwise_equal_to_composition():
    # Gamma2(F) - K Gamma(F) from one BF against the composition of the
    # column operators, signed zeros included (columns 0 and 1)
    loops = 0
    for seed in range(60):
        g = random_connected_graph(3100 + seed, max_vertices=20, self_loop_prob=0.5)
        loops += any(u == v for u, v in g.edges)
        F = rng_for(60, seed).standard_normal((g.vertex_count, 6))
        F[:, 0], F[:, 1], F[:, 2] = 0.0, -0.0, 3.0
        G2, G = _gamma2_parts(g, F)
        GF = gamma_many(g, F)
        assert G.tobytes() == GF.tobytes()
        assert gamma2_many(g, F).tobytes() == G2.tobytes()
        for K in (0.0, -1.0, 2.5):
            want = 0.5 * laplacian_many(g, GF) - gamma_many(g, F, laplacian_many(g, F)) - K * GF
            assert (G2 - K * G).tobytes() == want.tobytes()
    assert loops > 0


def test_single_function_operators_are_one_column_views():
    # laplacian, gamma and gamma2 run the block code on one column, so a
    # function gives the bytes it gives as a column, signed zeros included
    loops = 0
    for seed in range(40):
        g = random_connected_graph(3200 + seed, max_vertices=20, self_loop_prob=0.5)
        loops += any(u == v for u, v in g.edges)
        rng = rng_for(61, seed)
        for f in (rng.standard_normal(g.vertex_count), np.zeros(g.vertex_count),
                  np.full(g.vertex_count, -0.0), np.full(g.vertex_count, 3.0)):
            h = rng.standard_normal(g.vertex_count)
            col, hcol = f[:, None], h[:, None]
            assert gamma2(g, f).tobytes() == gamma2_many(g, col)[:, 0].tobytes()
            assert gamma(g, f).tobytes() == gamma_many(g, col)[:, 0].tobytes()
            assert gamma(g, f, h).tobytes() == gamma_many(g, col, hcol)[:, 0].tobytes()
            assert laplacian(g, f).tobytes() == laplacian_many(g, col)[:, 0].tobytes()
    assert loops > 0


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        laplacian(K2, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        gamma(K2, [1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        gamma2(K2, [1.0])
    with pytest.raises(ValueError):
        gamma(K2, [[1.0, 2.0]])
    for many in (laplacian_many, gamma_many, gamma2_many):
        with pytest.raises(ValueError, match="size mismatch with graph"):
            many(K2, np.ones((3, 2)))
        with pytest.raises(ValueError, match="size mismatch with graph"):
            many(K2, np.ones(2))


# ---------------------------------------------------------------------------
# local quadratic forms
# ---------------------------------------------------------------------------

def test_local_forms_k2():
    lf = local_forms(K2, 0)
    assert np.array_equal(lf.gamma_form, [[0.5]])
    assert np.array_equal(lf.delta_vector, [1.0])
    assert np.allclose(lf.gamma2_form, [[1.0]], atol=1e-14)


def test_local_forms_k3_quadratic_form():
    # Gamma2 form at a on coordinates (u, v) is (u-v)^2/2 + (5/4)(u^2+v^2)
    lf = local_forms(K3, 0)
    assert np.allclose(lf.gamma2_form, [[1.75, -0.5], [-0.5, 1.75]], atol=1e-14)
    rng = rng_for(30)
    for _ in range(20):
        u, v = rng.standard_normal(2)
        w = np.array([u, v])
        got = w @ lf.gamma2_form @ w
        want = 0.5 * (u - v) ** 2 + 1.25 * (u * u + v * v)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_local_forms_p3_endpoint():
    lf = local_forms(P3, 0)
    assert list(lf.ball.sphere1) == [1] and list(lf.ball.sphere2) == [2]
    assert np.allclose(lf.gamma2_form, [[1.75, -0.5], [-0.5, 0.25]], atol=1e-14)
    # sphere2 diagonal block is PSD (here a single nonnegative entry)
    assert lf.gamma2_form[1, 1] >= 0.0


def test_local_forms_b_diagonal_and_a22_psd():
    # Gamma and Delta on sphere1 are the exact quotients of the edge weights,
    # also where the weights span 300 decades
    graphs = [random_connected_graph(1200 + seed, max_vertices=10) for seed in range(30)]
    graphs += [_log_uniform_weights(seed) for seed in range(10)]
    for seed in range(10):
        g = random_connected_graph(1230 + seed, max_vertices=10, self_loop_prob=0.6)
        rng = rng_for(44, seed)
        edges = {e: float(10.0 ** rng.uniform(-150.0, 150.0)) for e in g.edges}
        graphs.append(WeightedGraph(g.labels, g.m, edges))
    for g in graphs:
        for x in range(g.vertex_count):
            lf = local_forms(g, x)
            B = lf.gamma_form
            k1 = len(lf.ball.sphere1)
            assert np.array_equal(B, np.diag(np.diag(B)))
            for j, y in enumerate(lf.ball.sphere1):
                w = g.edges[min(x, y), max(x, y)]
                assert B[j, j] == w / (2 * g.m[x])
                assert lf.delta_vector[j] == w / g.m[x]
            A22 = lf.gamma2_form[k1:, k1:]
            if A22.size:
                evs = np.linalg.eigvalsh(A22)
                assert evs.min() >= -1e-10 * max(1.0, np.abs(A22).max())


def test_local_forms_match_pointwise_operators():
    # 200 random pinned functions: form evaluation == operator value
    rng = rng_for(31)
    for trial in range(200):
        g = random_connected_graph(1300 + trial % 40, max_vertices=9)
        x = int(rng.integers(0, g.vertex_count))
        lf = local_forms(g, x)
        coords = list(lf.ball.sphere1) + list(lf.ball.sphere2)
        f = np.zeros(g.vertex_count)
        vals = rng.standard_normal(len(coords))
        f[coords] = vals
        # f(x) pinned to zero; entries outside B2 are irrelevant by locality
        g1 = gamma(g, f)[x]
        g2 = gamma2(g, f)[x]
        lap = laplacian(g, f)[x]
        k1 = len(lf.ball.sphere1)
        v1 = vals[:k1]
        assert abs(v1 @ lf.gamma_form @ v1 - g1) <= 1e-10 * max(1.0, abs(g1))
        assert abs(vals @ lf.gamma2_form @ vals - g2) <= 1e-10 * max(1.0, abs(g2))
        assert abs(v1 @ lf.delta_vector - lap) <= 1e-10 * max(1.0, abs(lap))


def _log_uniform_weights(seed):
    """A random_connected_graph with weights 10^U(-8, 8) and measures 10^U(-4, 4)."""
    g = random_connected_graph(2230 + seed, max_vertices=12, self_loop_prob=0.6)
    rng = rng_for(43, seed)
    edges = {e: float(10.0 ** rng.uniform(-8.0, 8.0)) for e in g.edges}
    return WeightedGraph(g.labels, 10.0 ** rng.uniform(-4.0, 4.0, g.vertex_count), edges)


def test_form_table_holds_the_sphere1_rows_and_the_sphere2_diagonal():
    for seed in range(10):
        g = random_connected_graph(2300 + seed, max_vertices=12, self_loop_prob=0.6)
        table = form_table(g, np.arange(g.vertex_count))
        balls = [ball2(g, x) for x in range(g.vertex_count)]
        k1 = np.array([len(b.sphere1) for b in balls])
        k2 = np.array([len(b.sphere2) for b in balls])
        assert table.forms.size == int((k1 * (k1 + k2) + k2).sum())
        for grp in table.groups():
            assert grp.rows.shape == (len(grp.centers), grp.k1, grp.k1 + grp.k2)
            assert grp.a22.shape == (len(grp.centers), grp.k2)
            assert grp.rows.base is table.forms or grp.rows.size == 0
            assert grp.a22.base is table.forms or grp.a22.size == 0


def test_form_table_balls_match_ball2():
    # the curvature solver relies on the sphere2 block being an exact positive diagonal
    graphs = [random_connected_graph(2200 + seed, max_vertices=12, self_loop_prob=0.6)
              for seed in range(30)] + [_log_uniform_weights(seed) for seed in range(10)]
    loops = 0
    for g in graphs:
        loops += any(u == v for u, v in g.edges)
        seen = []
        for grp in form_table(g, np.arange(g.vertex_count)).groups():
            assert (grp.a22 > 0.0).all()
            for x, ids, a22 in zip(grp.centers.tolist(), grp.ids.tolist(), grp.a22):
                ball = ball2(g, x)
                assert (len(ball.sphere1), len(ball.sphere2)) == (grp.k1, grp.k2)
                assert ids == list(ball.sphere1 + ball.sphere2)
                block = local_forms(g, x).gamma2_form[grp.k1:, grp.k1:]
                assert np.array_equal(block, np.diag(a22))
                seen.append(x)
        assert sorted(seen) == list(range(g.vertex_count))
    assert loops > 0
