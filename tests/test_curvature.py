import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import graphcd.curvature as curvature
from graphcd.curvature import (
    CurvatureInternalError,
    IsolatedVertexError,
    _center_blocks,
    _solve,
    curvature_all,
    curvature_at,
    min_curvature,
)
from graphcd.fixtures import complete_graph, path_graph, random_connected_graph, star_graph
from graphcd.graph import WeightedGraph, ball2, load_graph
from graphcd.operators import form_table, gamma, gamma2, laplacian
from conftest import certified, certify, exact_forms, exact_operators, rng_for


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
    assert all(certified(P3, x, INF) for x in range(3))


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
    # the exact certificate of conftest is the oracle
    for seed in range(15):
        g = random_connected_graph(1600 + seed)
        for n in (2.0, INF):
            for x in range(g.vertex_count):
                assert certified(g, x, n), (seed, x, n)


def test_certificate_rejects_a_wrong_minimum():
    rejected = {"shifted": [], "not a minimizer": [], "over sphere1 alone": []}
    for seed in range(5):
        g = random_connected_graph(1600 + seed)
        for n in (2.0, INF):
            for x in range(g.vertex_count):
                r = curvature_at(g, x, n)
                wrong = []  # (kind, kappa, witness), none of them kappa(x; n)
                # kappa shifted by a relative 1e-6: shifted down the witness does
                # not attain it, shifted up some function undercuts it
                for rel in (1e-6, -1e-6):
                    wrong.append(("shifted", r.kappa + rel * max(1.0, abs(r.kappa)), r.witness))
                w = r.witness.copy()
                w[list(ball2(g, x).sphere2)] = 0.0
                if not np.array_equal(w, r.witness):
                    wrong.append(("not a minimizer", r.kappa, w))
                # the minimum over sphere1 alone, with its witness, where a
                # function reaching into sphere2 undercuts it: the certificate
                # takes its ball from the graph, not from the witness
                coords, A, B, d = exact_forms(g, x)
                k1 = len(ball2(g, x).sphere1)
                A, B, d = (np.array(a, dtype=float) for a in (A, B, d))
                M = A if math.isinf(n) else A - np.outer(d, d) / n
                lam, V = scipy.linalg.eigh(M[:k1, :k1], B[:k1, :k1])
                if lam[0] - r.kappa > 1e-6 * max(1.0, abs(lam[0])):
                    w = np.zeros(g.vertex_count)
                    w[coords[:k1]] = V[:, 0]
                    wrong.append(("over sphere1 alone", lam[0], w))
                for kind, kappa, w in wrong:
                    delta = 1e-9 * max(1.0, abs(kappa))
                    rejected[kind].append(not certify(g, x, n, kappa, w, delta))
    assert all(len(r) > 10 and all(r) for r in rejected.values()), rejected


def test_curvature_all_solves_once_per_graph_and_dimension():
    g = random_connected_graph(1800)
    a, b = curvature_all(g, INF), curvature_all(g, INF)
    assert a is b and all(x is y for x, y in zip(a, b))
    assert not any(r.witness.flags.writeable for r in a)
    n2 = curvature_all(g, 2.0)
    assert [r.dimension for r in n2] == [2.0] * g.vertex_count
    assert all(r.kappa == curvature_at(g, r.vertex, 2.0).kappa for r in n2)


def test_solve_stacks_one_eigh_per_sphere1_size(monkeypatch):
    # the (k1, k2) groups of one k1 are one run of the form table, and
    # their pencils go to one eigh call, a (centers, k1, k1) stack
    g = random_connected_graph(3996, min_vertices=30, max_vertices=30, extra_edge_prob=0.1)
    groups = [(grp.k1, len(grp.centers)) for grp in form_table(g, np.arange(30)).groups()]
    runs = {k1: sum(n for k, n in groups if k == k1) for k1, _ in groups}
    assert len(groups) >= 2 * len(runs)
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: (shapes.append(M.shape), eigh(M))[1])
    _solve(g, 2.0)
    assert shapes == [(n, k1, k1) for k1, n in runs.items()]


def _degree_and_walks(g):
    """Each vertex's degree and 2-walk count x -> y -> w, from its 2-ball."""
    degree = [len(ball2(g, x).sphere1) for x in range(g.vertex_count)]
    return degree, [sum(degree[y] for y in ball2(g, x).sphere1) for x in range(g.vertex_count)]


def _center_costs(g):
    """Each center's block cost: its form table's bytes, a row of k1 + k2
    floats per sphere1 entry and k2 floats and k1 + k2 ids more, with k2
    bounded by the 2-walks that do not return to it and by the vertices
    outside its sphere1; and _WALK_BYTES per 2-walk."""
    degree, walks = _degree_and_walks(g)
    costs = []
    for k1, w in zip(degree, walks):
        k = k1 + min(w - k1, g.vertex_count - 1 - k1)
        costs.append(8 * (k1 * k + k - k1 + k) + curvature._WALK_BYTES * w)
    return costs


def _budget(monkeypatch, cost):
    """Blocks of centers of at most the given cost each (one center at least)."""
    monkeypatch.setattr(curvature, "_BLOCK_BYTES", cost)


def test_center_blocks_cut_the_degree_and_walk_order_by_the_budget(monkeypatch):
    g = random_connected_graph(3996, min_vertices=30, max_vertices=30, extra_edge_prob=0.1)
    degree, walks = _degree_and_walks(g)
    costs = _center_costs(g)
    order = sorted(range(30), key=lambda x: (degree[x], walks[x], x))
    for budget in (0, max(costs), sum(costs) // 3, sum(costs)):
        _budget(monkeypatch, budget)
        blocks, rank, _ = _center_blocks(g)
        assert [x for b in blocks for x in b.tolist()] == order, budget
        assert rank[order].tolist() == list(range(30))
        cost = [sum(costs[x] for x in b) for b in blocks]
        assert all(len(b) == 1 or c <= budget for b, c in zip(blocks, cost)), budget
        # each block is cut where the next center would not fit
        assert all(c + costs[b[0]] > budget for c, b in zip(cost, blocks[1:])), budget
    assert len(_center_blocks(g)[0]) == 1
    _budget(monkeypatch, 0)
    assert len(_center_blocks(g)[0]) == 30


def _sparse_graph(seed, nv, max_degree, mean_degree):
    """A random cycle through every vertex plus random edges up to the mean
    degree, no vertex above max_degree; weights and measures in [0.5, 2]."""
    rng = rng_for(77, seed)
    order = rng.permutation(nv).tolist()
    degree, edges = [0] * nv, {}
    pairs = [(order[i], order[(i + 1) % nv]) for i in range(nv)]
    while len(edges) < nv * mean_degree // 2:
        u, v = pairs.pop(0) if pairs else rng.integers(0, nv, 2).tolist()
        key = (min(u, v), max(u, v))
        if u != v and key not in edges and max(degree[u], degree[v]) < max_degree:
            edges[key] = float(rng.uniform(0.5, 2.0))
            degree[u] += 1
            degree[v] += 1
    return WeightedGraph([f"v{i}" for i in range(nv)], rng.uniform(0.5, 2.0, nv), edges)


def test_form_tables_stay_within_the_block_budget():
    # tracemalloc's peak while each block's table is built, the table
    # included, on sparse graphs of several degrees and on K60
    graphs = [_sparse_graph(seed, nv, d, mean) for seed in range(2)
              for nv, d, mean in ((2048, 6, 5), (1000, 9, 7), (600, 20, 14))]
    for g in graphs + [complete_graph(60)]:
        blocks, _, _ = _center_blocks(g)
        assert len(blocks) > 1
        for centers in blocks:
            tracemalloc.start()
            try:
                table = form_table(g, centers)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            del table
            assert peak <= curvature._BLOCK_BYTES, (g.vertex_count, len(centers), peak)


def test_curvature_all_keeps_one_copy_of_its_witness_columns(monkeypatch):
    # each block's ball coordinates and witness values are written in place
    # into columns sized by _center_blocks' bound: here the traced peak is
    # about 1.2 times the columns' bytes, and a second copy of them (such
    # as a join of per-block arrays) puts it at about 2.1 times
    _budget(monkeypatch, 2**18)
    g = _sparse_graph(0, 6000, 6, 5)
    assert len(_center_blocks(g)[0]) > 50
    tracemalloc.start()
    try:
        columns = curvature_all(g, INF)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = columns.support.nbytes + columns.values.nbytes
    assert peak <= 1.5 * kept + 2 * curvature._BLOCK_BYTES, (peak, kept)


def test_solve_stacks_one_eigh_per_block_and_sphere1_size(monkeypatch):
    # blocked, each (block, k1) run of the blocks' form tables is one eigh call
    g = random_connected_graph(3996, min_vertices=30, max_vertices=30, extra_edge_prob=0.1)
    degree, _ = _degree_and_walks(g)
    _budget(monkeypatch, sum(_center_costs(g)) // 4)
    blocks, _, _ = _center_blocks(g)
    want = []
    for b in blocks:
        k1s = [degree[x] for x in b]
        want += [(k1s.count(k1), k1, k1) for k1 in sorted(set(k1s))]
    assert len(blocks) >= 4 and len(want) > len(set(degree))  # a k1 spans two blocks
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: (shapes.append(M.shape), eigh(M))[1])
    _solve(g, 2.0)
    assert shapes == want


def test_blocks_change_no_bit(monkeypatch):
    # kappa, support (in order) and values at every vertex are bitwise those
    # of one block, under every budget from one center per block up: the
    # test_c03 graphs, graphs with self-loops and the wide-weight graph
    rng = rng_for(31)
    graphs = [random_connected_graph(seed) for seed in range(100)]
    for seed in range(20):
        base = random_connected_graph(5100 + seed, max_vertices=12, self_loop_prob=0)
        at = rng.choice(base.vertex_count, size=-(-base.vertex_count // 3), replace=False)
        loops = {(x, x): float(rng.uniform(0.2, 5.0)) for x in at.tolist()}
        graphs.append(WeightedGraph(base.labels, base.m, {**base.edges, **loops}))
    graphs.append(WeightedGraph(list("abcdefgh"), WIDE_M, WIDE_EDGES))
    for i, g in enumerate(graphs):
        total = sum(_center_costs(g))
        budgets = [0, *rng.integers(1, total, 2).tolist()]
        for n in (INF, 2.0):
            _budget(monkeypatch, total)
            want = _solve(g, n)
            for budget in budgets:
                _budget(monkeypatch, budget)
                got = _solve(g, n)
                for x in range(g.vertex_count):
                    s, t = got.ball(x), want.ball(x)
                    assert got.kappa[x].tobytes() == want.kappa[x].tobytes(), (i, n, budget, x)
                    assert got.support[s].tolist() == want.support[t].tolist(), (i, n, budget, x)
                    assert got.values[s].tobytes() == want.values[t].tobytes(), (i, n, budget, x)


@pytest.mark.parametrize("entry, error, message", [
    (-1.0, CurvatureInternalError, "not PSD at 'v'"),
    (0.0, ValueError, "Gamma2 form underflows at 'v'"),
])
def test_sphere2_failure_names_the_first_in_degree_and_walk_order(monkeypatch, entry, error,
                                                                   message):
    # u and v have degree 2.  u: 6 2-walks, sphere2 {r}; v: 5 2-walks,
    # sphere2 {a, b, c}.  v comes first in (degree, 2-walk count, id) order,
    # u in (k1, k2, id) order; v is named whatever the blocks
    labels = ["u", "p", "q", "r", "v", "s", "t", "a", "b", "c"]
    pairs = ["up", "uq", "pq", "pr", "qr", "ra", "vs", "vt", "sa", "sb", "tc"]
    ids = {x: i for i, x in enumerate(labels)}
    g = WeightedGraph(labels, [1.0] * 10, {(ids[a], ids[b]): 1.0 for a, b in pairs})
    degree, walks = _degree_and_walks(g)
    assert degree[0] == degree[4] == 2 and walks[4] < walks[0]
    build = curvature.form_table

    def failing(g, centers):
        table = build(g, centers)
        for grp in table.groups():
            grp.a22[np.isin(grp.centers, [0, 4]), -1] = entry
        return table

    monkeypatch.setattr(curvature, "form_table", failing)
    for budget in (0, sum(_center_costs(g))):
        _budget(monkeypatch, budget)
        with pytest.raises(error, match=message):
            _solve(g, INF)


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
                grp.a22[:, -1] = -1.0
        return table

    monkeypatch.setattr(curvature, "form_table", indefinite)
    g = path_graph(3)
    with pytest.raises(CurvatureInternalError, match="not PSD at 'a'"):
        curvature_all(g, INF)


# ROADMAP item 13's wide(62): random_connected_graph(1062, 4, 8) with its
# weights redrawn as 10^U(-8, 8) and its measures as 10^U(-4, 4).  At d,
# three of the five sphere2 diagonal entries are 8.6e-24, 3.6e-17 and
# 7.4e-26 of the largest; a 1e-12 cutoff that dropped them gave
# kappa(d; inf) = -0.3692.
WIDE_M = [0.0010451823772606294, 4257.932633830629, 23.995200216835606, 6967.173232036773,
          3003.640371158203, 0.0004800777000246148, 6.720252013105728, 0.7910078234602713]
WIDE_EDGES = {
    (0, 1): 5.507843575793399e-05, (0, 2): 115.59768583221282, (0, 6): 5209.078673928144,
    (1, 2): 230.77970401455715, (1, 3): 1.4293920861726104e-07, (1, 4): 9.75761207366972e-08,
    (1, 6): 3.7005393221623356e-05, (1, 7): 4.7313565956711e-07, (2, 7): 0.5695312891196259,
    (3, 5): 6277.05233725287, (4, 5): 16.49582123373117, (4, 7): 3124666.0853871126,
    (5, 6): 0.7023438410422868, (6, 7): 0.1542664424905758,
}
# a witness at d without the cutoff; its exact quotient is -0.4775733581080174
WIDE_WITNESS = [624449.9157333509, 312224.95786667545, 624449.915733351, 0.0,
                -6.538131925355694e-13, -3.269066010096104e-13, -6.537287283756216e-13,
                624449.9157333509]


def exact_quotient(g, f, x):
    """Gamma2(f)(x) / Gamma(f)(x) in exact rational arithmetic on the float
    inputs, from the operator definitions."""
    f = [Fraction(float(v)) for v in f]
    _, lap, gam = exact_operators(g)
    G = [gam(f, f, z) for z in range(g.vertex_count)]
    L = [lap(f, z) for z in range(g.vertex_count)]
    return (lap(G, x) / 2 - gam(f, L, x)) / G[x]


def test_kappa_is_at_most_the_exact_quotient_of_a_witness():
    # kappa is an infimum, so no function's exact quotient lies below it
    g = WeightedGraph(list("abcdefgh"), WIDE_M, WIDE_EDGES)
    r = curvature_at(g, 3, INF)
    slack = 1e-10 * max(1.0, abs(r.kappa))
    assert r.kappa <= exact_quotient(g, WIDE_WITNESS, 3) + slack
    assert r.kappa <= exact_quotient(g, r.witness, 3) + slack


@pytest.mark.parametrize("weight", [1e-160, 1e-170])
def test_underflowing_sphere2_entry_raises(weight):
    # a22 at a is weight^2 / 4: 2.5e-321, whose inverse overflows, or 0
    g = WeightedGraph(["a", "b", "c"], [1.0, 1.0, 1.0], {(0, 1): weight, (1, 2): weight})
    with pytest.raises(ValueError, match="Gamma2 form underflows at 'a'"):
        curvature_all(g, INF)


def test_kappa_out_of_float_range_raises():
    # 1/n overflows the pencil at every vertex: no kappa is handed out, and
    # no RuntimeWarning is raised on the way (pytest makes it an error)
    g = path_graph(3)
    for call in (lambda: curvature_at(g, 1, 6e-309), lambda: curvature_all(g, 6e-309),
                 lambda: min_curvature(g, 6e-309)):
        with pytest.raises(ValueError, match="kappa at vertex 'a' not finite: -inf"):
            call()


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


def test_self_loop_does_not_change_curvature():
    # loops of weight U(0.2, 5) at a third of the vertices: kappa and the
    # witnesses are bitwise those of the graph without them
    for seed in range(300):
        base = random_connected_graph(5000 + seed, max_vertices=12, self_loop_prob=0)
        nv = base.vertex_count
        rng = rng_for(5000, seed)
        at = rng.choice(nv, size=-(-nv // 3), replace=False).tolist()
        loops = dict(zip(zip(at, at), rng.uniform(0.2, 5.0, len(at)).tolist()))
        looped = WeightedGraph(base.labels, base.m, {**base.edges, **loops})
        for n in (INF, 2.0):
            got, want = curvature_all(looped, n), curvature_all(base, n)
            for name in ("kappa", "support", "values"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (seed, n)
