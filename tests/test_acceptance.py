"""End-to-end acceptance checks.

Each test pins one promised behavior of the package at its stated
tolerance: exact curvature values on the two smallest complete graphs,
solver/oracle agreement at scale, the integral identities, soundness and
sharpness of every semigroup bound over the fixture corpus, the
semigroup invariant suite, the Green residual contract, and byte-level
determinism of CLI reports.
"""

import math
import time

import numpy as np
import pytest

from graphcd.cli import main as cli_main
from graphcd.curvature import curvature_all, curvature_at, curvature_oracle
from graphcd.fixtures import complete_graph, fixture_graphs, random_connected_graph
from graphcd.operators import green_identity_residual
from graphcd.semigroup import decompose
from graphcd.verify import (
    QuadratureSpec,
    cdn_bound,
    gamma2_identity_residual,
    gradient_estimate,
    function_corpus,
    variance_bound,
    variance_identity_residual,
)

from conftest import check_semigroup_invariants


GRID_T = (0.01, 0.1, 0.5, 1.0, 2.0)
SHARP_T = np.geomspace(1e-4, 1.0, 25)


def _min_kappa(g, n):
    return min(r.kappa for r in curvature_all(g, n))


def _witness_corpus(g, n):
    return function_corpus(
        g,
        dimension=n,
        random_count=0,
        include_constant=False,
        include_indicators=False,
    )


def test_c01_k2_exact_curvature():
    start = time.perf_counter()
    g = complete_graph(2)
    for x in range(2):
        assert abs(curvature_at(g, x, math.inf).kappa - 2.0) <= 1e-9
        assert abs(curvature_oracle(g, x, math.inf) - 2.0) <= 1e-9
        for n in (1.0, 2.0, 5.0, 100.0):
            want = 2.0 - 2.0 / n
            assert abs(curvature_at(g, x, n).kappa - want) <= 1e-9
            assert abs(curvature_oracle(g, x, n) - want) <= 1e-9
    assert time.perf_counter() - start < 1.0


def test_c02_k3_exact_curvature():
    g = complete_graph(3)
    for x in range(3):
        assert abs(curvature_at(g, x, math.inf).kappa - 2.5) <= 1e-9
        assert abs(curvature_oracle(g, x, math.inf) - 2.5) <= 1e-9
        for n in (1.0, 2.0, 5.0, 100.0):
            want = min(2.5 - 4.0 / n, 4.5)
            assert abs(curvature_at(g, x, n).kappa - want) <= 1e-9
            assert abs(curvature_oracle(g, x, n) - want) <= 1e-9


def test_c03_solver_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        g = random_connected_graph(seed)
        for n in (2.0, math.inf):
            for x in range(g.vertex_count):
                gap = abs(curvature_at(g, x, n).kappa - curvature_oracle(g, x, n))
                worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6, f"solver/oracle gap {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_c04_exact_identities():
    start = time.perf_counter()
    worst_var = 0.0
    worst_g2 = 0.0
    for seed in range(20):
        g = random_connected_graph(
            seed,
            min_vertices=4,
            max_vertices=10,
            weight_range=(0.2, 1.0),
            measure_range=(1.0, 3.0),
        )
        sd = decompose(g)
        rng = np.random.default_rng([2026, seed])
        funcs = [rng.standard_normal(g.vertex_count) for _ in range(10)]
        for t in (0.1, 1.0, 5.0):
            quad = QuadratureSpec(panels=2048 if t > 1 else 512)
            for f in funcs:
                res, _ = variance_identity_residual(g, sd, f, t, quad)
                worst_var = max(worst_var, float(np.max(res)))
                # the gamma2 identity is scale-free; small f keeps the
                # e^{-2Kt} amplification at K=-2, t=5 inside tolerance
                fs = f * 1e-3
                for K in (-2.0, 0.0, 1.3):
                    res, _ = gamma2_identity_residual(g, sd, fs, K, t, quad)
                    worst_g2 = max(worst_g2, float(np.max(res)))
    elapsed = time.perf_counter() - start
    assert worst_var <= 1e-6, f"variance identity residual {worst_var:.3e}"
    assert worst_g2 <= 1e-6, f"gamma2 identity residual {worst_g2:.3e}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_c05_gradient_soundness_and_sharpness(fixtures):
    for name, g in fixtures.items():
        sd = decompose(g)
        kmin = _min_kappa(g, math.inf)
        worst = 0.0
        for _, f in function_corpus(g):
            for t in GRID_T:
                worst = min(worst, float(np.min(gradient_estimate(g, sd, f, kmin, t))))
        assert worst >= -1e-9, f"{name}: gradient slack {worst:.3e} at K={kmin}"

        violated = any(
            float(np.min(gradient_estimate(g, sd, f, kmin + 0.1, t))) < -1e-9
            for _, f in _witness_corpus(g, math.inf)
            for t in SHARP_T
        )
        assert violated, f"{name}: no violation found at K={kmin}+0.1"


def test_c06_variance_soundness(fixtures):
    for name, g in fixtures.items():
        sd = decompose(g)
        K = min(0.0, _min_kappa(g, math.inf))
        worst = 0.0
        for _, f in function_corpus(g):
            for t in GRID_T:
                worst = min(worst, float(np.min(variance_bound(g, sd, f, K, t))))
        assert worst >= -1e-9, f"{name}: variance slack {worst:.3e} at K={K}"


def test_c07_cdn_soundness_and_sharpness(fixtures):
    quad = QuadratureSpec(panels=512)
    for name, g in fixtures.items():
        sd = decompose(g)
        for n in (2.0, 5.0):
            K = _min_kappa(g, n)
            for fid, f in function_corpus(g, dimension=n):
                for t in (0.1, 0.5, 1.0):
                    slack, err = cdn_bound(g, sd, f, K, n, t, quad)
                    tol = max(1e-8, 2.0 * float(np.max(err)))
                    assert float(np.min(slack)) >= -tol, (
                        f"{name} n={n} f={fid} t={t}: slack {np.min(slack):.3e}"
                    )

            violated = False
            for _, f in _witness_corpus(g, n):
                for t in SHARP_T:
                    slack, err = cdn_bound(g, sd, f, K + 0.1, n, t, quad)
                    if float(np.min(slack)) < -max(1e-8, 2.0 * float(np.max(err))):
                        violated = True
                        break
                if violated:
                    break
            assert violated, f"{name} n={n}: no violation found at K={K}+0.1"


def test_c08_k2_equality_cases():
    g = complete_graph(2)
    sd = decompose(g)
    f = np.array([1.0, 0.0])
    for t in (0.1, 0.5, 1.0, 2.0):
        assert float(np.max(np.abs(gradient_estimate(g, sd, f, 2.0, t)))) <= 1e-9
        assert float(np.max(np.abs(variance_bound(g, sd, f, 2.0, t)))) <= 1e-9


def test_c09_semigroup_invariant_suite(fixtures):
    for name, g in fixtures.items():
        sd = decompose(g)
        rng = np.random.default_rng([9090, g.vertex_count])
        check_semigroup_invariants(g, sd, rng)


def test_c10_green_residual_contract():
    for seed in range(500):
        g = random_connected_graph(seed, max_vertices=9)
        rng = np.random.default_rng([10101, seed])
        f = rng.standard_normal(g.vertex_count) * rng.uniform(0.1, 100.0)
        h = rng.standard_normal(g.vertex_count) * rng.uniform(0.1, 100.0)
        bound = 1e-10 * (1.0 + np.linalg.norm(f) * np.linalg.norm(h))
        assert green_identity_residual(g, f, h) <= bound


def test_c11_deterministic_reports(tmp_path):
    graph_path = tmp_path / "g.graph"
    graph_path.write_text("vertex a 1\nvertex b 2\nvertex c 1\nedge a b 1\nedge b c 0.5\n")
    out = []
    for tag in ("one", "two"):
        path = tmp_path / f"{tag}.json"
        code = cli_main([
            "verify", "--graph", str(graph_path),
            "--inequality", "gradient", "--K", "auto",
            "--times", "0.1,0.5,2", "--functions", "random:11:6",
            "--output", str(path),
        ])
        assert code == 0
        out.append(path.read_bytes())
    assert out[0] == out[1]
