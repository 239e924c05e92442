"""The benchmark's workloads: seeded inputs, CLI jobs and output checks.

Each workload writes its graph from a seed, lists the `graphcd` CLI jobs
of one pass with the exit code each must return, and checks the reports
of a pass against `reference` (which shares no code with graphcd).  A
check raises `CheckError`; on success it returns the agreement with the
reference in digits (see `reference.digits`).
"""

from __future__ import annotations

import csv
import json
import math
import os
import zlib

import numpy as np

import reference as ref

CHECK_DIGITS = 9.0         # every compared value agrees to this many digits
PLAIN_TOLERANCE = 1e-9     # the verify CLI's tolerance for the gradient estimate


class CheckError(AssertionError):
    """A report disagrees with the reference or breaks a property."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


def random_graph(rng, nv, max_degree, mean_degree, lo=0.5, hi=2.0):
    """Connected graph: a random Hamiltonian cycle plus random extra edges,
    no vertex above max_degree; weights and measures uniform in [lo, hi]."""
    perm = rng.permutation(nv)
    deg = np.zeros(nv, dtype=np.int64)
    edges = {}

    def add(u, v):
        key = (min(u, v), max(u, v))
        if u == v or key in edges or deg[u] >= max_degree or deg[v] >= max_degree:
            return False
        edges[key] = float(rng.uniform(lo, hi))
        deg[u] += 1
        deg[v] += 1
        return True

    for i in range(nv):
        add(int(perm[i]), int(perm[(i + 1) % nv]))
    target = int(nv * mean_degree / 2)
    while len(edges) < target:
        u, v = rng.integers(0, nv, 2)
        add(int(u), int(v))
    keys = sorted(edges)
    eu = np.array([u for u, _ in keys])
    ev = np.array([v for _, v in keys])
    mu = np.array([edges[k] for k in keys])
    m = rng.uniform(lo, hi, nv)
    return ref.Graph(eu, ev, mu, m)


def graph_text(G):
    lines = [f"vertex v{i} {float(x)!r}" for i, x in enumerate(G.m)]
    lines += [f"edge v{u} v{v} {float(w)!r}" for u, v, w in zip(G.eu, G.ev, G.mu)]
    return "\n".join(lines) + "\n"


def vertex_id(label):
    return int(label[1:])


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def finite(x):
    return isinstance(x, float) and math.isfinite(x)


class Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([zlib.crc32(self.name.encode()), seed])
        self.jobs = []       # (argv, expected exit code, files the job writes)
        self.make_up = {}    # facts about the inputs, for the README

    def path(self, name):
        return os.path.join(self.workdir, name)

    def write_graph(self, G):
        p = self.path("g.graph")
        with open(p, "w") as fh:
            fh.write(graph_text(G))
        degree = np.bincount(np.concatenate([G.eu, G.ev]), minlength=G.nv)
        self.make_up.update(
            vertices=G.nv, edges=len(G.mu), max_degree=int(degree.max()),
            mean_degree=round(float(degree.mean()), 3),
            weight_range=[round(float(G.mu.min()), 4), round(float(G.mu.max()), 4)],
            measure_range=[round(float(G.m.min()), 4), round(float(G.m.max()), 4)],
        )
        return p

    def check(self):
        raise NotImplementedError


def _verify_records(report, times, functions):
    """Arrays of the records, indexed by (time, vertex, function) position."""
    recs = report["records"]
    fcol = {fid: j for j, fid in enumerate(functions)}
    tidx = {t: i for i, t in enumerate(times)}
    nv_f = len(functions)
    try:
        ti = np.array([tidx[r["t"]] for r in recs])
        vi = np.array([vertex_id(r["vertex"]) for r in recs])
        fi = np.array([fcol[r["function"]] for r in recs])
    except KeyError as exc:
        raise CheckError(f"record with unexpected key {exc}") from None
    vals = {k: np.array([r[k] for r in recs], dtype=object) for k in ("lhs", "rhs", "slack")}
    for k, arr in vals.items():
        require(all(finite(x) for x in arr), f"non-finite {k} in a record")
        vals[k] = arr.astype(np.float64)
    flat = (ti * (vi.max() + 1) + vi) * nv_f + fi
    require(len(np.unique(flat)) == len(recs), "a (function, t, vertex) record repeats")
    return ti, vi, fi, vals


def _compare(ti, vi, fi, vals, refs, scale):
    """Minimum digits of each field in refs (lhs, rhs, slack) against the
    reference arrays refs[k][t_index] of shape (nv, functions), relative
    to scale[t_index, function]."""
    worst = 16.0
    s = scale[ti, fi]
    for k in refs:
        r = np.array([refs[k][t] for t in range(len(refs[k]))])[ti, vi, fi]
        rel = np.abs(vals[k] - r) / s
        worst = min(worst, -math.log10(max(float(rel.max()), 1e-16)))
    return worst


def _check_csv(path, report):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows[0] == ["function", "t", "vertex", "lhs", "rhs", "slack"], "bad CSV header")
    recs = report["records"]
    require(len(rows) - 1 == len(recs), "CSV and JSON record counts differ")
    for row, r in zip(rows[1:], recs):
        require(
            row[0] == r["function"] and row[2] == r["vertex"]
            and float(row[1]) == r["t"] and float(row[3]) == r["lhs"]
            and float(row[4]) == r["rhs"] and float(row[5]) == r["slack"],
            f"CSV row {row[:3]} differs from the JSON record",
        )


# ---------------------------------------------------------------------------
# curvature-sparse
# ---------------------------------------------------------------------------

class CurvatureSparse(Workload):
    name = "curvature-sparse"
    NV, MAX_DEGREE, MEAN_DEGREE, SAMPLE = 2048, 6, 5.0, 64

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.G = random_graph(self.rng, self.NV, self.MAX_DEGREE, self.MEAN_DEGREE)
        g = self.write_graph(self.G)
        self.csv_out, self.json_out = self.path("kappa_inf.csv"), self.path("kappa_2.json")
        self.jobs = [
            (["curvature", "--graph", g, "--dimension", "inf", "--format", "csv",
              "--output", self.csv_out], 0, [self.csv_out]),
            (["curvature", "--graph", g, "--dimension", "2", "--output", self.json_out], 0,
             [self.json_out]),
        ]
        self.sample = np.sort(self.rng.choice(self.NV, self.SAMPLE, replace=False))

    def check(self):
        nv = self.NV
        with open(self.csv_out, newline="") as fh:
            rows = list(csv.reader(fh))
        require(rows[0] == ["vertex", "kappa"], "bad curvature CSV header")
        labels = sorted(f"v{i}" for i in range(nv))
        require([r[0] for r in rows[1:]] == labels, "CSV rows are not one per vertex, sorted")
        k_inf = np.zeros(nv)
        for label, val in rows[1:]:
            k_inf[vertex_id(label)] = float(val)
        report = load_json(self.json_out)
        require(report["dimension"] == 2.0 and report["graph_name"] == "g", "bad JSON header")
        require([r["vertex_label"] for r in report["rows"]] == labels, "JSON rows out of order")
        k_2 = np.zeros(nv)
        for r in report["rows"]:
            require(finite(r["kappa"]), "non-finite kappa")
            k_2[vertex_id(r["vertex_label"])] = r["kappa"]
        require(np.isfinite(k_inf).all(), "non-finite kappa in the CSV")
        require(report["min_kappa"] == k_2.min(), "min_kappa is not the minimum row")
        require(np.all(k_2 <= k_inf + 1e-9 * (1.0 + np.abs(k_inf))),
                "kappa(x;2) > kappa(x;inf) at some vertex")

        refs = [ref.curvature(self.G, int(x), (math.inf, 2.0)) for x in self.sample]
        worst = 16.0
        for n, got in ((math.inf, k_inf), (2.0, k_2)):
            want = np.array([r[n][0] for r in refs])
            d = ref.digits(got[self.sample], want, float(np.abs(want).max()))
            require(d >= CHECK_DIGITS, f"kappa(.;{n}) agrees to {d:.1f} digits only")
            worst = min(worst, d)
        self.make_up.update(min_kappa_inf=float(k_inf.min()), min_kappa_2=float(k_2.min()),
                            reference_sample=self.SAMPLE)
        return worst


# ---------------------------------------------------------------------------
# verify-gradient
# ---------------------------------------------------------------------------

class VerifyGradient(Workload):
    name = "verify-gradient"
    NV, MAX_DEGREE, MEAN_DEGREE = 160, 9, 7.0
    TIMES = (0.05, 0.1)
    PROBE_T, PROBE_DELTA = 1e-4, 1.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        G = self.G = random_graph(self.rng, self.NV, self.MAX_DEGREE, self.MEAN_DEGREE)
        g = self.write_graph(G)
        # the reference curvature fixes the probe's K before any pass runs
        self.kappa = [ref.curvature(G, x, (math.inf,))[math.inf] for x in range(G.nv)]
        kmin = min(k for k, _ in self.kappa)
        self.x_min = int(np.argmin([k for k, _ in self.kappa]))
        self.probe_K = repr(kmin + self.PROBE_DELTA)
        self.report_out, self.csv_out = self.path("gradient.json"), self.path("gradient.csv")
        self.probe_out = self.path("probe.json")
        times = ",".join(repr(t) for t in self.TIMES)
        self.jobs = [
            (["verify", "--graph", g, "--inequality", "gradient", "--K", "auto",
              "--times", times, "--output", self.report_out, "--csv", self.csv_out], 0,
             [self.report_out, self.csv_out]),
            (["verify", "--graph", g, "--inequality", "gradient", "--K", self.probe_K,
              "--times", repr(self.PROBE_T), "--functions", "witnesses",
              "--output", self.probe_out], 3, [self.probe_out]),
        ]

    def _reference(self, report, times, functions):
        G, K = self.G, report["K"]
        F = np.column_stack([f for _, f in functions])
        # the Gamma scale of each function; a vector whose reference is
        # zero to roundoff (the constant) is measured against 1e-12 of it
        deg_over_m = np.asarray(G.adjacency.sum(axis=1)).ravel() / G.m
        floor = 1e-12 * deg_over_m.max() * np.abs(F).max(axis=0) ** 2
        refs = {"lhs": [], "rhs": [], "slack": []}
        scale = []
        for t in times:
            lhs, rhs = ref.gradient_sides(G, ref.heat_dense(G, t), F, K, t)
            refs["lhs"].append(lhs)
            refs["rhs"].append(rhs)
            refs["slack"].append(rhs - lhs)
            scale.append(np.maximum(np.maximum(np.abs(lhs).max(0), np.abs(rhs).max(0)), floor))
        return refs, np.array(scale)

    def _corpus(self):
        nv = self.NV
        funcs = [("const", np.ones(nv))]
        funcs += [(f"indicator:v{x}", np.eye(1, nv, x).ravel()) for x in range(nv)]
        funcs += [(f"witness:v{x}", w) for x, (_, w) in enumerate(self.kappa)]
        rng = np.random.default_rng(0)
        funcs += [(f"random:0:{i}", rng.standard_normal(nv)) for i in range(50)]
        return funcs

    def check(self):
        nv = self.NV
        kmin = min(k for k, _ in self.kappa)
        report = load_json(self.report_out)
        require(len(report["records"]) == (2 * nv + 51) * len(self.TIMES) * nv,
                "record count is not (2 nv + 51) |times| nv")
        d_K = ref.digits(report["K"], kmin, abs(kmin))
        require(d_K >= CHECK_DIGITS, f"K auto agrees with the minimum kappa to {d_K:.1f} digits")
        corpus = self._corpus()
        ti, vi, fi, vals = _verify_records(report, list(self.TIMES), [f for f, _ in corpus])
        require(vals["slack"].min() >= -PLAIN_TOLERANCE, "a slack is negative at K auto")
        refs, scale = self._reference(report, self.TIMES, corpus)
        worst = min(d_K, _compare(ti, vi, fi, vals, refs, scale))
        require(worst >= CHECK_DIGITS, f"records agree to {worst:.1f} digits only")
        _check_csv(self.csv_out, report)

        probe = load_json(self.probe_out)
        require(ref.digits(probe["K"], float(self.probe_K), abs(float(self.probe_K))) >= 11.0,
                "probe K differs")
        witnesses = corpus[1 + nv: 1 + 2 * nv]
        ti, vi, fi, vals = _verify_records(probe, [self.PROBE_T], [f for f, _ in witnesses])
        prefs, pscale = self._reference(probe, [self.PROBE_T], witnesses)
        worst = min(worst, _compare(ti, vi, fi, vals, prefs, pscale))
        at = (fi == self.x_min) & (vi == self.x_min)
        require(vals["slack"][at][0] < -PLAIN_TOLERANCE
                and prefs["slack"][0][self.x_min, self.x_min] < -PLAIN_TOLERANCE,
                "the sharpness probe is not violated at the minimizing witness")
        require(worst >= CHECK_DIGITS, f"records agree to {worst:.1f} digits only")
        self.make_up.update(min_kappa_inf=kmin, times=list(self.TIMES),
                            probe=f"K = min kappa + {self.PROBE_DELTA}, t = {self.PROBE_T}",
                            records=len(report["records"]))
        return worst


# ---------------------------------------------------------------------------
# verify-quadrature
# ---------------------------------------------------------------------------

class VerifyQuadrature(Workload):
    name = "verify-quadrature"
    NV, MAX_DEGREE, MEAN_DEGREE = 1000, 7, 5.0
    T, K_IDENTITY, FUNCTIONS, N = 0.05, -1.0, 4, 2.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.G = random_graph(self.rng, self.NV, self.MAX_DEGREE, self.MEAN_DEGREE)
        g = self.write_graph(self.G)
        self.fseed = int(self.rng.integers(0, 2**31))
        spec = f"random:{self.fseed}:{self.FUNCTIONS}"
        self.identity_out, self.cdn_out = self.path("gamma2.json"), self.path("cdn.json")
        common = ["--times", repr(self.T), "--functions", spec]
        self.jobs = [
            (["verify", "--graph", g, "--inequality", "gamma2-identity",
              "--K", repr(self.K_IDENTITY), *common, "--output", self.identity_out], 0,
             [self.identity_out]),
            (["verify", "--graph", g, "--inequality", "cdn", "--n", "2", "--K", "auto",
              *common, "--output", self.cdn_out], 0, [self.cdn_out]),
        ]

    def check(self):
        G, t, nv = self.G, self.T, self.NV
        rng = np.random.default_rng(self.fseed)
        ids = [f"random:{self.fseed}:{i}" for i in range(self.FUNCTIONS)]
        F = np.column_stack([rng.standard_normal(nv) for _ in ids])
        P_F = ref.heat_apply(G, t, F)
        P_gamma = ref.heat_apply(G, t, ref.gamma(G, F))
        gamma_P = ref.gamma(G, P_F)
        worst = 16.0

        identity = load_json(self.identity_out)
        require(len(identity["records"]) == self.FUNCTIONS * nv, "identity record count")
        K = identity["K"]
        require(K == self.K_IDENTITY, "identity K differs")
        ti, vi, fi, vals = _verify_records(identity, [t], ids)
        first = math.exp(-2.0 * K * t) * P_gamma
        lhs = first - gamma_P
        scale = np.maximum(np.abs(first).max(0), np.abs(gamma_P).max(0))[None, :]
        worst = min(worst, _compare(ti, vi, fi, vals, {"lhs": [lhs]}, scale))
        tol = max(1e-8, 2.0 * identity["quadrature_error"])
        require(np.abs(vals["slack"]).max() <= tol, "identity residual above the report's tolerance")
        require(np.abs(vals["rhs"] - lhs[vi, fi]).max() <= tol + 1e-12 * scale.max(),
                "identity integral differs from the reference lhs beyond the report's tolerance")

        cdn = load_json(self.cdn_out)
        require(len(cdn["records"]) == self.FUNCTIONS * nv, "cdn record count")
        kappa2 = np.array([ref.curvature(G, x, (self.N,))[self.N][0] for x in range(nv)])
        K = cdn["K"]
        d_K = ref.digits(K, kappa2.min(), abs(kappa2.min()))
        require(d_K >= CHECK_DIGITS, f"cdn K auto agrees with min kappa(x;2) to {d_K:.1f} digits")
        ti, vi, fi, vals = _verify_records(cdn, [t], ids)
        first = math.exp(-2.0 * K * t) * P_gamma
        integral = (2.0 / self.N) * ref.cdn_integral(G, F, K, t)
        refs = {"lhs": [gamma_P], "rhs": [first - integral], "slack": [first - integral - gamma_P]}
        scale = np.maximum(np.maximum(np.abs(first).max(0), np.abs(gamma_P).max(0)),
                           np.abs(integral).max(0))[None, :]
        worst = min(worst, d_K, _compare(ti, vi, fi, vals, refs, scale))
        require(vals["slack"].min() >= -max(1e-8, 2.0 * cdn["quadrature_error"]),
                "a cdn slack is negative at K auto")
        require(worst >= CHECK_DIGITS, f"records agree to {worst:.1f} digits only")
        self.make_up.update(min_kappa_2=float(kappa2.min()), t=t, K_identity=self.K_IDENTITY,
                            functions=self.FUNCTIONS, panels=256)
        return worst


WORKLOADS = {w.name: w for w in (CurvatureSparse, VerifyGradient, VerifyQuadrature)}
