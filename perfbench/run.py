"""Benchmark of the graphcd CLI: end-to-end metrics, or per-layer ones traced.

    python3 perfbench/run.py --workload curvature-sparse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root; the package is imported from ./src.  One
run generates the workload's inputs from the seed, calls
`graphcd.cli.main(argv)` in-process for one discarded warm-up pass and
then for repeated passes until --seconds have been measured, and checks
the reports against `reference.py`.  Each job is timed between two runs
of a fixed calibration workload, so that `pass_s` follows the program
and not the shared machine's changing speed (see README.md).  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.  An operation is
one CLI job of one pass together with its check: the right exit code,
and reports byte-identical to the warm-up pass, whose reports are
checked against the reference.
"""

import os

# one BLAS thread before numpy loads: the machine has 2 cores, and
# threaded BLAS only adds scheduling noise at these sizes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 7     # fresh interpreters per run for setup_s
MIN_PASSES = 3        # measured passes per run, whatever --seconds says
CALIBRATION_S = 0.075   # nominal time of one calibration: the unit of pass_s

_IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import graphcd.cli; "
    "print(repr(time.perf_counter() - t0))"
)


def setup_seconds(calibrate):
    """Median time of `import graphcd.cli` in fresh interpreters, each
    calibrated like a job (see run_pass)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        after = calibrate()
        seconds = float(out.stdout.strip().splitlines()[-1])
        samples.append(seconds * CALIBRATION_S / (0.5 * (before + after)))
        before = after
    return statistics.median(samples)


def digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def make_calibration():
    """A fixed piece of work, independent of graphcd, whose wall time
    tracks how fast the machine runs at the moment.  It mixes the kinds of
    work the workloads do: reference curvature at 50 vertices (Python
    loops, small dense solves), a dense symmetric eigensolve and product,
    and float formatting."""
    import math

    import numpy as np

    import reference
    from workloads import random_graph

    rng = np.random.default_rng(12345)
    G = random_graph(rng, 120, 7, 5.0)
    A = rng.standard_normal((300, 300))
    A = A + A.T
    values = rng.standard_normal(20000).tolist()

    def calibrate():
        t0 = time.perf_counter()
        for x in range(50):
            reference.curvature(G, x, (math.inf,))
        _, U = np.linalg.eigh(A)
        U @ A @ U.T
        ",".join(f"{v:.12e}" for v in values)
        return time.perf_counter() - t0

    return calibrate


def run_pass(cli, workload, baseline, calibrate):
    """All jobs once, each between two calibrations.

    Returns (wall seconds in the CLI, the same in calibrated seconds,
    digests, failed jobs).  A job's calibrated time is its wall time
    times CALIBRATION_S over the mean of the calibrations around it.
    """
    wall, calibrated, digests, failed = 0.0, 0.0, [], 0
    before = calibrate()
    with contextlib.redirect_stderr(io.StringIO()):
        for argv, expected, outputs in workload.jobs:
            t0 = time.perf_counter()
            code = cli.main(list(argv))
            dt = time.perf_counter() - t0
            after = calibrate()
            wall += dt
            calibrated += dt * CALIBRATION_S / (0.5 * (before + after))
            before = after
            d = digest(outputs) if code == expected else None
            digests.append(d)
            if d is None or (baseline is not None and d != baseline[len(digests) - 1]):
                failed += 1
    return wall, calibrated, digests, failed


def layer_metrics(tracer, pass_s, report_bytes):
    st = tracer.self_times()

    def self_s(*names):
        return sum(st[n][0] for n in names if n in st)

    def calls(name):
        return st[name][1] if name in st else 0

    c = tracer.counts
    return {
        "graph.load_graph_s": self_s("graph.load_graph"),
        "graph.ball2_s": self_s("graph.ball2"),
        "graph.ball2_calls": calls("graph.ball2"),
        "operators.local_forms_s": self_s("operators.local_forms"),
        "operators.local_forms_calls": calls("operators.local_forms"),
        "operators.kernel_s": self_s("operators.kernel"),
        "operators.kernel_calls": calls("operators.kernel"),
        "operators.kernel_columns": c["operators.kernel_columns"],
        "curvature.pencil_s": self_s("curvature.pencil"),
        "curvature.other_s": self_s("curvature.curvature_all", "curvature.min_curvature"),
        "curvature.curvature_all_calls": calls("curvature.curvature_all"),
        "semigroup.decompose_s": self_s("semigroup.decompose"),
        "semigroup.heat_s": self_s("semigroup.heat"),
        "semigroup.heat_calls": calls("semigroup.heat"),
        "semigroup.heat_columns": c["semigroup.heat_columns"],
        "verify.corpus_s": self_s("verify.corpus"),
        "verify.eval_s": self_s("verify.eval"),
        "verify.sweep_self_s": self_s("verify.sweep"),
        "verify.records": c["verify.records"],
        "verify.quad_nodes": c["verify.quad_nodes"],
        "cli.report_s": self_s("cli.report"),
        "cli.self_s": self_s("cli.main"),
        "cli.report_bytes": report_bytes,
        "trace.pass_s": pass_s,
        "trace.unattributed_s": pass_s - sum(v[0] for v in st.values()),
        "trace.spans": len(tracer.spans),
    }


def unit_of(name):
    return "s" if name.endswith("_s") else "bytes" if name.endswith("_bytes") else "count"


def run_workload(args):
    from workloads import WORKLOADS, CheckError

    calibrate = make_calibration()
    setup_s = setup_seconds(calibrate) if not args.trace else None

    sys.path.insert(0, SRC)
    import graphcd.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"graphcd imported from {cli.__file__}, not from {SRC}")

    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)

    attempted = len(workload.jobs)
    _, _, baseline, failed = run_pass(cli, workload, None, calibrate)   # warm-up
    report_bytes = sum(os.path.getsize(p) for _, _, outs in workload.jobs for p in outs
                       if os.path.exists(p))

    pass_wall, pass_cal, layers, overheads = [], [], [], []
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end or len(pass_cal) < MIN_PASSES:
        s, s_cal, _, f = run_pass(cli, workload, baseline, calibrate)
        pass_wall.append(s)
        pass_cal.append(s_cal)
        attempted += len(workload.jobs)
        failed += f
        if tracer is not None:
            # traced passes alternate with untraced ones, so that the
            # overhead compares neighbouring passes
            tracer.reset()
            tracer.install()
            try:
                s_traced, _, _, f = run_pass(cli, workload, baseline, calibrate)
            finally:
                tracer.uninstall()
            attempted += len(workload.jobs)
            failed += f
            layers.append(layer_metrics(tracer, s_traced, report_bytes))
            overheads.append(s_traced - s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(os.path.join(workdir, "trace.csv"))

    correct = failed == 0 and all(d is not None for d in baseline)
    ref_digits = 0.0
    if all(d is not None for d in baseline):
        try:
            ref_digits = workload.check()
        except CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (statistics.median(pass_cal), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ref_digits": (ref_digits, "digits"),
        }
    else:
        metrics = {name: (statistics.median(m[name] for m in layers), unit_of(name))
                   for name in layers[0]}
        metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    sys.stderr.write(json.dumps({"workload": args.workload, "pass_wall_s": pass_wall,
                                 "pass_s": pass_cal,
                                 "make_up": workload.make_up}) + "\n")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Each workload in its own interpreter, one result line each, then a total."""
    from workloads import WORKLOADS
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {out.returncode}")
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="curvature-sparse | verify-gradient | verify-quadrature | all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "graphcd", "__init__.py")):
        print(f"error: no graphcd package under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
