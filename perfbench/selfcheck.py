"""Show that the output checks catch a wrong number.

    python3 perfbench/selfcheck.py [--seed 1]

For each workload: one pass of its CLI jobs, the check must pass; then
one kappa or one slack in a report is moved by a relative 1e-6 and the
check must fail.  Exits 0 when every corruption was caught.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

from run import SRC, WORK  # noqa: E402
from workloads import WORKLOADS, CheckError  # noqa: E402


def nudge(x):
    return x * (1.0 + 1e-6) if x else 1e-6


def corrupt_csv_kappa(path, label):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        if row[0] == label:
            row[1] = repr(nudge(float(row[1])))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def corrupt_json(path, edit):
    with open(path) as fh:
        report = json.load(fh)
    edit(report)
    with open(path, "w") as fh:
        json.dump(report, fh)


def corrupt_record(field):
    """Nudge `field` of the record where it is largest in magnitude."""
    def edit(report):
        r = max(report["records"], key=lambda r: abs(r[field]))
        r[field] = nudge(r[field])
    return edit


def corrupt_kappa(index):
    def edit(report):
        r = report["rows"][index]
        r["kappa"] = nudge(r["kappa"])
    return edit


def corruptions(w):
    """(description, action) pairs for workload w; each must fail its check."""
    if w.name == "curvature-sparse":
        x = int(w.sample[0])
        row = sorted(f"v{i}" for i in range(w.NV)).index(f"v{x}")
        return [(f"kappa(v{x}; inf) in the CSV", lambda: corrupt_csv_kappa(w.csv_out, f"v{x}")),
                (f"kappa(v{x}; 2) in the JSON", lambda: corrupt_json(w.json_out, corrupt_kappa(row)))]
    if w.name == "verify-gradient":
        return [("a slack of the gradient report",
                 lambda: corrupt_json(w.report_out, corrupt_record("slack"))),
                ("a slack of the sharpness probe",
                 lambda: corrupt_json(w.probe_out, corrupt_record("slack")))]
    # the identity's slack is a residual near roundoff, so its lhs is moved
    return [("an lhs of the gamma2-identity report",
             lambda: corrupt_json(w.identity_out, corrupt_record("lhs"))),
            ("a slack of the cdn report", lambda: corrupt_json(w.cdn_out, corrupt_record("slack")))]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    import graphcd.cli as cli

    missed = 0
    for name, cls in WORKLOADS.items():
        workdir = os.path.join(WORK, "selfcheck-" + name)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        w = cls(args.seed, workdir)
        with contextlib.redirect_stderr(io.StringIO()):
            for argv, _, _ in w.jobs:
                cli.main(list(argv))
        saved = {p: open(p, "rb").read() for _, _, outs in w.jobs for p in outs}
        print(f"{name}: clean reports agree to {w.check():.2f} digits")
        for what, corrupt in corruptions(w):
            corrupt()
            try:
                w.check()
                print(f"{name}: MISSED corrupted {what}")
                missed += 1
            except CheckError as exc:
                print(f"{name}: caught corrupted {what}: {exc}")
            for p, data in saved.items():
                with open(p, "wb") as fh:
                    fh.write(data)
        shutil.rmtree(workdir)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
