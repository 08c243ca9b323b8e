"""Regenerate ``perfbench/reference/<workload>.json`` from the current program.

Usage (from the repository root)::

    python3 perfbench/make_reference.py [WORKLOAD ...]

References come from a seed no benchmark run uses.  For mixing-time scans
the reference is each (alpha, size) curve evolved to four times the
longest horizon the reference run reached, so that benchmark seeds whose
horizon guard doubles once or twice more still fall inside it.  For TV
curves it is the curve itself; for exact kinds it is the exact rows.
Regenerate only when the program's outputs are meant to change, and say
so where the change is recorded.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as in benchmark passes; set before numpy loads
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from check import REF_DIR  # noqa: E402
from srrw_lab import config, metrics, runner  # noqa: E402

ESTIMATORS = {
    "rao_blackwell_cycle_curve": metrics.rao_blackwell_cycle_curve,
    "hypercube_tv_curve": metrics.hypercube_tv_curve,
}


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _curve_dict(curve) -> dict:
    return {
        "alpha": curve.alpha,
        "replicas": curve.replicas,
        "seed": curve.seed,
        "ns": [int(n) for n in curve.ns],
        "values": [float(v) for v in curve.values],
        "stderrs": [float(s) for s in curve.stderrs],
    }


def reference(name: str, out_root: str) -> dict:
    docs = workloads.configs(name, "reference", out_root)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        for doc in docs:
            runner.run(config.parse_config(doc))
    finally:
        restore()
    ref: dict = {"workload": name, "config_sha256": [workloads.config_hash(d) for d in docs]}
    for doc in docs:
        kind, outdir = doc["kind"], doc["output_dir"]
        if kind in ("phase-transition", "cutoff"):
            longest: dict = {}
            for cv in tracer.curves:
                key = (cv["estimator"], cv["alpha"], cv["size"])
                longest[key] = max(longest.get(key, 0), cv["horizon"])
            ref["curves"] = []
            for (est, alpha, size), horizon in sorted(longest.items()):
                seed = workloads.config_seed(name, f"reference-{alpha}-{size}")
                grid = metrics.geometric_grid(4 * horizon, doc.get("points_per_decade", 40))
                curve = ESTIMATORS[est](size, alpha, grid, doc["replicas"], seed, threads=2)
                ref["curves"].append({"size": size, **_curve_dict(curve)})
        elif kind == "tv-curve":
            rows = _rows(os.path.join(outdir, "curves.csv"))
            ref["curves"] = [
                {
                    "alpha": alpha,
                    "replicas": doc["replicas"],
                    "ns": [int(r["n"]) for r in rows if float(r["alpha"]) == alpha],
                    "values": [float(r["value"]) for r in rows if float(r["alpha"]) == alpha],
                    "stderrs": [float(r["stderr"]) for r in rows if float(r["alpha"]) == alpha],
                }
                for alpha in doc["alphas"]
            ]
        elif kind == "oracle-check":
            ref["oracle_rows"] = [
                {"alpha": float(r["alpha"]), "n": int(r["n"]), "tv": float(r["tv"]),
                 "p_identity": float(r["p_identity"])}
                for r in _rows(os.path.join(outdir, "oracle_check.csv"))
            ]
        elif kind == "profiles":
            ref["profile_rows"] = [
                {"r": float(r["r"]), "phi": float(r["phi"]), "psi": float(r["psi"]),
                 "phi_witness_mask": r["phi_witness_mask"],
                 "psi_witness_mask": r["psi_witness_mask"]}
                for r in _rows(os.path.join(outdir, "profiles.csv"))
            ]
    return ref


def main(names) -> int:
    os.makedirs(REF_DIR, exist_ok=True)
    runs = os.path.join(HERE, ".runs")
    os.makedirs(runs, exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        with tempfile.TemporaryDirectory(dir=runs) as tmp:
            ref = reference(name, tmp)
        with open(os.path.join(REF_DIR, f"{name}.json"), "w") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
        print(f"wrote reference for {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
