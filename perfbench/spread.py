"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace-seed 1]
                                [--baseline perfbench/baseline.json]

For every workload this runs ``perfbench/run.py`` once per seed with the
``run_seconds`` of ``BENCHMARK.json`` and prints, per end-to-end metric,
the median, the quartiles of the per-seed values (``statistics.quantiles``
with n=4) and their distance as a share of the median, next to the
metric's bound.  With ``--trace-seed`` it also makes one traced run per
workload.  With ``--baseline`` it writes all of that to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, ".runs", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        result["context"] = json.load(fh)["context"]
    return result


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--baseline", default=None)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    report: dict = {"run_seconds": spec["run_seconds"], "seeds": _seeds(args.seeds), "workloads": {}}
    ok = True
    for name in names:
        runs = [bench(spec, name, seed, 0) for seed in report["seeds"]]
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "context": runs[0]["context"], "end_to_end": {}}
        ok = ok and entry["correct"]
        print(f"{name}: correct={entry['correct']}  error_rate "
              f"{entry['failed'] / entry['attempted']:.6g} ({entry['failed']} of {entry['attempted']})")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": m["bound"], "values": values,
            }
            flag = "" if spread <= m["bound"] / 3 else "  <-- above bound/3"
            print(f"  {m['name']:<12} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {spread:.4f}  bound {m['bound']}{flag}")
        if args.trace_seed is not None:
            traced = bench(spec, name, args.trace_seed, 1)
            entry["traced"] = {"seed": args.trace_seed, "correct": traced["correct"],
                               "metrics": traced["metrics"]}
            print(f"  traced seed {args.trace_seed}: trace.overhead_frac "
                  f"{traced['metrics']['trace.overhead_frac']['value']:.4f}")
        report["workloads"][name] = entry
        sys.stdout.flush()
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
