"""srrw-lab benchmark: one workload, closed loop, one fresh process per pass.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cycle-scan --seed 1 --seconds 30 --trace 0

``run.py`` generates the workload's configs from ``--seed``, validates them
with ``validate_config`` and then, until ``--seconds`` have passed, runs
them one after another through ``runner.run`` in a fresh child process per
pass (``perfbench/child.py``), with BLAS/OpenMP pinned to one thread so
the only parallelism is the config's ``threads``.  Every row of output is
checked against ``perfbench/reference``.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:
times and throughput as Hodges-Lehmann estimates over passes, set-up time
and memory as medians (``end_to_end`` says why). ``--trace 1`` alternates
untraced and traced passes and reports the medians of the per-layer
metrics of the traced ones, plus the tracing overhead against the untraced
ones; it also checks that both kinds of pass write identical artifacts.
The last line of stdout is one JSON object; the lines before it print
every metric with its unit, ``error_rate`` and the run context. A record
with the context, every pass and the traced spans is written to
``perfbench/.runs``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
RUNS = os.path.join(HERE, ".runs")
STARTED = time.monotonic()
RUN_LIMIT_S = 170  # a run must end within 180 s, a hung pass included
PINNED = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_hash() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def run_context(seed: int, docs: list[dict]) -> dict:
    import numpy
    import scipy
    from srrw_lab import forest

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "rng_block": forest.RNG_BLOCK,
        "git_commit": _git_commit(),
        "src_sha256": _src_hash(),
        "seed": seed,
        "config_sha256": [workloads.config_hash(doc) for doc in docs],
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env.pop("SRRW_LAB_THREADS", None)
    return env


def run_pass(job_dir: str, config_paths: list[str], traced: bool, timeout: float = 150.0) -> dict:
    """Run one pass in a fresh process, killed after ``timeout`` seconds;
    returns its timings and the child's result."""
    job = os.path.join(job_dir, "job.json")
    result_path = os.path.join(job_dir, "result.json")
    with open(job, "w") as fh:
        json.dump({"configs": config_paths, "trace": traced, "result": result_path}, fh)
    log_path = os.path.join(job_dir, "child.log")
    with open(log_path, "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, job], env=_child_env(), stdout=log, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    if proc.returncode == 0 and os.path.exists(result_path):
        with open(result_path) as fh:
            result = json.load(fh)
    if result is None:
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        return {"traced": traced, "ok": False, "log": tail}
    return {
        "traced": traced,
        "ok": True,
        "setup_s": result["t_first_run"] - t_spawn,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "result": result,
    }


def _artifacts(docs: list[dict]) -> dict:
    """Artifact bytes of one pass; summary.json without its timing field and
    with output paths reduced to file names."""
    out = {}
    for i, doc in enumerate(docs):
        for name in sorted(os.listdir(doc["output_dir"])):
            with open(os.path.join(doc["output_dir"], name), "rb") as fh:
                data = fh.read()
            if name == "summary.json":
                summary = json.loads(data)
                summary.pop("wall_clock_s", None)
                summary["outputs"] = [os.path.basename(p) for p in summary["outputs"]]
                data = json.dumps(summary, sort_keys=True).encode()
            out[f"{i}/{name}"] = data
    return out


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def measure(name: str, seed: int, seconds: float, traced: bool, work: str) -> dict:
    from srrw_lab.config import validate_config

    import check

    out_root = os.path.join(work, "out")
    docs = workloads.configs(name, seed, out_root)
    attempted = failed = 0
    failures: list[str] = []
    runnable, config_paths = [], []
    for i, doc in enumerate(docs):
        problems = validate_config(doc)
        if problems:
            attempted += workloads.expected_ops(doc)
            failed += workloads.expected_ops(doc)
            failures += [f"config {i} invalid: {p}" for p in problems]
            continue
        path = os.path.join(work, f"config{i}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        runnable.append(doc)
        config_paths.append(path)
    ref = check.load_reference(name)
    context = run_context(seed, docs)

    passes: list[dict] = []
    artifacts: dict[bool, dict] = {}
    start = time.monotonic()
    while config_paths:
        mode = traced and len(passes) % 2 == 1
        p = run_pass(work, config_paths, mode, STARTED + RUN_LIMIT_S - time.monotonic())
        for doc, run in zip(runnable, p["result"]["runs"] if p["ok"] else [None] * len(runnable)):
            ops = workloads.expected_ops(doc)
            attempted += ops
            if run is None or run["error"]:
                failed += ops
                failures.append(f"{doc['kind']}: " + (run["error"] if run else p["log"]))
                continue
            done, bad = check.check_outputs(doc, ref, p["result"]["prob_sum_errors"])
            p["work"] = p.get("work", 0) + done
            failed += min(len(bad), ops)
            failures += bad
        if p["ok"]:
            p["wall_s"] = sum(run["wall_s"] for run in p["result"]["runs"])
            if mode not in artifacts:
                artifacts[mode] = _artifacts(runnable)
        shutil.rmtree(out_root, ignore_errors=True)
        passes.append(p)
        modes_done = {q["traced"] for q in passes}
        now = time.monotonic()
        if now - start >= seconds and len(modes_done) == 1 + traced:
            break
        if now >= STARTED + RUN_LIMIT_S:
            failures.append("run stopped at its time limit")
            break
    if traced and len(artifacts) == 2 and artifacts[False] != artifacts[True]:
        failures.append("traced and untraced passes wrote different artifacts")
    return {
        "context": context,
        "passes": passes,
        "attempted": max(attempted, 1),
        "failed": failed,
        "failures": failures,
        "correct": failed == 0 and not failures,
    }


def _hodges_lehmann(values: list[float]) -> float:
    """Median of the means of all pairs of values, each value paired with itself too."""
    return statistics.median([(a + b) / 2 for i, a in enumerate(values) for b in values[i:]])


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """Per-pass values of each end-to-end metric, and the value reported.

    The host's speed switches between a fast and a slow level for tens of
    seconds to minutes at a time.  The median of the passes snaps to
    whichever level held for most of the run, so it jumps by the full gap
    from run to run, while the mean moves with the share of time spent at
    each level but follows every stalled pass.  Times are therefore
    reported as the Hodges-Lehmann estimate, which moves like the mean and
    ignores a few stalls like the median; throughput as the median work of
    a pass over that time; set-up time and memory as medians.
    """
    good = [p for p in passes if p["ok"] and not p["traced"]]
    per_pass = {
        "wall_s": [p["wall_s"] for p in good],
        "setup_s": [p["setup_s"] for p in good],
        "cpu_s": [p["cpu_s"] for p in good],
        "peak_rss_mb": [p["peak_rss_mb"] for p in good],
        "work_per_s": [p.get("work", 0) / p["wall_s"] for p in good],
    }
    reported = {name: statistics.median(v) for name, v in per_pass.items() if v}
    if good:
        reported["wall_s"] = _hodges_lehmann(per_pass["wall_s"])
        reported["cpu_s"] = _hodges_lehmann(per_pass["cpu_s"])
        work = statistics.median(p.get("work", 0) for p in good)
        reported["work_per_s"] = work / reported["wall_s"]
    return per_pass, reported


def per_layer(passes: list[dict]) -> tuple[dict, dict]:
    """Per-pass values of each per-layer metric, and their medians."""
    traced = [p for p in passes if p["ok"] and p["traced"]]
    names = traced[0]["result"]["layers"] if traced else {}
    per_pass = {k: [p["result"]["layers"][k] for p in traced] for k in names}
    plain = [p["wall_s"] for p in passes if p["ok"] and not p["traced"]]
    if traced and plain:
        per_pass["trace.overhead_frac"] = [
            p["wall_s"] / statistics.median(plain) - 1.0 for p in traced
        ]
    return per_pass, {name: statistics.median(v) for name, v in per_pass.items() if v}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(SRC, "srrw_lab")) or not os.path.exists(spec_path):
        print(f"no srrw_lab sources under {SRC}: nothing to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(RUNS, f"{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    per_pass, reported = (per_layer if args.trace else end_to_end)(res["passes"])
    metrics, summary = {}, {}
    for m in wanted:
        values = per_pass.get(m["name"])
        if not values:
            print(f"metric {m['name']} was not measured", file=sys.stderr)
            return 1
        q1, med, q3 = _quartiles(values)
        value = reported[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        summary[m["name"]] = {
            "value": value, "median": med, "q1": q1, "q3": q3, "n": len(values), "unit": m["unit"]
        }

    for key, val in res["context"].items():
        print(f"context {key} = {val}")
    for name, s in summary.items():
        print(
            f"{name} = {s['value']:.6g} {s['unit']} "
            f"({s['n']} passes: median {s['median']:.6g}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g})"
        )
    print(f"error_rate = {res['failed'] / res['attempted']:.6g} ({res['failed']} of {res['attempted']} operations failed)")
    for msg in res["failures"][:5]:
        print(f"FAILED {msg.strip().splitlines()[-1]}")

    os.makedirs(RUNS, exist_ok=True)
    record = {k: res[k] for k in ("context", "attempted", "failed", "failures", "correct")}
    record.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
    record["summary"] = summary
    record["passes"] = res["passes"]
    with open(os.path.join(RUNS, f"{tag}.json"), "w") as fh:
        json.dump(record, fh)

    print(
        json.dumps(
            {
                "correct": res["correct"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
