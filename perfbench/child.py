"""One benchmark pass in a fresh process: load the configs, run them in order.

Usage: ``python3 perfbench/child.py JOB.json``, where the job names the
config files, the result file and whether to trace.  The result records
the monotonic time just before the first ``runner.run`` call (the parent
subtracts its spawn time to get ``setup_s``), each call's wall time and
error, and for a traced pass the spans and per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _check_prob_sums(oracle, errors: list):
    """Record |sum(probs) - 1| of every exact endpoint law the oracle returns."""
    orig = oracle.exact_endpoint_distribution

    @functools.wraps(orig)
    def checked(*args, **kwargs):
        dist = orig(*args, **kwargs)
        errors.append(abs(float(dist.probs.sum()) - 1.0))
        return dist

    oracle.exact_endpoint_distribution = checked


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    from srrw_lab import config, oracle, runner

    cfgs = [config.load_config(path) for path in job["configs"]]
    prob_errors: list[float] = []
    _check_prob_sums(oracle, prob_errors)
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    runs = []
    t_first = time.monotonic()
    for cfg in cfgs:
        t0 = time.perf_counter()
        error = None
        try:
            if tracer is None:
                runner.run(cfg)
            else:
                with tracer.span("runner.run"):
                    runner.run(cfg)
        except Exception:  # noqa: BLE001 - a failed run is a failed operation
            error = traceback.format_exc()
        runs.append({"wall_s": time.perf_counter() - t0, "error": error})

    result = {"t_first_run": t_first, "runs": runs, "prob_sum_errors": prob_errors}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = tracer.spans
    tmp = job["result"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, job["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
