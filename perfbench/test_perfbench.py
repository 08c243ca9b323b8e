"""Self-checks of the benchmark: ``python3 -m pytest perfbench -q``.

They hold the benchmark to what it promises: tracing changes no artifact,
Monte Carlo artifacts do not depend on the thread count, layer times add
up to the traced wall time, and every metric ``BENCHMARK.json`` names is
produced.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)

from srrw_lab import config, runner  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _write_configs(docs, where) -> list[str]:
    paths = []
    for i, doc in enumerate(docs):
        paths.append(os.path.join(where, f"config{i}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(doc, fh)
    return paths


@pytest.mark.parametrize("name", sorted(workloads.REDUCED))
def test_traced_and_untraced_passes_write_identical_artifacts(name, tmp_path):
    docs = workloads.configs(name, 7, str(tmp_path / "out"), workloads.REDUCED[name])
    paths = _write_configs(docs, tmp_path)
    seen = {}
    for traced in (False, True):
        p = run.run_pass(str(tmp_path), paths, traced)
        assert p["ok"], p.get("log")
        assert all(r["error"] is None for r in p["result"]["runs"])
        seen[traced] = run._artifacts(docs)
    assert seen[False] == seen[True]


@pytest.mark.parametrize("name", sorted(workloads.REDUCED))
def test_monte_carlo_artifacts_do_not_depend_on_threads(name, tmp_path):
    seen = {}
    for threads in (1, 2):
        docs = workloads.configs(name, 7, str(tmp_path / f"t{threads}"), workloads.REDUCED[name])
        for doc in docs:
            doc["threads"] = threads
            runner.run(config.parse_config(doc))
        arts = run._artifacts(docs)
        for key in [k for k in arts if k.endswith("summary.json")]:
            summary = json.loads(arts[key])
            assert summary.pop("threads") == threads
            arts[key] = json.dumps(summary, sort_keys=True).encode()
        seen[threads] = arts
    assert seen[1] == seen[2]


def test_wall_shares_split_parallel_time_and_add_up_to_the_root():
    spans = [
        [0, "runner.run", 0.0, 10.0, None, 1],
        [1, "metrics.estimator", 1.0, 9.0, 0, 1],
        [2, "forest.evolve", 2.0, 6.0, 1, 2],  # two workers overlap on [3, 6]
        [3, "forest.evolve", 3.0, 8.0, 1, 3],
        [4, "streams.rng", 4.0, 5.0, 2, 2],
    ]
    share = tracing.wall_shares(spans)
    assert sum(share) == pytest.approx(10.0)
    assert share[0] == pytest.approx(2.0)  # [0, 1] and [9, 10]
    assert share[1] == pytest.approx(2.0)  # [1, 2] and [8, 9]: waiting on workers is not its time
    assert share[4] == pytest.approx(0.5)  # [4, 5] shared with the other worker
    assert share[2] == pytest.approx(1.0 + 0.5 + 0.5)  # [2, 3] alone, [3, 4] and [5, 6] halved
    assert share[3] == pytest.approx(0.5 + 0.5 + 0.5 + 2.0)


def test_layer_times_account_for_traced_wall_and_every_metric_is_named(tmp_path):
    docs = workloads.configs(
        "hypercube-cutoff", 3, str(tmp_path), workloads.REDUCED["hypercube-cutoff"]
    )
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        for doc in docs:
            with tracer.span("runner.run"):
                runner.run(config.parse_config(copy.deepcopy(doc)))
    finally:
        restore()
    layers = tracing.layer_metrics(tracer)
    times = sum(layers[m] for m in tracing.LAYER_TIME.values())
    assert times == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert layers["forest.replica_steps"] > 0 and layers["metrics.curves_built"] >= 4
    assert 0.0 < layers["metrics.useful_step_frac"] < 1.0
    named = {m["name"] for m in _spec()["per_layer"]}
    assert named == set(layers) | {"trace.overhead_frac"}


def test_benchmark_json_names_known_workloads_and_bounds_setup_loosest():
    spec = _spec()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_end_to_end_times_follow_both_speed_levels_and_ignore_a_stalled_pass():
    walls = [1.0] * 6 + [1.5] * 5 + [9.0]
    passes = [
        {"ok": True, "traced": False, "wall_s": w, "setup_s": 0.5, "cpu_s": w,
         "peak_rss_mb": 100.0, "work": 30}
        for w in walls
    ]
    per_pass, reported = run.end_to_end(passes)
    assert per_pass["wall_s"] == walls
    assert 1.0 < reported["wall_s"] < 1.5 and reported["cpu_s"] == reported["wall_s"]
    assert reported["work_per_s"] == pytest.approx(30 / reported["wall_s"])
    assert reported["setup_s"] == 0.5 and reported["peak_rss_mb"] == 100.0
